"""Command-line entry point.

Subcommands: pretrain-lm, finetune-lm, train-ner, train-pos,
transfer-init, evaluate, analyze, convert-bio.  Exit codes: 0 success,
1 data/model error, 2 usage error.
"""

import argparse
import functools
import itertools
import math
import sys
from dataclasses import dataclass, fields
from pathlib import Path

from . import bilm as bilm_mod
from . import corpus as corpus_mod
from . import evaluation, tagger as tagger_mod, transfer as transfer_mod
from .checkpoint import Checkpoint
from .encoder import CharEncoderConfig
from .errors import ContractError, DataError, NumericError, TransferError


@dataclass
class RunConfig:
    seed: int = 0
    lr: float = 0.001
    batch_size: int = 32
    epochs: int = 10
    lm_epochs: int = 10
    finetune_epochs: int = 3
    patience: int = 0              # 0 = disabled
    dropout: float = 0.5
    anchor_l2: float = 0.001
    clip_norm: float = 5.0
    d_word: int = 50
    hidden: int = 200
    layers: int = 2
    d_char: int = 16
    d_out: int = 64
    lm_hidden: int = 128
    lm_layers: int = 1
    filter_widths: str = "1,2,3,4"
    filter_counts: str = "8,8,16,16"
    max_word_len: int = 16
    min_count: int = 1
    unk_rate: float = 0.1
    freeze_word_emb: int = 0

    def bilm_config(self):
        """The BiLM sizes, checked by the validator that checkpoints use."""
        encoder = dict(CharEncoderConfig().to_dict(), d_char=self.d_char,
                       filter_widths=_int_list(self.filter_widths),
                       filter_counts=_int_list(self.filter_counts),
                       d_out=self.d_out, max_word_len=self.max_word_len)
        return _checked(bilm_mod.BiLMConfig.from_dict, {
            "encoder": encoder, "lm_hidden": self.lm_hidden, "lm_layers": self.lm_layers})

    def tagger_config(self, head="crf", anchor=0.0):
        return _checked(tagger_mod.TaggerConfig.from_dict, dict(
            d_word=self.d_word, hidden=self.hidden, layers=self.layers,
            dropout=self.dropout, head=head,
            freeze_word_emb=bool(self.freeze_word_emb),
            unk_rate=self.unk_rate, anchor_coeff=anchor))


def _int_list(text):
    """Comma-separated integers; an item that is not one stays a string,
    for the size check to name."""
    items = []
    for item in text.split(","):
        try:
            items.append(int(item))
        except ValueError:
            items.append(item)
    return items


def _checked(build, *args):
    """build(*args), with the ValueError of a bad value as a DataError."""
    try:
        return build(*args)
    except ValueError as exc:
        raise DataError(f"bad config: {exc}") from None


def _assignments(path, expected):
    """(where, key, value) for each `key=value` line of a UTF-8 text file;
    blank lines and #-comments are skipped."""
    for lineno, raw in enumerate(corpus_mod.read_lines(path), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        where = f"{path}:{lineno}"
        if "=" not in line:
            raise DataError(f"{where}: expected {expected}")
        key, _, value = line.partition("=")
        yield where, key.strip(), value.strip()


# key -> (test, what it asks of a value), checked before any work
RANGES = {
    **dict.fromkeys(("seed", "patience"), (lambda v: v >= 0, ">= 0")),
    "freeze_word_emb": (lambda v: v in (0, 1), "0 or 1"),
    **dict.fromkeys(("epochs", "lm_epochs", "finetune_epochs", "batch_size",
                     "min_count"), (lambda v: v >= 1, ">= 1")),
    **dict.fromkeys(("lr", "clip_norm"),
                    (lambda v: math.isfinite(v) and v > 0, "finite and > 0")),
    "anchor_l2": (lambda v: math.isfinite(v) and v >= 0, "finite and >= 0"),
    **dict.fromkeys(("dropout", "unk_rate"), (lambda v: 0 <= v < 1, "in [0, 1)")),
}


def load_config(path=None, overrides=None):
    """Line-oriented key=value file, then CLI-flag overrides; a value
    outside its RANGES entry is a DataError naming where it was set."""
    cfg = RunConfig()
    types = {f.name: f.type for f in fields(RunConfig)}
    def apply(key, value, where):
        if key not in types:
            raise DataError(f"{where}: unknown config key {key!r}")
        try:
            value = types[key](value)
        except ValueError as exc:
            raise DataError(f"{where}: bad value for {key!r}: {exc}") from exc
        test, text = RANGES.get(key, (None, None))
        if test and not test(value):
            raise DataError(f"{where}: {key} is {value!r}, not {text}")
        setattr(cfg, key, value)
    for where, key, value in _assignments(path, "key=value") if path else ():
        apply(key, value, where)
    for key, value in (overrides or {}).items():
        if value is not None:
            apply(key, value, "command line")
    return cfg


def _check_out(path):
    """DataError unless `path` can name a new file: it is no directory, and
    its parent directory exists."""
    path = Path(path)
    if path.is_dir():
        raise DataError(f"{path}: --out is a directory")
    if not path.parent.is_dir():
        raise DataError(f"{path}: no directory {path.parent} to write into")


def _emit(line):
    print(line, flush=True)


def _load_policy(path, source_labels=None, target_labels=None):
    """`group=action` lines, one per parameter group; with both label
    sets, the policy maps the source's labels onto the target's."""
    actions = {}
    for where, key, value in _assignments(path, "group=action"):
        if key not in transfer_mod.GROUPS:
            raise DataError(f"{where}: unknown parameter group {key!r}; expected "
                            "one of " + ", ".join(transfer_mod.GROUPS))
        if value not in transfer_mod.ACTIONS:
            raise DataError(f"{where}: unknown action {value!r} for {key!r}; "
                            "expected one of " + ", ".join(transfer_mod.ACTIONS))
        actions[key] = value
    mapping = None
    if source_labels is not None and target_labels is not None:
        mapping = transfer_mod.map_label_space(source_labels, target_labels)
    policy = transfer_mod.TransferPolicy(actions, label_mapping=mapping)
    policy.source = str(path)
    return policy


def default_tagger_policy(source, source_head, source_labels, target_head,
                          target_word_vocab, target_labels):
    """Copy whatever is shape- and semantics-compatible, reinit the rest."""
    actions = {"trunk": "copy"}
    actions["word_embedding"] = ("copy" if source.word_vocab == target_word_vocab
                                 else "skip")
    mapping = None
    if source_head == target_head and source_labels.bio == target_labels.bio:
        actions["emission"] = "copy"
        actions["crf"] = "copy"
        mapping = transfer_mod.map_label_space(source_labels, target_labels)
    else:
        actions["emission"] = "reinitialize"
        actions["crf"] = "reinitialize"
    for group in ("char_encoder", "lm_lstm", "lm_head"):
        actions[group] = "reinitialize"
    return transfer_mod.TransferPolicy(actions, label_mapping=mapping)


def _transfer_tagger(args, cfg, src, head, word_vocab, labels):
    """Tagger architecture and tensors initialised from the tagger
    checkpoint `src` by --policy, or by the default policy without it.
    Returns (architecture, tensors, TransferReport)."""
    src_config, src_labels, _ = tagger_mod.read_tagger(src)
    arch = tagger_mod.tagger_architecture(cfg.tagger_config(head=head),
                                          len(word_vocab), len(labels), 0, labels)
    policy = (_load_policy(args.policy, src_labels, labels) if args.policy
              else default_tagger_policy(src, src_config.head, src_labels, head,
                                         word_vocab, labels))
    tensors, report = transfer_mod.transfer_init(src, arch, policy, cfg.seed)
    return arch, tensors, report


def _read_corpus(path):
    """The LM corpus at `path`; one without a token is a DataError naming it."""
    sentences = corpus_mod.read_sentences(path)
    if not sentences:
        raise DataError(f"{path}: empty corpus")
    return sentences


def _read_tagged(path, bio):
    """The CoNLL file at `path`, read before any training; one without a
    sentence, or with `bio` an illegal tag run, is a DataError naming the
    file (and the sentence)."""
    sentences = corpus_mod.read_conll(path)
    if not sentences:
        raise DataError(f"{path}: no sentences")
    if bio:
        try:
            corpus_mod.validate_bio(sentences)
        except DataError as exc:
            raise DataError(f"{path}: {exc}") from None
    return sentences


def _read_train(path, bio, min_count):
    """(sentences, LabelSet, word Vocabulary) of the --train file at `path`,
    read as `_read_tagged` reads --dev."""
    train = _read_tagged(path, bio)
    word_vocab = corpus_mod.build_vocab([s.tokens for s in train], min_count=min_count)
    return train, tagger_mod.LabelSet.from_sequences(train, bio=bio), word_vocab


# commands -----------------------------------------------------------


def cmd_pretrain_lm(args, cfg):
    corpora = [_read_corpus(p) for p in args.corpus]
    train = corpora[0]
    vocab = corpus_mod.build_vocab(train, min_count=cfg.min_count)
    char_vocab = transfer_mod.build_shared_char_vocab(corpora)
    ck = bilm_mod.train_lm(
        train, vocab, char_vocab, cfg.bilm_config(), cfg.lm_epochs,
        batch_size=cfg.batch_size, lr=cfg.lr, clip_norm=cfg.clip_norm,
        seed=cfg.seed, log_fn=_emit)
    ck.save(args.out)
    _emit(f"checkpoint {args.out}")
    return 0


def cmd_finetune_lm(args, cfg):
    src = Checkpoint.load(args.init)
    target = _read_corpus(args.corpus)
    target_vocab = corpus_mod.build_vocab(target, min_count=cfg.min_count)
    surgered = bilm_mod.replace_vocab_head(src, target_vocab, cfg.seed)
    ck = bilm_mod.train_lm(
        target, epochs=cfg.finetune_epochs, init=surgered,
        batch_size=cfg.batch_size, lr=cfg.lr, clip_norm=cfg.clip_norm,
        seed=cfg.seed, anchor_coeff=cfg.anchor_l2, log_fn=_emit)
    ck.save(args.out)
    _emit(f"checkpoint {args.out}")
    return 0


def cmd_train_tagger(args, cfg):
    if args.policy and not args.init:
        print(f"seqxfer {args.command}: error: argument --policy: needs a tagger "
              "--init to transfer from", file=sys.stderr)
        return 2
    head = args.head or ("crf" if args.command == "train-ner" else "softmax")
    bio = head == "crf"
    train, labels, word_vocab = _read_train(args.train, bio, cfg.min_count)
    dev, test = (_read_tagged(path, bio) if path else None
                 for path in (args.dev, args.test))
    provider = init_tensors = report = None
    anchor = 0.0
    if args.init:
        src = Checkpoint.load(args.init)
        if src.architecture["kind"] == "bilm":
            if args.policy:
                raise DataError(f"{args.init}: --policy needs a tagger --init, not a BiLM")
            provider = tagger_mod.ContextualProvider.from_checkpoint(src)
            anchor = cfg.anchor_l2
        else:
            _, init_tensors, report = _transfer_tagger(args, cfg, src, head,
                                                       word_vocab, labels)
    tcfg = cfg.tagger_config(head=head, anchor=anchor)
    vectors = None
    if args.vectors:
        vectors, coverage = corpus_mod.load_word_vectors(
            args.vectors, word_vocab, cfg.d_word, seed=cfg.seed)
        _emit(f"vector_coverage {coverage:.4f}")
    model, metrics = tagger_mod.train_tagger(
        train, labels, tcfg, epochs=cfg.epochs, lr=cfg.lr, batch_size=cfg.batch_size,
        dev=dev, patience=cfg.patience or None, seed=cfg.seed,
        init_tensors=init_tensors, provider=provider, word_vocab=word_vocab,
        word_vectors=vectors, clip_norm=cfg.clip_norm, log_fn=_emit)
    provenance = [{"event": "train", "command": args.command,
                   "seed": cfg.seed, "init": args.init or None}]
    ck = model.to_checkpoint(provenance=provenance, metrics=metrics)
    ck.save(args.out)
    _emit(f"checkpoint {args.out}")
    if report is not None:
        corpus_mod.write_atomic(f"{args.out}.report.txt", [report.to_text().encode("utf-8")])
    if test is not None:
        pred = tagger_mod.predict(test, model)
        if bio:
            print(evaluation.span_f1(test, pred).to_kv(), end="")
        else:
            acc = tagger_mod._token_accuracy(test, pred)
            _emit(f"token_accuracy {100 * acc:.2f}")
    return 0


def cmd_transfer_init(args, cfg):
    src = Checkpoint.load(args.init)
    head = args.head or "crf"
    _, labels, word_vocab = _read_train(args.train, head == "crf", cfg.min_count)
    arch, tensors, report = _transfer_tagger(args, cfg, src, head, word_vocab, labels)
    ck = Checkpoint.create(
        "tagger", arch, tensors, word_vocab=word_vocab,
        provenance=[{"event": "transfer_init", "source": args.init}])
    ck.save(args.out)
    corpus_mod.write_atomic(f"{args.out}.report.txt", [report.to_text().encode("utf-8")])
    _emit(f"checkpoint {args.out}")
    return 0


def cmd_evaluate(args, cfg):
    gold = _read_tagged(args.gold, True)
    pred = _read_tagged(args.pred, False)
    for i, (g, p) in enumerate(itertools.zip_longest(gold, pred)):
        if g is None or p is None or g.tokens != p.tokens:
            raise DataError(f"{args.pred}: sentence {i}: tokens differ from {args.gold}")
    metrics = evaluation.span_f1(gold, pred)
    print(metrics.to_text(), end="")
    print(metrics.to_kv(), end="")
    return 0


def cmd_analyze(args, cfg):
    a, b = (_read_tagged(path, False) for path in (args.corpus, args.test))
    print(evaluation.overlap_report(a, b, name_a=args.corpus, name_b=args.test), end="")
    return 0


def cmd_convert_bio(args, cfg):
    sentences = _read_tagged(args.corpus, False)
    converted = [corpus_mod.LabeledSequence(
        s.tokens, corpus_mod.contiguous_to_bio(s.tags)) for s in sentences]
    corpus_mod.write_conll(converted, args.out)
    _emit(f"wrote {args.out}")
    return 0


# wiring -------------------------------------------------------------

# the config key that --epochs sets, by command; the taggers' is `epochs`
EPOCHS_KEY = {"pretrain-lm": "lm_epochs", "finetune-lm": "finetune_epochs"}

_TAGGER_FLAGS = "config seed epochs patience head init train! dev test vectors policy out!"

# command -> (handler, the flags it reads); `!` marks a required flag and
# `+` one the command reads more than once
COMMANDS = {
    "pretrain-lm": (cmd_pretrain_lm, "config seed epochs corpus!+ out!".split()),
    "finetune-lm": (cmd_finetune_lm, "config seed epochs init! corpus! out!".split()),
    "train-ner": (cmd_train_tagger, _TAGGER_FLAGS.split()),
    "train-pos": (cmd_train_tagger, _TAGGER_FLAGS.split()),
    "transfer-init": (cmd_transfer_init, "config seed head init! train! policy out!".split()),
    "evaluate": (cmd_evaluate, "config gold! pred!".split()),
    "analyze": (cmd_analyze, "config corpus! test!".split()),
    "convert-bio": (cmd_convert_bio, "config corpus! out!".split()),
}

# argparse settings of the flags that take more than a string
FLAGS = {"seed": {"type": int}, "epochs": {"type": int}, "patience": {"type": int},
         "head": {"choices": ["crf", "softmax"]}}


class _Once(argparse.Action):
    """Stores a flag's value; a second one is a usage error."""
    def __call__(self, parser, namespace, value, option_string=None):
        if getattr(namespace, self.dest) is not None:
            raise argparse.ArgumentError(self, f"given twice; {parser.prog} reads one")
        setattr(namespace, self.dest, value)


class _Command(argparse.ArgumentParser):
    """A subcommand's parser: it refuses, naming itself, a flag it does not read."""
    def parse_known_args(self, args=None, namespace=None):
        args, extra = super().parse_known_args(args, namespace)
        if extra:
            self.error(f"unrecognized arguments: {' '.join(extra)}")
        return args, extra


@functools.lru_cache(maxsize=1)
def build_parser():
    """Each subcommand takes only the flags of its COMMANDS row.  A missing
    required flag, a flag the command does not read, or a second value of
    one it reads once is a usage error: argparse names it and exits with
    code 2 before any work runs.  Built once: building takes milliseconds,
    and parsing leaves the parser unchanged."""
    parser = argparse.ArgumentParser(prog="seqxfer")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Command)
    for name, (_, flags) in COMMANDS.items():
        p = sub.add_parser(name)
        for flag in flags:
            key = flag.rstrip("!+")
            p.add_argument(f"--{key}", required="!" in flag,
                           action="append" if "+" in flag else _Once, **FLAGS.get(key, {}))
    return parser


def run(argv):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    given = vars(args)
    overrides = {"seed": given.get("seed"), "patience": given.get("patience"),
                 EPOCHS_KEY.get(args.command, "epochs"): given.get("epochs")}
    try:
        if given.get("out"):
            _check_out(args.out)
        cfg = load_config(args.config, overrides)
        return COMMANDS[args.command][0](args, cfg)
    except (DataError, ContractError, TransferError, NumericError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
