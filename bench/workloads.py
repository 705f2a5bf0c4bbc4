"""Seeded inputs and the two workloads of the seqxfer benchmark.

Every workload runs the same pipeline shape (one "round"):

    pretrain-lm -> finetune-lm -> train-ner --dev --test      (seqxfer CLI)
    -> perplexity on held-out text -> batch predict -> one-sentence predicts

BENCHMARK.json has one metric list that every workload reports, with
no zero values, so no phase is skipped; the workloads differ in data and
model sizes so that different layers dominate (see NOTES.md).  Only stdlib and
numpy are used; seqxfer is reached through its CLI and public API.
"""

import contextlib
import gc
import hashlib
import io
import itertools
import math
import re
import statistics
import time
from dataclasses import dataclass

import numpy as np

from seqxfer import bilm, cli
from seqxfer import tagger as tagger_mod
from seqxfer.checkpoint import Checkpoint
from seqxfer.corpus import (LabeledSequence, bio_to_spans, build_vocab, read_conll,
                            read_sentences, validate_bio, write_conll)
from seqxfer.errors import DataError
from seqxfer.transfer import build_shared_char_vocab

# data generators -------------------------------------------------------

_SYL_A = ["ba", "ko", "ri", "ta", "mu", "se", "la", "do", "vi", "ne",
          "pa", "zu", "ki", "lo", "me", "su"]
_SYL_B = ["si", "ga", "te", "ho", "fi", "ru", "na", "po", "ke", "wu",
          "da", "mi", "so", "le", "bo", "ja"]
_SYL_ENTITY = ["ba", "ko", "ri", "ta", "mu", "se", "la", "do", "vi", "ne"]


def entity_lexicon(rng, n_per, n_loc):
    """Capitalized invented names: PER end in -ro, LOC in -nia.

    Both languages share this orthography, which is what a char-aware
    LM can carry across.
    """
    def word(suffix):
        stem = "".join(rng.choice(_SYL_ENTITY) for _ in range(int(rng.integers(1, 3))))
        return (stem + suffix).capitalize()
    pers = sorted({word("ro") for _ in range(n_per * 3)})[:n_per]
    locs = sorted({word("nia") for _ in range(n_loc * 3)})[:n_loc]
    return pers, locs


@dataclass
class ZipfLanguage:
    """Syllable-built word types drawn with Zipfian (1/rank) frequencies."""
    words: list
    probs: np.ndarray

    @classmethod
    def make(cls, rng, syllables, n_types):
        words = set()
        while len(words) < n_types:
            picks = rng.integers(len(syllables), size=(n_types, 4))
            lengths = rng.integers(1, 5, size=n_types)
            for row, n_syl in zip(picks, lengths):
                if len(words) < n_types:
                    words.add("".join(syllables[i] for i in row[:n_syl]))
        words = sorted(words)
        rng.shuffle(words)
        probs = 1.0 / np.arange(1, n_types + 1)
        return cls(words, probs / probs.sum())

    def sentence(self, rng, n):
        return [self.words[i] for i in rng.choice(len(self.words), size=n, p=self.probs)]


def spread_lengths(rng, k, lo, hi):
    """k lengths spread evenly over [lo, hi], in the order `rng` gives."""
    lengths = [lo + (i * (hi - lo + 1)) // k for i in range(k)]
    rng.shuffle(lengths)
    return lengths


def tagged_zipf_sentence(rng, lang, pers, locs, n, i):
    """A Zipf sentence of n words with entity mentions spliced in: a
    one- or two-word PER and, every other sentence, a LOC."""
    tokens = lang.sentence(rng, n)
    tags = ["O"] * n
    mentions = [[pers[int(rng.integers(len(pers)))] for _ in range(1 + i % 2)]]
    if i % 2 == 0:
        mentions.append([locs[int(rng.integers(len(locs)))]])
    for mention in mentions:
        at = int(rng.integers(0, len(tokens) + 1))
        kind = "LOC" if mention[0].endswith("nia") else "PER"
        tokens[at:at] = mention
        tags[at:at] = [f"B-{kind}"] + [f"I-{kind}"] * (len(mention) - 1)
    return LabeledSequence(tokens, tags)


# The two-language template generator mirrors the design of the test
# suite's bilingual fixture: disjoint function words, shared entity
# orthography, NER test entities unseen in NER training.
_FUNC_A = {"det": "the", "went": "went", "to": "to", "saw": "saw",
           "in": "in", "man": "man", "from": "from", "and": "and"}
_FUNC_B = {"det": "si", "went": "pergi", "to": "ke", "saw": "lihat",
           "in": "dalam", "man": "orang", "from": "dari", "and": "dan"}
_TEMPLATES = [
    (["det", "PER", "went", "to", "LOC"], [None, "PER", None, None, "LOC"]),
    (["det", "man", "from", "LOC", "saw", "PER"], [None, None, None, "LOC", None, "PER"]),
    (["PER", "and", "PER", "went", "to", "LOC"], ["PER", None, "PER", None, None, "LOC"]),
    (["det", "PER", "saw", "det", "man", "in", "LOC"],
     [None, "PER", None, None, None, None, "LOC"]),
]


def template_sentence(rng, func, pers, locs, i):
    slots, kinds = _TEMPLATES[i % len(_TEMPLATES)]
    toks, tags = [], []
    for slot, kind in zip(slots, kinds):
        if kind == "PER":
            toks.append(pers[int(rng.integers(len(pers)))])
            tags.append("B-PER")
        elif kind == "LOC":
            toks.append(locs[int(rng.integers(len(locs)))])
            tags.append("B-LOC")
        else:
            toks.append(func[slot])
            tags.append("O")
    return LabeledSequence(toks, tags)


@dataclass
class Inputs:
    """Everything a round reads, as generated from the workload seed."""
    lm_a: list        # language-A LM text (token lists)
    lm_b: list        # language-B LM text
    heldout_b: list   # language-B text for perplexity only
    ner_train: list   # LabeledSequences, language B
    ner_dev: list
    ner_test: list
    tag_set: list     # LabeledSequences tagged by the tag phases

    def fingerprint(self):
        parts = [" ".join(s) for s in self.lm_a + self.lm_b + self.heldout_b]
        parts += [" ".join(s.tokens + s.tags) for s in
                  self.ner_train + self.ner_dev + self.ner_test + self.tag_set]
        return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()[:16]


# The seed spells the word types and names; the shape of a set (sentence
# lengths, the Zipf rank of every token, which name goes where) comes from
# this fixed seed.  So vocabulary sizes, distinct words per batch and token
# counts, and with them the work of a round, are the same for every seed.
SHAPE_SEED = 0


def zipf_inputs(seed, n):
    rng = np.random.default_rng(seed)
    shape = np.random.default_rng(SHAPE_SEED)
    lang_a = ZipfLanguage.make(rng, _SYL_A, n["types"])
    lang_b = ZipfLanguage.make(rng, _SYL_B, n["types"])
    pers, locs = entity_lexicon(rng, 30, 24)

    def text(lang, k):
        return [lang.sentence(shape, m) for m in spread_lengths(shape, k, *n["lm_len"])]

    def tagged(k):
        return [tagged_zipf_sentence(shape, lang_b, pers, locs, m, i)
                for i, m in enumerate(spread_lengths(shape, k, *n["ner_len"]))]
    return Inputs(
        lm_a=text(lang_a, n["lm_a"]), lm_b=text(lang_b, n["lm_b"]),
        heldout_b=text(lang_b, n["heldout_b"]),
        ner_train=tagged(n["ner_train"]), ner_dev=tagged(n["ner_dev"]),
        ner_test=tagged(n["ner_test"]), tag_set=tagged(n["tag_set"]))


def template_inputs(seed, n):
    pers, locs = entity_lexicon(np.random.default_rng(seed), 30, 24)
    shape = np.random.default_rng(SHAPE_SEED)
    train_pers, test_pers = pers[:10], pers[10:]
    train_locs, test_locs = locs[:8], locs[8:]

    def sentences(func, pers, locs, k):
        # every template k/4 times
        order = shape.permutation(k)
        return [template_sentence(shape, func, pers, locs, int(i)) for i in order]

    def text(func, k):
        return [s.tokens for s in sentences(func, pers, locs, k)]
    test = sentences(_FUNC_B, test_pers, test_locs, n["ner_test"])
    return Inputs(
        lm_a=text(_FUNC_A, n["lm_a"]), lm_b=text(_FUNC_B, n["lm_b"]),
        heldout_b=text(_FUNC_B, n["heldout_b"]),
        ner_train=sentences(_FUNC_B, train_pers, train_locs, n["ner_train"]),
        ner_dev=sentences(_FUNC_B, train_pers, train_locs, n["ner_dev"]),
        ner_test=test, tag_set=test)


# workloads -------------------------------------------------------------

# The sizes the acceptance tests use (tests/conftest.py tiny configs).
TINY_SIZES = {"d_char": 8, "filter_widths": "1,2,3", "filter_counts": "4,4,8",
              "d_out": 16, "max_word_len": 10, "lm_hidden": 16, "lm_layers": 1,
              "d_word": 12, "hidden": 16, "layers": 1, "unk_rate": 0.0}


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: object       # (seed, counts) -> Inputs
    counts: dict              # sentence counts and lengths for make_inputs
    lm_config: dict           # RunConfig overrides for pretrain-lm/finetune-lm
    ner_config: dict          # RunConfig overrides for train-ner
    epochs: tuple             # (pretrain, finetune, train-ner)
    reps: dict                # times a short phase repeats in a round
    f1_floor: float = None    # test span-F1 floor, where training is long enough


WORKLOADS = {
    # CLI-default sizes (cli.RunConfig): the batched BiLM path on a large
    # Zipfian vocabulary, and forward-only tagging of long sentences.
    "lm_zipf": Workload(
        "lm_zipf", zipf_inputs,
        {"types": 4000, "lm_len": (5, 40), "ner_len": (4, 24), "lm_a": 120,
         "lm_b": 48, "heldout_b": 128, "ner_train": 3, "ner_dev": 2, "ner_test": 2,
         "tag_set": 36},
        lm_config={"lr": 0.01}, ner_config={}, epochs=(2, 1, 1),
        reps={"pretrain": 2, "finetune": 2, "train_ner": 2, "lm_eval": 2}),
    # The paper's pipeline at the acceptance-test sizes: per-sentence
    # tagger+provider training dominates.
    "xfer_ner": Workload(
        "xfer_ner", template_inputs,
        {"lm_a": 300, "lm_b": 120, "heldout_b": 1200, "ner_train": 40,
         "ner_dev": 20, "ner_test": 40},
        lm_config=dict(TINY_SIZES, batch_size=32),
        ner_config=dict(TINY_SIZES, batch_size=8, dropout=0.2, lr=0.01),
        epochs=(2, 2, 3), f1_floor=30.0,
        reps={"pretrain": 2, "finetune": 4, "lm_eval": 4, "tag_batch": 4}),
}


# one round -------------------------------------------------------------

def n_tokens(sentences):
    return sum(len(s) for s in sentences)


class CheckFailed(Exception):
    pass


def check(cond, what):
    if not cond:
        raise CheckFailed(what)


def write_inputs(inputs, workload):
    """Write the round's input files into the current directory."""
    def text(path, sentences):
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(" ".join(s) + "\n" for s in sentences)
    text("lm_a.txt", inputs.lm_a)
    text("lm_b.txt", inputs.lm_b)
    text("ner_text.txt", [s.tokens for s in
                          inputs.ner_train + inputs.ner_dev + inputs.ner_test
                          + inputs.tag_set])
    write_conll(inputs.ner_train, "train.conll")
    write_conll(inputs.ner_dev, "dev.conll")
    write_conll(inputs.ner_test, "test.conll")
    for path, cfg in (("lm.cfg", workload.lm_config), ("ner.cfg", workload.ner_config)):
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(f"{k}={v}\n" for k, v in sorted(cfg.items()))


def setup(workload, seed):
    """Generate the inputs from the seed, write them to the cwd and check
    that seqxfer's readers read them back, then build the tagging model: a
    seeded tagger+provider at the workload's sizes, saved and loaded back
    through Checkpoint.  Tagging cost does not depend on how well the
    model is trained.  Returns (inputs, model)."""
    inputs = workload.make_inputs(seed, workload.counts)
    write_inputs(inputs, workload)
    for path, sentences in (("lm_a.txt", inputs.lm_a), ("lm_b.txt", inputs.lm_b)):
        check(read_sentences(path) == sentences, f"{path} does not read back")
    for path, sentences in (("train.conll", inputs.ner_train),
                            ("dev.conll", inputs.ner_dev), ("test.conll", inputs.ner_test)):
        check(read_conll(path) == sentences, f"{path} does not read back")
        validate_bio(sentences)
    lm_cfg, ner_cfg = cli.load_config("lm.cfg"), cli.load_config("ner.cfg")
    char_vocab = build_shared_char_vocab(
        [inputs.lm_a, inputs.lm_b, [s.tokens for s in inputs.ner_train + inputs.tag_set]])
    lm_vocab = build_vocab(inputs.lm_b, min_count=lm_cfg.min_count)
    bcfg = lm_cfg.bilm_config()
    provider = tagger_mod.ContextualProvider(
        bilm.init_bilm_params(bcfg, len(char_vocab), len(lm_vocab), seed), bcfg, char_vocab)
    model = tagger_mod.TaggerModel.init(
        ner_cfg.tagger_config(),
        build_vocab([s.tokens for s in inputs.ner_train], min_count=ner_cfg.min_count),
        tagger_mod.LabelSet.from_sequences(inputs.ner_train), seed, provider)
    ck = model.to_checkpoint(provenance=[{"event": "seeded", "seed": seed}])
    ck.save("tagger.ckpt")
    loaded = Checkpoint.load("tagger.ckpt")
    check(loaded.digest() == ck.digest(), "seeded checkpoint changed on save/load")
    return inputs, tagger_mod.TaggerModel.from_checkpoint(loaded)


def run_cli(argv):
    """seqxfer CLI in-process; returns (exit code, captured stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run([str(a) for a in argv])
    return code, out.getvalue()


def _floats(pattern, text):
    return [float(x) for x in re.findall(pattern, text, re.M)]


class Round:
    """Timed phases of one pipeline run plus the outputs its checks read."""

    PHASES = ("pretrain", "finetune", "train_ner", "lm_eval", "tag_batch", "tag_single")

    def __init__(self):
        self.wall = {}            # phase -> wall time of each repeat
        self.sent_ms = []
        self.stdout = {}
        self.ppl = None
        self.test_f1 = None
        self.batch_tags = None
        self.single_tags = None
        self.lm_vocab_size = None
        self.host_ref = []        # host_reference() before each phase repeat


def host_reference():
    """Seconds one pass of a fixed pure-Python loop takes now.

    The loop runs no seqxfer code, so it measures the host, not the
    program: how fast the shared machine is running interpreter-bound
    code at this moment.  See NOTES.md, "Host speed".
    """
    t0 = time.perf_counter()
    counts = {}
    for i in range(40000):
        counts[i % 101] = counts.get(i % 101, 0) + i
    return time.perf_counter() - t0


def run_round(workload, inputs, model, phase=None):
    """One pass through the pipeline in the cwd; `model` is the tagger the
    tag phases use.  A short phase runs `workload.reps[name]` times in a
    row, each one a timing sample; reruns repeat the same outputs.

    `phase(name)` is a context manager wrapped around each timed phase
    (the tracer's, in a traced round).  Each phase starts after a full
    garbage collection, so garbage one phase leaves behind is not
    collected on the next phase's clock, and after one untimed
    host_reference() sample.  Raises CheckFailed when a CLI command fails.
    """
    e1, e2, e3 = workload.epochs
    r = Round()

    def timed(name, fn):
        for _ in range(workload.reps.get(name, 1)):
            gc.collect()
            r.host_ref.append(host_reference())
            t0 = time.perf_counter()
            with phase(name) if phase else contextlib.nullcontext():
                out = fn()
            r.wall.setdefault(name, []).append(time.perf_counter() - t0)
        return out

    commands = [
        ("pretrain", ["pretrain-lm", "--config", "lm.cfg", "--corpus", "lm_a.txt",
                      "--corpus", "lm_b.txt", "--corpus", "ner_text.txt",
                      "--epochs", e1, "--out", "lm_a.ckpt"]),
        ("finetune", ["finetune-lm", "--config", "lm.cfg", "--init", "lm_a.ckpt",
                      "--corpus", "lm_b.txt", "--epochs", e2, "--out", "lm_b.ckpt"]),
        ("train_ner", ["train-ner", "--config", "ner.cfg", "--init", "lm_b.ckpt",
                       "--train", "train.conll", "--dev", "dev.conll",
                       "--test", "test.conll", "--epochs", e3, "--out", "ner.ckpt"]),
    ]
    for name, argv in commands:
        code, r.stdout[name] = timed(name, lambda: run_cli(argv))
        check(code == 0, f"{argv[0]} exited {code}")

    lm = Checkpoint.load("lm_b.ckpt")
    config = bilm.BiLMConfig.from_dict(lm.architecture["config"])
    params = bilm.params_from_tensors(lm.tensors)
    r.lm_vocab_size = len(lm.word_vocab)
    r.ppl = timed("lm_eval", lambda: bilm.perplexity(
        inputs.heldout_b, params, config, lm.word_vocab, lm.char_vocab))

    sentences = [s.tokens for s in inputs.tag_set]
    r.batch_tags = timed("tag_batch", lambda: [
        s.tags for s in tagger_mod.predict(sentences, model)])

    def one_at_a_time():
        tags = []
        for tokens in sentences:
            ts = time.perf_counter()
            tags.append(tagger_mod.predict([tokens], model)[0].tags)
            r.sent_ms.append(1e3 * (time.perf_counter() - ts))
        return tags
    r.single_tags = timed("tag_single", one_at_a_time)
    return r


def pipeline_s(r):
    """One pass through the pipeline: each phase once, at its median."""
    return sum(statistics.median(r.wall[name]) for name in Round.PHASES)


def throughputs(workload, inputs, r):
    """End-to-end rate samples of one round, one per phase repeat."""
    e1, e2, e3 = workload.epochs
    work = {"lm_pretrain_tok_s": ("pretrain", e1 * n_tokens(inputs.lm_a)),
            "lm_finetune_tok_s": ("finetune", e2 * n_tokens(inputs.lm_b)),
            "ner_train_tok_s": ("train_ner", e3 * n_tokens(inputs.ner_train)),
            "lm_eval_tok_s": ("lm_eval", n_tokens(inputs.heldout_b)),
            "tag_tok_s": ("tag_batch", n_tokens(inputs.tag_set))}
    return {metric: [tokens / t for t in r.wall[name]]
            for metric, (name, tokens) in work.items()}


# correctness -----------------------------------------------------------

def checkpoint_digests():
    return {p: Checkpoint.load(p).digest() for p in ("lm_a.ckpt", "lm_b.ckpt", "ner.ckpt")}


def check_round(workload, inputs, r, reference_digests):
    """Per-round output checks; raises CheckFailed naming the first failure."""
    losses = _floats(r"lm_train_loss=(\S+)", r.stdout["pretrain"])
    check(len(losses) == workload.epochs[0], "pretrain did not log every epoch")
    check(all(math.isfinite(x) for x in losses), "pretrain loss not finite")
    check(len(losses) < 2 or losses[-1] < losses[0], "pretrain loss did not fall")
    check(math.isfinite(r.ppl) and r.ppl < r.lm_vocab_size,
          f"perplexity {r.ppl} not finite and below |V|={r.lm_vocab_size}")
    f1 = _floats(r"^f1 micro (\S+)$", r.stdout["train_ner"])
    check(len(f1) == 1, "train-ner printed no test span-F1")
    r.test_f1 = f1[0]
    floor = workload.f1_floor
    if floor is not None:
        check(f1[0] >= floor, f"test span-F1 {f1[0]} below floor {floor}")
    check(len(r.batch_tags) == len(inputs.tag_set), "batch predict lost sentences")
    for gold, tags in zip(inputs.tag_set, r.batch_tags):
        check(len(tags) == len(gold.tokens), "tag sequence has the wrong length")
        try:
            bio_to_spans(tags, repair=False)
        except DataError as exc:
            raise CheckFailed(f"predicted tags are not strict BIO: {exc}") from exc
    check(r.batch_tags == r.single_tags, "batch and one-sentence tags differ")
    check(checkpoint_digests() == reference_digests,
          "checkpoint digest differs from the first round's")


def check_viterbi(inputs, n=6, max_len=4):
    """On the trained tagger, Viterbi equals the brute-force argmax of
    crf_sequence_score over every path of short inputs."""
    model = tagger_mod.TaggerModel.from_checkpoint(Checkpoint.load("ner.ckpt"))
    trans = model.transitions_used().data
    m = len(model.labels)
    for k, sent in enumerate(inputs.tag_set[:n]):
        tokens = sent.tokens[:1 + k % max_len]
        em = model.emissions(tokens).data
        scores = {path: tagger_mod.crf_sequence_score(em, trans, path)
                  for path in itertools.product(range(m), repeat=len(tokens))}
        best = max(scores.values())
        # ties go to the lowest label index, i.e. the first path in order
        want = next(p for p, s in scores.items() if s == best)
        got = tuple(tagger_mod.viterbi_decode(em, trans))
        check(got == want, f"viterbi {got} != brute force {want} on {tokens}")


def check_finetune_gain(inputs, r):
    """Fine-tuning lowers held-out perplexity below the surgered start."""
    cfg = cli.load_config("lm.cfg")
    lm_a = Checkpoint.load("lm_a.ckpt")
    vocab_b = build_vocab(read_sentences("lm_b.txt"), min_count=cfg.min_count)
    start = bilm.replace_vocab_head(lm_a, vocab_b, cfg.seed)
    ppl0 = bilm.perplexity(inputs.heldout_b, bilm.params_from_tensors(start.tensors),
                           bilm.BiLMConfig.from_dict(start.architecture["config"]),
                           start.word_vocab, start.char_vocab)
    check(r.ppl < ppl0, f"fine-tune perplexity {r.ppl} did not fall below {ppl0}")
    return ppl0
