"""Checkpoint weight surgery for the three transfer routes.

Supervised NER->NER (optionally across label spaces), LM->downstream
initialization, and POS->NER trunk reuse.  Every target parameter is
traced to exactly one action in the TransferReport.
"""

from dataclasses import dataclass, field

from . import autodiff as ad
from .bilm import BiLMConfig, bilm_table, tensors_from_params
from .corpus import build_char_vocab
from .errors import ContractError, TransferError
from .tagger import LabelSet, TaggerConfig, tagger_table

# parameter-name prefix -> policy group
_GROUPS = (
    ("tagger.word_emb", "word_embedding"),
    ("tagger.l", "trunk"),
    ("tagger.emission", "emission"),
    ("tagger.crf", "crf"),
    ("char_enc.", "char_encoder"),
    ("lm.head", "lm_head"),
    ("lm.", "lm_lstm"),
)
GROUPS = tuple(group for _, group in _GROUPS)
ACTIONS = ("copy", "reinitialize", "skip")


def group_of(name):
    for prefix, group in _GROUPS:
        if name.startswith(prefix):
            return group
    raise ContractError(f"parameter {name!r} belongs to no known group")


@dataclass
class LabelMapping:
    pairs: dict            # source label -> target label (identical strings)
    dropped: list          # source labels with no target counterpart
    new: list              # target labels absent from the source
    source: LabelSet
    target: LabelSet

    def to_table(self):
        rows = [f"{s} -> {t}" for s, t in sorted(self.pairs.items())]
        rows += [f"{s} -> (dropped)" for s in self.dropped]
        rows += [f"(new) -> {t}" for t in self.new]
        return rows


def map_label_space(source, target):
    """Match labels by identical strings (B-/I- prefixes preserved)."""
    pairs = {l: l for l in source.labels if l in target}
    dropped = [l for l in source.labels if l not in target]
    new = [l for l in target.labels if l not in source]
    return LabelMapping(pairs, dropped, new, source, target)


@dataclass
class TransferPolicy:
    """Per-group action plus the label-space alignment.

    actions: group name -> 'copy' | 'reinitialize' | 'skip'.  'skip'
    leaves the target group at its fresh seeded initialization but
    records that it was deliberately not transferred (e.g. word
    embeddings that a later vector load will overwrite).
    """
    actions: dict
    label_mapping: LabelMapping = None
    source = "policy"  # what error messages call it; `cli` sets a file's path


@dataclass
class TransferReport:
    copied: list = field(default_factory=list)        # (name, shape, note)
    reinitialized: list = field(default_factory=list)
    skipped: list = field(default_factory=list)       # incl. unused source params
    label_mapping: LabelMapping = None

    def to_text(self):
        lines = ["transfer report", "==============="]
        for title, items in (("copied", self.copied),
                             ("reinitialized", self.reinitialized),
                             ("skipped", self.skipped)):
            lines.append(f"{title} ({len(items)}):")
            for name, shape, note in items:
                suffix = f"  [{note}]" if note else ""
                lines.append(f"  {name}  {list(shape)}{suffix}")
        if self.label_mapping is not None:
            lines.append("label mapping:")
            lines.extend("  " + row for row in self.label_mapping.to_table())
        return "\n".join(lines) + "\n"


def build_shared_char_vocab(corpora):
    """`corpus.build_char_vocab` over several token streams at once.

    Build this before source-language pretraining whenever cross-lingual
    transfer is planned, so the char-embedding shape is stable.
    """
    if not corpora:
        raise ContractError("at least one corpus required")
    return build_char_vocab([sent for corpus in corpora for sent in corpus])


def _fresh_target_tensors(target_arch, seed):
    kind = target_arch["kind"]
    if kind == "tagger":
        table = tagger_table(TaggerConfig.from_dict(target_arch["config"]),
                             target_arch["n_words"], target_arch["n_labels"],
                             target_arch.get("d_ctx", 0))
    elif kind == "bilm":
        table = bilm_table(BiLMConfig.from_dict(target_arch["config"]),
                           target_arch["n_chars"], target_arch["n_words"])
    else:
        raise ContractError(f"unknown target kind {kind!r}")
    return tensors_from_params(ad.init_params(table, seed))


def _mapped_label_copy(name, fresh, src, mapping):
    """Copy label-indexed rows/columns for mapped labels only."""
    out = fresh.copy()
    src_labels, tgt_labels = mapping.source, mapping.target
    pairs = [(src_labels.id(s), tgt_labels.id(t)) for s, t in mapping.pairs.items()]
    if name == "tagger.emission.W":
        if src.shape[0] != fresh.shape[0]:
            raise TransferError(
                f"shape mismatch on mapped copy of {name!r}: source "
                f"{src.shape} vs target {fresh.shape}")
        for si, ti in pairs:
            out[:, ti] = src[:, si]
    elif name == "tagger.emission.b":
        for si, ti in pairs:
            out[ti] = src[si]
    elif name == "tagger.crf.trans":
        ms, mt = len(src_labels), len(tgt_labels)
        # START/STOP rows map onto the new START/STOP positions
        idx = pairs + [(ms, mt), (ms + 1, mt + 1)]
        for si, ti in idx:
            for sj, tj in idx:
                out[ti, tj] = src[si, sj]
    else:
        raise TransferError(f"no label mapping rule for {name!r}")
    return out


_LABEL_INDEXED = ("tagger.emission.W", "tagger.emission.b", "tagger.crf.trans")


def transfer_init(source, target_arch, policy, seed):
    """Initialize target parameters from a source checkpoint.

    Returns (tensors, TransferReport).  Copy actions are bit-exact and
    raise TransferError on any shape mismatch; 'reinitialize' and 'skip'
    keep the fresh seeded values.
    """
    fresh = _fresh_target_tensors(target_arch, seed)
    groups_needed = {group_of(n) for n in fresh}
    missing = groups_needed - set(policy.actions)
    if missing:
        raise ContractError(f"{policy.source} does not cover parameter group(s): "
                            + ", ".join(sorted(missing)))

    mapping = policy.label_mapping

    report = TransferReport(label_mapping=mapping)
    out = {}
    consumed = set()
    for name in sorted(fresh):
        action = policy.actions[group_of(name)]
        shape = fresh[name].shape
        if action == "copy":
            if name not in source.tensors:
                raise TransferError(
                    f"source checkpoint has no parameter {name!r} "
                    f"(group {group_of(name)!r} marked copy)")
            src_arr = source.tensors[name]
            consumed.add(name)
            if mapping is not None and name in _LABEL_INDEXED \
                    and mapping.source.labels != mapping.target.labels:
                out[name] = _mapped_label_copy(name, fresh[name], src_arr, mapping)
                report.copied.append((name, shape, "mapped labels only"))
            else:
                if src_arr.shape != shape:
                    raise TransferError(
                        f"shape mismatch on copy of {name!r} "
                        f"(group {group_of(name)!r}): source {src_arr.shape} "
                        f"vs target {shape}")
                out[name] = src_arr.copy()
                report.copied.append((name, shape, None))
        elif action == "reinitialize":
            out[name] = fresh[name]
            report.reinitialized.append((name, shape, None))
        elif action == "skip":
            out[name] = fresh[name]
            report.skipped.append((name, shape, "left at fresh init"))
        else:
            raise ContractError(f"unknown policy action {action!r}")

    for name in sorted(set(source.tensors) - consumed):
        report.skipped.append((name, source.tensors[name].shape, "source only"))
    return out, report
