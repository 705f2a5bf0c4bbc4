"""Shared fixtures: tiny model configs and synthetic corpora, and the
graph ops that only the unfused oracle graphs use."""

import ctypes
import glob
import os

import numpy as np
import pytest

from seqxfer import autodiff as ad
from seqxfer.bilm import BiLMConfig
from seqxfer.corpus import LabeledSequence
from seqxfer.encoder import CharEncoderConfig
from seqxfer.errors import ContractError
from seqxfer.tagger import TaggerConfig


def _openblas_core():
    """The kernel OpenBLAS picked at run time, read from numpy's bundled
    library ("unknown" without one): pinned digests depend on it."""
    here = os.path.dirname(np.__file__)
    for path in glob.glob(os.path.join(here, os.pardir, "numpy.libs", "*openblas*")) \
            + glob.glob(os.path.join(here, ".dylibs", "*openblas*")):
        try:
            corename = ctypes.CDLL(path).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return "unknown"


def pytest_report_header(config):
    return (f"numpy {np.__version__}, OPENBLAS_NUM_THREADS="
            f"{os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}, "
            f"OpenBLAS core {_openblas_core()}")


def tanh(x):
    """tanh as a graph node, for the unfused oracle graphs; the fused ops
    apply theirs inside their own nodes."""
    x = ad._as_tensor(x)
    y = np.tanh(x.data)
    def _bw(g):
        x._accum(g * (1.0 - y * y))
    return ad.node(y, (x,), _bw)


def sigmoid(x):
    x = ad._as_tensor(x)
    # 0.5*(tanh(x/2)+1) is overflow-safe for large |x|
    s = 0.5 * (np.tanh(0.5 * x.data) + 1.0)
    def _bw(g):
        x._accum(g * s * (1.0 - s))
    return ad.node(s, (x,), _bw)


def log_softmax(x, axis=-1):
    x = ad._as_tensor(x)
    m = x.data.max(axis=axis, keepdims=True)
    y = x.data - (m + np.log(np.exp(x.data - m).sum(axis=axis, keepdims=True)))
    def _bw(g):
        x._accum(g - np.exp(y) * g.sum(axis=axis, keepdims=True))
    return ad.node(y, (x,), _bw)


def highway_forward(x, WT, bT, WH, bH):
    """x_next = T (.) (WH x + bH) + (1 - T) (.) x with gate T = sigma(WT x + bT)."""
    WT, WH = ad._as_tensor(WT), ad._as_tensor(WH)
    x = ad._as_tensor(x)
    if x.data.shape[-1] != WT.data.shape[0]:
        raise ContractError(
            f"highway input dim {x.data.shape[-1]} != layer dim {WT.data.shape[0]}")
    gate = sigmoid(ad.matmul(x, WT) + bT)
    transform = ad.matmul(x, WH) + bH
    return gate * transform + (1.0 - gate) * x


def tiny_encoder_config(**kw):
    base = dict(d_char=8, filter_widths=(1, 2, 3), filter_counts=(4, 4, 8),
                d_out=16, max_word_len=10)
    base.update(kw)
    return CharEncoderConfig(**base)


def tiny_bilm_config(**kw):
    enc = kw.pop("encoder", tiny_encoder_config())
    base = dict(lm_hidden=16, lm_layers=1)
    base.update(kw)
    return BiLMConfig(enc, **base)


def tiny_tagger_config(**kw):
    base = dict(d_word=12, hidden=16, layers=1, dropout=0.0, unk_rate=0.0)
    base.update(kw)
    return TaggerConfig(**base)


def toy_ner_corpus(n=30):
    """Small synthetic NER set: person/location slots in fixed frames."""
    names = ["alice", "bob", "carol", "dave", "erin"]
    places = ["paris", "rome", "oslo", "kyoto"]
    fillers = ["today", "alone", "again", "early", "late", "soon"]
    out = []
    for i in range(n):
        toks = [names[i % 5], "went", "to", places[i % 4], fillers[i % 6]]
        tags = ["B-PER", "O", "O", "B-LOC", "O"]
        if i % 3 == 0:
            toks = toks + ["with", names[(i + 2) % 5]]
            tags = tags + ["O", "B-PER"]
        out.append(LabeledSequence(toks, tags))
    return out


# synthetic bilingual benchmark ---------------------------------------

_SYLLABLES = ["ba", "ko", "ri", "ta", "mu", "se", "la", "do", "vi", "ne"]


def _entity_lexicon(rng, n_per, n_loc):
    """Capitalized invented names; PER end in -o, LOC end in -ia.

    The orthographic signature is what a char-aware LM can latch onto.
    """
    def word(suffix):
        stem = "".join(rng.choice(_SYLLABLES) for _ in range(int(rng.integers(1, 3))))
        return (stem + suffix).capitalize()
    pers = sorted({word("ro") for _ in range(n_per * 3)})[:n_per]
    locs = sorted({word("nia") for _ in range(n_loc * 3)})[:n_loc]
    return pers, locs


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


def _make_sentence(rng, func, pers, locs):
    slots, kinds = _TEMPLATES[int(rng.integers(len(_TEMPLATES)))]
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


def bilingual_benchmark(seed=7, lm_a=500, lm_b=200, ner_train=50, ner_test=40):
    """Two synthetic languages: disjoint function words, shared entity
    orthography.  NER test entities never occur in NER training but do
    occur in the unlabeled LM corpora."""
    rng = np.random.default_rng(seed)
    pers, locs = _entity_lexicon(rng, 30, 24)
    train_pers, test_pers = pers[:10], pers[10:]
    train_locs, test_locs = locs[:8], locs[8:]

    corpus_a = [_make_sentence(rng, _FUNC_A, pers, locs).tokens for _ in range(lm_a)]
    corpus_b = [_make_sentence(rng, _FUNC_B, pers, locs).tokens for _ in range(lm_b)]
    ner_train_b = [_make_sentence(rng, _FUNC_B, train_pers, train_locs)
                   for _ in range(ner_train)]
    ner_test_b = [_make_sentence(rng, _FUNC_B, test_pers, test_locs)
                  for _ in range(ner_test)]
    return {"lm_a": corpus_a, "lm_b": corpus_b,
            "ner_train": ner_train_b, "ner_test": ner_test_b}
