"""The benchmark's tracer (bench/tracing.py) wraps seqxfer functions by
owner and attribute name, and replays the CRF layer with two arguments.
A rename, or a call that goes round a wrapped attribute, fails here
instead of inside a benchmark run.  bench/ is only read."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from seqxfer import bilm
from seqxfer import tagger as tg
from seqxfer.corpus import build_char_vocab

from conftest import tiny_bilm_config, tiny_tagger_config, toy_ner_corpus

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_is_an_attribute_of_its_owner(tracing):
    for owner, attr, name, _ in tracing.Tracer().targets:
        assert attr in owner.__dict__, f"{name}: {owner.__name__} has no {attr!r}"


def test_crf_replay_takes_a_batch_and_two_arguments(tracing):
    rng = np.random.default_rng(0)
    sample = (rng.normal(size=(3, 5, 4)), rng.normal(size=(6, 6)))
    fwd, bwd = tracing._replay("crf", sample, rng)
    assert fwd > 0.0 and bwd > 0.0


def test_tagger_training_and_tagging_run_through_the_wrappers(tracing):
    corpus = toy_ner_corpus(8)
    tokens = [s.tokens for s in corpus]
    chars, bcfg = build_char_vocab(tokens), tiny_bilm_config()
    provider = tg.ContextualProvider(
        bilm.init_bilm_params(bcfg, len(chars), 6, seed=0), bcfg, chars)
    labels = tg.LabelSet.from_sequences(corpus)
    tracer = tracing.Tracer(seed=0)
    with tracer.phase("train_ner"):
        model, _ = tg.train_tagger(corpus, labels, tiny_tagger_config(dropout=0.2),
                                   epochs=1, batch_size=4, seed=0,
                                   provider=provider, dev=corpus[:3])
        tg.predict(tokens, model)
    spans = {span[0] for span in tracer.spans}
    for name in ("tagger.train_tagger", "tagger.sentence_loss", "tagger.emissions",
                 "tagger.crf_log_partition", "tagger.crf_sequence_score",
                 "bilm.contextual_states", "encoder.fwd", "bilm.lstm_forward",
                 "autodiff.backward", "autodiff.clip", "autodiff.adam_step",
                 "tagger.predict", "tagger.decode", "tagger.viterbi_decode"):
        assert name in spans, name
    summary = tracer.round_summary()
    assert 0.0 < summary["coverage"]["train_ner"] <= 1.0
    assert tracer.counts["tagger_nodes"] > 0
    e, _ = tracer.samples["crf", "tagger.sentence_loss"][0]
    assert e.ndim == 3
    ratios = tracing.replay_ratios(tracer, repeats=1)
    assert ratios["crf", "tagger.sentence_loss"] > 0.0
