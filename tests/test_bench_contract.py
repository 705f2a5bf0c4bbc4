"""The benchmark's tracer (bench/tracing.py) wraps seqxfer functions by
owner and attribute name, and replays the CRF layer with two arguments
and the char encoder from a captured sample;
its workloads (bench/workloads.py) import seqxfer names and call its API
in set-up and checks.  A rename, a removed name or argument form, or a
call that goes round a wrapped attribute, fails here instead of inside a
benchmark run.  bench/ is only read."""

import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from seqxfer import bilm, cli
from seqxfer import tagger as tg
from seqxfer.corpus import build_char_vocab, build_vocab
from seqxfer.transfer import build_shared_char_vocab

from conftest import tiny_bilm_config, tiny_tagger_config, toy_ner_corpus

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracing():
    return _bench_module("tracing")


@pytest.fixture(scope="module")
def workloads():
    return _bench_module("workloads")


def test_every_target_is_an_attribute_of_its_owner(tracing):
    for owner, attr, name, _ in tracing.Tracer().targets:
        assert attr in owner.__dict__, f"{name}: {owner.__name__} has no {attr!r}"


def test_crf_replay_takes_a_batch_and_two_arguments(tracing):
    rng = np.random.default_rng(0)
    sample = (rng.normal(size=(3, 5, 4)), rng.normal(size=(6, 6)))
    fwd, bwd = tracing._replay("crf", sample, rng)
    assert fwd > 0.0 and bwd > 0.0


def test_encoder_replay_takes_a_captured_sample(tracing):
    tokens = [s.tokens for s in toy_ner_corpus(8)]
    vocab, chars = build_vocab(tokens), build_char_vocab(tokens)
    tracer = tracing.Tracer(seed=0)
    with tracer.phase("pretrain"):
        bilm.train_lm(tokens, vocab, chars, tiny_bilm_config(), epochs=1,
                      batch_size=4, seed=0)
    sample = tracer.samples["encoder", "bilm.train_lm"][0]
    ids, arrays, _ = sample
    assert ids.ndim == 2 and arrays and all(k.startswith("char_enc.") for k in arrays)
    fwd, bwd = tracing._replay("encoder", sample, np.random.default_rng(0))
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


def test_sentence_loss_gets_a_batch_whose_len_is_its_sentence_count(tracing,
                                                                    monkeypatch):
    """The `tagger_loss` hook reads len(args[1]) as the sentence count."""
    corpus = toy_ner_corpus(8)
    sizes, loss = [], tg.TaggerModel.sentence_loss

    def spy(model, batch, rng=None):
        sizes.append((len(batch), batch.mask.shape[0]))
        return loss(model, batch, rng)
    monkeypatch.setattr(tg.TaggerModel, "sentence_loss", spy)
    tracer = tracing.Tracer(seed=0)
    with tracer.phase("train_ner"):
        tg.train_tagger(corpus, tg.LabelSet.from_sequences(corpus), tiny_tagger_config(),
                        epochs=1, batch_size=3, seed=0)
    assert sizes == [(3, 3), (3, 3), (2, 2)]
    assert tracer.counts["tagger_node_tokens"] == 3   # the first loss's graph walk


def test_lm_training_runs_through_the_wrappers(tracing):
    tokens = [s.tokens for s in toy_ner_corpus(8)]
    vocab, chars = build_vocab(tokens), build_char_vocab(tokens)
    tracer = tracing.Tracer(seed=0)
    with tracer.phase("pretrain"):
        ck = bilm.train_lm(tokens, vocab, chars, tiny_bilm_config(), epochs=1,
                           batch_size=4, seed=0)
    with tracer.phase("finetune"):
        bilm.train_lm(tokens, epochs=1, init=ck, anchor_coeff=0.01, batch_size=4)
    spans = Counter(span[0] for span in tracer.spans)
    for name in ("bilm.train_lm", "bilm.loss", "bilm.anchor_penalty",
                 "autodiff.backward", "autodiff.clip", "autodiff.adam_step"):
        assert name in spans, name
    # two batches per epoch; only the anchored run adds the penalty
    assert spans["bilm.train_lm"] == 2 and spans["bilm.anchor_penalty"] == 2
    assert spans["autodiff.backward"] == spans["autodiff.clip"] \
        == spans["autodiff.adam_step"] == 4
    summary = tracer.round_summary()
    assert 0.0 < summary["coverage"]["finetune"] <= 1.0


def test_perplexity_runs_through_the_wrappers(tracing, monkeypatch):
    """`lm_eval` coverage rests on one `bilm.loss` span per batch and on the
    encoder calls that `perplexity` makes itself."""
    tokens = [s.tokens for s in toy_ner_corpus(40)]
    vocab, chars, config = build_vocab(tokens), build_char_vocab(tokens), tiny_bilm_config()
    params = bilm.init_bilm_params(config, len(chars), len(vocab), seed=0)
    # room for 32 of the longest sentence: the 40 need a second batch
    monkeypatch.setattr(bilm, "EVAL_TOKENS", 32 * max(map(len, tokens)))
    n_batches = len(bilm.lm_batches(tokens, vocab, chars, None, config.encoder.max_word_len,
                                    max_tokens=bilm.EVAL_TOKENS))
    tracer = tracing.Tracer(seed=0)
    with tracer.phase("lm_eval"):
        bilm.perplexity(tokens, params, config, vocab, chars)
    spans = Counter(span[0] for span in tracer.spans)
    assert n_batches == 2 and spans["bilm.loss"] == n_batches
    assert spans["encoder.fwd"] >= 1 and spans["corpus.lm_batches"] == 1
    assert 0.0 < tracer.round_summary()["coverage"]["lm_eval"] <= 1.0


def test_workload_setup_and_checks_call_the_api_as_they_do(workloads, tmp_path,
                                                            monkeypatch):
    monkeypatch.chdir(tmp_path)
    # set-up writes the config files and builds, saves and reloads a model
    inputs, model = workloads.setup(workloads.WORKLOADS["xfer_ner"], 0)
    assert isinstance(cli.load_config("lm.cfg").bilm_config(), bilm.BiLMConfig)
    assert cli.load_config("ner.cfg").tagger_config().head == "crf"
    chars = build_shared_char_vocab([inputs.lm_a, inputs.lm_b])
    assert all(c in chars for sent in inputs.lm_b for word in sent for c in word)
    # the Viterbi check: [T, m] emissions of a token list, a tuple path
    trans, m = model.transitions_used().data, len(model.labels)
    tokens = inputs.tag_set[0].tokens[:3]
    em = model.emissions(tokens).data
    assert em.shape == (3, m)
    assert isinstance(tg.crf_sequence_score(em, trans, (0, 1, 0)), float)
    path = tg.viterbi_decode(em, trans)
    assert isinstance(path, list) and len(path) == 3
