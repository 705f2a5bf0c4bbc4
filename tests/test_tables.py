"""Parameter tables: each model declares its (name, shape, fill) rows once;
init, the checkpoint tensor check and transfer all read the same rows."""

import numpy as np
import pytest

from seqxfer import autodiff as ad
from seqxfer import bilm
from seqxfer import encoder as enc
from seqxfer import tagger as tg
from seqxfer import transfer as xf
from seqxfer.checkpoint import Checkpoint
from seqxfer.corpus import build_char_vocab, build_vocab

from conftest import (tiny_bilm_config, tiny_encoder_config, tiny_tagger_config,
                      toy_ner_corpus)

WORDS = [["alpha", "beta", "gamma"], ["beta", "delta"]]
OTHER = [["uno", "dos"], ["tres", "dos", "cuatro"]]
LABELS = tg.LabelSet(["O", "B-PER", "I-PER", "B-LOC"])


def _layout(params):
    return [(name, p.data.shape) for name, p in params.items()]


def _rows(table):
    return [(name, shape) for name, shape, _ in table]


def _bilm_checkpoint(seed):
    config = tiny_bilm_config()
    words, chars = build_vocab(WORDS), build_char_vocab(WORDS + OTHER)
    params = bilm.init_bilm_params(config, len(chars), len(words), seed)
    return Checkpoint.create("bilm", bilm.architecture(config, len(chars), len(words)),
                             bilm.tensors_from_params(params), word_vocab=words,
                             char_vocab=chars)


def _tagger(seed, provider=None):
    return tg.TaggerModel.init(tiny_tagger_config(), build_vocab(WORDS), LABELS,
                               seed, provider)


class TestTablesMatchInit:
    def test_char_encoder(self):
        table = enc.char_encoder_table(tiny_encoder_config(), 20)
        assert _layout(ad.init_params(table, 3)) == _rows(table)

    @pytest.mark.parametrize("layers", [1, 2])
    def test_bilm_head_rows_last(self, layers):
        config = tiny_bilm_config(lm_layers=layers)
        table = bilm.bilm_table(config, 20, 9)
        assert _layout(bilm.init_bilm_params(config, 20, 9, 3)) == _rows(table)
        assert [name for name, _, _ in table[-2:]] == list(bilm.HEAD_PARAMS)

    @pytest.mark.parametrize("head", ["crf", "softmax"])
    @pytest.mark.parametrize("d_ctx", [0, 32])
    def test_tagger(self, head, d_ctx):
        config = tiny_tagger_config(head=head, layers=2)
        table = tg.tagger_table(config, 11, 4, d_ctx)
        assert _layout(tg.init_tagger_params(config, 11, 4, d_ctx, 3)) == _rows(table)
        assert ("tagger.crf.trans" in dict(_rows(table))) == (head == "crf")

    def test_constant_fills(self):
        params = bilm.init_bilm_params(tiny_bilm_config(), 20, 9, 0)
        H = tiny_bilm_config().lm_hidden
        assert np.array_equal(params["lm.fwd.l0.b"].data,
                              np.r_[np.zeros(H), np.ones(H), np.zeros(2 * H)])
        assert np.all(params["char_enc.hw0.bT"].data == -1.0)
        assert not params["lm.head.b"].data.any()


def _refuse_draws(*args, **kwargs):
    raise AssertionError("seeded_init called while loading a checkpoint")


class TestLoadingDrawsNothing:
    """Checking a checkpoint reads the table's shapes; it draws no values."""

    def test_tagger_with_provider(self, monkeypatch):
        bilm_ck = _bilm_checkpoint(0)
        ck = _tagger(0, tg.ContextualProvider.from_checkpoint(bilm_ck)).to_checkpoint()
        monkeypatch.setattr(ad, "seeded_init", _refuse_draws)
        assert tg.TaggerModel.from_checkpoint(ck).to_checkpoint().digest() == ck.digest()
        assert tg.ContextualProvider.from_checkpoint(bilm_ck).d_ctx == 32

    def test_train_lm_from_checkpoint(self, monkeypatch):
        init = _bilm_checkpoint(0)
        monkeypatch.setattr(ad, "seeded_init", _refuse_draws)
        ck = bilm.train_lm(WORDS, epochs=1, init=init)
        assert len(ck.manifest["metrics"]["train_loss"]) == 1


def _digest_tagger_init(seed):
    config = tiny_bilm_config()
    chars = build_char_vocab(WORDS)
    provider = tg.ContextualProvider(
        bilm.init_bilm_params(config, len(chars), 7, seed), config, chars)
    return _tagger(seed, provider).to_checkpoint().digest()


def _digest_vocab_head(seed):
    return bilm.replace_vocab_head(_bilm_checkpoint(1), build_vocab(OTHER), seed).digest()


def _digest_tagger_transfer(seed):
    words = build_vocab(OTHER)
    arch = tg.tagger_architecture(tiny_tagger_config(), len(words), len(LABELS), 0,
                                  LABELS)
    policy = xf.TransferPolicy({"word_embedding": "skip", "trunk": "copy",
                                "emission": "reinitialize", "crf": "reinitialize"})
    tensors, _ = xf.transfer_init(_tagger(2).to_checkpoint(), arch, policy, seed)
    return Checkpoint.create("tagger", arch, tensors, word_vocab=words).digest()


def _digest_bilm_transfer(seed):
    src = _bilm_checkpoint(3)
    words = build_vocab(OTHER)
    arch = dict(src.architecture, n_words=len(words))
    policy = xf.TransferPolicy({"char_encoder": "copy", "lm_lstm": "reinitialize",
                                "lm_head": "skip"})
    tensors, _ = xf.transfer_init(src, arch, policy, seed)
    return Checkpoint.create("bilm", arch, tensors, word_vocab=words,
                             char_vocab=src.char_vocab).digest()


# Digests of fresh seeded inits, recorded before the parameter tables
# replaced the per-model init functions.  Init runs no BLAS, so these
# hold on any host; a refactor that moves one draw changes them.
PINNED = [
    (_digest_tagger_init, 0,
     "974a6605d8ecdbdc761d87abb73ff06f333878ea45732653d42302b95f1a5fc4"),
    (_digest_tagger_init, 7,
     "fcf430b9ae6abc722ea3859aa9bec1d932f741b7a485d23c3b426198b23d9578"),
    (_digest_vocab_head, 0,
     "0ffa46d1440b80fe251988f90f6f4226833a5a37572e678c6b5185d37ad4fe12"),
    (_digest_vocab_head, 7,
     "6e8f69c66108d743003abd2b797ba06070a329eaeac32f6291f5dd407a801e68"),
    (_digest_tagger_transfer, 0,
     "a00896e6041fc1273195a3146c45bf1b2b122e83168cd93e311d94d8b0ad904d"),
    (_digest_tagger_transfer, 7,
     "d74c354d1ee230c2be94a6ca2f49f5cacb981aa4fc9e0d808b87b0dfec2edbb0"),
    (_digest_bilm_transfer, 0,
     "43ee791d7a11e6417d6396c761ee665ff6b099f3768659498390346324d6be4d"),
    (_digest_bilm_transfer, 7,
     "37b11ef2abb6e3a5b2a23f45449f098793d5c628132361d5187f8b69ac766c41"),
]


@pytest.mark.parametrize("make, seed, digest", PINNED,
                         ids=[f"{m.__name__[8:]}-seed{s}" for m, s, _ in PINNED])
def test_pinned_init_digest(make, seed, digest):
    assert make(seed) == digest


def _digest_train_lm(seed):
    corpus = WORDS + OTHER
    return bilm.train_lm(corpus, build_vocab(corpus), build_char_vocab(corpus),
                         tiny_bilm_config(), epochs=2, batch_size=2, lr=0.01,
                         seed=seed).digest()


def _digest_tagger_dev(seed):
    """Early stopping: the best epoch is the second, and the third stops."""
    corpus = toy_ner_corpus(12)
    model, metrics = tg.train_tagger(corpus, tg.LabelSet.from_sequences(corpus),
                                     tiny_tagger_config(), epochs=4, batch_size=4,
                                     lr=0.05, dev=corpus[:5], patience=1, seed=seed)
    assert metrics["epochs_run"] == 3 and metrics["best_epoch"] == 2
    return model.to_checkpoint(metrics=metrics).digest()


def _digest_tagger_provider(seed):
    corpus = toy_ner_corpus(8)
    chars, config = build_char_vocab([s.tokens for s in corpus]), tiny_bilm_config()
    provider = tg.ContextualProvider(
        bilm.init_bilm_params(config, len(chars), 6, seed), config, chars)
    model, metrics = tg.train_tagger(corpus, tg.LabelSet.from_sequences(corpus),
                                     tiny_tagger_config(dropout=0.2, anchor_coeff=0.0),
                                     epochs=2, batch_size=4, lr=0.01, seed=seed,
                                     provider=provider)
    return model.to_checkpoint(metrics=metrics).digest()


# Digests of short anchor-free training runs, recorded before both
# trainers shared one training step.  Training runs BLAS matmuls, so a
# BLAS that sums in another order can move these on another host.
PINNED_TRAINING = [
    (_digest_train_lm, 0,
     "27e8269d7ae09d14311f112954c92130bde19de60c177aa49b402e5ba5d51c91"),
    (_digest_train_lm, 7,
     "aeda57681dd31ed9400e729d0d26e3add2bf41ca20b760e89aa9a3d7b0ea7efc"),
    (_digest_tagger_dev, 0,
     "2e34241f5b106d009c669b153ac62e4b0a720aca9919fa6c3f729b8c7a91006f"),
    (_digest_tagger_dev, 7,
     "23e372f5f2a9439f1fc7e4b703bd4d97c35ee6013132e049a55e7f9a26e52590"),
    (_digest_tagger_provider, 0,
     "c0699b0ff5cbdcc7322d55592b584a77340d8e9c75bf6b92fe3d09fd62d65a68"),
    (_digest_tagger_provider, 7,
     "1630adbb4fde62e82c185d173799b3cbf44f395ec0f2e3d620410d0f8ba98d8b"),
]


@pytest.mark.parametrize("make, seed, digest", PINNED_TRAINING,
                         ids=[f"{m.__name__[8:]}-seed{s}" for m, s, _ in PINNED_TRAINING])
def test_pinned_training_digest(make, seed, digest):
    assert make(seed) == digest
