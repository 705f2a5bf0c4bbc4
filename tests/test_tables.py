"""Parameter tables: each model declares its (name, shape, fill) rows once;
init, the checkpoint tensor check and transfer all read the same rows."""

from unittest import mock

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
from test_bilm import masked_lstm_forward, reference_nll_sum
from test_encoder import reference_encode_char_matrix
from test_tagger import reference_sentence_loss

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
        table = list(enc.char_encoder_table(tiny_encoder_config(), 20))
        assert _layout(ad.init_params(table, 3)) == _rows(table)

    @pytest.mark.parametrize("layers", [1, 2])
    def test_bilm_head_rows_last(self, layers):
        config = tiny_bilm_config(lm_layers=layers)
        table = list(bilm.bilm_table(config, 20, 9))
        assert _layout(bilm.init_bilm_params(config, 20, 9, 3)) == _rows(table)
        assert [name for name, _, _ in table[-2:]] == list(bilm.HEAD_PARAMS)

    @pytest.mark.parametrize("head", ["crf", "softmax"])
    @pytest.mark.parametrize("d_ctx", [0, 32])
    def test_tagger(self, head, d_ctx):
        config = tiny_tagger_config(head=head, layers=2)
        table = list(tg.tagger_table(config, 11, 4, d_ctx))
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


def _train_lm(seed):
    corpus = WORDS + OTHER
    return bilm.train_lm(corpus, build_vocab(corpus), build_char_vocab(corpus),
                         tiny_bilm_config(), epochs=2, batch_size=2, lr=0.01,
                         seed=seed)


def _digest_train_lm(seed):
    return _train_lm(seed).digest()


def _digest_train_lm_reference(seed):
    """The same run through the unfused softmax head."""
    with mock.patch.object(bilm, "_nll_sum", reference_nll_sum):
        return _digest_train_lm(seed)


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


def _unfused_encoder(make):
    """`make` run with the char-CNN patched back to its unfused graph."""
    def run(seed):
        with mock.patch.object(bilm, "encode_char_matrix", reference_encode_char_matrix):
            return make(seed)
    run.__name__ = make.__name__ + "_unfused_encoder"
    return run


def _masked_lstm(make):
    """`make` run with every LSTM layer patched back to the masked blend
    that ran all rows at every step."""
    def run(seed):
        with mock.patch.object(bilm, "lstm_forward", masked_lstm_forward):
            return make(seed)
    run.__name__ = make.__name__ + "_masked_lstm"
    return run


# Digests of short anchor-free training runs, recorded before both
# trainers shared one training step.  Training runs BLAS matmuls, so a
# BLAS that sums in another order can move these on another host.  The
# fused LM head and the fused char-CNN each sum in another order than
# their unfused graphs, so the runs through them are re-pinned, and the
# unfused graphs still give the digests recorded before each op was fused.
# The packed LSTM runs each step's recurrent matmul on only the real rows,
# which BLAS may round otherwise in the last bit: the tagger runs, whose
# batches are padded, were re-pinned, and the masked blend that ran every
# row still gives their earlier digests.  No LM digest moved.
PINNED_TRAINING = [
    (_digest_train_lm, 0,
     "7da5cbca59812219857a008c99782befad57239b6352116a4e7cafe174bfc125"),
    (_digest_train_lm, 7,
     "1d84e5b5cfddd71a6cca1f136eb785cbe8e9369ca9592d8ed7a07169c260fc03"),
    (_digest_train_lm_reference, 0,
     "07a2059d6558f9b3d26794f62d8c62c89e77da832233acd1c9863b2cea1a553e"),
    (_digest_train_lm_reference, 7,
     "7c014666e2d434042418206ed82db8454d5f4d756928576d1ccfa0006da3cf2d"),
    (_digest_tagger_dev, 0,
     "7d4506af0371c48f978c425244a92b010e29b2204c1498868d3e07f05f17287f"),
    (_digest_tagger_dev, 7,
     "19c68c3d72131cf8ffeb1cf61757118dceece1847229d93deefb2cc50f2fbd9f"),
    (_digest_tagger_provider, 0,
     "9d25e61947eeecccf479ccc5a8a96c9b659d25d2d5e71f3dd7e66a040977cf32"),
    (_digest_tagger_provider, 7,
     "845b9ad5ef018ff4f94f8cb641235d28bae9264a9aca897bc44c44a333bc6aca"),
    (_unfused_encoder(_digest_train_lm), 0,
     "fd8300c17afbed2a65e9cf8cf4126bddfa434cc930de8475f8b0e043bb1f2b54"),
    (_unfused_encoder(_digest_train_lm), 7,
     "22b5b543c670349e494cd2ae18e65260fe4a0064ff995ddb1469458c226dc467"),
    (_unfused_encoder(_digest_train_lm_reference), 0,
     "27e8269d7ae09d14311f112954c92130bde19de60c177aa49b402e5ba5d51c91"),
    (_unfused_encoder(_digest_train_lm_reference), 7,
     "aeda57681dd31ed9400e729d0d26e3add2bf41ca20b760e89aa9a3d7b0ea7efc"),
    (_unfused_encoder(_digest_tagger_provider), 0,
     "c92466adc333934813992be2211cf6c6301fc9fde7528c5c910963a1f39d587a"),
    (_unfused_encoder(_digest_tagger_provider), 7,
     "9fd164449a5969aefefdb06c4296972d65f8bb93d7c0aecb70e8f2b22e29d2f8"),
    (_masked_lstm(_digest_tagger_dev), 0,
     "2e34241f5b106d009c669b153ac62e4b0a720aca9919fa6c3f729b8c7a91006f"),
    (_masked_lstm(_digest_tagger_dev), 7,
     "23e372f5f2a9439f1fc7e4b703bd4d97c35ee6013132e049a55e7f9a26e52590"),
    (_masked_lstm(_digest_tagger_provider), 0,
     "a0e2615fd741e608f98543b1e815cda943be557c21dbeae5c5fea4472ac75f3a"),
    (_masked_lstm(_digest_tagger_provider), 7,
     "05b61293bafde0f89c0fe8d179718033f0d62b0054b3103b77b6c4395d540268"),
    (_masked_lstm(_unfused_encoder(_digest_tagger_provider)), 0,
     "c0699b0ff5cbdcc7322d55592b584a77340d8e9c75bf6b92fe3d09fd62d65a68"),
    (_masked_lstm(_unfused_encoder(_digest_tagger_provider)), 7,
     "1630adbb4fde62e82c185d173799b3cbf44f395ec0f2e3d620410d0f8ba98d8b"),
]


@pytest.mark.parametrize("make, seed, digest", PINNED_TRAINING,
                         ids=[f"{m.__name__[8:]}-seed{s}" for m, s, _ in PINNED_TRAINING])
def test_pinned_training_digest(make, seed, digest):
    assert make(seed) == digest


def _digest_tagger_unk_provider(seed):
    """Singleton -> UNK swaps and dropout over a provider, anchored."""
    corpus = toy_ner_corpus(8)
    chars, config = build_char_vocab([s.tokens for s in corpus]), tiny_bilm_config()
    provider = tg.ContextualProvider(
        bilm.init_bilm_params(config, len(chars), 6, seed), config, chars)
    model, metrics = tg.train_tagger(
        corpus, tg.LabelSet.from_sequences(corpus),
        tiny_tagger_config(dropout=0.2, unk_rate=0.3, anchor_coeff=0.01),
        epochs=2, batch_size=3, lr=0.01, seed=seed, provider=provider, dev=corpus[:3])
    return model.to_checkpoint(metrics=metrics).digest()


def _train_unk_softmax(seed):
    corpus = toy_ner_corpus(12)
    model, metrics = tg.train_tagger(
        corpus, tg.LabelSet.from_sequences(corpus, bio=False),
        tiny_tagger_config(head="softmax", unk_rate=0.5), epochs=2, batch_size=5,
        lr=0.05, seed=seed)
    return model.to_checkpoint(metrics=metrics)


def _digest_tagger_unk_softmax(seed):
    return _train_unk_softmax(seed).digest()


def _digest_tagger_unk_softmax_reference(seed):
    """The same run through the softmax head's own cross-entropy graph."""
    with mock.patch.object(tg.TaggerModel, "sentence_loss", reference_sentence_loss):
        return _digest_tagger_unk_softmax(seed)


# Tagger runs with unk_rate > 0.  The provider runs draw the singleton ->
# UNK swap and dropout, and pin the order of those draws; toy_ner_corpus(12)
# holds no singleton, so the softmax runs draw no swap.  Same BLAS caveat
# as above.  The softmax head's loss is a CRF's with zero transitions, which
# sums in another order than its cross-entropy graph did, so those runs are
# re-pinned, and that graph still gives the digests recorded before.  The
# packed LSTM moved all six; the masked blend still gives the earlier ones.
PINNED_UNK_SWAP = [
    (_digest_tagger_unk_provider, 0,
     "cb0a7c5f0d3e7b2cc20bdf6fbad6829e8ccbd2680afd290c9cfab3d19bef6c54"),
    (_digest_tagger_unk_provider, 7,
     "41b5681c2645700108b8f216411254c92457f57b466868a974247549fe586cc0"),
    (_digest_tagger_unk_softmax, 0,
     "db90483f7ed91cba268ba32736b1cd71c5405aac32c8eb333920fb3bde4b6c72"),
    (_digest_tagger_unk_softmax, 7,
     "5be638c5f4ab2ebf9b02a792a3166872b2ec66f615582db462384c08ef08e691"),
    (_digest_tagger_unk_softmax_reference, 0,
     "e91ed9d217731e581a5872ad224771f365db4a1be44675d346428e5e1de0ed4a"),
    (_digest_tagger_unk_softmax_reference, 7,
     "e025bc25a69d35f5145631ab2929d4c01789e5fc41ad761583c0da50f766bff9"),
    (_masked_lstm(_digest_tagger_unk_provider), 0,
     "92f74ec33b926445a68275e929b31d9f178c4eb91f20f98aeb36eb48e900842a"),
    (_masked_lstm(_digest_tagger_unk_provider), 7,
     "fcb72e9b4a37f986845858d7106cf7d904db6c2496be47ecc0a52c19abceb795"),
    (_masked_lstm(_digest_tagger_unk_softmax), 0,
     "2b02f2cc43641aa953f26394c1182bfbdc1a59ea62e1083f68a7e81e2f500cfe"),
    (_masked_lstm(_digest_tagger_unk_softmax), 7,
     "7ad37022517beaeb7ac289e89688e34b4549c7286da1f77c9b816e97e45ab1ba"),
    (_masked_lstm(_digest_tagger_unk_softmax_reference), 0,
     "c3c1d48c508873cd00b743afc310bbdd06edc0873203223d625ce0117481feb7"),
    (_masked_lstm(_digest_tagger_unk_softmax_reference), 7,
     "e3056be1a9d1467a4c1179e913ff14d317ce25aba6820843fb3cbb8cf0356b4e"),
]


@pytest.mark.parametrize("make, seed, digest", PINNED_UNK_SWAP,
                         ids=[f"{m.__name__[8:]}-seed{s}" for m, s, _ in PINNED_UNK_SWAP])
def test_pinned_unk_swap_digest(make, seed, digest):
    assert make(seed) == digest


@pytest.mark.parametrize("seed", [0, 7])
def test_fused_head_trains_as_the_unfused_one(seed):
    fused = _train_lm(seed)
    with mock.patch.object(bilm, "_nll_sum", reference_nll_sum):
        unfused = _train_lm(seed)
    assert fused.tensors.keys() == unfused.tensors.keys()
    for name, arr in unfused.tensors.items():
        assert np.abs(fused.tensors[name] - arr).max() < 1e-12, name


@pytest.mark.parametrize("seed", [0, 7])
def test_fused_encoder_trains_as_the_unfused_one(seed):
    fused = _train_lm(seed)
    with mock.patch.object(bilm, "encode_char_matrix", reference_encode_char_matrix):
        unfused = _train_lm(seed)
    assert fused.tensors.keys() == unfused.tensors.keys()
    for name, arr in unfused.tensors.items():
        assert np.abs(fused.tensors[name] - arr).max() < 1e-12, name


@pytest.mark.parametrize("seed", [0, 7])
def test_softmax_head_trains_as_its_cross_entropy_graph(seed):
    crf = _train_unk_softmax(seed)
    with mock.patch.object(tg.TaggerModel, "sentence_loss", reference_sentence_loss):
        graph = _train_unk_softmax(seed)
    assert crf.tensors.keys() == graph.tensors.keys()
    for name, arr in graph.tensors.items():
        assert np.abs(crf.tensors[name] - arr).max() < 1e-12, name
