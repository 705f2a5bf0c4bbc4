import math

import numpy as np
import pytest

from seqxfer import autodiff as ad
from seqxfer import bilm
from seqxfer.corpus import (build_char_vocab, build_vocab, char_id_row,
                            lm_batches)
from seqxfer.errors import ContractError, TransferError

from conftest import tiny_bilm_config

SENTS = [["red", "fox", "ran"], ["blue", "fox", "sat", "down"], ["red", "owl"]]


def _setup(seed=0, config=None):
    config = config or tiny_bilm_config()
    vocab = build_vocab(SENTS)
    cvocab = build_char_vocab(SENTS)
    params = bilm.init_bilm_params(config, len(cvocab), len(vocab), seed)
    return config, vocab, cvocab, params


def numpy_lstm(xs, Wx, Wh, b, reverse=False):
    """Straight-line numpy reference for one unmasked LSTM layer."""
    def sig(z):
        return 1.0 / (1.0 + np.exp(-z))
    B, T, _ = xs.shape
    H = Wh.shape[0]
    h = np.zeros((B, H))
    c = np.zeros((B, H))
    outs = [None] * T
    steps = range(T - 1, -1, -1) if reverse else range(T)
    for t in steps:
        z = xs[:, t, :] @ Wx + h @ Wh + b
        i, f = sig(z[:, :H]), sig(z[:, H:2 * H])
        g, o = np.tanh(z[:, 2 * H:3 * H]), sig(z[:, 3 * H:])
        c = f * c + i * g
        h = o * np.tanh(c)
        outs[t] = h
    return np.stack(outs, axis=1)


def reference_lstm_forward(xs, mask, Wx, Wh, b, reverse=False):
    """The unfused LSTM layer: one autodiff graph of scalar ops per time
    step.  `bilm.lstm_forward` must agree with it in value and gradient."""
    B, T, _ = xs.data.shape
    H = Wh.data.shape[0]
    h = ad.constant(np.zeros((B, H)))
    c = ad.constant(np.zeros((B, H)))
    outs = [None] * T
    steps = range(T - 1, -1, -1) if reverse else range(T)
    for t in steps:
        gates = ad.matmul(xs[:, t, :], Wx) + ad.matmul(h, Wh) + b
        i = ad.sigmoid(gates[:, :H])
        f = ad.sigmoid(gates[:, H:2 * H])
        g = ad.tanh(gates[:, 2 * H:3 * H])
        o = ad.sigmoid(gates[:, 3 * H:])
        c_new = f * c + i * g
        h_new = o * ad.tanh(c_new)
        m = mask[:, t:t + 1]
        c = c_new * m + c * (1.0 - m)
        h = h_new * m + h * (1.0 - m)
        outs[t] = ad.reshape(h, (B, 1, H))
    return ad.concat(outs, axis=1)


def ragged_mask(lengths, T):
    return (np.arange(T)[None, :] < np.asarray(lengths)[:, None]).astype(float)


class TestFusedLSTMOracle:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("reverse", [False, True])
    def test_matches_unfused_graph(self, seed, reverse):
        rng = np.random.default_rng(seed)
        B, D, H = 4, int(rng.integers(1, 6)), int(rng.integers(1, 6))
        # the longest row stops short of T: the last steps are padding in
        # every row; one row is padding throughout and one has holes, so
        # a padded step's carried state feeds a later real step
        T = 7
        mask = ragged_mask([5, int(rng.integers(1, 6)), 0, 0], T)
        mask[2, [0, 2, 3]] = 1.0
        arrays = {"xs": rng.normal(size=(B, T, D)),
                  "Wx": rng.normal(size=(D, 4 * H)) * 0.5,
                  "Wh": rng.normal(size=(H, 4 * H)) * 0.5,
                  "b": rng.normal(size=4 * H) * 0.5}
        cotangent = rng.normal(size=(B, T, H))
        results = []
        for fn in (reference_lstm_forward, bilm.lstm_forward):
            params = {k: ad.parameter(k, v.copy()) for k, v in arrays.items()}
            out = fn(params["xs"], mask, params["Wx"], params["Wh"],
                     params["b"], reverse=reverse)
            grads = ad.reverse_gradients((out * cotangent).sum(), params)
            results.append((out.data, grads))
        (want, want_grads), (got, got_grads) = results
        assert np.abs(got - want).max() < 1e-12
        for name in arrays:
            assert np.abs(got_grads[name] - want_grads[name]).max() < 1e-12, name

    def test_one_node_per_layer_without_cycles(self):
        rng = np.random.default_rng(0)
        xs = ad.parameter("xs", rng.normal(size=(2, 4, 3)))
        Wx = ad.constant(rng.normal(size=(3, 8)))
        Wh = ad.parameter("Wh", rng.normal(size=(2, 8)))
        b = ad.constant(np.zeros(8))
        out = bilm.lstm_forward(xs, np.ones((2, 4)), Wx, Wh, b)
        assert out._parents == (xs, Wh)
        cells = [cell.cell_contents for cell in out._backward.__closure__]
        assert not any(c is out for c in cells)

    def test_constant_inputs_record_no_graph(self):
        rng = np.random.default_rng(0)
        out = bilm.lstm_forward(ad.constant(rng.normal(size=(1, 3, 2))),
                                np.ones((1, 3)), ad.constant(np.ones((2, 8))),
                                ad.constant(np.ones((2, 8))),
                                ad.constant(np.zeros(8)))
        assert not out.requires_grad and out._backward is None

    def test_ragged_reverse_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        B, T, D, H = 3, 5, 3, 4
        mask = ragged_mask([5, 3, 1], T)
        mask[2, 3] = 1.0    # state carried over padding into a real step
        params = {
            "xs": ad.parameter("xs", rng.normal(size=(B, T, D))),
            "Wx": ad.parameter("Wx", ad.seeded_init((D, 4 * H), "glorot", 1)),
            "Wh": ad.parameter("Wh", ad.seeded_init((H, 4 * H), "glorot", 2)),
            "b": ad.parameter("b", rng.normal(size=4 * H) * 0.3),
        }
        cotangent = rng.normal(size=(B, T, H))

        def loss_fn():
            out = bilm.lstm_forward(params["xs"], mask, params["Wx"],
                                    params["Wh"], params["b"], reverse=True)
            return (out * cotangent).sum()

        assert ad.finite_difference_check(loss_fn, params) < 1e-4


class TestLSTM:
    def test_matches_numpy_reference_both_directions(self):
        rng = np.random.default_rng(0)
        B, T, D, H = 3, 5, 4, 6
        xs = rng.normal(size=(B, T, D))
        Wx = rng.normal(size=(D, 4 * H)) * 0.3
        Wh = rng.normal(size=(H, 4 * H)) * 0.3
        b = rng.normal(size=4 * H) * 0.3
        mask = np.ones((B, T))
        for reverse in (False, True):
            got = bilm.lstm_forward(ad.constant(xs), mask,
                                    ad.constant(Wx), ad.constant(Wh),
                                    ad.constant(b), reverse=reverse).data
            want = numpy_lstm(xs, Wx, Wh, b, reverse=reverse)
            assert np.allclose(got, want, atol=1e-12)

    def test_padded_steps_carry_state(self):
        rng = np.random.default_rng(1)
        D, H = 3, 4
        Wx = rng.normal(size=(D, 4 * H)) * 0.3
        Wh = rng.normal(size=(H, 4 * H)) * 0.3
        b = np.zeros(4 * H)
        xs = rng.normal(size=(1, 4, D))
        mask = np.array([[1.0, 1.0, 0.0, 0.0]])
        out = bilm.lstm_forward(ad.constant(xs), mask, ad.constant(Wx),
                                ad.constant(Wh), ad.constant(b)).data
        # state frozen after the last real token
        assert np.allclose(out[0, 2], out[0, 1])
        assert np.allclose(out[0, 3], out[0, 1])

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        D, H = 3, 4
        xs = ad.constant(rng.normal(size=(2, 3, D)))
        mask = np.ones((2, 3))
        params = {
            "Wx": ad.parameter("Wx", ad.seeded_init((D, 4 * H), "glorot", 1)),
            "Wh": ad.parameter("Wh", ad.seeded_init((H, 4 * H), "glorot", 2)),
            "b": ad.parameter("b", np.zeros(4 * H)),
        }

        def loss_fn():
            out = bilm.lstm_forward(xs, mask, params["Wx"], params["Wh"],
                                    params["b"])
            return (out * out).sum()

        assert ad.finite_difference_check(loss_fn, params) < 1e-4


class TestBiLMLoss:
    def test_zero_head_loss_is_log_vocab(self):
        config, vocab, cvocab, params = _setup()
        params["lm.head.W"].data[:] = 0.0
        params["lm.head.b"].data[:] = 0.0
        for batch in lm_batches(SENTS, vocab, cvocab, 2,
                                config.encoder.max_word_len, seed=0):
            loss = bilm.bilm_loss(batch, params, config)
            assert float(loss.data) == pytest.approx(math.log(len(vocab)),
                                                     abs=1e-12)

    def test_zero_head_perplexity_is_vocab_size(self):
        config, vocab, cvocab, params = _setup()
        params["lm.head.W"].data[:] = 0.0
        params["lm.head.b"].data[:] = 0.0
        ppl = bilm.perplexity(SENTS, params, config, vocab, cvocab)
        assert ppl == pytest.approx(len(vocab), rel=1e-12)

    def test_loss_batch_size_invariant(self):
        config, vocab, cvocab, params = _setup()

        def mean_loss(bs):
            total, count = 0.0, 0
            for batch in lm_batches(SENTS, vocab, cvocab, bs,
                                    config.encoder.max_word_len, seed=0):
                fwd, bwd, n = bilm.bilm_loss_parts(batch, params, config)
                total += float(fwd.data) + float(bwd.data)
                count += 2 * n
            return total / count

        assert mean_loss(1) == pytest.approx(mean_loss(3), rel=1e-10)

    def test_gradient_matches_finite_differences(self):
        config, vocab, cvocab, params = _setup()
        batch = lm_batches(SENTS[:2], vocab, cvocab, 2,
                           config.encoder.max_word_len, seed=0)[0]

        def loss_fn():
            return bilm.bilm_loss(batch, params, config)

        assert ad.finite_difference_check(loss_fn, params, max_coords=80) < 1e-4

    def test_empty_corpus_rejected(self):
        config, vocab, cvocab, params = _setup()
        with pytest.raises(ContractError):
            bilm.perplexity([[]], params, config, vocab, cvocab)


class TestContextualRepr:
    def test_shape_and_context_sensitivity(self):
        config, vocab, cvocab, params = _setup()
        r1 = bilm.contextual_repr(["red", "fox"], params, config, cvocab)
        r2 = bilm.contextual_repr(["blue", "fox"], params, config, cvocab)
        assert r1.shape == (2, 2 * config.d_out)
        # same surface form, different context -> different vector
        assert not np.allclose(r1[1], r2[1])

    def test_deterministic(self):
        config, vocab, cvocab, params = _setup()
        a = bilm.contextual_repr(["red", "owl"], params, config, cvocab)
        b = bilm.contextual_repr(["red", "owl"], params, config, cvocab)
        assert np.array_equal(a, b)


def reference_anchor_penalty(params, anchors, coeff):
    """The unfused anchor penalty: a subtract, square and sum per anchored
    parameter, chained by adds.  `bilm.anchor_penalty` must agree with it
    in value and gradient."""
    term = None
    for name, ref in anchors.items():
        d = params[name] - ad.constant(ref)
        sq = (d * d).sum()
        term = sq if term is None else term + sq
    return term * coeff


def _anchored(seed):
    """Named parameters, one of them a constant, and anchors near them."""
    rng = np.random.default_rng(seed)
    shapes = {"a": (3, 4), "b": (5,), "c": (2, 2, 3), "frozen": (4,)}
    params = {n: ad.parameter(n, rng.normal(size=shape)) for n, shape in shapes.items()}
    params["frozen"] = ad.constant(params["frozen"].data)
    anchors = {n: p.data + rng.normal(size=p.data.shape) * 0.3
               for n, p in params.items()}
    return params, anchors


class TestFusedAnchorPenalty:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("coeff", [1e-3, 0.5, 10.0])
    def test_matches_unfused_graph(self, seed, coeff):
        results = []
        for fn in (reference_anchor_penalty, bilm.anchor_penalty):
            params, anchors = _anchored(seed)
            # the penalty added to another loss term, as a training step does
            loss = fn(params, anchors, coeff) + (params["a"] * params["a"]).sum()
            trainable = {n: p for n, p in params.items() if p.requires_grad}
            results.append((float(loss.data), ad.reverse_gradients(loss, trainable),
                            params["frozen"].grad))
        (want, want_grads, want_frozen), (got, got_grads, got_frozen) = results
        assert abs(got - want) < 1e-12 * max(1.0, abs(want))
        assert sorted(got_grads) == ["a", "b", "c"]
        for name in want_grads:
            assert np.abs(got_grads[name] - want_grads[name]).max() < 1e-12, name
        assert want_frozen is None and got_frozen is None

    def test_one_node_over_the_anchored_parameters(self):
        params, anchors = _anchored(0)
        out = bilm.anchor_penalty(params, anchors, 0.1)
        assert out._parents == (params["a"], params["b"], params["c"])
        cells = [cell.cell_contents for cell in out._backward.__closure__]
        assert not any(c is out for c in cells)

    def test_gradient_matches_finite_differences(self):
        params, anchors = _anchored(5)
        trainable = {n: p for n, p in params.items() if p.requires_grad}
        cotangent = np.random.default_rng(6).normal(size=(3, 4))

        def loss_fn():
            return bilm.anchor_penalty(params, anchors, 0.7) \
                + (params["a"] * cotangent).sum()

        assert ad.finite_difference_check(loss_fn, trainable) < 1e-6

    def test_constant_parameters_record_no_graph(self):
        params, anchors = _anchored(0)
        frozen = {"frozen": params["frozen"]}
        out = bilm.anchor_penalty(frozen, {"frozen": anchors["frozen"]}, 2.0)
        assert not out.requires_grad and out._backward is None
        d = params["frozen"].data - anchors["frozen"]
        assert float(out.data) == pytest.approx(2.0 * float((d * d).sum()), rel=1e-14)


class TestTrainLM:
    def test_loss_decreases_and_is_seeded(self):
        config, vocab, cvocab, _ = _setup()
        ck1 = bilm.train_lm(SENTS * 4, vocab, cvocab, config, epochs=5,
                            batch_size=4, seed=3)
        ck2 = bilm.train_lm(SENTS * 4, vocab, cvocab, config, epochs=5,
                            batch_size=4, seed=3)
        losses = ck1.manifest["metrics"]["train_loss"]
        assert losses[-1] < losses[0]
        assert ck1.digest() == ck2.digest()

    def test_resume_from_checkpoint(self):
        config, vocab, cvocab, _ = _setup()
        ck = bilm.train_lm(SENTS, vocab, cvocab, config, epochs=1, seed=0)
        ck2 = bilm.train_lm(SENTS, epochs=1, init=ck)
        assert ck2.architecture == ck.architecture
        events = [p["event"] for p in ck2.manifest["provenance"]]
        assert events == ["pretrain", "continue_training"]


class TestReplaceVocabHead:
    def test_trunk_copied_head_resized(self):
        config, vocab, cvocab, _ = _setup()
        src = bilm.train_lm(SENTS, vocab, cvocab, config, epochs=1, seed=0)
        target = build_vocab([["uno", "dos", "tres", "quatro", "cinco"]])
        out = bilm.replace_vocab_head(src, target, seed=11)
        for name, arr in src.tensors.items():
            if name not in bilm.HEAD_PARAMS:
                assert np.array_equal(out.tensors[name], arr)
        assert out.tensors["lm.head.W"].shape == (len(target), config.d_out)
        assert np.array_equal(out.tensors["lm.head.b"], np.zeros(len(target)))
        assert out.word_vocab == target
        assert out.char_vocab == src.char_vocab
        assert out.architecture["n_words"] == len(target)

    def test_provenance_records_source_digest(self):
        config, vocab, cvocab, _ = _setup()
        src = bilm.train_lm(SENTS, vocab, cvocab, config, epochs=1, seed=0)
        out = bilm.replace_vocab_head(src, vocab, seed=0)
        ev = out.manifest["provenance"][-1]
        assert ev["event"] == "replace_vocab_head"
        assert ev["source"] == src.digest()

    def test_non_bilm_source_rejected(self):
        from seqxfer.checkpoint import Checkpoint
        ck = Checkpoint.create("tagger", {"kind": "tagger"},
                               {"tagger.emission.b": np.zeros(3)})
        with pytest.raises(TransferError):
            bilm.replace_vocab_head(ck, build_vocab([["a"]]), seed=0)

    def test_anchored_finetune_stays_near_init(self):
        config, vocab, cvocab, _ = _setup()
        src = bilm.train_lm(SENTS, vocab, cvocab, config, epochs=1, seed=0)
        loose = bilm.train_lm(SENTS, epochs=3, init=src, anchor_coeff=0.0, lr=0.05)
        tight = bilm.train_lm(SENTS, epochs=3, init=src, anchor_coeff=10.0, lr=0.05)

        def drift(ck):
            return sum(np.abs(ck.tensors[n] - src.tensors[n]).sum()
                       for n in src.tensors if n not in bilm.HEAD_PARAMS)

        assert drift(tight) < drift(loose)
