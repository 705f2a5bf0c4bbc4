import gc
import math

import numpy as np
import pytest

from seqxfer import autodiff as ad
from seqxfer import bilm
from seqxfer import encoder as enc
from seqxfer import tagger as tg
from seqxfer.errors import ContractError, NumericError

from conftest import log_softmax, sigmoid, tanh, tiny_encoder_config


class TestReverseGradients:
    def test_sum_gradient_is_ones(self):
        p = ad.parameter("p", np.zeros(3))
        grads = ad.reverse_gradients(p.sum(), {"p": p})
        assert np.array_equal(grads["p"], np.ones(3))

    def test_elementwise_square(self):
        p = ad.parameter("p", np.array([1.0, 2.0]))
        grads = ad.reverse_gradients((p * p).sum(), {"p": p})
        assert np.array_equal(grads["p"], np.array([2.0, 4.0]))

    def test_unreachable_parameter_gets_zeros(self):
        p = ad.parameter("p", np.ones(2))
        q = ad.parameter("q", np.ones(4))
        grads = ad.reverse_gradients(p.sum(), {"p": p, "q": q})
        assert np.array_equal(grads["q"], np.zeros(4))

    def test_non_scalar_loss_rejected(self):
        p = ad.parameter("p", np.ones(2))
        with pytest.raises(ContractError):
            ad.backward(p * 2.0)

    def test_non_finite_gradient_names_parameter(self):
        p = ad.parameter("bad_param", np.array([0.0]))
        loss = ((p * 1e308) * 1e308).sum()  # 0 at p = 0; the gradient overflows
        assert float(loss.data) == 0.0
        with np.errstate(over="ignore"), \
                pytest.raises(NumericError, match="'bad_param'"):
            ad.reverse_gradients(loss, {"bad_param": p})

    def test_non_finite_loss_rejected(self):
        p = ad.parameter("p", np.array([1.0]))
        with np.errstate(over="ignore"):
            loss = ((p * 1e308) * 1e308).sum()
        with pytest.raises(NumericError, match="loss is not finite"):
            ad.reverse_gradients(loss, {"p": p})

    def test_composite_graph_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        W1 = ad.parameter("W1", ad.seeded_init((4, 5), 1))
        W2 = ad.parameter("W2", ad.seeded_init((5, 3), 2))
        b = ad.parameter("b", rng.normal(size=3))
        x = ad.constant(rng.normal(size=(6, 4)))

        def loss_fn():
            h = tanh(ad.matmul(x, W1))
            h = sigmoid(ad.matmul(h, W2) + b)
            return (h * h).sum()

        err = ad.finite_difference_check(loss_fn, {"W1": W1, "W2": W2, "b": b})
        assert err < 1e-4

    def test_returns_the_accumulated_arrays_and_clears_the_slots(self):
        p, q = ad.parameter("p", np.ones(2)), ad.parameter("q", np.ones(3))
        grads = ad.reverse_gradients((p * 3.0).sum(), {"p": p, "q": q})
        assert p.grad is None and q.grad is None
        assert not np.shares_memory(grads["p"], p.data)
        assert np.array_equal(grads["p"], [3.0, 3.0]) and np.array_equal(grads["q"], np.zeros(3))

    def test_gradients_accumulate_over_reuse(self):
        p = ad.parameter("p", np.array([3.0]))
        loss = (p * p).sum() + (2.0 * p).sum()  # d/dp = 2p + 2
        grads = ad.reverse_gradients(loss, {"p": p})
        assert grads["p"][0] == pytest.approx(8.0)


class TestOps:
    def test_concat_splits_gradient(self):
        a = ad.parameter("a", np.ones((2, 2)))
        b = ad.parameter("b", np.ones((2, 3)))
        out = ad.concat([a, b], axis=1)
        grads = ad.reverse_gradients((out * np.arange(10.0).reshape(2, 5)).sum(),
                                     {"a": a, "b": b})
        assert grads["a"].shape == (2, 2)
        assert grads["b"].shape == (2, 3)
        assert grads["a"][0, 1] == 1.0 and grads["b"][0, 0] == 2.0

    def test_getitem_scatter_adds(self):
        p = ad.parameter("p", np.zeros((4, 2)))
        idx = np.array([1, 1, 3])
        grads = ad.reverse_gradients(ad.getitem(p, idx).sum(), {"p": p})
        assert np.array_equal(grads["p"][:, 0], np.array([0.0, 2.0, 0.0, 1.0]))

    def test_log_softmax_rows_normalize(self):
        x = ad.constant(np.random.default_rng(3).normal(size=(5, 7)))
        out = log_softmax(x, axis=-1)
        assert np.allclose(np.exp(out.data).sum(axis=-1), 1.0)

    def test_broadcast_add_unbroadcasts_gradient(self):
        b = ad.parameter("b", np.zeros(3))
        x = ad.constant(np.ones((4, 3)))
        grads = ad.reverse_gradients((x + b).sum(), {"b": b})
        assert np.array_equal(grads["b"], np.full(3, 4.0))


def _p(*shape):
    return ad.parameter("p", np.random.default_rng(0).uniform(0.5, 1.5, size=shape))


_ONE_LAYER = tiny_encoder_config(highway_layers=1, max_word_len=3)

# every primitive op, the oracle graphs' ops and the fused LSTM, CRF,
# anchor-penalty, LM-head, char-CNN and encoder-tail ops, on inputs that
# require grad
GRAPH_OPS = {
    "add": lambda: ad.add(_p(2, 3), _p(3)),
    "mul": lambda: ad.mul(_p(2, 3), _p(2, 3)),
    "matmul": lambda: ad.matmul(_p(2, 3), _p(3, 4)),
    "reshape": lambda: ad.reshape(_p(2, 3), (3, 2)),
    "getitem": lambda: ad.getitem(_p(4, 2), np.array([1, 1, 3])),
    "concat": lambda: ad.concat([_p(2, 2), _p(2, 3)], axis=1),
    "tsum": lambda: ad.tsum(_p(2, 3), axis=0),
    "tanh": lambda: tanh(_p(2, 3)),
    "sigmoid": lambda: sigmoid(_p(2, 3)),
    "log_softmax": lambda: log_softmax(_p(2, 3), axis=-1),
    "lstm_forward": lambda: bilm.lstm_forward(_p(2, 4, 3), np.ones((2, 4)),
                                              _p(3, 8), _p(2, 8), _p(8)),
    "crf_log_partition": lambda: tg.crf_log_partition(
        _p(2, 4, 3), _p(5, 5), np.array([[1, 1, 1, 1], [1, 1, 0, 0]])),
    "nll_sum": lambda: bilm._nll_sum(
        _p(2, 3, 4), np.array([[0, 4, 1], [2, 0, 0]]), np.array([[1, 1, 1], [1, 0, 0]]),
        {"lm.head.W": _p(5, 4), "lm.head.b": _p(5)}),
    "char_cnn": lambda: enc.char_cnn(
        np.array([[0, 0, 0], [2, 1, 3]]),
        {"char_enc.emb": _p(4, 2), "char_enc.conv1.W": _p(2, 2), "char_enc.conv1.b": _p(2),
         "char_enc.conv2.W": _p(4, 3), "char_enc.conv2.b": _p(3)},
        enc.CharEncoderConfig(d_char=2, filter_widths=(1, 2), filter_counts=(2, 3),
                              max_word_len=3)),
    "encoder_tail": lambda: enc.encode_char_matrix(
        np.array([[0, 0, 0], [2, 1, 3]]),
        {k: _p(*shape) for k, shape, _ in enc.char_encoder_table(_ONE_LAYER, 4)},
        _ONE_LAYER),
    "anchor_penalty": lambda: bilm.anchor_penalty(
        {"a": _p(2, 3), "b": _p(4)}, {"a": np.zeros((2, 3)), "b": np.ones(4)}, 0.5),
}


class TestGraphNodes:
    @pytest.mark.parametrize("op", sorted(GRAPH_OPS))
    def test_dropped_output_leaves_no_cycle(self, op):
        gc.collect()
        gc.disable()
        try:
            out = GRAPH_OPS[op]()
            assert out.requires_grad and out._backward is not None
            del out
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("op", [ad.add, ad.mul, ad.matmul])
    def test_constant_operand_is_not_recorded(self, op):
        x = ad.parameter("x", np.ones((2, 2)))
        c = ad.constant(np.full((2, 2), 3.0))
        assert op(x, c)._parents == (x,)
        assert op(c, x)._parents == (x,)

    def test_recorded_inputs_are_the_node_parents(self):
        x, c = ad.parameter("x", np.ones(2)), ad.constant(np.ones(2))
        assert ad.recorded((c, x, c)) == (x,) == ad.mul(c, x)._parents
        assert ad.recorded((c, c)) == ()
        with ad.no_grad():
            assert ad.recorded((x, c)) == ()

    def test_constant_inputs_build_a_constant(self):
        out = ad.mul(ad.constant(np.ones(3)), 2.0)
        assert not out.requires_grad
        assert out._parents == () and out._backward is None


class TestAdam:
    def test_first_step_hand_value(self):
        # m=0.1g, v=0.001g^2, bias-corrected: step = lr*g/(|g|+eps)
        p = ad.parameter("p", np.array(0.0))
        opt = ad.Adam(lr=0.001)
        opt.step({"p": p}, {"p": np.array(1.0)})
        assert float(p.data) == pytest.approx(-0.001 / (1.0 + 1e-8), rel=1e-9)

    def test_zero_gradient_keeps_params(self):
        p = ad.parameter("p", np.array([1.0, -2.0]))
        before = p.data.copy()
        ad.Adam().step({"p": p}, {"p": np.zeros(2)})
        assert np.array_equal(p.data, before)

    def test_shape_mismatch_rejected(self):
        p = ad.parameter("p", np.ones(3))
        with pytest.raises(ContractError):
            ad.Adam().step({"p": p}, {"p": np.ones(4)})

    def test_missing_gradient_names_parameter(self):
        p = ad.parameter("p", np.ones(3))
        with pytest.raises(ContractError, match="no gradient for parameter 'p'"):
            ad.Adam().step({"p": p}, {})

    def test_moments_are_allocated_once_per_parameter(self, monkeypatch):
        made, zeros_like = [], np.zeros_like

        def spy(a):
            made.append(a.shape)
            return zeros_like(a)
        monkeypatch.setattr(ad.np, "zeros_like", spy)
        params = {"p": ad.parameter("p", np.ones(3)), "q": ad.parameter("q", np.ones(2))}
        grads = {"p": np.ones(3), "q": np.ones(2)}
        opt = ad.Adam()
        opt.step(params, grads)
        assert made == [(3,), (3,), (2,), (2,)]
        opt.step(params, grads)
        assert len(made) == 4
        assert np.allclose(opt.m["p"], 0.19) and np.allclose(opt.v["q"], 0.001999)


class TestSeededInit:
    def test_same_seed_bit_identical(self):
        a = ad.seeded_init((5, 7), 42)
        b = ad.seeded_init((5, 7), 42)
        assert np.array_equal(a, b)

    def test_glorot_bound(self):
        t = ad.seeded_init((100, 100), 3)
        bound = math.sqrt(6.0 / 200.0)
        assert np.abs(t).max() <= bound


class TestClip:
    def test_large_gradient_scaled_to_norm(self):
        grads = {"a": np.full(4, 10.0)}
        clipped, norm = ad.clip_by_global_norm(grads, 5.0)
        assert norm == pytest.approx(20.0)
        assert math.sqrt((clipped["a"] ** 2).sum()) == pytest.approx(5.0)

    def test_small_gradient_untouched(self):
        grads = {"a": np.ones(2)}
        clipped, _ = ad.clip_by_global_norm(grads, 5.0)
        assert np.array_equal(clipped["a"], np.ones(2))


class TestFiniteDifferenceCheck:
    def test_quadratic_loss_tight(self):
        p = ad.parameter("p", np.array([1.0, -2.0, 0.5]))

        def loss_fn():
            return (p * p).sum()

        assert ad.finite_difference_check(loss_fn, {"p": p}) < 1e-7
