import gc
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqxfer import autodiff as ad
from seqxfer import bilm
from seqxfer import tagger as tg
from seqxfer.errors import ContractError, NumericError


class TestLogsumexp:
    def test_two_zeros(self):
        assert ad.logsumexp([0.0, 0.0]) == pytest.approx(math.log(2), rel=1e-12)

    def test_single_element_identity(self):
        assert ad.logsumexp([5.0]) == 5.0

    def test_max_shift_avoids_overflow(self):
        assert ad.logsumexp([1000.0, 1000.0]) == pytest.approx(
            1000.0 + math.log(2), rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            ad.logsumexp([])

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_bounds(self, values):
        out = ad.logsumexp(values)
        assert out >= max(values) - 1e-12
        assert out <= max(values) + math.log(len(values)) + 1e-12


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
        loss = ad.log(p).sum()  # -inf loss gradient at 0
        with pytest.raises((NumericError, ContractError)) as exc:
            ad.reverse_gradients(loss, {"bad_param": p})
        assert "bad_param" in str(exc.value) or "finite" in str(exc.value)

    def test_composite_graph_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        W1 = ad.parameter("W1", ad.seeded_init((4, 5), "glorot", 1))
        W2 = ad.parameter("W2", ad.seeded_init((5, 3), "glorot", 2))
        b = ad.parameter("b", rng.normal(size=3))
        x = ad.constant(rng.normal(size=(6, 4)))

        def loss_fn():
            h = ad.tanh(ad.matmul(x, W1))
            h = ad.sigmoid(ad.matmul(h, W2) + b)
            return (h * h).sum() + ad.logsumexp_t(h.reshape((-1,)), axis=0)

        err = ad.finite_difference_check(loss_fn, {"W1": W1, "W2": W2, "b": b})
        assert err < 1e-4

    def test_gradients_accumulate_over_reuse(self):
        p = ad.parameter("p", np.array([3.0]))
        loss = (p * p).sum() + (2.0 * p).sum()  # d/dp = 2p + 2
        grads = ad.reverse_gradients(loss, {"p": p})
        assert grads["p"][0] == pytest.approx(8.0)


class TestOps:
    def test_max_routes_gradient_to_first_argmax(self):
        p = ad.parameter("p", np.array([[1.0, 3.0, 3.0]]))
        grads = ad.reverse_gradients(ad.tmax(p, axis=1).sum(), {"p": p})
        assert np.array_equal(grads["p"], np.array([[0.0, 1.0, 0.0]]))

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
        out = ad.log_softmax(x, axis=-1)
        assert np.allclose(np.exp(out.data).sum(axis=-1), 1.0)

    def test_broadcast_add_unbroadcasts_gradient(self):
        b = ad.parameter("b", np.zeros(3))
        x = ad.constant(np.ones((4, 3)))
        grads = ad.reverse_gradients((x + b).sum(), {"b": b})
        assert np.array_equal(grads["b"], np.full(3, 4.0))


def _p(*shape):
    return ad.parameter("p", np.random.default_rng(0).uniform(0.5, 1.5, size=shape))


# every primitive op and the fused LSTM, CRF and anchor-penalty ops, on
# inputs that require grad
GRAPH_OPS = {
    "add": lambda: ad.add(_p(2, 3), _p(3)),
    "mul": lambda: ad.mul(_p(2, 3), _p(2, 3)),
    "matmul": lambda: ad.matmul(_p(2, 3), _p(3, 4)),
    "transpose": lambda: ad.transpose(_p(2, 3)),
    "reshape": lambda: ad.reshape(_p(2, 3), (3, 2)),
    "getitem": lambda: ad.getitem(_p(4, 2), np.array([1, 1, 3])),
    "concat": lambda: ad.concat([_p(2, 2), _p(2, 3)], axis=1),
    "tsum": lambda: ad.tsum(_p(2, 3), axis=0),
    "tmax": lambda: ad.tmax(_p(2, 3), axis=1),
    "exp": lambda: ad.exp(_p(2, 3)),
    "log": lambda: ad.log(_p(2, 3)),
    "tanh": lambda: ad.tanh(_p(2, 3)),
    "sigmoid": lambda: ad.sigmoid(_p(2, 3)),
    "logsumexp_t": lambda: ad.logsumexp_t(_p(2, 3), axis=0),
    "log_softmax": lambda: ad.log_softmax(_p(2, 3), axis=-1),
    "lstm_forward": lambda: bilm.lstm_forward(_p(2, 4, 3), np.ones((2, 4)),
                                              _p(3, 8), _p(2, 8), _p(8)),
    "crf_log_partition": lambda: tg.crf_log_partition(
        _p(2, 4, 3), _p(5, 5), np.array([[1, 1, 1, 1], [1, 1, 0, 0]])),
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


class TestSeededInit:
    def test_same_seed_bit_identical(self):
        a = ad.seeded_init((5, 7), "glorot", 42)
        b = ad.seeded_init((5, 7), "glorot", 42)
        assert np.array_equal(a, b)

    def test_glorot_bound(self):
        t = ad.seeded_init((100, 100), "glorot", 3)
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
