import bisect
import gc
import itertools
import math
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seqxfer import autodiff as ad
from seqxfer import bilm
from seqxfer import tagger as tg
from seqxfer.checkpoint import Checkpoint
from seqxfer.corpus import (Vocabulary, build_char_vocab, build_vocab, char_id_row,
                            lm_batches, prefix_lengths)
from seqxfer.errors import ContractError, DataError, TransferError

from conftest import (log_softmax, sigmoid, tanh, tiny_bilm_config, tiny_tagger_config,
                      toy_ner_corpus)

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
        i = sigmoid(gates[:, :H])
        f = sigmoid(gates[:, H:2 * H])
        g = tanh(gates[:, 2 * H:3 * H])
        o = sigmoid(gates[:, 3 * H:])
        c_new = f * c + i * g
        h_new = o * tanh(c_new)
        m = mask[:, t:t + 1]
        c = c_new * m + c * (1.0 - m)
        h = h_new * m + h * (1.0 - m)
        outs[t] = ad.reshape(h, (B, 1, H))
    return ad.concat(outs, axis=1)


def masked_lstm_forward(xs, mask, Wx, Wh, b, reverse=False):
    """`bilm.lstm_forward` as it was before each step ran only its real
    rows: every step runs all B rows, and a padded row's state is carried
    by the masked blend x * m + y * (1 - m), forward and in BPTT.  The
    packed op must equal it within rounding, and bit for bit when every
    row is real at every step."""
    B, T, _ = xs.data.shape
    H = Wh.data.shape[0]
    mask = np.asarray(mask, dtype=np.float64)
    full = (mask == 1.0).all(axis=0)
    scale, shift = bilm._gate_constants(H)
    Z = xs.data @ Wx.data + b.data
    Whd = Wh.data
    acts = np.empty((T, B, 4 * H))
    tanh_c = np.empty((T, B, H))
    hs = np.empty((B, T, H))
    cs = np.empty((T, B, H))
    h = np.zeros((B, H))
    c = np.zeros((B, H))
    steps = range(T - 1, -1, -1) if reverse else range(T)
    for t in steps:
        a = acts[t]
        np.tanh((Z[:, t] + h @ Whd) * scale, out=a)
        a *= scale
        a += shift
        c_new = a[:, H:2 * H] * c + a[:, :H] * a[:, 2 * H:3 * H]
        tc = np.tanh(c_new, out=tanh_c[t])
        h_new = a[:, 3 * H:] * tc
        if full[t]:
            c, h = c_new, h_new
        else:
            m = mask[:, t:t + 1]
            c = c_new * m + c * (1.0 - m)
            h = h_new * m + h * (1.0 - m)
        cs[t] = c
        hs[:, t] = h

    def _bw(g):
        zero = np.zeros((B, 1, H))
        if reverse:
            h_prev = np.concatenate([hs[:, 1:], zero], axis=1)
            c_prev = np.concatenate([cs[1:], zero.reshape(1, B, H)])
        else:
            h_prev = np.concatenate([zero, hs[:, :-1]], axis=1)
            c_prev = np.concatenate([zero.reshape(1, B, H), cs[:-1]])
        i, f = acts[..., :H], acts[..., H:2 * H]
        gg, o = acts[..., 2 * H:3 * H], acts[..., 3 * H:]
        factors = np.empty((T, B, 4, H))
        factors[:, :, 0] = gg * i * (1.0 - i)
        factors[:, :, 1] = c_prev * f * (1.0 - f)
        factors[:, :, 2] = i * (1.0 - gg * gg)
        factors[:, :, 3] = tanh_c * o * (1.0 - o)
        dc_from_h = o * (1.0 - tanh_c * tanh_c)
        Wh_T = Whd.T
        dZ = np.empty((T, B, 4, H))
        dh = np.zeros((B, H))
        dc = np.zeros((B, H))
        for t in reversed(steps):
            dh_tot = g[:, t] + dh
            if full[t]:
                dh_new = dh_tot
                dc_new = dc + dh_new * dc_from_h[t]
            else:
                m = mask[:, t:t + 1]
                dh_new = m * dh_tot
                dc_new = m * dc + dh_new * dc_from_h[t]
            dz = dZ[t]
            np.multiply(dc_new[:, None, :], factors[t, :, :3], out=dz[:, :3])
            np.multiply(dh_new, factors[t, :, 3], out=dz[:, 3])
            dh_prev = dz.reshape(B, 4 * H) @ Wh_T
            dc_prev = f[t] * dc_new
            if not full[t]:
                dh_prev += (1.0 - m) * dh_tot
                dc_prev += (1.0 - m) * dc
            dh, dc = dh_prev, dc_prev
        dZ = dZ.reshape(T, B, 4 * H).transpose(1, 0, 2).reshape(B * T, 4 * H)
        if xs.requires_grad:
            xs._accum((dZ @ Wx.data.T).reshape(xs.data.shape))
        if Wx.requires_grad:
            Wx._accum(xs.data.reshape(B * T, -1).T @ dZ)
        if Wh.requires_grad:
            Wh._accum(h_prev.reshape(B * T, H).T @ dZ)
        if b.requires_grad:
            b._accum(dZ.sum(axis=0))
    return ad.node(hs, (xs, Wx, Wh, b), _bw)


def sorted_lstm_forward(xs, mask, Wx, Wh, b, reverse=False):
    """`bilm.lstm_forward` as it was before its input projection ran over
    only the real (row, step) pairs: it projects every padded pair too, as
    one 3-D product `xs @ Wx`, and sorts the product's rows.  The packed
    op must equal it within rounding, and bit for bit without padding."""
    B, T, _ = xs.data.shape
    H = Wh.data.shape[0]
    lengths = prefix_lengths(mask, (B, T))
    order = back = slice(None)
    ls = lengths.tolist()
    if ls != sorted(ls):
        order = np.argsort(lengths, kind="stable")
        back = np.argsort(order)
        ls.sort()
    # rows first[t]: of the sorted batch are the ones real at step t
    first = [bisect.bisect_right(ls, t) for t in range(T)]
    scale, shift = bilm._gate_constants(H)
    Z = (xs.data @ Wx.data + b.data)[order]
    acts = np.empty((T, B, 4 * H))     # gate activations, per time index
    tanh_c = np.empty((T, B, H))       # tanh of the step's new cell
    hs = np.empty((B, T, H))           # carried h: the layer's output
    cs = np.empty((T, B, H))           # carried c
    h, c = np.zeros((2, B, H))
    steps = range(T - 1, -1, -1) if reverse else range(T)
    for t in steps:
        r = slice(first[t], None)
        hr, cr = h[r], c[r]
        z = (Z[r, t] + hr @ Wh.data) * scale
        a = np.tanh(z, out=acts[t, r])
        a *= scale
        a += shift
        ig = a[:, :H] * a[:, 2 * H:3 * H]
        cr *= a[:, H:2 * H]
        cr += ig
        np.multiply(a[:, 3 * H:], np.tanh(cr, out=tanh_c[t, r]), out=hr)
        if first[t]:    # never read back; zeros keep the BPTT factors finite
            acts[t, :first[t]] = tanh_c[t, :first[t]] = 0.0
        cs[t] = c
        hs[:, t] = h
    hs = hs[back]

    def _bw(g):
        # each step's incoming state: h in the row order of xs, c sorted
        zero = np.zeros((B, 1, H))
        if reverse:
            h_prev = np.concatenate([hs[:, 1:], zero], axis=1)
            c_prev = np.concatenate([cs[1:], zero.reshape(1, B, H)])
        else:
            h_prev = np.concatenate([zero, hs[:, :-1]], axis=1)
            c_prev = np.concatenate([zero.reshape(1, B, H), cs[:-1]])
        i, f = acts[..., :H], acts[..., H:2 * H]
        gg, o = acts[..., 2 * H:3 * H], acts[..., 3 * H:]
        # dz of each gate is (dc_new or dh_new) times one of the first four
        # factors; dc_new gains dh_new times the fifth and leaves times f
        factors = np.empty((T, B, 6, H))
        factors[:, :, 0] = gg * i * (1.0 - i)
        factors[:, :, 1] = c_prev * f * (1.0 - f)
        factors[:, :, 2] = i * (1.0 - gg * gg)
        factors[:, :, 3] = tanh_c * o * (1.0 - o)
        factors[:, :, 4] = o * (1.0 - tanh_c * tanh_c)
        factors[:, :, 5] = f
        Wh_T = Wh.data.T
        g = g[order]
        dZ = np.empty((T, B, 4, H))
        dh, dc = np.zeros((2, B, H))   # gradient reaching the carried h and c
        for t in reversed(steps):
            r = slice(first[t], None)
            dh += g[:, t]
            dhr, dcr = dh[r], dc[r]
            fac = factors[t, r]
            dcr += dhr * fac[:, 4]
            dz = dZ[t, r]
            np.multiply(dcr[:, None, :], fac[:, :3], out=dz[:, :3])
            np.multiply(dhr, fac[:, 3], out=dz[:, 3])
            np.matmul(dz.reshape(-1, 4 * H), Wh_T, out=dhr)
            dcr *= fac[:, 5]
            if first[t]:
                dZ[t, :first[t]] = 0.0
        # one row per (b, t), in the order of xs
        dZ = dZ.reshape(T, B, 4 * H)[:, back].transpose(1, 0, 2).reshape(B * T, 4 * H)
        if xs.requires_grad:
            xs._accum((dZ @ Wx.data.T).reshape(xs.data.shape))
        if Wx.requires_grad:
            Wx._accum(xs.data.reshape(B * T, -1).T @ dZ)
        if Wh.requires_grad:
            Wh._accum(h_prev.reshape(B * T, H).T @ dZ)
        if b.requires_grad:
            b._accum(dZ.sum(axis=0))
    return ad.node(hs, (xs, Wx, Wh, b), _bw)


def grid_lstm_forward(xs, mask, Wx, Wh, b, reverse=False):
    """`bilm.lstm_forward` as it was before its stored arrays held only the
    real (row, step) pairs: gate activations, tanh(c), the carried cells,
    the BPTT factors and dZ live on the padded [T, B, .] grid, whose padded
    entries are zeroed at every step, and dZ is permuted back into the row
    order of xs.  The packed op must equal it bit for bit."""
    B, T, _ = xs.data.shape
    H = Wh.data.shape[0]
    lengths = prefix_lengths(mask, (B, T))
    order = back = slice(None)
    ls = lengths.tolist()
    if ls != sorted(ls):
        order = np.argsort(lengths, kind="stable")
        back = np.argsort(order)
        ls.sort()
    # rows first[t]: of the sorted batch are the ones real at step t
    first = [bisect.bisect_right(ls, t) for t in range(T)]
    scale, shift = bilm._gate_constants(H)
    if ls and ls[0] < T:
        # padding: the real (row, step) pairs, step-major, so step t's
        # rows of the sorted batch are one block zs[t] of the product
        real = np.arange(T)[:, None] < np.array(ls)
        Z = xs.data[order].transpose(1, 0, 2)[real] @ Wx.data
        Z += b.data
        counts = [B - f for f in first]
        zs = [Z[e - n:e] for n, e in zip(counts, itertools.accumulate(counts))]
    else:
        zs = (xs.data @ Wx.data + b.data).transpose(1, 0, 2)
    acts = np.empty((T, B, 4 * H))     # gate activations, per time index
    tanh_c = np.empty((T, B, H))       # tanh of the step's new cell
    hs = np.empty((B, T, H))           # carried h: the layer's output
    cs = np.empty((T, B, H))           # carried c
    h, c = np.zeros((2, B, H))
    steps = range(T - 1, -1, -1) if reverse else range(T)
    for t in steps:
        r = slice(first[t], None)
        hr, cr = h[r], c[r]
        z = (zs[t] + hr @ Wh.data) * scale
        a = np.tanh(z, out=acts[t, r])
        a *= scale
        a += shift
        ig = a[:, :H] * a[:, 2 * H:3 * H]
        cr *= a[:, H:2 * H]
        cr += ig
        np.multiply(a[:, 3 * H:], np.tanh(cr, out=tanh_c[t, r]), out=hr)
        if first[t]:    # never read back; zeros keep the BPTT factors finite
            acts[t, :first[t]] = tanh_c[t, :first[t]] = 0.0
        cs[t] = c
        hs[:, t] = h
    hs = hs[back]

    def _bw(g):
        # each step's incoming state: h in the row order of xs, c sorted
        zero = np.zeros((B, 1, H))
        if reverse:
            h_prev = np.concatenate([hs[:, 1:], zero], axis=1)
            c_prev = np.concatenate([cs[1:], zero.reshape(1, B, H)])
        else:
            h_prev = np.concatenate([zero, hs[:, :-1]], axis=1)
            c_prev = np.concatenate([zero.reshape(1, B, H), cs[:-1]])
        i, f = acts[..., :H], acts[..., H:2 * H]
        gg, o = acts[..., 2 * H:3 * H], acts[..., 3 * H:]
        # dz of each gate is (dc_new or dh_new) times one of the first four
        # factors; dc_new gains dh_new times the fifth and leaves times f
        factors = np.empty((T, B, 6, H))
        factors[:, :, 0] = gg * i * (1.0 - i)
        factors[:, :, 1] = c_prev * f * (1.0 - f)
        factors[:, :, 2] = i * (1.0 - gg * gg)
        factors[:, :, 3] = tanh_c * o * (1.0 - o)
        factors[:, :, 4] = o * (1.0 - tanh_c * tanh_c)
        factors[:, :, 5] = f
        Wh_T = Wh.data.T
        g = g[order]
        dZ = np.empty((T, B, 4, H))
        dh, dc = np.zeros((2, B, H))   # gradient reaching the carried h and c
        for t in reversed(steps):
            r = slice(first[t], None)
            dh += g[:, t]
            dhr, dcr = dh[r], dc[r]
            fac = factors[t, r]
            dcr += dhr * fac[:, 4]
            dz = dZ[t, r]
            np.multiply(dcr[:, None, :], fac[:, :3], out=dz[:, :3])
            np.multiply(dhr, fac[:, 3], out=dz[:, 3])
            np.matmul(dz.reshape(-1, 4 * H), Wh_T, out=dhr)
            dcr *= fac[:, 5]
            if first[t]:
                dZ[t, :first[t]] = 0.0
        # one row per (b, t), in the order of xs
        dZ = dZ.reshape(T, B, 4 * H)[:, back].transpose(1, 0, 2).reshape(B * T, 4 * H)
        if xs.requires_grad:
            xs._accum((dZ @ Wx.data.T).reshape(xs.data.shape))
        if Wx.requires_grad:
            Wx._accum(xs.data.reshape(B * T, -1).T @ dZ)
        if Wh.requires_grad:
            Wh._accum(h_prev.reshape(B * T, H).T @ dZ)
        if b.requires_grad:
            b._accum(dZ.sum(axis=0))
    return ad.node(hs, (xs, Wx, Wh, b), _bw)


def ragged_mask(lengths, T):
    return (np.arange(T)[None, :] < np.asarray(lengths)[:, None]).astype(float)


class TestFusedLSTMOracle:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("reverse", [False, True])
    def test_matches_unfused_graph(self, seed, reverse):
        rng = np.random.default_rng(seed)
        B, D, H = 4, int(rng.integers(1, 6)), int(rng.integers(1, 6))
        # the longest row stops short of T: the last steps are padding in
        # every row; one row is padding throughout, and the rows are out
        # of length order, so the layer sorts them and sorts them back
        T = 7
        mask = ragged_mask([5, int(rng.integers(1, 6)), 0, 3], T)
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
        # longest first; run in reverse, each short row's padded steps
        # carry the zero state into its real ones
        mask = ragged_mask([5, 3, 1], T)
        params = {
            "xs": ad.parameter("xs", rng.normal(size=(B, T, D))),
            "Wx": ad.parameter("Wx", ad.seeded_init((D, 4 * H), 1)),
            "Wh": ad.parameter("Wh", ad.seeded_init((H, 4 * H), 2)),
            "b": ad.parameter("b", rng.normal(size=4 * H) * 0.3),
        }
        cotangent = rng.normal(size=(B, T, H))

        def loss_fn():
            out = bilm.lstm_forward(params["xs"], mask, params["Wx"],
                                    params["Wh"], params["b"], reverse=True)
            return (out * cotangent).sum()

        assert ad.finite_difference_check(loss_fn, params) < 1e-4


def _value_and_grads(fn, arrays, mask, cotangent, reverse):
    params = {k: ad.parameter(k, v.copy()) for k, v in arrays.items()}
    out = fn(params["xs"], mask, params["Wx"], params["Wh"], params["b"],
             reverse=reverse)
    return out.data, ad.reverse_gradients((out * cotangent).sum(), params)


@st.composite
def lstm_cases(draw, widths=st.integers(1, 5), hiddens=st.sampled_from([1, 3, 8, 33, 200])):
    """A layer's shapes and a prefix mask: ragged rows in any length order,
    all-zero rows and B = 1 all occur; `full` makes every row real at
    every step.  D is drawn from `widths`, H from `hiddens`."""
    B = draw(st.integers(1, 6))
    T = draw(st.integers(1, 7))
    D = draw(widths)
    H = draw(hiddens)
    full = draw(st.booleans())
    if full:
        mask = np.ones((B, T))
    else:
        mask = ragged_mask(draw(st.lists(st.integers(0, T), min_size=B, max_size=B)), T)
    return B, T, D, H, mask, full, draw(st.booleans()), draw(st.integers(0, 2**32 - 1))


class TestPackedLSTMOracle:
    """`bilm.lstm_forward` runs only each step's real rows; the masked
    blend it replaced, kept above as `masked_lstm_forward`, is its oracle."""

    @settings(max_examples=60, deadline=None)
    @given(lstm_cases())
    def test_matches_masked_blend(self, case):
        B, T, D, H, mask, full, reverse, seed = case
        rng = np.random.default_rng(seed)
        arrays = {"xs": rng.normal(size=(B, T, D)),
                  "Wx": rng.normal(size=(D, 4 * H)) * 0.5,
                  "Wh": rng.normal(size=(H, 4 * H)) * (0.5 / np.sqrt(H)),
                  "b": rng.normal(size=4 * H) * 0.5}
        cotangent = rng.normal(size=(B, T, H))
        want, want_grads = _value_and_grads(masked_lstm_forward, arrays, mask,
                                            cotangent, reverse)
        got, got_grads = _value_and_grads(bilm.lstm_forward, arrays, mask,
                                          cotangent, reverse)
        pairs = [(got, want)] + [(got_grads[k], want_grads[k]) for k in arrays]
        for a, b in pairs:
            if full:
                assert np.array_equal(a, b)
            else:
                assert np.abs(a - b).max() <= 1e-12 * max(1.0, np.abs(b).max())

    @pytest.mark.parametrize("reverse", [False, True])
    def test_unpadded_batch_is_bit_exact(self, reverse):
        rng = np.random.default_rng(5)
        B, T, D, H = 32, 9, 20, 200
        arrays = {"xs": rng.normal(size=(B, T, D)),
                  "Wx": rng.normal(size=(D, 4 * H)) * 0.2,
                  "Wh": rng.normal(size=(H, 4 * H)) * 0.05,
                  "b": rng.normal(size=4 * H) * 0.2}
        cotangent = rng.normal(size=(B, T, H))
        mask = np.ones((B, T))
        want, want_grads = _value_and_grads(masked_lstm_forward, arrays, mask,
                                            cotangent, reverse)
        got, got_grads = _value_and_grads(bilm.lstm_forward, arrays, mask,
                                          cotangent, reverse)
        assert np.array_equal(got, want)
        for name in arrays:
            assert np.array_equal(got_grads[name], want_grads[name]), name

    def test_unsorted_ragged_forward_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        B, T, D, H = 4, 6, 3, 4
        mask = ragged_mask([2, 6, 0, 4], T)
        params = {
            "xs": ad.parameter("xs", rng.normal(size=(B, T, D))),
            "Wx": ad.parameter("Wx", ad.seeded_init((D, 4 * H), 5)),
            "Wh": ad.parameter("Wh", ad.seeded_init((H, 4 * H), 6)),
            "b": ad.parameter("b", rng.normal(size=4 * H) * 0.3),
        }
        cotangent = rng.normal(size=(B, T, H))

        def loss_fn():
            out = bilm.lstm_forward(params["xs"], mask, params["Wx"],
                                    params["Wh"], params["b"])
            return (out * cotangent).sum()

        assert ad.finite_difference_check(loss_fn, params) < 1e-4


class TestPackedProjectionOracle:
    """`bilm.lstm_forward` projects only the real (row, step) pairs; the op
    that projected every pair, kept above as `sorted_lstm_forward`, is its
    oracle."""

    # the widths the workloads use, so real BLAS tiles run; the examples
    # are full T = 1 batches, whose 3-D product numpy runs as GEMVs
    @settings(max_examples=40, deadline=None)
    @given(lstm_cases(st.sampled_from([64, 178, 400]), st.sampled_from([16, 128, 200])))
    @example((2, 1, 178, 128, np.ones((2, 1)), True, False, 0))
    @example((5, 1, 400, 16, np.ones((5, 1)), True, True, 1))
    def test_matches_full_projection(self, case):
        B, T, D, H, mask, full, reverse, seed = case
        rng = np.random.default_rng(seed)
        arrays = {"xs": rng.normal(size=(B, T, D)),
                  "Wx": rng.normal(size=(D, 4 * H)) * (0.5 / np.sqrt(D)),
                  "Wh": rng.normal(size=(H, 4 * H)) * (0.5 / np.sqrt(H)),
                  "b": rng.normal(size=4 * H) * 0.5}
        cotangent = rng.normal(size=(B, T, H))
        want, want_grads = _value_and_grads(sorted_lstm_forward, arrays, mask,
                                            cotangent, reverse)
        got, got_grads = _value_and_grads(bilm.lstm_forward, arrays, mask,
                                          cotangent, reverse)
        pairs = [(got, want)] + [(got_grads[k], want_grads[k]) for k in arrays]
        for a, b in pairs:
            if full:
                assert np.array_equal(a, b)
            else:
                assert np.abs(a - b).max() <= 1e-12 * max(1.0, np.abs(b).max())

    @pytest.mark.parametrize("reverse", [False, True])
    def test_padded_inputs_are_never_read(self, reverse):
        rng = np.random.default_rng(6)
        B, T, D, H = 5, 7, 64, 16
        # unsorted, with a row that is padding throughout
        mask = ragged_mask([3, 7, 0, 5, 1], T)
        xs = rng.normal(size=(B, T, D))
        poisoned = np.where(mask[..., None] == 1.0, xs, np.nan)
        weights = [ad.parameter(name, rng.normal(size=shape) * 0.3) for name, shape
                   in (("Wx", (D, 4 * H)), ("Wh", (H, 4 * H)), ("b", (4 * H,)))]
        with ad.no_grad():
            clean, got = (bilm.lstm_forward(ad.constant(x), mask, *weights,
                                            reverse=reverse).data
                          for x in (xs, poisoned))
        real = mask == 1.0
        assert not np.isnan(got).any()
        assert np.array_equal(got[real], clean[real])


class _NaNEmpty:
    """numpy, except that `empty` hands out NaN-filled arrays, so a read of
    an entry nothing wrote shows up in the results."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def empty(shape, dtype=float):
        return np.full(shape, np.nan, dtype=dtype)


def _lstm_arrays(case):
    B, T, D, H, mask, full, reverse, seed = case
    rng = np.random.default_rng(seed)
    arrays = {"xs": rng.normal(size=(B, T, D)),
              "Wx": rng.normal(size=(D, 4 * H)) * (0.5 / np.sqrt(D)),
              "Wh": rng.normal(size=(H, 4 * H)) * (0.5 / np.sqrt(H)),
              "b": rng.normal(size=4 * H) * 0.5}
    return arrays, rng.normal(size=(B, T, H))


class TestPackedStateOracle:
    """`bilm.lstm_forward` stores its per-step arrays over just the real
    (row, step) pairs; the op that stored them on the padded grid, kept
    above as `grid_lstm_forward`, is its oracle.  Every sum keeps its
    operands and its order, so the two agree bit for bit, padded or not."""

    # the widths the workloads use, so real BLAS tiles run; the examples
    # are full T = 1 batches, whose 3-D product numpy runs as GEMVs
    @settings(max_examples=40, deadline=None)
    @given(lstm_cases(st.sampled_from([64, 178, 400]), st.sampled_from([16, 128, 200])))
    @example((2, 1, 178, 128, np.ones((2, 1)), True, False, 0))
    @example((5, 1, 400, 16, np.ones((5, 1)), True, True, 1))
    @example((1, 1, 64, 200, np.ones((1, 1)), True, False, 2))
    @example((4, 6, 178, 128, ragged_mask([2, 6, 0, 4], 6), False, True, 3))
    def test_matches_grid_op(self, case):
        arrays, cotangent = _lstm_arrays(case)
        mask, reverse = case[4], case[6]
        want, want_grads = _value_and_grads(grid_lstm_forward, arrays, mask,
                                            cotangent, reverse)
        got, got_grads = _value_and_grads(bilm.lstm_forward, arrays, mask,
                                          cotangent, reverse)
        assert np.array_equal(got, want)
        for name in arrays:
            assert np.array_equal(got_grads[name], want_grads[name]), name

    @settings(max_examples=40, deadline=None)
    @given(lstm_cases())
    @example((4, 6, 3, 8, ragged_mask([2, 6, 0, 4], 6), False, False, 0))
    @example((4, 6, 3, 8, ragged_mask([2, 6, 0, 4], 6), False, True, 0))
    def test_reads_no_unwritten_entry(self, case):
        """Each array the op leaves unfilled starts as NaN: the value and
        all four gradients still equal a clean run bit for bit."""
        arrays, cotangent = _lstm_arrays(case)
        mask, reverse = case[4], case[6]
        want, want_grads = _value_and_grads(bilm.lstm_forward, arrays, mask,
                                            cotangent, reverse)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bilm, "np", _NaNEmpty())
            got, got_grads = _value_and_grads(bilm.lstm_forward, arrays, mask,
                                              cotangent, reverse)
        assert np.array_equal(got, want)
        for name in arrays:
            assert np.array_equal(got_grads[name], want_grads[name]), name

    @pytest.mark.parametrize("reverse", [False, True])
    def test_padded_inputs_get_exactly_zero_gradient(self, reverse):
        # unsorted, with a row that is padding throughout
        mask = ragged_mask([3, 7, 0, 5, 1], 7)
        arrays, cotangent = _lstm_arrays((5, 7, 64, 16, mask, False, reverse, 6))
        _, grads = _value_and_grads(bilm.lstm_forward, arrays, mask, cotangent, reverse)
        padded = grads["xs"][mask == 0.0]
        assert padded.size and (padded == 0.0).all()
        assert (grads["xs"][mask == 1.0] != 0.0).any()


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
            "Wx": ad.parameter("Wx", ad.seeded_init((D, 4 * H), 1)),
            "Wh": ad.parameter("Wh", ad.seeded_init((H, 4 * H), 2)),
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


def reference_perplexity(corpus, params, config, vocab, char_vocab):
    """`bilm.perplexity` as it was before it ran without a graph and
    encoded each word type once per call: every batch char-encodes its own
    distinct words.  The new one must equal it exactly."""
    corpus = [s for s in corpus if s]
    if not corpus:
        raise ContractError("empty corpus")
    total, count = 0.0, 0
    for batch in lm_batches(corpus, vocab, char_vocab, bilm.PERPLEXITY_BATCH,
                            config.encoder.max_word_len, seed=0):
        fwd, bwd, n = bilm.bilm_loss_parts(batch, params, config)
        total += float(fwd.data) + float(bwd.data)
        count += n
    return math.exp(total / (2.0 * count))


# Batches of two: later batches repeat earlier words and add new ones;
# the two 12-char words truncate to one 10-long char row.
GROWING = [["red", "fox"], ["red", "owl", "ran"], ["blue", "fox", "sat"],
           ["red", "fox", "ran"], ["abcdefghijkl", "owl"], ["abcdefghijmn", "sat", "down"],
           ["blue", "owl"]]


def _encoder_calls(monkeypatch):
    """The char ids of every `bilm.encode_char_matrix` call from here on."""
    calls, encode = [], bilm.encode_char_matrix

    def spy(ids, params, config):
        calls.append(ids)
        return encode(ids, params, config)
    monkeypatch.setattr(bilm, "encode_char_matrix", spy)
    return calls


class TestPerplexityTypeTable:
    @pytest.mark.parametrize("layers", [1, 2])
    @pytest.mark.parametrize("batch", [2, 3, bilm.PERPLEXITY_BATCH])
    def test_equals_the_per_batch_oracle(self, monkeypatch, layers, batch):
        monkeypatch.setattr(bilm, "PERPLEXITY_BATCH", batch)
        config = tiny_bilm_config(lm_layers=layers)
        vocab, cvocab = build_vocab(GROWING[:4]), build_char_vocab(GROWING)
        for seed in range(3):
            params = bilm.init_bilm_params(config, len(cvocab), len(vocab), seed)
            want = reference_perplexity(GROWING, params, config, vocab, cvocab)
            assert bilm.perplexity(GROWING, params, config, vocab, cvocab) == want

    @pytest.mark.parametrize("layers", [1, 2])
    def test_single_sentence_equals_the_oracle(self, layers):
        config = tiny_bilm_config(lm_layers=layers)
        config, vocab, cvocab, params = _setup(seed=4, config=config)
        sent = [["red", "fox", "red", "ran"]]
        assert bilm.perplexity(sent, params, config, vocab, cvocab) \
            == reference_perplexity(sent, params, config, vocab, cvocab)

    def test_each_type_is_encoded_once_per_call(self, monkeypatch):
        monkeypatch.setattr(bilm, "PERPLEXITY_BATCH", 2)
        config = tiny_bilm_config()
        vocab, cvocab = build_vocab(GROWING[:2]), build_char_vocab(GROWING)
        params = bilm.init_bilm_params(config, len(cvocab), len(vocab), 0)
        batches = lm_batches(GROWING, vocab, cvocab, 2, config.encoder.max_word_len)
        held = [set(np.unique(b.type_ids).tolist()) for b in batches]
        new = [len(h - set().union(*held[:i])) for i, h in enumerate(held)]
        assert any(0 < n < len(h) for n, h in zip(new[1:], held[1:]))
        calls = _encoder_calls(monkeypatch)
        for _ in range(2):     # a second call encodes every type again
            bilm.perplexity(GROWING, params, config, vocab, cvocab)
        rows = [len(ids) for ids in calls]
        assert rows == [n for n in new if n] * 2
        assert sum(rows) == 2 * len(set().union(*held))
        # no call covers more rows than that batch's own table
        assert all(n <= len(b.uniq_char_ids) for n, b in zip(new, batches))

    def test_a_batch_with_no_new_type_makes_no_call(self, monkeypatch):
        monkeypatch.setattr(bilm, "PERPLEXITY_BATCH", 2)
        corpus = [["red", "fox"], ["fox", "red"], ["red", "red"], ["fox", "fox"]]
        config, vocab, cvocab, params = _setup()
        calls = _encoder_calls(monkeypatch)
        ppl = bilm.perplexity(corpus, params, config, vocab, cvocab)
        assert [len(ids) for ids in calls] == [2]   # two unpadded batches: types 1, 2 once
        assert ppl == reference_perplexity(corpus, params, config, vocab, cvocab)

    def test_loss_parts_record_no_graph(self, monkeypatch):
        config, vocab, cvocab, params = _setup()
        outs, parts = [], bilm.bilm_loss_parts

        def spy(*args):
            outs.append(parts(*args))
            return outs[-1]
        monkeypatch.setattr(bilm, "bilm_loss_parts", spy)
        bilm.perplexity(SENTS, params, config, vocab, cvocab)
        assert outs
        for fwd, bwd, _ in outs:
            for t in (fwd, bwd):
                assert not t.requires_grad and t._parents == () and t._backward is None

    def test_type_table_gives_the_batch_states(self):
        config, vocab, cvocab, params = _setup()
        batch = lm_batches(SENTS, vocab, cvocab, 3, config.encoder.max_word_len)[0]
        types = bilm.encode_char_matrix(batch.type_char_ids, params, config.encoder)
        want = bilm.bilm_states(batch, params, config)
        got = bilm.bilm_states(batch, params, config, types.data)
        for a, b in zip(got, want):
            assert np.array_equal(a.data, b.data)


class TestTrainingEncodesEachBatch:
    """Weights change between training batches, so each batch encodes its
    own distinct words, not a table kept across batches."""

    def test_train_lm(self, monkeypatch):
        config, vocab, cvocab, _ = _setup()
        made, build = [], bilm.lm_batches

        def batches(*args, **kwargs):
            out = build(*args, **kwargs)
            made.extend(out)
            return out
        seen = _encoder_calls(monkeypatch)
        monkeypatch.setattr(bilm, "lm_batches", batches)
        bilm.train_lm(SENTS * 2, vocab, cvocab, config, epochs=2, batch_size=2, seed=0)
        assert len(seen) == len(made) == 6
        assert all(ids is b.uniq_char_ids for ids, b in zip(seen, made))

    def test_train_tagger(self, monkeypatch):
        corpus = toy_ner_corpus(6)
        tokens = [s.tokens for s in corpus]
        chars, config = build_char_vocab(tokens), tiny_bilm_config()
        provider = tg.ContextualProvider(
            bilm.init_bilm_params(config, len(chars), 6, seed=0), config, chars)
        used, loss = [], tg.TaggerModel.sentence_loss

        def spy_loss(model, batch, rng=None):
            used.append(batch)
            return loss(model, batch, rng)
        seen = _encoder_calls(monkeypatch)
        monkeypatch.setattr(tg.TaggerModel, "sentence_loss", spy_loss)
        tg.train_tagger(corpus, tg.LabelSet.from_sequences(corpus),
                        tiny_tagger_config(), epochs=2, batch_size=4, seed=0,
                        provider=provider)
        assert len(seen) == len(used) == 4
        assert all(ids is b.uniq_char_ids for ids, b in zip(seen, used))


def _dead_before_next_call(monkeypatch, owner, name):
    """Wrap owner.name, which returns a batch's loss, so that each call
    first checks that the previous call's loss array has been freed; returns
    the list of weak references, one per call.  `Tensor` has no weakref
    slot, so the references are to its data."""
    refs, fn = [], getattr(owner, name)

    def spy(*args, **kwargs):
        assert all(ref() is None for ref in refs), "the last batch's graph is alive"
        loss = fn(*args, **kwargs)
        refs.append(weakref.ref(loss.data))
        return loss
    monkeypatch.setattr(owner, name, spy)
    return refs


class TestOneGraphAliveAtATime:
    """A trainer drops batch k's graph, with every LSTM's stored arrays,
    after its step, before batch k + 1's forward runs.  Reference counting
    alone must free it: the garbage collector is off while they train."""

    @pytest.fixture(autouse=True)
    def no_gc(self):
        gc.disable()
        yield
        gc.enable()

    @pytest.mark.parametrize("anchor", [0.0, 0.5])
    def test_train_lm(self, monkeypatch, anchor):
        config, vocab, cvocab, _ = _setup()
        ck = bilm.train_lm(SENTS, vocab, cvocab, config, epochs=1, seed=0)
        refs = _dead_before_next_call(monkeypatch, bilm, "bilm_loss")
        bilm.train_lm(SENTS * 2, epochs=2, batch_size=2, init=ck, anchor_coeff=anchor)
        assert len(refs) == 6

    def test_train_tagger(self, monkeypatch):
        corpus = toy_ner_corpus(6)
        chars, config = build_char_vocab([s.tokens for s in corpus]), tiny_bilm_config()
        provider = tg.ContextualProvider(
            bilm.init_bilm_params(config, len(chars), 6, seed=0), config, chars)
        refs = _dead_before_next_call(monkeypatch, tg.TaggerModel, "sentence_loss")
        tg.train_tagger(corpus, tg.LabelSet.from_sequences(corpus),
                        tiny_tagger_config(anchor_coeff=0.5), epochs=2, batch_size=2,
                        seed=0, provider=provider)
        assert len(refs) == 6


def transpose(x):
    """A 2-d transpose as a graph node; the head-weight transpose of the
    unfused softmax head below."""
    x = ad._as_tensor(x)
    if x.data.ndim != 2:
        raise ContractError("transpose expects a 2-d tensor")
    def _bw(g):
        x._accum(g.T)
    return ad.node(x.data.T, (x,), _bw)


def reference_nll_sum(states, targets, mask, params):
    """The unfused softmax head: matmul, log_softmax, a gather of every
    position's target and a mask multiply.  `bilm._nll_sum` must agree with
    it in value and gradient."""
    B, T, d = states.data.shape
    V = params["lm.head.W"].data.shape[0]
    logits = ad.matmul(states, transpose(params["lm.head.W"])) + params["lm.head.b"]
    logp = log_softmax(logits, axis=-1)
    flat = ad.reshape(logp, (B * T, V))
    picked = flat[(np.arange(B * T), targets.reshape(-1))]
    return -(picked * mask.reshape(-1)).sum()


def _head_instance(seed):
    """Ragged [B, T, d] states (row 2 padding throughout, row 1 with a
    hole), in-range targets everywhere and a head, as arrays."""
    rng = np.random.default_rng(seed)
    B, T, d, V = 4, int(rng.integers(2, 7)), int(rng.integers(1, 6)), int(rng.integers(2, 9))
    mask = ragged_mask([T, int(rng.integers(1, T + 1)), 0, int(rng.integers(1, T + 1))], T)
    mask[1, 0] = 0.0
    arrays = {"states": rng.normal(size=(B, T, d)), "W": rng.normal(size=(V, d)),
              "b": rng.normal(size=V)}
    return arrays, rng.integers(0, V, size=(B, T)), mask


def _head_run(fn, arrays, targets, mask, scale=0.37):
    """(value, gradients) of scale * fn(...) over fresh parameters."""
    p = {k: ad.parameter(k, v.copy()) for k, v in arrays.items()}
    out = fn(p["states"], targets, mask, {"lm.head.W": p["W"], "lm.head.b": p["b"]})
    return float(out.data), ad.reverse_gradients(out * scale, p)


class TestFusedNLLOracle:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_unfused_graph(self, seed):
        arrays, targets, mask = _head_instance(seed)
        want, want_grads = _head_run(reference_nll_sum, arrays, targets, mask)
        got, got_grads = _head_run(bilm._nll_sum, arrays, targets, mask)
        assert abs(got - want) < 1e-12
        for name in arrays:
            assert np.abs(got_grads[name] - want_grads[name]).max() < 1e-12, name

    def test_padded_targets_are_never_read(self):
        arrays, targets, mask = _head_instance(1)
        V = arrays["b"].size
        odd = targets.copy()
        odd[mask == 0] = V + 5
        odd[2, 0] = -V - 7
        want, want_grads = _head_run(bilm._nll_sum, arrays, targets, mask)
        got, got_grads = _head_run(bilm._nll_sum, arrays, odd, mask)
        assert got == want
        for name in arrays:
            assert np.array_equal(got_grads[name], want_grads[name]), name

    def test_padded_states_get_exactly_zero_gradient(self):
        arrays, targets, mask = _head_instance(2)
        _, grads = _head_run(bilm._nll_sum, arrays, targets, mask)
        assert np.all(grads["states"][mask == 0] == 0.0)
        assert np.all(np.abs(grads["states"][mask == 1]).sum(axis=-1) > 0.0)

    def test_one_node_over_states_and_head(self):
        arrays, targets, mask = _head_instance(0)
        p = {k: ad.parameter(k, v) for k, v in arrays.items()}
        out = bilm._nll_sum(p["states"], targets, mask,
                            {"lm.head.W": p["W"], "lm.head.b": p["b"]})
        assert out._parents == (p["states"], p["W"], p["b"])
        cells = [cell.cell_contents for cell in out._backward.__closure__]
        assert not any(c is out for c in cells)

    def test_ragged_batch_loss_matches_finite_differences(self):
        config, vocab, cvocab, params = _setup()
        batch = lm_batches(SENTS, vocab, cvocab, 3, config.encoder.max_word_len, seed=0)[0]
        assert 0 < batch.n_tokens < batch.mask.size  # padded

        def loss_fn():
            return bilm.bilm_loss(batch, params, config)

        assert ad.finite_difference_check(loss_fn, params, max_coords=80) < 1e-4

    def test_transpose_helper_leaves_no_cycle(self):
        x = ad.parameter("x", np.random.default_rng(0).uniform(0.5, 1.5, size=(2, 3)))
        gc.collect()
        gc.disable()
        try:
            out = transpose(x)
            assert out.requires_grad and out._backward is not None
            del out
            assert gc.collect() == 0
        finally:
            gc.enable()


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

    @pytest.mark.parametrize("given", ["vocab", "char_vocab", "config"])
    def test_init_takes_nothing_else(self, given):
        """With init, the config and vocabularies come from the checkpoint
        alone; one passed beside it is refused, even when it matches."""
        config, vocab, cvocab, _ = _setup()
        ck = bilm.train_lm(SENTS, vocab, cvocab, config, epochs=1, seed=0)
        passed = {"vocab": vocab, "char_vocab": cvocab, "config": config}
        with pytest.raises(ContractError, match="with init"):
            bilm.train_lm(SENTS, epochs=1, init=ck, **{given: passed[given]})


    def test_grown_word_vocabulary_is_refused_before_training(self, tmp_path,
                                                              monkeypatch):
        """A word vocabulary four words longer than the head's rows would
        index past the head; it is a DataError naming the checkpoint."""
        config, vocab, cvocab, _ = _setup()
        ck = bilm.train_lm(SENTS, vocab, cvocab, config, epochs=1, seed=0)
        ck.word_vocab = Vocabulary(vocab.non_reserved() + ["w1", "w2", "w3", "w4"])
        ck.save(tmp_path / "grown.ckpt")
        grown = Checkpoint.load(tmp_path / "grown.ckpt")

        def no_batches(*args, **kwargs):
            raise AssertionError("batched the corpus before checking the checkpoint")

        monkeypatch.setattr(bilm, "lm_batches", no_batches)
        more = SENTS + [["w1", "w2"], ["w3", "w4"]]
        with pytest.raises(DataError, match=rf"grown\.ckpt: .*n_words is {len(vocab)} "
                                            rf"but the word vocabulary holds {len(vocab) + 4}"):
            bilm.train_lm(more, epochs=1, init=grown)


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
