import gc

import numpy as np
import pytest

from seqxfer import autodiff as ad
from seqxfer import encoder as enc
from seqxfer.bilm import BiLMConfig
from seqxfer.corpus import PAD, build_char_vocab, char_id_row, pad_batch
from seqxfer.errors import ContractError

from conftest import highway_forward, tanh, tiny_bilm_config, tiny_encoder_config


def _setup(seed=0):
    config = tiny_encoder_config()
    cvocab = build_char_vocab([["alpha", "beta", "gamma", "x"]])
    params = ad.init_params(enc.char_encoder_table(config, len(cvocab)), seed)
    return config, cvocab, params


def _one_layer(gate_bias):
    """(char-CNN features, WH, output) of a one-layer encoder whose gate
    weights are zero, gate bias is `gate_bias` and projection is the
    identity (the tiny config's pooled_dim equals its d_out)."""
    config = tiny_encoder_config(highway_layers=1)
    cvocab = build_char_vocab([["alpha", "beta", "gamma", "x"]])
    params = ad.init_params(enc.char_encoder_table(config, len(cvocab)), 0)
    params["char_enc.hw0.WT"].data[:] = 0.0
    params["char_enc.hw0.bT"].data[:] = gate_bias
    params["char_enc.proj.W"].data[:] = np.eye(config.d_out)
    rows = np.stack([char_id_row(w, cvocab, config.max_word_len) for w in ("alpha", "x")])
    return (enc.char_cnn(rows, params, config).data, params["char_enc.hw0.WH"].data,
            enc.encode_char_matrix(rows, params, config).data)


class TestHighway:
    def test_open_gate_is_transform(self):
        x, WH, out = _one_layer(100.0)
        assert np.allclose(out, x @ WH, atol=1e-12)

    def test_closed_gate_is_identity(self):
        x, _, out = _one_layer(-100.0)
        assert np.allclose(out, x, atol=1e-12)

    def test_gradients_match_finite_differences(self):
        config = tiny_encoder_config(highway_layers=1)
        cvocab = build_char_vocab([["alpha", "beta", "gamma", "x"]])
        # the char-CNN's parameters are constants: only the tail node records
        params = {k: p if k.startswith(("char_enc.hw", "char_enc.proj")) else
                  ad.constant(p.data) for k, p in
                  ad.init_params(enc.char_encoder_table(config, len(cvocab)), 1).items()}
        rows = np.stack([char_id_row(w, cvocab, config.max_word_len)
                         for w in ("gamma", "beta", "x")])

        def loss_fn():
            out = enc.encode_char_matrix(rows, params, config)
            return (out * out).sum()

        tail = {k: p for k, p in params.items() if p.requires_grad}
        assert len(tail) == 6
        assert ad.finite_difference_check(loss_fn, tail) < 1e-4


def _encode_one(row, params, config):
    """One padded char-id row encoded as a batch of one."""
    return enc.encode_char_matrix(np.asarray([row]), params, config).data[0]


class TestEncodeWord:
    def test_padding_invariance(self):
        config, cvocab, params = _setup()
        short = char_id_row("beta", cvocab, config.max_word_len)
        longer = char_id_row("beta", cvocab, config.max_word_len + 6)
        big = tiny_encoder_config(max_word_len=config.max_word_len + 6)
        v1 = _encode_one(short, params, config)
        v2 = _encode_one(longer, params, big)
        assert np.allclose(v1, v2, atol=1e-12)

    def test_deterministic_across_calls(self):
        config, cvocab, params = _setup()
        ids = char_id_row("gamma", cvocab, config.max_word_len)
        assert np.array_equal(_encode_one(ids, params, config),
                              _encode_one(ids, params, config))

    def test_different_words_differ(self):
        config, cvocab, params = _setup()
        a = _encode_one(char_id_row("alpha", cvocab, config.max_word_len),
                        params, config)
        b = _encode_one(char_id_row("beta", cvocab, config.max_word_len),
                        params, config)
        assert not np.allclose(a, b)

    def test_output_shape(self):
        config, cvocab, params = _setup()
        ids = char_id_row("x", cvocab, config.max_word_len)
        assert _encode_one(ids, params, config).shape == (config.d_out,)

    def test_batch_matches_single(self):
        config, cvocab, params = _setup()
        rows = np.stack([char_id_row(w, cvocab, config.max_word_len)
                         for w in ("alpha", "x", "gamma")])
        batch = enc.encode_char_matrix(rows, params, config).data
        for i, w in enumerate(("alpha", "x", "gamma")):
            single = _encode_one(rows[i], params, config)
            assert np.allclose(batch[i], single, atol=1e-12)

    def test_seeded_init_reproducible(self):
        config = tiny_encoder_config()
        p1 = ad.init_params(enc.char_encoder_table(config, 20), 7)
        p2 = ad.init_params(enc.char_encoder_table(config, 20), 7)
        for name in p1:
            assert np.array_equal(p1[name].data, p2[name].data)

    def test_mismatched_filter_spec_rejected(self):
        config = tiny_encoder_config(filter_widths=(1, 2), filter_counts=(4,))
        with pytest.raises(ContractError):
            enc.char_encoder_table(config, 20)


class TestEncoderGradients:
    def test_full_encoder_matches_finite_differences(self):
        config, cvocab, params = _setup()
        rows = np.stack([char_id_row(w, cvocab, config.max_word_len)
                         for w in ("alpha", "beta")])
        target = np.random.default_rng(2).normal(size=(2, config.d_out))

        def loss_fn():
            out = enc.encode_char_matrix(rows, params, config)
            diff = out + (-target)
            return (diff * diff).sum()

        assert ad.finite_difference_check(loss_fn, params, max_coords=120) < 1e-4


def tmax(x, axis):
    """Max over one axis; the gradient flows to the first argmax only.  The
    max-over-time pool of the unfused char-CNN below."""
    x = ad._as_tensor(x)
    def _bw(g):
        idx = np.expand_dims(x.data.argmax(axis=axis), axis)
        gx = np.zeros_like(x.data)
        np.put_along_axis(gx, idx, np.expand_dims(g, axis), axis)
        x._accum(gx)
    return ad.node(x.data.max(axis=axis), (x,), _bw)


def reference_char_cnn(ids, params, config):
    """The unfused char-CNN: an embedding gather, `w` sliced matmuls per
    filter width, tanh, the NEG_BIG window mask and a max over time.
    `enc.char_cnn` must agree with it in value and gradient."""
    ids = np.asarray(ids)
    U, L = ids.shape
    d = config.d_char
    emb = ad.getitem(params["char_enc.emb"], ids.reshape(-1))
    emb = ad.reshape(emb, (U, L, d))
    real = (ids != PAD).astype(np.float64)
    emb = emb * real[:, :, None]

    pooled = []
    for w, n in zip(config.filter_widths, config.filter_counts):
        Lo = L - w + 1
        if Lo < 1:
            raise ContractError(f"filter width {w} exceeds max word length {L}")
        W = params[f"char_enc.conv{w}.W"]
        acc = None
        for j in range(w):
            piece = ad.matmul(emb[:, j:j + Lo, :], W[j * d:(j + 1) * d, :])
            acc = piece if acc is None else acc + piece
        act = tanh(acc + params[f"char_enc.conv{w}.b"])
        window_ok = real[:, :Lo]
        act = act + ((1.0 - window_ok) * enc.NEG_BIG)[:, :, None]
        pooled.append(tmax(act, axis=1))
    return ad.concat(pooled, axis=1)


def reference_encoder_tail(x, params, config):
    """The highway layers and the projection as a graph of primitive ops:
    the composition that `enc.encode_char_matrix`'s tail node replaced."""
    for layer in range(config.highway_layers):
        x = highway_forward(
            x,
            params[f"char_enc.hw{layer}.WT"], params[f"char_enc.hw{layer}.bT"],
            params[f"char_enc.hw{layer}.WH"], params[f"char_enc.hw{layer}.bH"])
    return ad.matmul(x, params["char_enc.proj.W"]) + params["char_enc.proj.b"]


def reference_encode_char_matrix(ids, params, config):
    """The encoder as one graph of primitive ops, the unfused char-CNN and
    the unfused tail: the composition that `enc.encode_char_matrix`
    replaced, which trains to the same weights."""
    return reference_encoder_tail(reference_char_cnn(ids, params, config), params, config)


class TestTmaxHelper:
    def test_max_routes_gradient_to_first_argmax(self):
        p = ad.parameter("p", np.array([[1.0, 3.0, 3.0]]))
        grads = ad.reverse_gradients(tmax(p, axis=1).sum(), {"p": p})
        assert np.array_equal(grads["p"], np.array([[0.0, 1.0, 0.0]]))

    def test_dropped_output_leaves_no_cycle(self):
        x = ad.parameter("p", np.random.default_rng(0).uniform(0.5, 1.5, size=(2, 3)))
        gc.collect()
        gc.disable()
        try:
            out = tmax(x, axis=1)
            assert out.requires_grad and out._backward is not None
            del out
            assert gc.collect() == 0
        finally:
            gc.enable()


# every width from 1 to 5, and the default sizes
ORACLE_CONFIGS = [
    tiny_encoder_config(d_char=3, filter_widths=(1, 2, 3, 4, 5),
                        filter_counts=(2, 3, 4, 3, 2), highway_layers=1, max_word_len=7),
    enc.CharEncoderConfig(),
]


def _char_instance(config, seed):
    """An all-PAD row 0, then char rows of a 1-char word, a word that fills
    the row, a word truncated to it, random lengths between and two odd
    rows, with parameter arrays for them."""
    rng = np.random.default_rng(seed)
    n_chars, L = 12, config.max_word_len
    lengths = [1, L - 2, L + 3] + list(rng.integers(1, L + 3, size=5))
    words = ["".join(rng.choice(list("abcdefghij"), size=n)) for n in lengths]
    cvocab = build_char_vocab([list("abcdefgh")])  # i and j are unknown chars
    # rows char_id_row never makes: PAD before real chars, and a real char
    # only at the last position, where no window of width > 1 starts
    odd = np.full((2, L), PAD)
    odd[0, 1:4] = rng.integers(1, n_chars, size=3)
    odd[1, -1] = rng.integers(1, n_chars)
    ids = np.concatenate([np.full((1, L), PAD)]
                         + [char_id_row(w, cvocab, L)[None] for w in words] + [odd])
    # glorot weights, and biases moved off their constant fills
    arrays = {k: p.data + (rng.normal(scale=0.5, size=p.data.shape) if p.data.ndim == 1
                           else 0.0)
              for k, p in ad.init_params(enc.char_encoder_table(config, n_chars),
                                         seed).items()}
    return ids, arrays


def _cnn_run(fn, ids, arrays, config, cotangent):
    """(value, gradients) of (fn(...) * cotangent).sum() over fresh
    parameters."""
    p = {k: ad.parameter(k, v.copy()) for k, v in arrays.items()}
    out = fn(ids, p, config)
    return out.data, ad.reverse_gradients((out * cotangent).sum(), p)


class TestFusedCharCNNOracle:
    @pytest.mark.parametrize("config", ORACLE_CONFIGS, ids=["widths1-5", "default"])
    @pytest.mark.parametrize("seed", range(4))
    def test_pool_matches_unfused_graph(self, config, seed):
        ids, arrays = _char_instance(config, seed)
        # row 0's pooled value is NEG_BIG; its cotangent reaches only the biases
        cotangent = 0.37 * np.random.default_rng(seed).normal(
            size=(len(ids), config.pooled_dim))
        want, want_grads = _cnn_run(reference_char_cnn, ids, arrays, config, cotangent)
        got, got_grads = _cnn_run(enc.char_cnn, ids, arrays, config, cotangent)
        assert np.abs(got - want).max() < 1e-12
        assert np.all(got[0] == enc.NEG_BIG)
        for name in got_grads:
            assert np.abs(got_grads[name] - want_grads[name]).max() < 1e-12, name

    @pytest.mark.parametrize("config", ORACLE_CONFIGS, ids=["widths1-5", "default"])
    @pytest.mark.parametrize("seed", range(4))
    def test_encoder_matches_unfused_graph(self, config, seed):
        ids, arrays = _char_instance(config, seed)
        # the model never sends a cotangent into the all-PAD row
        cotangent = 0.37 * np.random.default_rng(seed).normal(size=(len(ids), config.d_out))
        cotangent[0] = 0.0
        want, want_grads = _cnn_run(reference_encode_char_matrix, ids, arrays, config,
                                    cotangent)
        got, got_grads = _cnn_run(enc.encode_char_matrix, ids, arrays, config, cotangent)
        assert np.abs(got[1:] - want[1:]).max() < 1e-12
        for name in got_grads:
            assert np.abs(got_grads[name] - want_grads[name]).max() < 1e-12, name

    def test_pad_embedding_row_gets_exactly_zero_gradient(self):
        config = ORACLE_CONFIGS[0]
        ids, arrays = _char_instance(config, 1)
        cotangent = np.random.default_rng(1).normal(size=(len(ids), config.d_out))
        _, grads = _cnn_run(enc.encode_char_matrix, ids, arrays, config, cotangent)
        emb_grad = grads["char_enc.emb"]
        assert np.all(emb_grad[PAD] == 0.0)
        assert np.all(np.abs(emb_grad[np.unique(ids[ids != PAD])]).sum(axis=1) > 0.0)

    def test_one_node_over_embedding_and_filters(self):
        config = ORACLE_CONFIGS[0]
        ids, arrays = _char_instance(config, 0)
        p = {k: ad.parameter(k, v) for k, v in arrays.items()}
        out = enc.char_cnn(ids, p, config)
        want = [p["char_enc.emb"]] + [p[f"char_enc.conv{w}.{k}"]
                                      for w in config.filter_widths for k in "Wb"]
        assert out._parents == tuple(want)
        cells = [cell.cell_contents for cell in out._backward.__closure__]
        assert not any(c is out for c in cells)

    def test_ragged_batch_matches_finite_differences(self):
        config, cvocab, params = _setup()
        batch = pad_batch([["x", "gamma"], ["alpha", "x", "be"]], char_vocab=cvocab,
                          max_word_len=config.max_word_len)
        rows = batch.uniq_char_ids[1:]
        target = np.random.default_rng(3).normal(size=(len(rows), config.d_out))

        def loss_fn():
            diff = enc.encode_char_matrix(rows, params, config) + (-target)
            return (diff * diff).sum()

        assert ad.finite_difference_check(loss_fn, params, max_coords=120) < 1e-4


def _unfused_tail(ids, params, config):
    return reference_encoder_tail(enc.char_cnn(ids, params, config), params, config)


TAIL_CONFIGS = [tiny_encoder_config(highway_layers=n) for n in (0, 1, 2)] \
    + [enc.CharEncoderConfig()]


class TestFusedTailOracle:
    @pytest.mark.parametrize("config", TAIL_CONFIGS,
                             ids=["layers0", "layers1", "layers2", "default"])
    @pytest.mark.parametrize("seed", range(3))
    def test_tail_equals_unfused_graph(self, config, seed):
        ids, arrays = _char_instance(config, seed)
        cotangent = 0.37 * np.random.default_rng(seed).normal(size=(len(ids), config.d_out))
        cotangent[0] = 0.0
        want, want_grads = _cnn_run(_unfused_tail, ids, arrays, config, cotangent)
        got, got_grads = _cnn_run(enc.encode_char_matrix, ids, arrays, config, cotangent)
        np.testing.assert_array_equal(got, want)
        assert got_grads.keys() == want_grads.keys()
        for name in got_grads:
            np.testing.assert_array_equal(got_grads[name], want_grads[name], err_msg=name)

    @pytest.mark.parametrize("config", TAIL_CONFIGS[:1] + TAIL_CONFIGS[3:],
                             ids=["layers0", "default"])
    def test_two_nodes_per_call(self, config):
        ids, arrays = _char_instance(config, 0)
        p = {k: ad.parameter(k, v) for k, v in arrays.items()}
        out = enc.encode_char_matrix(ids, p, config)
        cnn, *weights = out._parents
        layers = [p[f"char_enc.hw{i}.{k}"] for i in range(config.highway_layers)
                  for k in ("WT", "bT", "WH", "bH")]
        assert weights == [p["char_enc.proj.W"], p["char_enc.proj.b"]] + layers
        assert cnn._parents[0] is p["char_enc.emb"]
        assert all(q._backward is None for q in cnn._parents + tuple(weights))
        cells = [cell.cell_contents for cell in out._backward.__closure__]
        assert not any(c is out for c in cells)


class TestCharIdContract:
    @pytest.mark.parametrize("bad", [-1, -3])
    def test_negative_char_id_is_named(self, bad):
        config, cvocab, params = _setup()
        ids = np.stack([char_id_row("beta", cvocab, config.max_word_len)])
        ids[0, 2] = bad
        with pytest.raises(ContractError, match=f"char id {bad} is outside"):
            enc.encode_char_matrix(ids, params, config)

    def test_char_id_past_the_vocabulary_is_named(self):
        config, cvocab, params = _setup()
        ids = np.stack([char_id_row("beta", cvocab, config.max_word_len)])
        ids[0, 1] = len(cvocab)
        with pytest.raises(ContractError, match=f"{len(cvocab)}-char vocabulary"):
            enc.encode_char_matrix(ids, params, config)

    @pytest.mark.parametrize("ids", [np.zeros(10, dtype=np.int64),
                                     np.zeros((2, 10)), np.zeros((1, 2, 10), dtype=int)])
    def test_not_a_2d_integer_array(self, ids):
        config, _, params = _setup()
        with pytest.raises(ContractError, match="2-d integer array"):
            enc.encode_char_matrix(ids, params, config)


@pytest.mark.parametrize("key, value", [
    ("d_char", 0), ("d_char", True), ("filter_widths", [1, "2", 3]),
    ("filter_widths", [1, 2]), ("filter_counts", 4), ("highway_layers", -1),
    ("d_out", 2.5), ("max_word_len", "x"), ("max_word_len", 2),
])
def test_from_dict_rejects_bad_sizes(key, value):
    d = tiny_encoder_config().to_dict()
    d[key] = value
    with pytest.raises(ValueError, match="filter_" if key.startswith("filter_") else key):
        enc.CharEncoderConfig.from_dict(d)


@pytest.mark.parametrize("key, value", [("lm_hidden", "16"), ("lm_layers", 0)])
def test_bilm_from_dict_rejects_bad_sizes(key, value):
    d = tiny_bilm_config().to_dict()
    d[key] = value
    with pytest.raises(ValueError, match=key):
        BiLMConfig.from_dict(d)
