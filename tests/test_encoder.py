import numpy as np
import pytest

from seqxfer import autodiff as ad
from seqxfer import encoder as enc
from seqxfer.bilm import BiLMConfig
from seqxfer.corpus import build_char_vocab, char_id_row
from seqxfer.errors import ContractError

from conftest import tiny_bilm_config, tiny_encoder_config


def _setup(seed=0):
    config = tiny_encoder_config()
    cvocab = build_char_vocab([["alpha", "beta", "gamma", "x"]])
    params = ad.init_params(enc.char_encoder_table(config, len(cvocab)), seed)
    return config, cvocab, params


class TestHighway:
    def test_open_gate_is_transform(self):
        d = 4
        x = np.array([[0.5, -1.0, 2.0, 0.0]])
        WT = np.zeros((d, d))
        WH = ad.seeded_init((d, d), 1)
        out = enc.highway_forward(x, WT, np.full(d, 100.0), WH, np.zeros(d))
        assert np.allclose(out.data, x @ WH, atol=1e-12)

    def test_closed_gate_is_identity(self):
        d = 4
        x = np.array([[0.5, -1.0, 2.0, 0.0]])
        WT = np.zeros((d, d))
        WH = ad.seeded_init((d, d), 1)
        out = enc.highway_forward(x, WT, np.full(d, -100.0), WH, np.zeros(d))
        assert np.allclose(out.data, x, atol=1e-12)

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ContractError):
            enc.highway_forward(np.ones((1, 3)), np.zeros((4, 4)),
                                np.zeros(4), np.zeros((4, 4)), np.zeros(4))

    def test_gradients_match_finite_differences(self):
        d = 5
        x = ad.constant(np.random.default_rng(0).normal(size=(3, d)))
        params = {
            "WT": ad.parameter("WT", ad.seeded_init((d, d), 1)),
            "bT": ad.parameter("bT", np.full(d, -1.0)),
            "WH": ad.parameter("WH", ad.seeded_init((d, d), 2)),
            "bH": ad.parameter("bH", np.zeros(d)),
        }

        def loss_fn():
            out = enc.highway_forward(x, params["WT"], params["bT"],
                                      params["WH"], params["bH"])
            return (out * out).sum()

        assert ad.finite_difference_check(loss_fn, params) < 1e-4


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
