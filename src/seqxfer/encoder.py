"""Character-aware word encoder.

Char embeddings -> multi-width 1-d convolutions -> max-over-time pooling
-> gated highway layers -> linear projection.  The encoder is context
free: one vector per surface form.
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .corpus import PAD
from .errors import ContractError

NEG_BIG = -1e30  # masks padded windows out of the max-pool


@dataclass
class CharEncoderConfig:
    d_char: int = 16
    filter_widths: tuple = (1, 2, 3, 4)
    filter_counts: tuple = (8, 8, 16, 16)
    highway_layers: int = 2
    d_out: int = 64
    max_word_len: int = 16

    @property
    def pooled_dim(self):
        return sum(self.filter_counts)

    def to_dict(self):
        return {
            "d_char": self.d_char,
            "filter_widths": list(self.filter_widths),
            "filter_counts": list(self.filter_counts),
            "highway_layers": self.highway_layers,
            "d_out": self.d_out,
            "max_word_len": self.max_word_len,
        }

    @classmethod
    def from_dict(cls, d):
        """A ValueError names the first size that is not a positive integer
        (highway_layers may be 0)."""
        widths, counts = d["filter_widths"], d["filter_counts"]
        if not (isinstance(widths, list) and isinstance(counts, list)
                and widths and len(widths) == len(counts)):
            raise ValueError("filter_widths and filter_counts must be nonempty "
                             "lists of equal length")
        widths = tuple(size(w, "filter_widths") for w in widths)
        counts = tuple(size(n, "filter_counts") for n in counts)
        return cls(size(d["d_char"], "d_char"), widths, counts,
                   size(d["highway_layers"], "highway_layers", least=0),
                   size(d["d_out"], "d_out"),
                   size(d["max_word_len"], "max_word_len", least=max(3, *widths)))


def size(value, name, least=1):
    """`value` if it is an integer of at least `least`; else ValueError."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ValueError(f"{name} is {value!r}, not an integer >= {least}")
    return value


def char_encoder_table(config, n_chars):
    """(name, shape, fill) rows of the encoder's parameters in init order;
    a fill of None is a glorot draw."""
    if len(config.filter_widths) != len(config.filter_counts):
        raise ContractError("filter_widths and filter_counts must align")
    d, y = config.d_char, config.pooled_dim
    table = [("char_enc.emb", (n_chars, d), None)]
    for w, n in zip(config.filter_widths, config.filter_counts):
        table += [(f"char_enc.conv{w}.W", (w * d, n), None),
                  (f"char_enc.conv{w}.b", (n,), 0.0)]
    for layer in range(config.highway_layers):
        base = f"char_enc.hw{layer}"
        # negative gate bias starts the layer near the carry branch
        table += [(f"{base}.WT", (y, y), None), (f"{base}.WH", (y, y), None),
                  (f"{base}.bT", (y,), -1.0), (f"{base}.bH", (y,), 0.0)]
    return table + [("char_enc.proj.W", (y, config.d_out), None),
                    ("char_enc.proj.b", (config.d_out,), 0.0)]


def highway_forward(x, WT, bT, WH, bH):
    """x_next = T (.) (WH x + bH) + (1 - T) (.) x with gate T = sigma(WT x + bT)."""
    WT, WH = ad._as_tensor(WT), ad._as_tensor(WH)
    x = ad._as_tensor(x)
    if x.data.shape[-1] != WT.data.shape[0]:
        raise ContractError(
            f"highway input dim {x.data.shape[-1]} != layer dim {WT.data.shape[0]}")
    gate = ad.sigmoid(ad.matmul(x, WT) + bT)
    transform = ad.matmul(x, WH) + bH
    return gate * transform + (1.0 - gate) * x


def encode_char_matrix(ids, params, config):
    """Encode a batch of padded char-id rows [U, L] into vectors [U, d_out].

    PAD char positions contribute zero embeddings; convolution windows
    whose start falls on PAD are forced to NEG_BIG before pooling, so
    trailing padding can never change the output.
    """
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
        act = ad.tanh(acc + params[f"char_enc.conv{w}.b"])
        window_ok = real[:, :Lo]
        act = act + ((1.0 - window_ok) * NEG_BIG)[:, :, None]
        pooled.append(ad.tmax(act, axis=1))
    x = ad.concat(pooled, axis=1)

    for layer in range(config.highway_layers):
        x = highway_forward(
            x,
            params[f"char_enc.hw{layer}.WT"], params[f"char_enc.hw{layer}.bT"],
            params[f"char_enc.hw{layer}.WH"], params[f"char_enc.hw{layer}.bH"])
    return ad.matmul(x, params["char_enc.proj.W"]) + params["char_enc.proj.b"]
