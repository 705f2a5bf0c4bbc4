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


def char_cnn(ids, params, config):
    """Max-pooled convolution features [U, pooled_dim] of padded char-id
    rows [U, L], as one graph node over the embedding and every width's
    filters.

    PAD char positions contribute zero embeddings; windows whose start
    falls on PAD are pushed down by NEG_BIG before the max over time, so
    trailing padding can never change the output.  All widths run as one
    matmul: width w's filters fill the first w*d rows of their columns.
    In the backward pass only the first argmax window of each (word,
    channel) gets a gradient, and one scatter sends the real char
    positions' share to `char_enc.emb`.
    """
    emb = params["char_enc.emb"]
    n_chars = emb.data.shape[0]
    ids = np.asarray(ids)
    if ids.ndim != 2 or not np.issubdtype(ids.dtype, np.integer):
        raise ContractError(f"char ids must be a 2-d integer array, got "
                            f"{ids.dtype} of shape {ids.shape}")
    outside = (ids < 0) | (ids >= n_chars)
    if outside.any():
        raise ContractError(f"char id {ids[outside][0]} is outside the "
                            f"{n_chars}-char vocabulary")
    U, L = ids.shape
    d, widths, wmax = config.d_char, config.filter_widths, max(config.filter_widths)
    if wmax > L:
        raise ContractError(f"filter width {wmax} exceeds max word length {L}")
    convs = [(w, params[f"char_enc.conv{w}.W"], params[f"char_enc.conv{w}.b"])
             for w in widths]
    spans = np.cumsum([0] + [b.data.shape[0] for _, _, b in convs])
    W_all = np.zeros((wmax * d, spans[-1]))
    for (w, W, _), lo, hi in zip(convs, spans, spans[1:]):
        W_all[:w * d, lo:hi] = W.data
    # windows[u, t, j] is the char at t + j, PAD past the row's end
    padded = np.full((U, L + wmax - 1), PAD, dtype=ids.dtype)
    padded[:, :L] = ids
    windows = padded[:, np.arange(L)[:, None] + np.arange(wmax)]
    table = emb.data.copy()
    table[PAD] = 0.0
    X = table[windows].reshape(U * L, wmax * d)
    act = X @ W_all
    act += np.concatenate([b.data for _, _, b in convs])
    act = np.tanh(act, out=act).reshape(U, L, -1)
    # The pool's masks are applied in place.  A window starting on PAD
    # loses by NEG_BIG, and one past the row's last start for its width
    # (t > L - w) does not exist and never wins.  So a max that lands on a
    # masked window lands on t = 0, whose tanh is kept for the backward.
    first = act[:, 0].copy()
    act += np.where(ids == PAD, NEG_BIG, 0.0)[:, :, None]
    for (w, _, _), lo, hi in zip(convs, spans, spans[1:]):
        act[:, L - w + 1:, lo:hi] = -np.inf
    pooled = act.max(axis=1)

    def _bw(g):
        top = act.argmax(axis=1)
        at = (np.arange(U)[:, None], top, np.arange(spans[-1]))
        y = np.where(ids[at[:2]] == PAD, first, pooled)
        g = (1.0 - y * y) * g
        dz = np.zeros(act.shape)
        dz[at] = g
        dz = dz.reshape(U * L, -1)
        dW = X.T @ dz if any(W.requires_grad for _, W, _ in convs) else None
        db = g.sum(axis=0)
        for (w, W, b), lo, hi in zip(convs, spans, spans[1:]):
            if W.requires_grad:
                W._accum(dW[:w * d, lo:hi])
            if b.requires_grad:
                b._accum(db[lo:hi])
        if emb.requires_grad:
            dX = (dz @ W_all.T).reshape(U, L, wmax, d)
            real = windows != PAD
            # one scatter-add of every real window position's share
            slots = (windows[real][:, None] * d + np.arange(d)).ravel()
            emb._accum(np.bincount(slots, weights=dX[real].ravel(),
                                   minlength=emb.data.size).reshape(emb.data.shape))
    parents = [emb] + [p for _, W, b in convs for p in (W, b)]
    return ad.node(pooled, parents, _bw)


def encode_char_matrix(ids, params, config):
    """Encode a batch of padded char-id rows [U, L] into vectors [U, d_out]:
    the fused char-CNN node, then one node for the highway layers and the
    projection.  A layer maps h to T (.) (h WH + bH) + (1 - T) (.) h with
    the gate T = sigmoid(h WT + bT); the backward groups each sum as the
    unfused graph did, so its gradients equal that graph's bit for bit."""
    x = char_cnn(ids, params, config)
    W, b = params["char_enc.proj.W"], params["char_enc.proj.b"]
    layers = [tuple(params[f"char_enc.hw{layer}.{k}"] for k in ("WT", "bT", "WH", "bH"))
              for layer in range(config.highway_layers)]
    h, saved = x.data, []     # saved: (layer input, gate, transform) per layer
    for WT, bT, WH, bH in layers:
        gate = 0.5 * (np.tanh(0.5 * (h @ WT.data + bT.data)) + 1.0)
        transform = h @ WH.data + bH.data
        saved.append((h, gate, transform))
        h = gate * transform + (1.0 - gate) * h

    def _bw(g):
        grads = [(W, h.T @ g), (b, g.sum(axis=0))]
        dh = g @ W.data.T
        for (WT, bT, WH, bH), (h_in, gate, transform) in zip(reversed(layers),
                                                               reversed(saved)):
            dz = dh * gate
            da = (dh * transform - dh * h_in) * gate * (1.0 - gate)
            grads += [(WT, h_in.T @ da), (bT, da.sum(axis=0)),
                      (WH, h_in.T @ dz), (bH, dz.sum(axis=0))]
            dh = dz @ WH.data.T + dh * (1.0 - gate)
            dh += da @ WT.data.T
        for p, d in grads + [(x, dh)]:
            if p.requires_grad:
                p._accum(d)
    parents = [x, W, b] + [p for layer in layers for p in layer]
    return ad.node(h @ W.data + b.data, parents, _bw)
