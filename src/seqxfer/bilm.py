"""Bidirectional language model over char-encoded words.

Two independent LSTM stacks (left-to-right and right-to-left) share the
character encoder and the softmax vocabulary head.  Supports pretraining,
cross-lingual fine-tuning via vocabulary-head replacement, contextual
representation extraction and perplexity measurement.
"""

import bisect
import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Adam, clip_by_global_norm, reverse_gradients
from .checkpoint import Checkpoint
from .corpus import lm_batches, pad_batch, prefix_lengths
from .encoder import CharEncoderConfig, char_encoder_table, encode_char_matrix, size
from .errors import ContractError, DataError

DIRECTIONS = ("fwd", "bwd")
HEAD_PARAMS = ("lm.head.W", "lm.head.b")
EVAL_TOKENS = 1024  # padded (row, step) slots per batch in `perplexity` and `predict`


@dataclass
class BiLMConfig:
    encoder: CharEncoderConfig = field(default_factory=CharEncoderConfig)
    lm_hidden: int = 128
    lm_layers: int = 1

    @property
    def d_out(self):
        return self.encoder.d_out

    def to_dict(self):
        return {"encoder": self.encoder.to_dict(),
                "lm_hidden": self.lm_hidden, "lm_layers": self.lm_layers}

    @classmethod
    def from_dict(cls, d):
        return cls(CharEncoderConfig.from_dict(d["encoder"]),
                   size(d["lm_hidden"], "lm_hidden"), size(d["lm_layers"], "lm_layers"))


def lstm_table(base, d_in, H):
    """One LSTM layer's rows: the forget-gate quarter of the bias starts at 1."""
    return [(f"{base}.Wx", (d_in, 4 * H), None), (f"{base}.Wh", (H, 4 * H), None),
            (f"{base}.b", (4 * H,), np.repeat([0.0, 1.0, 0.0, 0.0], H))]


def bilm_table(config, n_chars, n_words):
    """(name, shape, fill) rows of every BiLM parameter in init order; the
    two softmax-head rows (HEAD_PARAMS) come last."""
    H, d = config.lm_hidden, config.d_out
    table = char_encoder_table(config.encoder, n_chars)
    for direction in DIRECTIONS:
        for layer in range(config.lm_layers):
            base = f"lm.{direction}.l{layer}"
            table += lstm_table(base, d, H)
            table += [(f"{base}.proj.W", (H, d), None), (f"{base}.proj.b", (d,), 0.0)]
    return table + [("lm.head.W", (n_words, d), None), ("lm.head.b", (n_words,), 0.0)]


def init_bilm_params(config, n_chars, n_words, seed):
    return ad.init_params(bilm_table(config, n_chars, n_words), seed)


def read_bilm(ck):
    """The config of the BiLM checkpoint `ck`, once its vocabularies are
    checked against the sizes its architecture declares and its tensors
    against the parameter table that architecture declares."""
    def read(arch):
        for key, kind, vocab in (("n_chars", "char", ck.char_vocab),
                                 ("n_words", "word", ck.word_vocab)):
            n = len(vocab) if vocab else 0
            if n != arch[key]:
                raise DataError(f"{key} is {arch[key]!r} but the {kind} "
                                f"vocabulary holds {n} symbols")
        config = BiLMConfig.from_dict(arch["config"])
        return config, bilm_table(config, arch["n_chars"], arch["n_words"])
    return ck.read_architecture("bilm", read)


def params_from_tensors(tensors):
    return {name: ad.parameter(name, np.array(arr, copy=True))
            for name, arr in tensors.items()}


def tensors_from_params(params):
    return {name: np.array(p.data, copy=True) for name, p in params.items()}


def architecture(config, n_chars, n_words):
    return {"kind": "bilm", "config": config.to_dict(),
            "n_chars": n_chars, "n_words": n_words}


# forward pieces -----------------------------------------------------


@functools.cache
def _gate_constants(H):
    """Per-column (scale, shift) such that scale*tanh(scale*z) + shift maps
    the [i, f, g, o] pre-activations to sigmoid(i), sigmoid(f), tanh(g),
    sigmoid(o) with one tanh.  A sigmoid is 0.5*(tanh(0.5x)+1), as in the
    highway gates of `encode_char_matrix`; scaling by 0.5 commutes with
    rounding, so each gate equals its unfused value bit for bit.  Cached
    per H, so both arrays are read-only."""
    half = np.full(H, 0.5)
    scale = np.concatenate([half, half, np.ones(H), half])
    shift = np.concatenate([half, half, np.zeros(H), half])
    scale.flags.writeable = shift.flags.writeable = False
    return scale, shift


def lstm_forward(xs, mask, Wx, Wh, b, reverse=False):
    """Run one LSTM layer over xs [B, T, D] whose [B, T] mask has each row
    1 over a prefix and 0 after it; padded steps carry state through.

    One graph node for the whole layer.  The rows are sorted by length
    once (a batch already sorted ascending, as every LM and `predict`
    batch is, is used as it is), so the rows real at step t are the last
    ones of the sorted batch.  Each array the hand-written BPTT reads holds
    just the N real (row, step) pairs, step-major, so each step, forward
    and backward, runs on a view of its real rows and one block of those
    arrays; the other rows carry state and gradient unchanged.  The input
    projection runs once: with padding, as one GEMM over the real pairs;
    without, as the product over all of xs, since a 2-D GEMM can round
    otherwise at T = 1, where numpy runs that product as a GEMV per row.
    The weight gradients sum over all B*T rows of xs, in its order, with a
    zero dz at each padded pair.
    """
    B, T, D = xs.data.shape
    H = Wh.data.shape[0]
    lengths = prefix_lengths(mask, (B, T))
    order = back = slice(None)
    ls = lengths.tolist()
    if ls != sorted(ls):
        order = np.argsort(lengths, kind="stable")
        back = np.argsort(order)
        ls.sort()
    # rows first[t]: of the sorted batch are the ones real at step t, and
    # rows starts[t]:starts[t + 1] of each packed [N, .] array
    first = [bisect.bisect_right(ls, t) for t in range(T)]
    starts = [0, *itertools.accumulate(B - f for f in first)]
    N = starts[-1]
    real = np.arange(T)[:, None] < lengths[order]
    scale, shift = _gate_constants(H)
    if N < B * T:
        Z = xs.data[order].transpose(1, 0, 2)[real] @ Wx.data
        Z += b.data
        zs = [Z[s:e] for s, e in itertools.pairwise(starts)]
    else:
        zs = (xs.data @ Wx.data + b.data).transpose(1, 0, 2)
    # with no backward to feed, each step writes rows r of one [B, .] block
    grad = bool(ad.recorded((xs, Wx, Wh, b)))
    acts = np.empty((N if grad else B, 4 * H))  # gate activations
    tanh_c = np.empty((N if grad else B, H))    # tanh of the pair's new cell
    c_in = np.empty((N, H)) if grad else None   # the pair's incoming cell
    hs = np.empty((B, T, H))           # carried h: the layer's output
    h, c = np.zeros((2, B, H))
    steps = range(T - 1, -1, -1) if reverse else range(T)
    for t in steps:
        r = slice(first[t], None)
        p = slice(starts[t], starts[t + 1]) if grad else r
        hr, cr = h[r], c[r]
        if grad:
            c_in[p] = cr
        a = np.multiply(zs[t] + hr @ Wh.data, scale, out=acts[p])
        np.tanh(a, out=a)
        a *= scale
        a += shift
        ig = a[:, :H] * a[:, 2 * H:3 * H]
        cr *= a[:, H:2 * H]
        cr += ig
        np.multiply(a[:, 3 * H:], np.tanh(cr, out=tanh_c[p]), out=hr)
        hs[:, t] = h
    hs = hs[back]

    def _bw(g):
        zero = np.zeros((B, min(T, 1), H))  # each step's incoming h, in xs order
        h_prev = np.concatenate([hs[:, 1:], zero] if reverse else [zero, hs[:, :-1]], axis=1)
        i, f = acts[:, :H], acts[:, H:2 * H]
        gg, o = acts[:, 2 * H:3 * H], acts[:, 3 * H:]
        # dz of each gate is (dc_new or dh_new) times one of the first four
        # factors; dc_new gains dh_new times the fifth and leaves times f
        factors = np.empty((N, 6, H))
        factors[:, 0] = gg * i * (1.0 - i)
        factors[:, 1] = c_in * f * (1.0 - f)
        factors[:, 2] = i * (1.0 - gg * gg)
        factors[:, 3] = tanh_c * o * (1.0 - o)
        factors[:, 4] = o * (1.0 - tanh_c * tanh_c)
        factors[:, 5] = f
        Wh_T = Wh.data.T
        g = g[order]
        dZ = np.empty((N + 1, 4, H))
        dZ[N] = 0.0                    # the dz of every padded pair
        dh, dc = np.zeros((2, B, H))   # gradient reaching the carried h and c
        for t in reversed(steps):
            r, p = slice(first[t], None), slice(starts[t], starts[t + 1])
            dh += g[:, t]
            dhr, dcr = dh[r], dc[r]
            fac = factors[p]
            dcr += dhr * fac[:, 4]
            dz = dZ[p]
            np.multiply(dcr[:, None, :], fac[:, :3], out=dz[:, :3])
            np.multiply(dhr, fac[:, 3], out=dz[:, 3])
            np.matmul(dz.reshape(-1, 4 * H), Wh_T, out=dhr)
            dcr *= fac[:, 5]
        # one row per (b, t), in the order of xs: its pair's row, or row N
        packed = np.full((T, B), N)
        packed[real] = np.arange(N)
        dZ = np.take(dZ.reshape(N + 1, 4 * H), packed.T[back].reshape(-1), axis=0)
        if xs.requires_grad:
            xs._accum((dZ @ Wx.data.T).reshape(xs.data.shape))
        if Wx.requires_grad:
            Wx._accum(xs.data.reshape(B * T, D).T @ dZ)
        if Wh.requires_grad:
            Wh._accum(h_prev.reshape(B * T, H).T @ dZ)
        if b.requires_grad:
            b._accum(dZ.sum(axis=0))
    return ad.node(hs, (xs, Wx, Wh, b), _bw)


def lstm_layer(x, mask, params, base, reverse):
    """`lstm_forward` with the weights params[base + ".Wx" / ".Wh" / ".b"]."""
    return lstm_forward(x, mask, params[f"{base}.Wx"], params[f"{base}.Wh"],
                        params[f"{base}.b"], reverse=reverse)


def bilm_states(batch, params, config, types=None):
    """Last-layer [fwd, bwd] states, each [B, T, d_out], of a padded Batch.
    Each distinct word is char-encoded once, then each direction runs its
    LSTM stack, every layer projecting back to d_out.  Given `types`, the
    encoded word types of the call that built the batch ([1 + n_types,
    d_out], rows by `batch.type_ids`), it gathers from them instead."""
    if types is None:
        x = ad.getitem(encode_char_matrix(batch.uniq_char_ids, params, config.encoder),
                       batch.word_index)
    else:
        x = ad.getitem(types, batch.type_ids)
    states = []
    for direction in DIRECTIONS:
        h = x
        for layer in range(config.lm_layers):
            base = f"lm.{direction}.l{layer}"
            h = lstm_layer(h, batch.mask, params, base, direction == "bwd")
            h = ad.matmul(h, params[f"{base}.proj.W"]) + params[f"{base}.proj.b"]
        states.append(h)
    return states


def _nll_sum(states, targets, mask, params):
    """Summed NLL of the real positions' targets under the softmax head, as
    one graph node.  Only rows where mask == 1 reach the [N, V] matmul, so
    padded targets are never read; the backward is softmax - one_hot."""
    W, b = params["lm.head.W"], params["lm.head.b"]
    real = mask.reshape(-1) == 1.0
    h = states.data.reshape(-1, states.data.shape[-1])[real]
    t = targets.reshape(-1)[real]
    rows = np.arange(len(t))
    z = h @ W.data.T
    z += b.data
    z -= z.max(axis=1, keepdims=True)
    picked = z[rows, t]
    e = np.exp(z, out=z)
    sums = e.sum(axis=1)

    def _bw(g):
        dz = e * (g / sums)[:, None]
        dz[rows, t] -= g
        if states.requires_grad:
            ds = np.zeros((real.size, h.shape[1]))
            ds[real] = dz @ W.data
            states._accum(ds.reshape(states.data.shape))
        if W.requires_grad:
            W._accum(dz.T @ h)
        if b.requires_grad:
            b._accum(dz.sum(axis=0))
    return ad.node(-(picked - np.log(sums)).sum(), (states, W, b), _bw)


def bilm_loss_parts(batch, params, config, types=None):
    """(forward NLL sum, backward NLL sum, unmasked target count);
    `types` as in `bilm_states`."""
    count = batch.n_tokens
    if count == 0:
        raise ContractError("empty LM batch")
    fwd_states, bwd_states = bilm_states(batch, params, config, types)
    fwd = _nll_sum(fwd_states, batch.fwd_targets, batch.mask, params)
    bwd = _nll_sum(bwd_states, batch.bwd_targets, batch.mask, params)
    return fwd, bwd, count


def bilm_loss(batch, params, config):
    """Mean NLL per (position, direction) pair; ln|V| for a zeroed head."""
    fwd, bwd, count = bilm_loss_parts(batch, params, config)
    return (fwd + bwd) / (2.0 * count)


def contextual_states(batch, params, config):
    """`bilm_states` side by side, [B, T, 2*d_out]."""
    return ad.concat(bilm_states(batch, params, config), axis=2)


def contextual_repr(sentence, params, config, char_vocab):
    """Per-token contextual vectors for a token-string sentence."""
    batch = pad_batch([sentence], char_vocab=char_vocab,
                      max_word_len=config.encoder.max_word_len)
    with ad.no_grad():
        return contextual_states(batch, params, config).data[0]


def perplexity(corpus, params, config, vocab, char_vocab):
    """exp(mean per-direction per-token NLL), directions averaged, with no
    graph.  The encoder is context free, so each word type is char-encoded
    once, with the other new types of the first batch that holds it."""
    corpus = [s for s in corpus if s]
    if not corpus:
        raise ContractError("empty corpus")
    total, count = 0.0, 0
    batches = lm_batches(corpus, vocab, char_vocab, None, config.encoder.max_word_len,
                         seed=0, max_tokens=EVAL_TOKENS)
    rows = batches[0].type_char_ids
    types, done = np.zeros((len(rows), config.d_out)), np.zeros(len(rows), dtype=bool)
    with ad.no_grad():
        for batch in batches:
            held = np.unique(batch.type_ids)
            new = held[~done[held]]
            if len(new):
                types[new] = encode_char_matrix(rows[new], params, config.encoder).data
                done[new] = True
            fwd, bwd, n = bilm_loss_parts(batch, params, config, types)
            total += float(fwd.data) + float(bwd.data)
            count += n
    return math.exp(total / (2.0 * count))


# training and surgery -----------------------------------------------


def anchor_penalty(params, anchors, coeff):
    """L2 pull toward the initial (pre-fine-tuning) values: one graph node
    over every anchored parameter, valued coeff * sum ||p - anchor||^2.
    Its backward adds 2 * coeff * g * (p - anchor) to each parameter."""
    tensors = [params[name] for name in anchors]
    diffs = [p.data - anchors[name] for name, p in zip(anchors, tensors)]
    total = sum(float((d * d).sum()) for d in diffs)

    def _bw(g):
        scale = 2.0 * coeff * g
        for p, d in zip(tensors, diffs):
            if p.requires_grad:
                p._accum(scale * d)
    return ad.node(total * coeff, tensors, _bw)


def training_step(params, lm_params, anchor_coeff, clip_norm, lr):
    """The Adam step of both trainers, as `step(loss)`: with anchor_coeff
    > 0 it adds the pull of the non-head `lm_params` toward their values
    now, then updates `params` in place from their clipped gradients."""
    if not all(math.isfinite(v) for v in (lr, clip_norm, anchor_coeff)) \
            or lr <= 0.0 or clip_norm <= 0.0 or anchor_coeff < 0.0:
        raise ContractError(f"lr and clip_norm must be finite and > 0, anchor_coeff finite and "
                            f">= 0; got {lr!r}, {clip_norm!r}, {anchor_coeff!r}")
    anchors = {}
    if anchor_coeff > 0.0:
        anchors = {name: p.data.copy() for name, p in lm_params.items()
                   if name not in HEAD_PARAMS}
    opt = Adam(lr=lr)

    def step(loss):
        if anchors:
            loss = loss + anchor_penalty(lm_params, anchors, anchor_coeff)
        grads = reverse_gradients(loss, params)
        grads, _ = clip_by_global_norm(grads, clip_norm)
        opt.step(params, grads)
    return step


def train_lm(corpus, vocab=None, char_vocab=None, config=None, epochs=1, *,
             batch_size=32, lr=0.001, clip_norm=5.0, seed=0, init=None,
             anchor_coeff=0.0, log_fn=None):
    """Adam training of the BiLM; returns a checkpoint with per-epoch loss.

    With `init` (a bilm Checkpoint) this resumes/fine-tunes: the config
    and vocabularies come from `read_bilm(init)` alone, so passing any of
    them too is a ContractError, and when anchor_coeff > 0 every non-head
    parameter is L2-anchored to its initial value.
    """
    corpus = [s for s in corpus if s]
    if not corpus:
        raise ContractError("empty corpus")
    if init is not None:
        if any(x is not None for x in (vocab, char_vocab, config)):
            raise ContractError("with init, vocab, char_vocab and config come "
                                "from the checkpoint; pass none of them")
        config = read_bilm(init)
        vocab, char_vocab = init.word_vocab, init.char_vocab
        params = params_from_tensors(init.tensors)
        provenance = list(init.manifest.get("provenance", []))
        provenance.append({"event": "continue_training", "epochs": epochs})
    else:
        if vocab is None or char_vocab is None or config is None:
            raise ContractError("vocab, char_vocab and config are required without init")
        params = init_bilm_params(config, len(char_vocab), len(vocab), seed)
        provenance = [{"event": "pretrain", "epochs": epochs, "seed": seed}]

    step = training_step(params, params, anchor_coeff, clip_norm, lr)
    epoch_losses = []
    for epoch in range(epochs):
        batches = lm_batches(corpus, vocab, char_vocab, batch_size,
                             config.encoder.max_word_len,
                             seed=seed * 100003 + epoch)
        total, count = 0.0, 0
        for batch in batches:
            loss = bilm_loss(batch, params, config)
            total += float(loss.data) * batch.n_tokens
            count += batch.n_tokens
            step(loss)
            del loss    # batch k's graph must not outlive its step
        epoch_losses.append(total / count)
        if log_fn:
            log_fn(f"epoch={epoch + 1} lm_train_loss={epoch_losses[-1]:.6f}")

    return Checkpoint.create(
        "bilm", architecture(config, len(char_vocab), len(vocab)),
        tensors_from_params(params), word_vocab=vocab, char_vocab=char_vocab,
        provenance=provenance, metrics={"train_loss": epoch_losses})


def replace_vocab_head(src, target_vocab, seed):
    """Copy all LM weights bit-exactly but re-create the softmax head
    for a new vocabulary (cross-lingual surgery)."""
    config = read_bilm(src)
    head = bilm_table(config, len(src.char_vocab), len(target_vocab))[-2:]
    tensors = {name: arr.copy() for name, arr in src.tensors.items()}
    tensors.update(tensors_from_params(ad.init_params(head, seed)))
    arch = dict(src.architecture)
    arch["n_words"] = len(target_vocab)
    provenance = list(src.manifest.get("provenance", []))
    provenance.append({"event": "replace_vocab_head",
                       "source": src.digest(),
                       "replaced": list(HEAD_PARAMS),
                       "seed": seed})
    return Checkpoint.create("bilm", arch, tensors, word_vocab=target_vocab,
                             char_vocab=src.char_vocab, provenance=provenance,
                             metrics=dict(src.manifest.get("metrics", {})))
