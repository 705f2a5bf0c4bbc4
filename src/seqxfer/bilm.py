"""Bidirectional language model over char-encoded words.

Two independent LSTM stacks (left-to-right and right-to-left) share the
character encoder and the softmax vocabulary head.  Supports pretraining,
cross-lingual fine-tuning via vocabulary-head replacement, contextual
representation extraction and perplexity measurement.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Adam, clip_by_global_norm, reverse_gradients
from .checkpoint import Checkpoint
from .corpus import lm_batches, pad_batch
from .encoder import CharEncoderConfig, char_encoder_table, encode_char_matrix, size
from .errors import ContractError, DataError, TransferError

DIRECTIONS = ("fwd", "bwd")
HEAD_PARAMS = ("lm.head.W", "lm.head.b")


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
    """The config of the BiLM checkpoint `ck`, once its tensors are checked
    against the parameter table its architecture declares."""
    if ck.architecture["kind"] != "bilm":
        raise TransferError(f"{ck.source} is not a bilm checkpoint")

    def read(arch):
        n_chars = len(ck.char_vocab) if ck.char_vocab else 0
        if n_chars != arch["n_chars"]:
            raise DataError(f"n_chars is {arch['n_chars']!r} but the char "
                            f"vocabulary holds {n_chars} symbols")
        config = BiLMConfig.from_dict(arch["config"])
        return config, bilm_table(config, n_chars, arch["n_words"])
    config, table = ck.read_architecture(read)
    ck.check_tensors(table)
    return config


def params_from_tensors(tensors):
    return {name: ad.parameter(name, np.array(arr, copy=True))
            for name, arr in tensors.items()}


def tensors_from_params(params):
    return {name: np.array(p.data, copy=True) for name, p in params.items()}


def architecture(config, n_chars, n_words):
    return {"kind": "bilm", "config": config.to_dict(),
            "n_chars": n_chars, "n_words": n_words}


# forward pieces -----------------------------------------------------


def _gate_constants(H):
    """Per-column (scale, shift) such that scale*tanh(scale*z) + shift maps
    the [i, f, g, o] pre-activations to sigmoid(i), sigmoid(f), tanh(g),
    sigmoid(o) with one tanh.  A sigmoid is 0.5*(tanh(0.5x)+1), as in
    `ad.sigmoid`; scaling by 0.5 commutes with rounding, so each gate
    equals its unfused value bit for bit."""
    half = np.full(H, 0.5)
    return (np.concatenate([half, half, np.ones(H), half]),
            np.concatenate([half, half, np.zeros(H), half]))


def lstm_forward(xs, mask, Wx, Wh, b, reverse=False):
    """Run one LSTM layer over xs [B, T, D]; padded steps carry state through.

    One graph node for the whole layer.  The input projection is computed
    once for all steps, the recurrence in numpy, and the backward pass is
    hand-written masked BPTT over the stored activations.
    """
    B, T, _ = xs.data.shape
    H = Wh.data.shape[0]
    mask = np.asarray(mask, dtype=np.float64)
    full = (mask == 1.0).all(axis=0)
    scale, shift = _gate_constants(H)
    Z = xs.data @ Wx.data + b.data
    Whd = Wh.data
    acts = np.empty((T, B, 4 * H))     # gate activations, per time index
    tanh_c = np.empty((T, B, H))       # tanh of the step's new cell
    hs = np.empty((B, T, H))           # carried h: the layer's output
    cs = np.empty((T, B, H))           # carried c
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

    # masked BPTT over the stored activations
    def _bw(g):
        # state entering each step: the previous step's carried h and c
        zero = np.zeros((B, 1, H))
        if reverse:
            h_prev = np.concatenate([hs[:, 1:], zero], axis=1)
            c_prev = np.concatenate([cs[1:], zero.reshape(1, B, H)])
        else:
            h_prev = np.concatenate([zero, hs[:, :-1]], axis=1)
            c_prev = np.concatenate([zero.reshape(1, B, H), cs[:-1]])
        i, f = acts[..., :H], acts[..., H:2 * H]
        gg, o = acts[..., 2 * H:3 * H], acts[..., 3 * H:]
        # dz of each gate is (dc_new or dh_new) times one of these factors
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
        # one row per (b, t), in the order of xs
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


def encode_batch_words(batch, params, config):
    """Unique-word char encoding gathered back to [B, T, d_out]."""
    B, T = batch.word_index.shape
    enc = encode_char_matrix(batch.uniq_char_ids, params, config.encoder)
    x = ad.getitem(enc, batch.word_index.reshape(-1))
    return ad.reshape(x, (B, T, config.d_out))


def run_direction(x, mask, params, config, direction):
    """One direction's LSTM stack; each layer projects back to d_out."""
    for layer in range(config.lm_layers):
        base = f"lm.{direction}.l{layer}"
        h = lstm_forward(x, mask, params[f"{base}.Wx"], params[f"{base}.Wh"],
                         params[f"{base}.b"], reverse=(direction == "bwd"))
        x = ad.matmul(h, params[f"{base}.proj.W"]) + params[f"{base}.proj.b"]
    return x


def _nll_sum(states, targets, mask, params):
    B, T, d = states.data.shape
    V = params["lm.head.W"].data.shape[0]
    logits = ad.matmul(states, ad.transpose(params["lm.head.W"])) + params["lm.head.b"]
    logp = ad.log_softmax(logits, axis=-1)
    flat = ad.reshape(logp, (B * T, V))
    picked = flat[(np.arange(B * T), targets.reshape(-1))]
    return -(picked * mask.reshape(-1)).sum()


def bilm_loss_parts(batch, params, config):
    """(forward NLL sum, backward NLL sum, unmasked target count)."""
    count = batch.n_tokens
    if count == 0:
        raise ContractError("empty LM batch")
    x = encode_batch_words(batch, params, config)
    fwd_states = run_direction(x, batch.mask, params, config, "fwd")
    bwd_states = run_direction(x, batch.mask, params, config, "bwd")
    fwd = _nll_sum(fwd_states, batch.fwd_targets, batch.mask, params)
    bwd = _nll_sum(bwd_states, batch.bwd_targets, batch.mask, params)
    return fwd, bwd, count


def bilm_loss(batch, params, config):
    """Mean NLL per (position, direction) pair; ln|V| for a zeroed head."""
    fwd, bwd, count = bilm_loss_parts(batch, params, config)
    return (fwd + bwd) / (2.0 * count)


def contextual_states(batch, params, config):
    """Last-layer forward and backward states of a padded Batch,
    [B, T, 2*d_out]; each distinct word is char-encoded once."""
    x = encode_batch_words(batch, params, config)
    fwd = run_direction(x, batch.mask, params, config, "fwd")
    bwd = run_direction(x, batch.mask, params, config, "bwd")
    return ad.concat([fwd, bwd], axis=2)


def contextual_repr(sentence, params, config, char_vocab):
    """Per-token contextual vectors for a token-string sentence."""
    batch = pad_batch([sentence], char_vocab=char_vocab,
                      max_word_len=config.encoder.max_word_len)
    with ad.no_grad():
        return contextual_states(batch, params, config).data[0]


def perplexity(corpus, params, config, vocab, char_vocab, batch_size=32):
    """exp(mean per-direction per-token NLL), directions averaged."""
    corpus = [s for s in corpus if s]
    if not corpus:
        raise ContractError("empty corpus")
    total, count = 0.0, 0
    for batch in lm_batches(corpus, vocab, char_vocab, batch_size,
                            config.encoder.max_word_len, seed=0):
        fwd, bwd, n = bilm_loss_parts(batch, params, config)
        total += float(fwd.data) + float(bwd.data)
        count += n
    return math.exp(total / (2.0 * count))


# training and surgery -----------------------------------------------


def _check_architecture(init_arch, config, n_chars, n_words):
    want = architecture(config, n_chars, n_words)
    mismatched = [k for k in want if init_arch.get(k) != want[k]]
    if mismatched:
        raise TransferError(
            "init checkpoint architecture mismatch on: " + ", ".join(mismatched))


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


def training_step(params, lm_params, anchor_coeff, clip_norm, lr, beta1, beta2, eps):
    """The Adam step of both trainers, as `step(loss)`: with anchor_coeff
    > 0 it adds the pull of the non-head `lm_params` toward their values
    now, then updates `params` in place from their clipped gradients."""
    anchors = {}
    if anchor_coeff > 0.0:
        anchors = {name: p.data.copy() for name, p in lm_params.items()
                   if name not in HEAD_PARAMS}
    opt = Adam(lr=lr, beta1=beta1, beta2=beta2, eps=eps)

    def step(loss):
        if anchors:
            loss = loss + anchor_penalty(lm_params, anchors, anchor_coeff)
        grads = reverse_gradients(loss, params)
        grads, _ = clip_by_global_norm(grads, clip_norm)
        opt.step(params, grads)
    return step


def train_lm(corpus, vocab=None, char_vocab=None, config=None, epochs=1, *,
             batch_size=32, lr=0.001, beta1=0.9, beta2=0.999, eps=1e-8,
             clip_norm=5.0, seed=0, init=None, anchor_coeff=0.0, log_fn=None):
    """Adam training of the BiLM; returns a checkpoint with per-epoch loss.

    With `init` (a bilm Checkpoint) this resumes/fine-tunes: vocabularies
    come from the checkpoint and, when anchor_coeff > 0, every non-head
    parameter is L2-anchored to its initial value.
    """
    corpus = [s for s in corpus if s]
    if not corpus:
        raise ContractError("empty corpus")
    provenance = []
    if init is not None:
        vocab = init.word_vocab
        char_vocab = init.char_vocab
        init_config = read_bilm(init)
        if config is not None:
            _check_architecture(init.architecture, config, len(char_vocab), len(vocab))
        config = init_config
        params = params_from_tensors(init.tensors)
        provenance = list(init.manifest.get("provenance", []))
        provenance.append({"event": "continue_training", "epochs": epochs})
    else:
        if vocab is None or char_vocab is None or config is None:
            raise ContractError("vocab, char_vocab and config are required without init")
        params = init_bilm_params(config, len(char_vocab), len(vocab), seed)
        provenance = [{"event": "pretrain", "epochs": epochs, "seed": seed}]

    step = training_step(params, params, anchor_coeff, clip_norm, lr, beta1, beta2, eps)
    epoch_losses = []
    for epoch in range(epochs):
        batches = lm_batches(corpus, vocab, char_vocab, batch_size,
                             config.encoder.max_word_len,
                             seed=seed * 100003 + epoch)
        total, count = 0.0, 0
        for batch in batches:
            fwd, bwd, n = bilm_loss_parts(batch, params, config)
            loss = (fwd + bwd) / (2.0 * n)
            total += float(loss.data) * n
            count += n
            step(loss)
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
