"""BiLSTM sequence tagger with a CRF or softmax head.

Word embeddings (optionally frozen, optionally concatenated with
dropout-masked contextual vectors from an attached BiLM) feed a stacked
BiLSTM; the CRF head trains with the exact forward-algorithm partition
and decodes with Viterbi.  Training and tagging run on padded batches of
sentences; one sentence is a batch of one.
"""

from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import bilm as bilm_mod
from . import evaluation
from .autodiff import Tensor
# not called here: kept only because bench/tracing.py wraps them on tagger
from .autodiff import clip_by_global_norm, reverse_gradients
from .bilm import BiLMConfig, contextual_states, params_from_tensors, tensors_from_params
from .checkpoint import Checkpoint
from .corpus import (Batch, LabeledSequence, UNK, Vocabulary, batches, build_vocab,
                     prefix_lengths, validate_bio)
from .errors import ContractError, DataError

FORBIDDEN = -1e4  # fixed score of BIO-illegal transitions


class LabelSet:
    """Ordered label strings; BIO grammar enforced when bio=True."""

    def __init__(self, labels, bio=True):
        self.labels = list(labels)
        self.bio = bio
        if len(set(self.labels)) != len(self.labels):
            raise ContractError("duplicate labels")
        if bio:
            if "O" not in self.labels:
                raise ContractError("BIO label set must contain O")
            types = {l[2:] for l in self.labels if l.startswith("B-")}
            for l in self.labels:
                if l.startswith("I-") and l[2:] not in types:
                    raise ContractError(f"{l} has no matching B-{l[2:]}")
        self._index = {l: i for i, l in enumerate(self.labels)}

    def id(self, label):
        return self._index[label]

    def label(self, idx):
        return self.labels[idx]

    def __len__(self):
        return len(self.labels)

    def __contains__(self, label):
        return label in self._index

    def __eq__(self, other):
        return isinstance(other, LabelSet) and self.labels == other.labels

    @classmethod
    def from_sequences(cls, sentences, bio=True):
        seen = sorted({t for s in sentences for t in s.tags})
        if bio:
            ordered = ["O"] + [t for t in seen if t != "O"]
        else:
            ordered = seen
        return cls(ordered, bio=bio)


def transition_mask(labels):
    """1 where a transition obeys the BIO grammar, 0 where it is fixed
    at FORBIDDEN (O->I-X, B-X->I-Y, anything into START, out of STOP...)."""
    m = len(labels)
    start, stop = m, m + 1
    mask = np.zeros((m + 2, m + 2))

    def ok(src, dst):
        if dst == start or src == stop:
            return False
        if dst == stop:
            return src != start
        to = labels.label(dst)
        if not to.startswith("I-"):
            return True
        if src == start:
            return False
        frm = labels.label(src)
        return frm in (f"B-{to[2:]}", f"I-{to[2:]}")

    for i in range(m + 2):
        for j in range(m + 2):
            mask[i, j] = 1.0 if ok(i, j) else 0.0
    return mask


# CRF primitives -----------------------------------------------------
# Emissions are [T, m] (one sentence) or [B, T, m] with an optional [B, T]
# mask whose rows are 1 over a nonempty prefix; transitions are
# [m + 2, m + 2], START and STOP last.


def _crf_args(emissions, transitions, mask):
    """(emissions as [B, T, m] array, transitions array, [B, T] mask, row
    lengths, batched)."""
    e, tr = (x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)
             for x in (emissions, transitions))
    if e.ndim not in (2, 3) or 0 in e.shape[:-1]:
        raise ContractError("emissions must be a nonempty [T, labels] or "
                            "[B, T, labels] array")
    m = e.shape[-1]
    if tr.shape != (m + 2, m + 2):
        raise ContractError(f"transitions shape {tr.shape} != ({m + 2}, {m + 2})")
    batched = e.ndim == 3
    if not batched:
        e = e[None]
    B, T, _ = e.shape
    if mask is None:
        return e, tr, np.ones((B, T)), np.full(B, T), batched
    mask = np.asarray(mask, dtype=np.float64)
    lengths = prefix_lengths(mask, (B, T))
    if not batched or lengths.min() < 1:
        raise ContractError("a CRF mask needs [B, T, labels] emissions and a real "
                            "step in every row")
    return e, tr, mask, lengths, batched


def one_hot(tags, mask, m):
    """[B, T, m] indicators of the tags [B, T] at the mask's real positions."""
    B, T = tags.shape
    out = np.zeros((B, T, m))
    out[np.arange(B)[:, None], np.arange(T), np.where(mask == 1.0, tags, 0)] = mask
    return out


def _lse(x, axis):
    """Max-shifted log-sum-exp along one axis."""
    top = x.max(axis=axis, keepdims=True)
    return np.squeeze(top + np.log(np.exp(x - top).sum(axis=axis, keepdims=True)), axis)


def crf_sequence_score(emissions, transitions, tags, mask=None):
    """Emission + transition score of tag paths, START and STOP transitions
    included: a scalar for [T, m] emissions and tags [T], or [B] for
    [B, T, m] and tags [B, T], each row over its mask's prefix.  Plain-array
    inputs return a float (or an array)."""
    e, tr, mask, _, batched = _crf_args(emissions, transitions, mask)
    B, T, m = e.shape
    start, stop = m, m + 1
    tags = np.asarray(tags, dtype=np.int64)
    if tags.shape != ((B, T) if batched else (T,)):
        raise ContractError(f"{e.shape[:2]} emission rows but tags of shape {tags.shape}")
    tags = tags.reshape(B, T)
    real = mask == 1.0
    if tags[real].min() < 0 or tags[real].max() >= m:
        raise ContractError("tag index out of range")
    # one-hot gold emissions and per-row transition counts, as constants;
    # each row's path runs START, its tags, then STOP from its last tag on
    gold = one_hot(tags, mask, m)
    path = np.concatenate([np.full((B, 1), start), np.where(real, tags, stop),
                           np.full((B, 1), stop)], axis=1)
    counts = np.zeros((B, m + 2, m + 2))
    np.add.at(counts, (np.arange(B)[:, None], path[:, :-1], path[:, 1:]),
              path[:, :-1] != stop)
    if not batched:
        gold, counts = gold[0], counts[0]
    axis = (1, 2) if batched else None
    score = ad.tsum(ad.mul(emissions, gold), axis=axis) \
        + ad.tsum(ad.mul(transitions, counts), axis=axis)
    if isinstance(emissions, Tensor) or isinstance(transitions, Tensor):
        return score
    return score.data if batched else float(score.data)


def crf_log_partition(emissions, transitions, mask=None):
    """log-sum-exp of the scores of all tag paths, by the forward
    recursion, as one graph node: a scalar for [T, m] emissions, [B] for
    [B, T, m], each row over its mask's prefix.  The backward pass is the
    node and edge marginals of a masked forward-backward pass.  Plain-array
    inputs return a float (or an array)."""
    e, tr, mask, lengths, batched = _crf_args(emissions, transitions, mask)
    B, T, m = e.shape
    start, stop = m, m + 1
    A = tr[:m, :m]
    real = mask == 1.0
    full = real.all(axis=0)
    alphas = np.empty((T, B, m))    # log-sum over path prefixes ending at t
    alpha = alphas[0] = tr[start, :m] + e[:, 0]
    for t in range(1, T):
        new = _lse(alpha[:, :, None] + A + e[:, t, None, :], axis=1)
        alpha = alphas[t] = new if full[t] else np.where(real[:, t:t + 1], new, alpha)
    logz = _lse(alpha + tr[:m, stop], axis=1)
    if not isinstance(emissions, Tensor) and not isinstance(transitions, Tensor):
        return logz if batched else float(logz[0])

    def _bw(g):
        w = mask.T[:, :, None] * np.reshape(g, (1, B, 1))      # [T, B, 1]
        # betas[t]: log-sum over path suffixes after t; padding carries STOP
        betas = np.empty((T, B, m))
        beta = betas[T - 1] = np.broadcast_to(tr[:m, stop], (B, m))
        for t in range(T - 1, 0, -1):
            new = _lse(A + (e[:, t] + beta)[:, None, :], axis=2)
            beta = betas[t - 1] = new if full[t] else np.where(real[:, t:t + 1], new, beta)
        node = np.exp(alphas + betas - logz[:, None]) * w    # [T, B, m] marginals
        if isinstance(emissions, Tensor) and emissions.requires_grad:
            emissions._accum(node.transpose(1, 0, 2).reshape(emissions.data.shape))
        if isinstance(transitions, Tensor) and transitions.requires_grad:
            # edge marginals of (t - 1, t) for t >= 1; padded edges are -inf
            x = alphas[:-1, :, :, None] + A \
                + (e.transpose(1, 0, 2)[1:] + betas[1:])[:, :, None, :] \
                - logz[:, None, None]
            x[~real.T[1:]] = -np.inf
            edge = np.exp(x) * w[1:, :, :, None]
            dtr = np.zeros_like(tr)
            dtr[:m, :m] = edge.sum(axis=(0, 1))
            dtr[start, :m] = node[0].sum(axis=0)
            dtr[:m, stop] = node[lengths - 1, np.arange(B)].sum(axis=0)
            transitions._accum(dtr)
    return ad.node(logz if batched else logz.reshape(()),
                   (ad._as_tensor(emissions), ad._as_tensor(transitions)), _bw)


def viterbi_decode(emissions, transitions, mask=None):
    """Argmax tag path; ties go to the lowest label index.  [T, m]
    emissions give one path (a list); [B, T, m] give a list of paths, each
    as long as its mask's prefix."""
    e, tr, mask, lengths, batched = _crf_args(emissions, transitions, mask)
    B, T, m = e.shape
    start, stop = m, m + 1
    real = mask == 1.0
    full = real.all(axis=0)
    A = tr[:m, :m]
    score = tr[start, :m] + e[:, 0]
    back = np.zeros((T, B, m), dtype=np.int64)
    for t in range(1, T):
        cand = score[:, :, None] + A
        back[t] = cand.argmax(axis=1)  # first max = lowest index
        new = cand.max(axis=1) + e[:, t]
        score = new if full[t] else np.where(real[:, t:t + 1], new, score)
    last = (score + tr[:m, stop]).argmax(axis=1).tolist()
    back = back.tolist()
    paths = []
    for b, (n, y) in enumerate(zip(lengths.tolist(), last)):
        path = [y]
        for t in range(n - 1, 0, -1):
            path.append(back[t][b][path[-1]])
        paths.append(path[::-1])
    return paths if batched else paths[0]


# model --------------------------------------------------------------


@dataclass
class TaggerConfig:
    d_word: int = 50
    hidden: int = 200
    layers: int = 2
    dropout: float = 0.5
    head: str = "crf"          # "crf" | "softmax"
    freeze_word_emb: bool = False
    unk_rate: float = 0.1      # singleton -> UNK replacement during training
    anchor_coeff: float = 0.0  # L2 pull on attached BiLM weights

    def to_dict(self):
        return {"d_word": self.d_word, "hidden": self.hidden,
                "layers": self.layers, "dropout": self.dropout,
                "head": self.head, "freeze_word_emb": self.freeze_word_emb,
                "unk_rate": self.unk_rate, "anchor_coeff": self.anchor_coeff}

    @classmethod
    def from_dict(cls, d):
        """A ValueError names a head other than crf or softmax."""
        config = cls(**d)
        if config.head not in ("crf", "softmax"):
            raise ValueError(f"head is {config.head!r}, not 'crf' or 'softmax'")
        return config


@dataclass
class ContextualProvider:
    """A BiLM whose last-layer states feed the tagger; fine-tuned jointly."""
    params: dict
    config: BiLMConfig
    char_vocab: Vocabulary

    @property
    def d_ctx(self):
        return 2 * self.config.d_out

    @classmethod
    def from_checkpoint(cls, ck):
        config = bilm_mod.read_bilm(ck)
        return cls(params_from_tensors(ck.tensors), config, ck.char_vocab)


def tagger_table(config, n_words, n_labels, d_ctx):
    """(name, shape, fill) rows of every tagger parameter in init order."""
    H = config.hidden
    table = [("tagger.word_emb", (n_words, config.d_word), None)]
    d_in = config.d_word + d_ctx
    for layer in range(config.layers):
        for direction in ("fwd", "bwd"):
            table += bilm_mod.lstm_table(f"tagger.l{layer}.{direction}", d_in, H)
        d_in = 2 * H
    table += [("tagger.emission.W", (2 * H, n_labels), None),
              ("tagger.emission.b", (n_labels,), 0.0)]
    if config.head == "crf":
        table.append(("tagger.crf.trans", (n_labels + 2, n_labels + 2), 0.0))
    return table


def init_tagger_params(config, n_words, n_labels, d_ctx, seed):
    return ad.init_params(tagger_table(config, n_words, n_labels, d_ctx), seed)


def tagger_architecture(config, n_words, n_labels, d_ctx, labels,
                        provider_config=None):
    return {"kind": "tagger", "config": config.to_dict(),
            "n_words": n_words, "n_labels": n_labels, "d_ctx": d_ctx,
            "labels": list(labels.labels), "bio": labels.bio,
            "provider": provider_config.to_dict() if provider_config else None}


def architecture_labels(arch):
    """The LabelSet a tagger architecture declares; ValueError or TypeError
    when its labels or BIO flag are malformed."""
    labels, bio = arch["labels"], arch["bio"]
    if not isinstance(labels, list) or not all(isinstance(l, str) for l in labels):
        raise TypeError(f"labels is {labels!r}, not a list of label strings")
    if not isinstance(bio, bool):
        raise TypeError(f"bio is {bio!r}, not true or false")
    try:
        return LabelSet(labels, bio=bio)
    except ContractError as exc:
        raise ValueError(f"labels {labels!r}: {exc}") from None


def read_tagger(ck):
    """(TaggerConfig, LabelSet, provider BiLMConfig or None) of the tagger
    checkpoint `ck`, once its tensors are checked against the parameter
    table of what the model reads: its config, word vocabulary, labels and
    provider."""
    def read(arch):
        config, labels = TaggerConfig.from_dict(arch["config"]), architecture_labels(arch)
        bcfg = BiLMConfig.from_dict(arch["provider"]) if arch.get("provider") else None
        table = tagger_table(config, len(ck.word_vocab), len(labels),
                             2 * bcfg.d_out if bcfg else 0)
        if bcfg:
            # the provider's softmax head is saved but never used, and its
            # vocabulary size is not part of the architecture
            table += bilm_mod.bilm_table(bcfg, len(ck.char_vocab), 0)[:-2]
        return (config, labels, bcfg), table
    return ck.read_architecture("tagger", read)


class TaggerModel:
    def __init__(self, config, word_vocab, labels, params, provider=None):
        self.config = config
        self.word_vocab = word_vocab
        self.labels = labels
        self.params = params
        self.provider = provider
        self._trans_mask = transition_mask(labels) if config.head == "crf" else None

    @classmethod
    def init(cls, config, word_vocab, labels, seed, provider=None):
        d_ctx = provider.d_ctx if provider else 0
        params = init_tagger_params(config, len(word_vocab), len(labels), d_ctx, seed)
        return cls(config, word_vocab, labels, params, provider)

    @property
    def d_ctx(self):
        return self.provider.d_ctx if self.provider else 0

    def transitions_used(self):
        """Learned transitions with BIO-illegal entries clamped at FORBIDDEN;
        the clamp also zeroes their gradient.  A softmax head's are constant
        zeros, which make its CRF loss the per-position cross-entropy."""
        if self.config.head != "crf":
            m = len(self.labels)
            return ad.constant(np.zeros((m + 2, m + 2)))
        trans = self.params["tagger.crf.trans"]
        mask = self._trans_mask
        return trans * mask + (1.0 - mask) * FORBIDDEN

    def batches(self, sentences, chunks):
        """Token lists, or LabeledSequences with their tags, padded into one
        Batch per chunk of sentence indices (see `corpus.batches`)."""
        labeled = bool(sentences) and isinstance(sentences[0], LabeledSequence)
        tokens = [s.tokens for s in sentences] if labeled else sentences
        tags = [[self.labels.id(t) for t in s.tags] for s in sentences] if labeled else None
        chars = max_len = None
        if self.provider:
            chars, max_len = self.provider.char_vocab, self.provider.config.encoder.max_word_len
        return batches(tokens, chunks, self.word_vocab, chars, max_len, tags)

    def emissions(self, tokens, rng=None):
        """Per-token label scores (a graph Tensor): [T, |labels|] for one
        token list, [B, T, |labels|] for a Batch.  With `rng`, dropout
        masks the contextual vectors."""
        batch = tokens if isinstance(tokens, Batch) else self.batches([tokens], [[0]])[0]
        emb_matrix = self.params["tagger.word_emb"]
        if self.config.freeze_word_emb:
            emb_matrix = ad.constant(emb_matrix.data)
        x = ad.getitem(emb_matrix, batch.word_ids)
        if self.provider:
            ctx = contextual_states(batch, self.provider.params, self.provider.config)
            if rng is not None and self.config.dropout > 0.0:
                keep = 1.0 - self.config.dropout
                mask = (rng.random(ctx.data.shape) < keep) / keep
                ctx = ctx * mask
            x = ad.concat([x, ctx], axis=2)
        for layer in range(self.config.layers):
            x = ad.concat([bilm_mod.lstm_layer(x, batch.mask, self.params,
                                               f"tagger.l{layer}.{d}", d == "bwd")
                           for d in bilm_mod.DIRECTIONS], axis=2)
        em = ad.matmul(x, self.params["tagger.emission.W"]) \
            + self.params["tagger.emission.b"]
        return em if isinstance(tokens, Batch) else ad.reshape(em, em.data.shape[1:])

    def sentence_loss(self, batch, rng=None):
        """Summed NLL of a Batch of tagged sentences; `rng` as in
        `emissions`."""
        em = self.emissions(batch, rng)
        trans = self.transitions_used()
        return (crf_log_partition(em, trans, batch.mask)
                - crf_sequence_score(em, trans, batch.tag_ids, batch.mask)).sum()

    def decode(self, sentences):
        """Label lists of a list of token lists, decoded as one padded batch
        without recording a graph."""
        with ad.no_grad():
            batch = self.batches(sentences, [range(len(sentences))])[0]
            em = self.emissions(batch).data
            if self.config.head == "crf":
                ids = viterbi_decode(em, self.transitions_used().data, batch.mask)
            else:   # argmax per position: Viterbi's running sums could merge near-ties
                ids = [row[:n].tolist() for row, n in zip(em.argmax(axis=2), batch.lengths)]
        return [[self.labels.label(i) for i in row] for row in ids]

    def trainable_params(self):
        params = {n: p for n, p in self.params.items()
                  if not (self.config.freeze_word_emb and n == "tagger.word_emb")}
        if self.provider:
            for name, p in self.provider.params.items():
                if name not in bilm_mod.HEAD_PARAMS:
                    params[name] = p
        return params

    def all_tensors(self):
        tensors = tensors_from_params(self.params)
        if self.provider:
            tensors.update(tensors_from_params(self.provider.params))
        return tensors

    def to_checkpoint(self, provenance=None, metrics=None):
        arch = tagger_architecture(
            self.config, len(self.word_vocab), len(self.labels), self.d_ctx,
            self.labels, self.provider.config if self.provider else None)
        return Checkpoint.create(
            "tagger", arch, self.all_tensors(), word_vocab=self.word_vocab,
            char_vocab=self.provider.char_vocab if self.provider else None,
            provenance=provenance, metrics=metrics)

    @classmethod
    def from_checkpoint(cls, ck):
        config, labels, bcfg = read_tagger(ck)
        provider = bcfg and ContextualProvider(params_from_tensors(
            {n: a for n, a in ck.tensors.items() if n.startswith(("char_enc.", "lm."))}),
            bcfg, ck.char_vocab)
        params = params_from_tensors(
            {n: a for n, a in ck.tensors.items() if n.startswith("tagger.")})
        return cls(config, ck.word_vocab, labels, params, provider)


PREDICT_BATCH = 32  # sentences decoded per padded batch


def predict(sentences, model):
    """Tag sentences (token-string lists or LabeledSequences), decoding
    them in length-sorted batches of up to PREDICT_BATCH."""
    tokens = [s.tokens if isinstance(s, LabeledSequence) else list(s) for s in sentences]
    order = sorted(range(len(tokens)), key=lambda i: len(tokens[i]))
    tags = [None] * len(tokens)
    with ad.no_grad():
        for lo in range(0, len(order), PREDICT_BATCH):
            chunk = order[lo:lo + PREDICT_BATCH]
            for i, t in zip(chunk, model.decode([tokens[i] for i in chunk])):
                tags[i] = t
    return [LabeledSequence(t, g) for t, g in zip(tokens, tags)]


# training -----------------------------------------------------------


def _token_accuracy(gold, pred):
    total = sum(len(s) for s in gold)
    hit = sum(int(g == p) for gs, ps in zip(gold, pred)
              for g, p in zip(gs.tags, ps.tags))
    return hit / total if total else 0.0


def _dev_score(model, dev):
    pred = predict(dev, model)
    if model.config.head == "crf":
        return evaluation.span_f1(dev, pred).micro_f1
    return _token_accuracy(dev, pred)


def train_tagger(train, labels, config, *, epochs=10, lr=0.001, batch_size=32,
                 dev=None, patience=None, seed=0, init_tensors=None,
                 provider=None, word_vocab=None, word_vectors=None,
                 clip_norm=5.0, log_fn=None):
    """Train a tagger; returns (model, metrics dict).

    With a dev set, tracks the best dev score and stops once `patience`
    epochs pass without improvement, restoring the best weights.
    Without one, runs the fixed epoch budget.
    """
    if not train:
        raise ContractError("empty training set")
    for i, sent in enumerate(train):
        for t in sent.tags:
            if t not in labels:
                raise DataError(f"sentence {i}: tag {t!r} not in label set")
    if labels.bio:
        validate_bio(train)

    if word_vocab is None:
        word_vocab = build_vocab([s.tokens for s in train])
    if init_tensors is not None:
        params = params_from_tensors(init_tensors)
        model = TaggerModel(config, word_vocab, labels, params, provider)
    else:
        model = TaggerModel.init(config, word_vocab, labels, seed, provider)
    if word_vectors is not None:
        if word_vectors.shape != model.params["tagger.word_emb"].data.shape:
            raise ContractError(
                f"word vector matrix shape {word_vectors.shape} != embedding "
                f"shape {model.params['tagger.word_emb'].data.shape}")
        model.params["tagger.word_emb"].data[:] = word_vectors

    # word ids of the training set's singletons, which are swapped for UNK
    counts = Counter(t for s in train for t in s.tokens)
    single = np.zeros(len(word_vocab), dtype=bool)
    single[[word_vocab.id(t) for t, c in counts.items() if c == 1]] = True
    swap_unk = config.unk_rate > 0.0 and single.any()

    trainable = model.trainable_params()
    step = bilm_mod.training_step(trainable, provider.params if provider else {},
                                  config.anchor_coeff, clip_norm, lr)
    train_losses, dev_scores = [], []
    best_score, best_epoch, best_state = -1.0, -1, None

    epochs_run = 0
    for epoch in range(epochs):
        rng = np.random.default_rng(seed * 99991 + epoch)
        order = rng.permutation(len(train))
        total = 0.0
        for batch in model.batches(train, [order[lo:lo + batch_size]
                                           for lo in range(0, len(order), batch_size)]):
            if swap_unk:
                swap = single[batch.word_ids] & (batch.mask == 1.0) \
                    & (rng.random(batch.mask.shape) < config.unk_rate)
                batch.word_ids = np.where(swap, UNK, batch.word_ids)
            nll = model.sentence_loss(batch, rng)
            total += float(nll.data)
            step(nll / len(batch))
            del nll     # batch k's graph must not outlive its step
        epochs_run = epoch + 1
        train_losses.append(total / len(train))
        if log_fn:
            log_fn(f"epoch={epochs_run} train_nll={train_losses[-1]:.6f}")

        if dev is not None:
            score = _dev_score(model, dev)
            dev_scores.append(score)
            if log_fn:
                log_fn(f"epoch={epochs_run} dev_score={score:.4f}")
            if score > best_score:
                best_score, best_epoch = score, epoch
                # the last epoch's weights are the final ones: nothing to copy
                best_state = None if epoch == epochs - 1 else \
                    {n: p.data.copy() for n, p in trainable.items()}
            if patience is not None and epoch - best_epoch >= patience:
                break

    if best_state is not None:
        for n, p in trainable.items():
            p.data[:] = best_state[n]

    metrics = {"train_loss": train_losses, "epochs_run": epochs_run}
    if dev is not None:
        metrics["dev_score"] = dev_scores
        metrics["best_epoch"] = best_epoch + 1
    return model, metrics
