"""BiLSTM sequence tagger with a CRF or softmax head.

Word embeddings (optionally frozen, optionally concatenated with
dropout-masked contextual vectors from an attached BiLM) feed a stacked
BiLSTM; the CRF head trains with the exact forward-algorithm partition
and decodes with Viterbi.
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import bilm as bilm_mod
from .autodiff import Adam, Tensor, clip_by_global_norm, reverse_gradients
from .bilm import BiLMConfig, contextual_states, params_from_tensors, tensors_from_params
from .checkpoint import Checkpoint
from .corpus import (LabeledSequence, UNK, Vocabulary, build_vocab, char_id_row,
                     validate_bio)
from .errors import ContractError, DataError, TransferError

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


def _check_crf_args(emissions, transitions):
    e = emissions if isinstance(emissions, Tensor) else ad.constant(emissions)
    tr = transitions if isinstance(transitions, Tensor) else ad.constant(transitions)
    if e.data.ndim != 2 or e.data.shape[0] == 0:
        raise ContractError("emissions must be a nonempty [T, labels] matrix")
    m = e.data.shape[1]
    if tr.data.shape != (m + 2, m + 2):
        raise ContractError(
            f"transitions shape {tr.data.shape} != ({m + 2}, {m + 2})")
    plain = not isinstance(emissions, Tensor) and not isinstance(transitions, Tensor)
    return e, tr, m, plain


def crf_sequence_score(emissions, transitions, tags):
    """Emission + transition score of one tag path (START and STOP
    transitions included).  Plain-array inputs return a float."""
    e, tr, m, plain = _check_crf_args(emissions, transitions)
    T = e.data.shape[0]
    tags = np.asarray(tags, dtype=np.int64)
    if tags.shape != (T,):
        raise ContractError(f"{T} emission rows but {tags.size} tags")
    if tags.size and (tags.min() < 0 or tags.max() >= m):
        raise ContractError("tag index out of range")
    start, stop = m, m + 1
    score = e[(np.arange(T), tags)].sum() + tr[(start, int(tags[0]))] \
        + tr[(int(tags[-1]), stop)]
    if T > 1:
        score = score + tr[(tags[:-1], tags[1:])].sum()
    return float(score.data) if plain else score


def crf_log_partition(emissions, transitions):
    """log-sum-exp over all tag paths via the forward recursion."""
    e, tr, m, plain = _check_crf_args(emissions, transitions)
    T = e.data.shape[0]
    start, stop = m, m + 1
    alpha = tr[start, :m] + e[0]
    for t in range(1, T):
        scores = ad.reshape(alpha, (m, 1)) + tr[:m, :m] + e[t]
        alpha = ad.logsumexp_t(scores, axis=0)
    out = ad.logsumexp_t(alpha + tr[:m, stop], axis=0)
    return float(out.data) if plain else out


def viterbi_decode(emissions, transitions):
    """Argmax tag path; ties go to the lowest label index."""
    e = np.asarray(emissions.data if isinstance(emissions, Tensor) else emissions)
    tr = np.asarray(transitions.data if isinstance(transitions, Tensor) else transitions)
    _check_crf_args(e, tr)
    T, m = e.shape
    start, stop = m, m + 1
    score = tr[start, :m] + e[0]
    back = np.zeros((T, m), dtype=np.int64)
    for t in range(1, T):
        cand = score[:, None] + tr[:m, :m]
        best = cand.argmax(axis=0)  # first max = lowest index
        back[t] = best
        score = cand[best, np.arange(m)] + e[t]
    final = score + tr[:m, stop]
    path = [int(final.argmax())]
    for t in range(T - 1, 0, -1):
        path.append(int(back[t, path[-1]]))
    return path[::-1]


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
        return cls(**d)


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
        the clamp also zeroes their gradient."""
        trans = self.params["tagger.crf.trans"]
        mask = self._trans_mask
        return trans * mask + (1.0 - mask) * FORBIDDEN

    def emissions(self, tokens, train_mode=False, rng=None, word_ids=None):
        """Per-token label scores [T, |labels|] (a graph Tensor)."""
        if not tokens:
            raise ContractError("empty sentence")
        T = len(tokens)
        if word_ids is None:
            word_ids = np.array([self.word_vocab.id(t) for t in tokens])
        emb_matrix = self.params["tagger.word_emb"]
        if self.config.freeze_word_emb:
            emb_matrix = ad.constant(emb_matrix.data)
        x = ad.getitem(emb_matrix, word_ids)
        if self.provider:
            ids = np.stack([char_id_row(t, self.provider.char_vocab,
                                        self.provider.config.encoder.max_word_len)
                            for t in tokens])
            ctx = contextual_states(ids, self.provider.params, self.provider.config)
            if train_mode and self.config.dropout > 0.0:
                if rng is None:
                    raise ContractError("train_mode dropout needs an rng")
                keep = 1.0 - self.config.dropout
                mask = (rng.random(ctx.data.shape) < keep) / keep
                ctx = ctx * mask
            x = ad.concat([x, ctx], axis=1)
        h = ad.reshape(x, (1, T, x.data.shape[1]))
        ones = np.ones((1, T))
        for layer in range(self.config.layers):
            fwd = bilm_mod.lstm_forward(
                h, ones, self.params[f"tagger.l{layer}.fwd.Wx"],
                self.params[f"tagger.l{layer}.fwd.Wh"],
                self.params[f"tagger.l{layer}.fwd.b"], reverse=False)
            bwd = bilm_mod.lstm_forward(
                h, ones, self.params[f"tagger.l{layer}.bwd.Wx"],
                self.params[f"tagger.l{layer}.bwd.Wh"],
                self.params[f"tagger.l{layer}.bwd.b"], reverse=True)
            h = ad.concat([fwd, bwd], axis=2)
        h = ad.reshape(h, (T, 2 * self.config.hidden))
        return ad.matmul(h, self.params["tagger.emission.W"]) \
            + self.params["tagger.emission.b"]

    def sentence_loss(self, sentence, train_mode=True, rng=None, word_ids=None):
        em = self.emissions(sentence.tokens, train_mode=train_mode, rng=rng,
                            word_ids=word_ids)
        tag_ids = np.array([self.labels.id(t) for t in sentence.tags])
        if self.config.head == "crf":
            trans = self.transitions_used()
            return crf_log_partition(em, trans) \
                - crf_sequence_score(em, trans, tag_ids)
        logp = ad.log_softmax(em, axis=-1)
        return -(logp[(np.arange(len(sentence)), tag_ids)]).sum()

    def decode(self, tokens):
        em = self.emissions(tokens, train_mode=False).data
        if self.config.head == "crf":
            ids = viterbi_decode(em, self.transitions_used().data)
        else:
            ids = [int(i) for i in em.argmax(axis=1)]
        return [self.labels.label(i) for i in ids]

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
        if ck.architecture.get("kind") != "tagger":
            raise TransferError("checkpoint does not contain tagger parameters")

        def read(arch):
            config = TaggerConfig.from_dict(arch["config"])
            table = tagger_table(config, arch["n_words"], arch["n_labels"], arch["d_ctx"])
            bcfg = BiLMConfig.from_dict(arch["provider"]) if arch.get("provider") else None
            if bcfg:
                # the provider's softmax head is saved but never used, and its
                # vocabulary size is not part of the architecture
                table += bilm_mod.bilm_table(bcfg, len(ck.char_vocab), 0)[:-2]
            return config, LabelSet(arch["labels"], bio=arch["bio"]), bcfg, table

        config, labels, bcfg, table = ck.read_architecture(read)
        ck.check_tensors(table)
        provider = bcfg and ContextualProvider(params_from_tensors(
            {n: a for n, a in ck.tensors.items() if n.startswith(("char_enc.", "lm."))}),
            bcfg, ck.char_vocab)
        params = params_from_tensors(
            {n: a for n, a in ck.tensors.items() if n.startswith("tagger.")})
        return cls(config, ck.word_vocab, labels, params, provider)


def predict(sentences, model):
    """Tag sentences (token-string lists or LabeledSequences)."""
    out = []
    for sent in sentences:
        tokens = sent.tokens if isinstance(sent, LabeledSequence) else list(sent)
        out.append(LabeledSequence(tokens, model.decode(tokens)))
    return out


# training -----------------------------------------------------------


def _token_accuracy(gold, pred):
    total = sum(len(s) for s in gold)
    hit = sum(int(g == p) for gs, ps in zip(gold, pred)
              for g, p in zip(gs.tags, ps.tags))
    return hit / total if total else 0.0


def _dev_score(model, dev):
    from .evaluation import span_f1
    pred = predict(dev, model)
    if model.config.head == "crf":
        return span_f1(dev, pred).micro_f1
    return _token_accuracy(dev, pred)


def train_tagger(train, labels, config, *, epochs=10, lr=0.001, batch_size=32,
                 dev=None, patience=None, seed=0, init_tensors=None,
                 provider=None, word_vocab=None, word_vectors=None,
                 clip_norm=5.0, beta1=0.9, beta2=0.999, eps=1e-8,
                 stop_at_train_f1=None, log_fn=None):
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

    from collections import Counter
    counts = Counter(t for s in train for t in s.tokens)
    singletons = {t for t, c in counts.items() if c == 1}

    anchors = {}
    if provider and config.anchor_coeff > 0.0:
        anchors = {n: p.data.copy() for n, p in provider.params.items()
                   if n not in bilm_mod.HEAD_PARAMS}

    trainable = model.trainable_params()
    opt = Adam(lr=lr, beta1=beta1, beta2=beta2, eps=eps)
    train_losses, dev_scores = [], []
    best_score, best_epoch, best_state = -1.0, -1, None

    epochs_run = 0
    for epoch in range(epochs):
        rng = np.random.default_rng(seed * 99991 + epoch)
        order = rng.permutation(len(train))
        total = 0.0
        for lo in range(0, len(order), batch_size):
            batch = [train[i] for i in order[lo:lo + batch_size]]
            loss = None
            for sent in batch:
                ids = np.array([word_vocab.id(t) for t in sent.tokens])
                if config.unk_rate > 0.0 and singletons:
                    noise = np.array([tok in singletons for tok in sent.tokens])
                    swap = noise & (rng.random(len(ids)) < config.unk_rate)
                    ids = np.where(swap, UNK, ids)
                nll = model.sentence_loss(sent, train_mode=True, rng=rng,
                                          word_ids=ids)
                loss = nll if loss is None else loss + nll
                total += float(nll.data)
            loss = loss / len(batch)
            if anchors:
                loss = loss + bilm_mod.anchor_penalty(
                    model.provider.params, anchors, config.anchor_coeff)
            grads = reverse_gradients(loss, trainable)
            grads, _ = clip_by_global_norm(grads, clip_norm)
            opt.step(trainable, grads)
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
                best_state = {n: p.data.copy() for n, p in trainable.items()}
            if patience is not None and epoch - best_epoch >= patience:
                break
        if stop_at_train_f1 is not None:
            from .evaluation import span_f1
            if span_f1(train, predict(train, model)).micro_f1 >= stop_at_train_f1:
                break

    if best_state is not None:
        for n, p in trainable.items():
            p.data[:] = best_state[n]

    metrics = {"train_loss": train_losses, "epochs_run": epochs_run}
    if dev is not None:
        metrics["dev_score"] = dev_scores
        metrics["best_epoch"] = best_epoch + 1
    return model, metrics
