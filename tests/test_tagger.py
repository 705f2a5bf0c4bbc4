import gc
import itertools
import math
import re
from collections import Counter

import numpy as np
import pytest

from seqxfer import autodiff as ad
from seqxfer import bilm
from seqxfer import tagger as tg
from seqxfer.checkpoint import Checkpoint
from seqxfer.corpus import UNK, LabeledSequence, build_vocab
from seqxfer.errors import ContractError, DataError, TransferError

from conftest import log_softmax, tanh, tiny_tagger_config, toy_ner_corpus


def brute_force_partition(emissions, transitions):
    """Enumerate every tag path; independent oracle for the forward pass."""
    T, m = emissions.shape
    start, stop = m, m + 1
    scores = []
    for path in itertools.product(range(m), repeat=T):
        s = transitions[start, path[0]] + transitions[path[-1], stop]
        s += sum(emissions[t, y] for t, y in enumerate(path))
        s += sum(transitions[a, b] for a, b in zip(path, path[1:]))
        scores.append(s)
    mx = max(scores)
    return mx + math.log(sum(math.exp(s - mx) for s in scores))


def brute_force_decode(emissions, transitions):
    """First (lexicographically smallest) maximal path."""
    T, m = emissions.shape
    start, stop = m, m + 1
    best, best_path = -math.inf, None
    for path in itertools.product(range(m), repeat=T):
        s = transitions[start, path[0]] + transitions[path[-1], stop]
        s += sum(emissions[t, y] for t, y in enumerate(path))
        s += sum(transitions[a, b] for a, b in zip(path, path[1:]))
        if s > best:
            best, best_path = s, list(path)
    return best_path


def logsumexp_t(x, axis):
    """Max-shifted log-sum-exp along one axis, as a graph node; the step
    of the unfused forward recursion below."""
    x = ad._as_tensor(x)
    top = x.data.max(axis=axis, keepdims=True)
    val = top + np.log(np.exp(x.data - top).sum(axis=axis, keepdims=True))
    def _bw(g):
        x._accum(np.expand_dims(g, axis) * np.exp(x.data - val))
    return ad.node(np.squeeze(val, axis=axis), (x,), _bw)


def reference_crf_log_partition(emissions, transitions):
    """The unfused forward recursion of one [T, m] sentence, one small graph
    per step; the oracle of the fused `crf_log_partition`."""
    e, tr = emissions, transitions
    T, m = e.data.shape
    start, stop = m, m + 1
    alpha = tr[start, :m] + e[0]
    for t in range(1, T):
        scores = ad.reshape(alpha, (m, 1)) + tr[:m, :m] + e[t]
        alpha = logsumexp_t(scores, axis=0)
    return logsumexp_t(alpha + tr[:m, stop], axis=0)


def reference_sentence_loss(self, batch, rng=None):
    """`TaggerModel.sentence_loss` as it was before the softmax head became
    a CRF with zero transitions: that head summed the per-position
    cross-entropy of a `log_softmax` graph."""
    em = self.emissions(batch, rng)
    if self.config.head == "crf":
        trans = self.transitions_used()
        return (tg.crf_log_partition(em, trans, batch.mask)
                - tg.crf_sequence_score(em, trans, batch.tag_ids, batch.mask)).sum()
    gold = tg.one_hot(batch.tag_ids, batch.mask, len(self.labels))
    return -(log_softmax(em, axis=-1) * gold).sum()


def prefix_mask(lengths, T=None):
    T = T or max(lengths)
    return (np.arange(T) < np.array(lengths)[:, None]).astype(np.float64)


def random_instance(rng, T=None, m=None):
    T = T or int(rng.integers(1, 6))
    m = m or int(rng.integers(2, 5))
    return rng.normal(size=(T, m)), rng.normal(size=(m + 2, m + 2))


class TestLogsumexpOracle:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        x = ad.parameter("x", rng.normal(size=(3, 4)))
        for axis in (0, 1):
            cot = rng.normal(size=x.data.shape[1 - axis])

            def loss_fn():
                return (logsumexp_t(x * 3.0, axis=axis) * cot).sum()
            assert ad.finite_difference_check(loss_fn, {"x": x}) < 1e-6

    def test_dropped_output_leaves_no_cycle(self):
        x = ad.parameter("x", np.random.default_rng(0).uniform(0.5, 1.5, size=(2, 3)))
        gc.collect()
        gc.disable()
        try:
            out = logsumexp_t(x, axis=0)
            assert out.requires_grad and out._backward is not None
            del out
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestCRFPrimitives:
    def test_partition_matches_enumeration(self):
        rng = np.random.default_rng(0)
        for _ in range(40):
            e, tr = random_instance(rng)
            assert tg.crf_log_partition(e, tr) == pytest.approx(
                brute_force_partition(e, tr), abs=1e-9)

    def test_decode_matches_enumeration(self):
        rng = np.random.default_rng(1)
        for _ in range(40):
            e, tr = random_instance(rng)
            assert tg.viterbi_decode(e, tr) == brute_force_decode(e, tr)

    def test_decode_tie_breaks_to_lowest_index(self):
        e = np.zeros((3, 3))
        tr = np.zeros((5, 5))
        assert tg.viterbi_decode(e, tr) == [0, 0, 0]

    def test_single_token_sequence(self):
        e = np.array([[1.0, 2.0]])
        tr = np.zeros((4, 4))
        assert tg.viterbi_decode(e, tr) == [1]
        assert tg.crf_log_partition(e, tr) == pytest.approx(
            brute_force_partition(e, tr), abs=1e-12)

    def test_sequence_score_hand_value(self):
        e = np.array([[1.0, 0.0], [0.0, 2.0]])
        tr = np.arange(16.0).reshape(4, 4) / 10.0
        # start(2)->0: 0.8; 0->1: 0.1; 1->stop(3): 0.7; emissions 1 + 2
        assert tg.crf_sequence_score(e, tr, [0, 1]) == pytest.approx(4.6)

    def test_path_probabilities_normalize(self):
        rng = np.random.default_rng(2)
        e, tr = random_instance(rng, T=3, m=3)
        logz = tg.crf_log_partition(e, tr)
        total = sum(math.exp(tg.crf_sequence_score(e, tr, p) - logz)
                    for p in itertools.product(range(3), repeat=3))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_bad_transition_shape_rejected(self):
        with pytest.raises(ContractError):
            tg.crf_log_partition(np.zeros((2, 3)), np.zeros((4, 4)))

    def test_tag_length_mismatch_rejected(self):
        with pytest.raises(ContractError):
            tg.crf_sequence_score(np.zeros((2, 3)), np.zeros((5, 5)), [0])

    def test_nll_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        e0, tr0 = random_instance(rng, T=4, m=3)
        e = ad.parameter("e", e0)
        tr = ad.parameter("tr", tr0)
        tags = [0, 2, 1, 0]

        def loss_fn():
            return tg.crf_log_partition(e, tr) - tg.crf_sequence_score(e, tr, tags)

        assert ad.finite_difference_check(loss_fn, {"e": e, "tr": tr}) < 1e-6


class TestFusedCRF:
    # (row lengths, labels): ragged rows, one-row batches, length-1 rows,
    # and the smallest label set next to a 4-type BIO set
    CASES = [([6, 3, 1, 4], 2), ([6, 3, 1, 4], 9), ([5], 3), ([1], 9),
             ([1, 1], 4), ([7, 7, 2], 5), ([2, 8, 8, 1, 5], 9)]

    @pytest.mark.parametrize("lengths, m", CASES)
    @pytest.mark.parametrize("bio", [False, True])
    def test_matches_reference_composition(self, lengths, m, bio):
        rng = np.random.default_rng(len(lengths) * 10 + m)
        B, T = len(lengths), max(lengths)
        tr0 = rng.normal(size=(m + 2, m + 2)) * 2.0
        if bio:  # BIO-illegal transitions clamped, as the tagger uses them
            names = ["O"] + [f"{p}-T{k}" for k in range(m) for p in "BI"]
            mask_tr = tg.transition_mask(tg.LabelSet(names[:m]))
            tr0 = tr0 * mask_tr + (1.0 - mask_tr) * tg.FORBIDDEN
        e = ad.parameter("e", rng.normal(size=(B, T, m)) * 2.0)
        tr = ad.parameter("tr", tr0)
        cot = rng.normal(size=B)
        fused = tg.crf_log_partition(e, tr, prefix_mask(lengths))
        got = ad.reverse_gradients((fused * cot).sum(), {"e": e, "tr": tr})
        refs = [reference_crf_log_partition(e[b, :n], tr) for b, n in enumerate(lengths)]
        total = refs[0] * cot[0]
        for b in range(1, B):
            total = total + refs[b] * cot[b]
        want = ad.reverse_gradients(total, {"e": e, "tr": tr})
        assert fused.data.shape == (B,)
        assert np.abs(fused.data - [float(r.data) for r in refs]).max() <= 1e-12
        for name in ("e", "tr"):
            assert np.abs(got[name] - want[name]).max() <= 1e-12, name
        # padded positions get no gradient
        assert not got["e"][prefix_mask(lengths) == 0.0].any()

    @pytest.mark.parametrize("T, m", [(1, 2), (4, 3), (6, 9)])
    def test_one_sentence_matches_reference(self, T, m):
        rng = np.random.default_rng(T + m)
        e = ad.parameter("e", rng.normal(size=(T, m)))
        tr = ad.parameter("tr", rng.normal(size=(m + 2, m + 2)))
        fused = tg.crf_log_partition(e, tr)
        ref = reference_crf_log_partition(e, tr)
        assert fused.data.shape == ()
        assert abs(float(fused.data) - float(ref.data)) <= 1e-12
        got = ad.reverse_gradients(fused, {"e": e, "tr": tr})
        want = ad.reverse_gradients(ref, {"e": e, "tr": tr})
        for name in ("e", "tr"):
            assert np.abs(got[name] - want[name]).max() <= 1e-12, name

    def test_padded_batch_nll_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        lengths = [4, 1, 3]
        mask = prefix_mask(lengths, T=5)   # one all-padding column
        e = ad.parameter("e", rng.normal(size=(3, 5, 3)))
        tr = ad.parameter("tr", rng.normal(size=(5, 5)))
        tags = rng.integers(0, 3, size=(3, 5))

        def loss_fn():
            return (tg.crf_log_partition(e, tr, mask)
                    - tg.crf_sequence_score(e, tr, tags, mask)).sum()

        assert ad.finite_difference_check(loss_fn, {"e": e, "tr": tr}) < 1e-6

    def test_batched_score_and_decode_equal_per_row(self):
        rng = np.random.default_rng(12)
        lengths = [3, 5, 1, 2]
        e = rng.normal(size=(4, 5, 4))
        tr = rng.normal(size=(6, 6))
        tags = rng.integers(0, 4, size=(4, 5))
        mask = prefix_mask(lengths)
        scores = tg.crf_sequence_score(e, tr, tags, mask)
        logz = tg.crf_log_partition(e, tr, mask)
        paths = tg.viterbi_decode(e, tr, mask)
        for b, n in enumerate(lengths):
            assert scores[b] == pytest.approx(
                tg.crf_sequence_score(e[b, :n], tr, tags[b, :n]), abs=1e-12)
            assert logz[b] == pytest.approx(tg.crf_log_partition(e[b, :n], tr), abs=1e-12)
            assert paths[b] == tg.viterbi_decode(e[b, :n], tr)
            assert paths[b] == brute_force_decode(e[b, :n], tr)

    @pytest.mark.parametrize("mask", [
        [[1, 0, 1]],            # a hole inside the row
        [[0, 0, 0]],            # an empty row
        [[1, 1, 1], [1, 1, 1]],  # wrong batch size
        1.0,                    # not [B, T]
    ])
    def test_bad_mask_rejected(self, mask):
        with pytest.raises(ContractError):
            tg.crf_log_partition(np.zeros((1, 3, 2)), np.zeros((4, 4)), np.array(mask))

    def test_mask_needs_a_batch(self):
        with pytest.raises(ContractError):
            tg.crf_log_partition(np.zeros((3, 2)), np.zeros((4, 4)), np.ones((1, 3)))


class TestLSTMMask:
    """`bilm.lstm_forward` reads its mask as the CRF does, through
    `corpus.prefix_lengths` (unlike the CRF, it takes a row with no real
    step; `tests/test_bilm.py` runs such rows)."""

    @pytest.mark.parametrize("mask", [
        [[1, 0, 1]],            # a hole inside the row
        [[1, 1, 1], [1, 1, 1]],  # wrong batch size
        [[1, 1]],               # wrong length
        [1, 1, 1],              # 1-D
        1.0,                    # 0-D
    ])
    def test_bad_mask_rejected(self, mask):
        w = ad.constant(np.zeros((2, 8)))
        with pytest.raises(ContractError):
            bilm.lstm_forward(ad.constant(np.zeros((1, 3, 2))), np.array(mask), w, w,
                              ad.constant(np.zeros(8)))


class TestTransitionMask:
    def test_bio_grammar(self):
        labels = tg.LabelSet(["O", "B-PER", "I-PER", "B-LOC", "I-LOC"])
        mask = tg.transition_mask(labels)
        o, bper, iper, bloc, iloc = range(5)
        start, stop = 5, 6
        assert mask[o, iper] == 0            # O -> I-X illegal
        assert mask[bper, iper] == 1
        assert mask[bper, iloc] == 0         # type switch illegal
        assert mask[iper, iper] == 1
        assert mask[start, iper] == 0        # cannot start inside an entity
        assert mask[start, bper] == 1
        assert mask[iloc, stop] == 1
        assert mask[stop, o] == 0            # nothing leaves STOP

    def test_decoded_paths_always_legal(self):
        labels = tg.LabelSet(["O", "B-PER", "I-PER"])
        mask = tg.transition_mask(labels)
        rng = np.random.default_rng(4)
        for _ in range(30):
            e = rng.normal(size=(5, 3)) * 5
            tr = rng.normal(size=(5, 5)) * mask + (1 - mask) * tg.FORBIDDEN
            path = tg.viterbi_decode(e, tr)
            tags = [labels.label(i) for i in path]
            from seqxfer.corpus import bio_to_spans
            bio_to_spans(tags, repair=False)  # strict: raises if illegal


class TestLabelSet:
    def test_i_without_b_rejected(self):
        with pytest.raises(ContractError):
            tg.LabelSet(["O", "I-PER"])

    def test_missing_o_rejected(self):
        with pytest.raises(ContractError):
            tg.LabelSet(["B-PER", "I-PER"])

    def test_non_bio_mode_allows_plain_tags(self):
        ls = tg.LabelSet(["NOUN", "VERB"], bio=False)
        assert len(ls) == 2

    def test_from_sequences_o_first(self):
        ls = tg.LabelSet.from_sequences(toy_ner_corpus(6))
        assert ls.labels[0] == "O"
        assert set(ls.labels) == {"O", "B-PER", "B-LOC"}


class TestTaggerModel:
    def test_decode_returns_label_strings(self):
        corpus = toy_ner_corpus(6)
        labels = tg.LabelSet.from_sequences(corpus)
        vocab = build_vocab([s.tokens for s in corpus])
        model = tg.TaggerModel.init(tiny_tagger_config(), vocab, labels, seed=0)
        tags, = model.decode([corpus[0].tokens])
        assert len(tags) == len(corpus[0])
        assert all(t in labels for t in tags)

    def test_empty_sentence_rejected(self):
        corpus = toy_ner_corpus(4)
        labels = tg.LabelSet.from_sequences(corpus)
        vocab = build_vocab([s.tokens for s in corpus])
        model = tg.TaggerModel.init(tiny_tagger_config(), vocab, labels, seed=0)
        for sentences in ([], [corpus[0].tokens, []]):
            with pytest.raises(ContractError):
                model.decode(sentences)

    def test_bare_token_list_rejected(self):
        corpus = toy_ner_corpus(4)
        model = tg.TaggerModel.init(tiny_tagger_config(),
                                    build_vocab([s.tokens for s in corpus]),
                                    tg.LabelSet.from_sequences(corpus), seed=0)
        with pytest.raises(ContractError, match="not a nonempty token list"):
            model.decode(corpus[0].tokens)

    @pytest.mark.parametrize("sentences", [["si Bakoro"], [["si", "Bakoro"], "di Medan"]])
    def test_string_sentence_rejected_by_predict(self, monkeypatch, sentences):
        """A string is refused, not tagged character by character."""
        model, _ = batching_model("crf", False)
        calls = decode_calls(monkeypatch)
        with pytest.raises(ContractError, match="not a token list"):
            tg.predict(sentences, model)
        assert calls == []

    @pytest.mark.parametrize("shape", ["tokens", "labeled", "mixed"])
    def test_decode_reads_only_tokens(self, shape):
        """A LabeledSequence gives its tokens; its tags, here ones the model
        does not know, are not read."""
        model, corpus = batching_model("crf", False)
        tokens = [s.tokens for s in corpus]
        labeled = [LabeledSequence(s.tokens, ["B-ORG"] * len(s)) for s in corpus]
        sentences = {"tokens": tokens, "labeled": labeled,
                     "mixed": [t if i % 2 else l for i, (t, l)
                               in enumerate(zip(tokens, labeled))]}[shape]
        assert model.decode(sentences) == model.decode(tokens)

    def test_string_sentence_rejected_by_decode(self):
        model, corpus = batching_model("crf", False)
        with pytest.raises(ContractError, match="sentence 1 is .* a string"):
            model.decode([corpus[0].tokens, "di Medan"])

    def test_predict_reads_a_generator_once(self):
        model, corpus = batching_model("crf", False)
        sentences = [s.tokens for s in corpus]
        want = [p.tags for p in tg.predict(sentences, model)]
        assert [p.tags for p in tg.predict((s for s in sentences), model)] == want

    def test_forbidden_transitions_have_zero_gradient(self):
        corpus = toy_ner_corpus(4)
        labels = tg.LabelSet(["O", "B-PER", "I-PER", "B-LOC"])
        vocab = build_vocab([s.tokens for s in corpus])
        model = tg.TaggerModel.init(tiny_tagger_config(), vocab, labels, seed=0)
        loss = model.sentence_loss(model.batches(corpus, [[0]])[0])
        grads = ad.reverse_gradients(loss, {"tr": model.params["tagger.crf.trans"]})
        illegal = model._trans_mask == 0
        assert np.all(grads["tr"][illegal] == 0.0)

    def test_softmax_head_loss_is_cross_entropy(self):
        corpus = toy_ner_corpus(4)
        labels = tg.LabelSet.from_sequences(corpus)
        vocab = build_vocab([s.tokens for s in corpus])
        cfg = tiny_tagger_config(head="softmax")
        model = tg.TaggerModel.init(cfg, vocab, labels, seed=0)
        em = model.emissions(corpus[0].tokens).data
        logp = em - np.log(np.exp(em).sum(axis=1, keepdims=True))
        want = -sum(logp[i, labels.id(t)] for i, t in enumerate(corpus[0].tags))
        got = float(model.sentence_loss(model.batches(corpus, [[0]])[0]).data)
        assert got == pytest.approx(want, rel=1e-12)

    def test_checkpoint_round_trip_preserves_decisions(self):
        corpus = toy_ner_corpus(8)
        labels = tg.LabelSet.from_sequences(corpus)
        model, _ = tg.train_tagger(corpus, labels, tiny_tagger_config(),
                                   epochs=3, batch_size=4, seed=1)
        ck = model.to_checkpoint()
        again = tg.TaggerModel.from_checkpoint(ck)
        tokens = [s.tokens for s in corpus]
        assert model.decode(tokens) == again.decode(tokens)

    def test_unknown_head_in_saved_checkpoint_is_named(self, tmp_path):
        corpus = toy_ner_corpus(4)
        model = tg.TaggerModel.init(tiny_tagger_config(),
                                    build_vocab([s.tokens for s in corpus]),
                                    tg.LabelSet.from_sequences(corpus), 0)
        model.to_checkpoint().save(tmp_path / "m.ckpt")
        blob = (tmp_path / "m.ckpt").read_bytes()
        assert blob.count(b'"head": "crf"') == 1
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(blob.replace(b'"head": "crf"', b'"head": "xyz"'))
        with pytest.raises(DataError, match=f"^{re.escape(str(bad))}: .*'xyz'"):
            tg.TaggerModel.from_checkpoint(Checkpoint.load(bad))

    def test_read_tagger_reads_what_the_model_holds(self):
        corpus = toy_ner_corpus(4)
        labels = tg.LabelSet.from_sequences(corpus)
        model = tg.TaggerModel.init(tiny_tagger_config(),
                                    build_vocab([s.tokens for s in corpus]), labels, 0)
        assert tg.read_tagger(model.to_checkpoint()) == (model.config, labels, None)

    @pytest.mark.parametrize("edit, message", [
        (lambda ck: setattr(ck, "word_vocab", build_vocab([["alice"]])),
         "'tagger.word_emb' has shape"),
        (lambda ck: ck.architecture.update(provider=None), "'tagger.l0.fwd.Wx' has shape"),
    ], ids=["word-vocab", "no-provider"])
    def test_tensors_checked_against_what_the_model_reads(self, edit, message):
        """The table comes from the word vocabulary and the provider the
        model uses, not from the n_words and d_ctx the architecture repeats."""
        from seqxfer import bilm
        from seqxfer.corpus import build_char_vocab
        from conftest import tiny_bilm_config
        corpus = toy_ner_corpus(4)
        tokens = [s.tokens for s in corpus]
        chars, bcfg = build_char_vocab(tokens), tiny_bilm_config()
        provider = tg.ContextualProvider(
            bilm.init_bilm_params(bcfg, len(chars), 5, seed=0), bcfg, chars)
        ck = tg.TaggerModel.init(tiny_tagger_config(), build_vocab(tokens),
                                 tg.LabelSet.from_sequences(corpus), 0,
                                 provider).to_checkpoint()
        edit(ck)
        with pytest.raises(DataError, match=re.escape(message)):
            tg.TaggerModel.from_checkpoint(ck)

    def test_non_tagger_checkpoint_is_named(self):
        ck = Checkpoint.create("bilm", {"kind": "bilm"}, {})
        ck.source = "lm.ckpt"
        with pytest.raises(TransferError, match="^lm.ckpt is not a tagger checkpoint"):
            tg.TaggerModel.from_checkpoint(ck)

    @pytest.mark.parametrize("name, value, message", [
        ("tagger.l0.bwd.Wh", None, "no tensor 'tagger.l0.bwd.Wh'"),
        ("tagger.crf.trans", np.zeros((3, 3)), "'tagger.crf.trans' has shape (3, 3)"),
        ("char_enc.emb", None, "no tensor 'char_enc.emb'"),
    ])
    def test_checkpoint_checked_against_architecture(self, name, value, message):
        from seqxfer import bilm
        from seqxfer.corpus import build_char_vocab
        from conftest import tiny_bilm_config
        corpus = toy_ner_corpus(4)
        tokens = [s.tokens for s in corpus]
        chars, bcfg = build_char_vocab(tokens), tiny_bilm_config()
        provider = tg.ContextualProvider(
            bilm.init_bilm_params(bcfg, len(chars), 5, seed=0), bcfg, chars)
        model = tg.TaggerModel.init(tiny_tagger_config(), build_vocab(tokens),
                                    tg.LabelSet.from_sequences(corpus), 0, provider)
        ck = model.to_checkpoint()
        if value is None:
            del ck.tensors[name]
        else:
            ck.tensors[name] = value
        with pytest.raises(DataError, match=re.escape(message)):
            tg.TaggerModel.from_checkpoint(ck)

    def test_malformed_config_in_saved_checkpoint_is_named(self, tmp_path):
        corpus = toy_ner_corpus(4)
        model = tg.TaggerModel.init(tiny_tagger_config(),
                                    build_vocab([s.tokens for s in corpus]),
                                    tg.LabelSet.from_sequences(corpus), 0)
        ck = model.to_checkpoint()
        ck.architecture["config"]["layers"] = 0
        ck.save(tmp_path / "bad.ckpt")
        bad = tmp_path / "bad.ckpt"
        with pytest.raises(DataError, match=f"^{re.escape(str(bad))}: .*layers is 0"):
            tg.read_tagger(Checkpoint.load(bad))


@pytest.mark.parametrize("key, value", [
    ("d_word", 0), ("d_word", 12.0), ("hidden", 3.0), ("hidden", "16"),
    ("layers", True), ("layers", 0), ("dropout", "x"), ("dropout", 1.0),
    ("dropout", float("nan")), ("unk_rate", -1), ("unk_rate", None),
    ("freeze_word_emb", 1), ("freeze_word_emb", "false"), ("anchor_coeff", -0.5),
    ("anchor_coeff", float("inf")), ("anchor_coeff", "0"), ("head", "xyz"),
])
def test_tagger_config_from_dict_rejects_bad_values(key, value):
    d = tiny_tagger_config().to_dict()
    d[key] = value
    with pytest.raises(ValueError, match=key):
        tg.TaggerConfig.from_dict(d)


class TestTrainTagger:
    def test_loss_decreases(self):
        corpus = toy_ner_corpus(12)
        labels = tg.LabelSet.from_sequences(corpus)
        _, metrics = tg.train_tagger(corpus, labels, tiny_tagger_config(),
                                     epochs=8, batch_size=4, seed=0)
        assert metrics["train_loss"][-1] < metrics["train_loss"][0]

    def test_unknown_tag_names_sentence(self):
        corpus = toy_ner_corpus(4)
        corpus[2] = LabeledSequence(["oops"], ["B-GPE"])
        labels = tg.LabelSet(["O", "B-PER", "B-LOC"])
        with pytest.raises(DataError, match="sentence 2"):
            tg.train_tagger(corpus, labels, tiny_tagger_config(), epochs=1)

    def test_same_seed_same_weights(self):
        corpus = toy_ner_corpus(8)
        labels = tg.LabelSet.from_sequences(corpus)
        m1, _ = tg.train_tagger(corpus, labels, tiny_tagger_config(),
                                epochs=2, batch_size=4, seed=5)
        m2, _ = tg.train_tagger(corpus, labels, tiny_tagger_config(),
                                epochs=2, batch_size=4, seed=5)
        for name in m1.params:
            assert np.array_equal(m1.params[name].data, m2.params[name].data)

    def test_patience_stops_early_and_restores_best(self):
        corpus = toy_ner_corpus(12)
        labels = tg.LabelSet.from_sequences(corpus)
        model, metrics = tg.train_tagger(
            corpus, labels, tiny_tagger_config(), epochs=50, batch_size=4,
            dev=corpus[:4], patience=3, seed=0)
        assert metrics["epochs_run"] < 50 or \
            metrics["best_epoch"] >= metrics["epochs_run"] - 3
        best = max(metrics["dev_score"])
        assert metrics["dev_score"][metrics["best_epoch"] - 1] == best

    def test_frozen_embeddings_do_not_move(self):
        corpus = toy_ner_corpus(8)
        labels = tg.LabelSet.from_sequences(corpus)
        cfg = tiny_tagger_config(freeze_word_emb=True)
        vocab = build_vocab([s.tokens for s in corpus])
        vecs = ad.seeded_init((len(vocab), cfg.d_word), 9)
        model, _ = tg.train_tagger(corpus, labels, cfg, epochs=2, batch_size=4,
                                   seed=0, word_vocab=vocab, word_vectors=vecs)
        assert np.array_equal(model.params["tagger.word_emb"].data, vecs)

    def test_anchored_provider_stays_near_init(self):
        from seqxfer import bilm
        from seqxfer.corpus import build_char_vocab
        from conftest import tiny_bilm_config
        corpus = toy_ner_corpus(8)
        chars, bcfg = build_char_vocab([s.tokens for s in corpus]), tiny_bilm_config()
        init = bilm.init_bilm_params(bcfg, len(chars), 6, seed=0)

        def drift(anchor_coeff):
            provider = tg.ContextualProvider(
                bilm.params_from_tensors(bilm.tensors_from_params(init)), bcfg, chars)
            tg.train_tagger(corpus, tg.LabelSet.from_sequences(corpus),
                            tiny_tagger_config(anchor_coeff=anchor_coeff), epochs=3,
                            batch_size=4, lr=0.05, seed=0, provider=provider)
            moved = {n: np.abs(p.data - init[n].data).sum()
                     for n, p in provider.params.items()}
            assert moved["lm.head.W"] == 0.0    # the provider's head never trains
            return sum(moved.values())

        assert drift(10.0) < drift(0.0)

    def test_empty_training_set_rejected(self):
        with pytest.raises(ContractError):
            tg.train_tagger([], tg.LabelSet(["O"]), tiny_tagger_config())

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_batch_size_below_one_rejected(self, batch_size):
        corpus = toy_ner_corpus(4)
        with pytest.raises(ContractError, match="batch_size must be >= 1"):
            tg.train_tagger(corpus, tg.LabelSet.from_sequences(corpus),
                            tiny_tagger_config(), epochs=1, batch_size=batch_size)

    @pytest.mark.parametrize("anchor_coeff, bad", [(0.0, {"lr": -0.1}), (0.0, {"clip_norm": 0.0}),
                                                   (-1.0, {})])
    def test_bad_step_settings_rejected(self, anchor_coeff, bad):
        corpus = toy_ner_corpus(4)
        with pytest.raises(ContractError, match="must be finite"):
            tg.train_tagger(corpus, tg.LabelSet.from_sequences(corpus),
                            tiny_tagger_config(anchor_coeff=anchor_coeff), epochs=1, **bad)


def mixed_length_corpus():
    """Sentences of 1 to 7 tokens, in no length order."""
    corpus = toy_ner_corpus(6)
    return [LabeledSequence(s.tokens[:n], s.tags[:n])
            for s, n in zip(corpus, (7, 1, 5, 3, 2, 4))]


def batching_model(head, with_provider):
    from seqxfer import bilm
    from seqxfer.corpus import build_char_vocab
    from conftest import tiny_bilm_config
    corpus = mixed_length_corpus()
    tokens = [s.tokens for s in corpus]
    provider = None
    if with_provider:
        chars, bcfg = build_char_vocab(tokens), tiny_bilm_config()
        provider = tg.ContextualProvider(
            bilm.init_bilm_params(bcfg, len(chars), 9, seed=3), bcfg, chars)
    labels = tg.LabelSet.from_sequences(corpus, bio=head == "crf")
    model = tg.TaggerModel.init(tiny_tagger_config(head=head, layers=2),
                                build_vocab(tokens[:3]), labels, 1, provider)
    if head == "crf":  # nonzero transitions, so they matter
        trans = model.params["tagger.crf.trans"]
        trans.data[:] = np.random.default_rng(4).normal(size=trans.data.shape)
    return model, corpus


def decode_calls(monkeypatch):
    """The sentence lists of every `TaggerModel.decode` call from here on."""
    calls, decode = [], tg.TaggerModel.decode

    def spy(model, sentences):
        calls.append(sentences)
        return decode(model, sentences)
    monkeypatch.setattr(tg.TaggerModel, "decode", spy)
    return calls


def six_token_sentences(n):
    return [(s.tokens * 2)[:6] for s in toy_ner_corpus(n)]


class TestBatching:
    @pytest.mark.parametrize("with_provider", [False, True])
    @pytest.mark.parametrize("head", ["crf", "softmax"])
    def test_batch_loss_is_sum_of_sentence_losses(self, head, with_provider):
        model, corpus = batching_model(head, with_provider)
        params = model.trainable_params()
        batch_loss = model.sentence_loss(model.batches(corpus, [range(len(corpus))])[0])
        got = ad.reverse_gradients(batch_loss, params)
        total, want = 0.0, {n: np.zeros_like(p.data) for n, p in params.items()}
        for one in model.batches(corpus, [[i] for i in range(len(corpus))]):
            loss = model.sentence_loss(one)
            total += float(loss.data)
            for n, g in ad.reverse_gradients(loss, params).items():
                want[n] += g
        assert abs(float(batch_loss.data) - total) <= 1e-12 * max(1.0, abs(total))
        for n in params:
            assert np.abs(got[n] - want[n]).max() <= 1e-12, n

    @pytest.mark.parametrize("with_provider", [False, True])
    @pytest.mark.parametrize("head", ["crf", "softmax"])
    def test_batch_predict_equals_one_sentence_predict(self, monkeypatch, head,
                                                      with_provider):
        model, corpus = batching_model(head, with_provider)
        sentences = [s.tokens for s in corpus] * 7
        # room for 32 of the longest sentence: the 42 need a second batch
        monkeypatch.setattr(bilm, "EVAL_TOKENS", 32 * max(map(len, sentences)))
        calls = decode_calls(monkeypatch)
        batched = tg.predict(sentences, model)
        assert len(calls) >= 2
        assert [p.tokens for p in batched] == sentences
        assert [p.tags for p in batched] == \
            [tg.predict([s], model)[0].tags for s in sentences]
        assert [p.tags for p in batched] == model.decode(sentences)

    @pytest.mark.parametrize("head", ["crf", "softmax"])
    def test_forty_short_sentences_decode_as_one_batch(self, monkeypatch, head):
        model, _ = batching_model(head, True)
        sentences = six_token_sentences(40)
        want = [tg.predict([s], model)[0].tags for s in sentences]
        calls = decode_calls(monkeypatch)
        assert [p.tags for p in tg.predict(sentences, model)] == want
        assert [len(c) for c in calls] == [40]

    @pytest.mark.parametrize("budget", [None, 5])
    def test_an_over_budget_set_decodes_in_several_batches(self, monkeypatch, budget):
        model, corpus = batching_model("crf", True)
        if budget is None:     # one six-token sentence past the default budget
            sentences = six_token_sentences(bilm.EVAL_TOKENS // 6 + 1)
        else:                  # the 7-token sentence is longer than the budget
            monkeypatch.setattr(bilm, "EVAL_TOKENS", budget)
            sentences = [s.tokens for s in corpus]
        want = [tg.predict([s], model)[0].tags for s in sentences]
        calls = decode_calls(monkeypatch)
        assert [p.tags for p in tg.predict(sentences, model)] == want
        assert len(calls) > 1
        assert all(len(c) == 1 or len(c) * max(map(len, c)) <= bilm.EVAL_TOKENS
                   for c in calls)

    def test_emissions_of_one_sentence_are_its_batch_row(self):
        model, corpus = batching_model("crf", True)
        batch = model.batches(corpus, [range(len(corpus))])[0]
        em = model.emissions(batch).data
        for b, sent in enumerate(corpus):
            one = model.emissions(sent.tokens).data
            assert one.shape == (len(sent), len(model.labels))
            assert np.abs(em[b, :len(sent)] - one).max() <= 1e-12

    def test_trainer_swaps_only_singletons_for_unk(self, monkeypatch):
        corpus = mixed_length_corpus()
        built, batches = [], tg.TaggerModel.batches

        def spy(model, sentences, chunks):
            out = batches(model, sentences, chunks)
            built.extend((c, b, b.word_ids.copy()) for c, b in zip(chunks, out))
            return out
        monkeypatch.setattr(tg.TaggerModel, "batches", spy)
        tg.train_tagger(corpus, tg.LabelSet.from_sequences(corpus),
                        tiny_tagger_config(unk_rate=0.5), epochs=1, batch_size=4, seed=0)
        counts = Counter(t for s in corpus for t in s.tokens)
        swapped_words = []
        for chunk, batch, plain in built:
            swapped = batch.word_ids != plain
            assert (batch.word_ids[swapped] == UNK).all()
            swapped_words += [corpus[chunk[b]].tokens[t] for b, t in zip(*np.nonzero(swapped))]
        assert len(built) == 2 and swapped_words
        assert all(counts[w] == 1 for w in swapped_words)


class TestNoGrad:
    def test_records_no_parents(self):
        x = ad.parameter("x", np.ones(3))
        with ad.no_grad():
            y = tanh(x * 2.0) + x
        assert not y.requires_grad and y._parents == () and y._backward is None
        assert (x * 2.0).requires_grad

    def test_nests_and_restores(self):
        x = ad.parameter("x", np.ones(3))
        with ad.no_grad():
            with ad.no_grad():
                pass
            assert not (x * 2.0).requires_grad
        assert (x * 2.0).requires_grad

    def test_restores_after_an_exception(self):
        x = ad.parameter("x", np.ones(3))
        with pytest.raises(RuntimeError):
            with ad.no_grad():
                raise RuntimeError("boom")
        assert (x * 2.0).requires_grad

    @pytest.mark.parametrize("head", ["crf", "softmax"])
    def test_decode_builds_no_graph_node(self, head, monkeypatch):
        model, corpus = batching_model(head, True)
        built = []
        node = ad.node

        def counting(data, parents, backward):
            out = node(data, parents, backward)
            built.append(out.requires_grad)
            return out
        monkeypatch.setattr(ad, "node", counting)
        model.decode([s.tokens for s in corpus])
        tg.predict(corpus, model)
        assert built and not any(built)
        model.sentence_loss(model.batches(corpus, [[0]])[0])
        assert any(built)
