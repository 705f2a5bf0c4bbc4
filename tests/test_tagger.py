import itertools
import math
import re

import numpy as np
import pytest

from seqxfer import autodiff as ad
from seqxfer import tagger as tg
from seqxfer.corpus import LabeledSequence, build_vocab
from seqxfer.errors import ContractError, DataError

from conftest import tiny_tagger_config, toy_ner_corpus


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


def reference_crf_log_partition(emissions, transitions):
    """The unfused forward recursion of one [T, m] sentence, one small graph
    per step; the oracle of the fused `crf_log_partition`."""
    e, tr = emissions, transitions
    T, m = e.data.shape
    start, stop = m, m + 1
    alpha = tr[start, :m] + e[0]
    for t in range(1, T):
        scores = ad.reshape(alpha, (m, 1)) + tr[:m, :m] + e[t]
        alpha = ad.logsumexp_t(scores, axis=0)
    return ad.logsumexp_t(alpha + tr[:m, stop], axis=0)


def prefix_mask(lengths, T=None):
    T = T or max(lengths)
    return (np.arange(T) < np.array(lengths)[:, None]).astype(np.float64)


def random_instance(rng, T=None, m=None):
    T = T or int(rng.integers(1, 6))
    m = m or int(rng.integers(2, 5))
    return rng.normal(size=(T, m)), rng.normal(size=(m + 2, m + 2))


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
        tags = model.decode(corpus[0].tokens)
        assert len(tags) == len(corpus[0])
        assert all(t in labels for t in tags)

    def test_empty_sentence_rejected(self):
        corpus = toy_ner_corpus(4)
        labels = tg.LabelSet.from_sequences(corpus)
        vocab = build_vocab([s.tokens for s in corpus])
        model = tg.TaggerModel.init(tiny_tagger_config(), vocab, labels, seed=0)
        with pytest.raises(ContractError):
            model.decode([])

    def test_forbidden_transitions_have_zero_gradient(self):
        corpus = toy_ner_corpus(4)
        labels = tg.LabelSet(["O", "B-PER", "I-PER", "B-LOC"])
        vocab = build_vocab([s.tokens for s in corpus])
        model = tg.TaggerModel.init(tiny_tagger_config(), vocab, labels, seed=0)
        loss = model.sentence_loss(corpus[0], train_mode=False)
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
        got = float(model.sentence_loss(corpus[0], train_mode=False).data)
        assert got == pytest.approx(want, rel=1e-12)

    def test_checkpoint_round_trip_preserves_decisions(self):
        corpus = toy_ner_corpus(8)
        labels = tg.LabelSet.from_sequences(corpus)
        model, _ = tg.train_tagger(corpus, labels, tiny_tagger_config(),
                                   epochs=3, batch_size=4, seed=1)
        ck = model.to_checkpoint()
        again = tg.TaggerModel.from_checkpoint(ck)
        for sent in corpus:
            assert model.decode(sent.tokens) == again.decode(sent.tokens)

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
        vecs = ad.seeded_init((len(vocab), cfg.d_word), "glorot", 9)
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


class TestBatching:
    @pytest.mark.parametrize("with_provider", [False, True])
    @pytest.mark.parametrize("head", ["crf", "softmax"])
    def test_batch_loss_is_sum_of_sentence_losses(self, head, with_provider):
        model, corpus = batching_model(head, with_provider)
        params = model.trainable_params()
        batch_loss = model.sentence_loss(corpus, train_mode=False)
        got = ad.reverse_gradients(batch_loss, params)
        total, want = 0.0, {n: np.zeros_like(p.data) for n, p in params.items()}
        for sent in corpus:
            loss = model.sentence_loss(sent, train_mode=False)
            total += float(loss.data)
            for n, g in ad.reverse_gradients(loss, params).items():
                want[n] += g
        assert abs(float(batch_loss.data) - total) <= 1e-12 * max(1.0, abs(total))
        for n in params:
            assert np.abs(got[n] - want[n]).max() <= 1e-12, n

    @pytest.mark.parametrize("with_provider", [False, True])
    @pytest.mark.parametrize("head", ["crf", "softmax"])
    def test_batch_predict_equals_one_sentence_predict(self, head, with_provider):
        model, corpus = batching_model(head, with_provider)
        sentences = [s.tokens for s in corpus] * 7   # two batches
        assert len(sentences) > tg.PREDICT_BATCH
        batched = tg.predict(sentences, model)
        assert [p.tokens for p in batched] == sentences
        assert [p.tags for p in batched] == \
            [tg.predict([s], model)[0].tags for s in sentences]
        assert [p.tags for p in batched] == model.decode(sentences)

    def test_emissions_of_one_sentence_are_its_batch_row(self):
        model, corpus = batching_model("crf", True)
        batch = model.batch(corpus)
        em = model.emissions(batch).data
        for b, sent in enumerate(corpus):
            one = model.emissions(sent.tokens).data
            assert one.shape == (len(sent), len(model.labels))
            assert np.abs(em[b, :len(sent)] - one).max() <= 1e-12

    def test_unk_swap_draws_per_batch_position(self):
        model, corpus = batching_model("crf", False)
        model.config.unk_rate = 0.5
        rng = np.random.default_rng(0)
        batch = model.batch(corpus, rng=rng, singletons={"alice", "to"})
        plain = model.batch(corpus)
        swapped = batch.word_ids != plain.word_ids
        assert swapped.any()
        words = np.array([s.tokens + [""] * (7 - len(s)) for s in corpus])
        assert np.isin(words[swapped], ["alice", "to"]).all()
        assert (batch.word_ids[swapped] == 1).all()   # UNK


class TestNoGrad:
    def test_records_no_parents(self):
        x = ad.parameter("x", np.ones(3))
        with ad.no_grad():
            y = ad.tanh(x * 2.0) + x
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
        model.sentence_loss(corpus[0], train_mode=False)
        assert any(built)
