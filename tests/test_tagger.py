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

    def test_empty_training_set_rejected(self):
        with pytest.raises(ContractError):
            tg.train_tagger([], tg.LabelSet(["O"]), tiny_tagger_config())
