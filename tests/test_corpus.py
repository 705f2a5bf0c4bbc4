import io
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqxfer import corpus as cp
from seqxfer.errors import ContractError, DataError, ParseError


class TestReadConll:
    def test_mixed_tabs_and_spaces(self):
        text = "John B-PER\n.\tO\n\n"
        sents = cp.read_conll(io.StringIO(text))
        assert len(sents) == 1
        assert sents[0].tokens == ["John", "."]
        assert sents[0].tags == ["B-PER", "O"]

    def test_double_blank_lines_normalize(self):
        text = "a O\n\n\nb O\n\n\n"
        assert len(cp.read_conll(io.StringIO(text))) == 2

    def test_missing_column_reports_line(self):
        with pytest.raises(ParseError, match="^line 1: "):
            cp.read_conll(io.StringIO("John\n"))

    def test_missing_column_in_a_file_names_path_and_line(self, tmp_path):
        path = tmp_path / "bad.conll"
        path.write_text("a O\nJohn\n")
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}:2: "):
            cp.read_conll(path)

    def test_empty_file(self):
        assert cp.read_conll(io.StringIO("")) == []

    def test_round_trip_normalizes_whitespace(self):
        text = "John\tB-PER\nran   O\n\nhome O\n\n"
        sents = cp.read_conll(io.StringIO(text))
        written = cp.write_conll(sents)
        assert written == "John B-PER\nran O\n\nhome O\n\n"
        assert cp.read_conll(io.StringIO(written)) == sents

    def test_token_order_preserved(self):
        toks = [f"t{i}" for i in range(50)]
        text = "".join(f"{t} O\n" for t in toks) + "\n"
        sents = cp.read_conll(io.StringIO(text))
        assert sents[0].tokens == toks


class TestContiguousToBio:
    def test_run_becomes_b_then_i(self):
        assert cp.contiguous_to_bio(["PER", "PER", "O", "LOC"]) == \
            ["B-PER", "I-PER", "O", "B-LOC"]

    def test_type_change_splits(self):
        assert cp.contiguous_to_bio(["PER", "LOC"]) == ["B-PER", "B-LOC"]

    def test_all_o_identity(self):
        assert cp.contiguous_to_bio(["O", "O"]) == ["O", "O"]

    def test_output_is_strict_legal(self):
        rng = np.random.default_rng(0)
        types = ["O", "PER", "LOC", "ORG"]
        for _ in range(50):
            raw = [types[i] for i in rng.integers(0, 4, size=rng.integers(1, 12))]
            cp.bio_to_spans(cp.contiguous_to_bio(raw), repair=False)


class TestBioSpans:
    def test_basic_extraction(self):
        spans = cp.bio_to_spans(["B-PER", "I-PER", "O", "B-LOC"])
        assert spans == [cp.EntitySpan("PER", 0, 2), cp.EntitySpan("LOC", 3, 4)]

    def test_repair_orphan_i(self):
        assert cp.bio_to_spans(["I-PER", "O"], repair=True) == \
            [cp.EntitySpan("PER", 0, 1)]

    def test_strict_rejects_orphan_i_with_position(self):
        with pytest.raises(DataError, match="index 1"):
            cp.bio_to_spans(["O", "I-LOC"], repair=False)

    def test_repair_type_switch(self):
        spans = cp.bio_to_spans(["B-PER", "I-LOC"], repair=True)
        assert spans == [cp.EntitySpan("PER", 0, 1), cp.EntitySpan("LOC", 1, 2)]

    def test_repair_idempotent(self):
        tags = ["I-PER", "I-PER", "O", "I-LOC"]
        spans = cp.bio_to_spans(tags, repair=True)
        repaired = cp.spans_to_bio(spans, len(tags))
        assert cp.bio_to_spans(repaired, repair=True) == spans

    def test_entity_at_sentence_end(self):
        assert cp.bio_to_spans(["O", "B-ORG", "I-ORG"]) == [cp.EntitySpan("ORG", 1, 3)]

    @given(st.lists(st.sampled_from(
        ["O", "B-PER", "I-PER", "B-LOC", "I-LOC"]), min_size=1, max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_spans_round_trip_on_legal_sequences(self, tags):
        try:
            spans = cp.bio_to_spans(tags, repair=False)
        except DataError:
            return  # illegal sequence: strict mode refuses, nothing to round-trip
        assert cp.spans_to_bio(spans, len(tags)) == tags


class TestVocabulary:
    def test_min_count_filter(self):
        v = cp.build_vocab([["a", "b", "a"]], min_count=2)
        assert v.non_reserved() == ["a"]

    def test_min_count_one_keeps_all(self):
        v = cp.build_vocab([["b", "a"]], min_count=1)
        assert v.non_reserved() == ["a", "b"]

    def test_shuffle_invariant(self):
        v1 = cp.build_vocab([["x", "y", "z", "y"]])
        v2 = cp.build_vocab([["y", "z", "y", "x"]])
        assert v1.symbols == v2.symbols

    def test_unknown_lookup_is_unk(self):
        v = cp.build_vocab([["a"]])
        assert v.id("zzz") == cp.UNK

    def test_reserved_ids(self):
        v = cp.build_vocab([["a"]])
        assert v.id("<pad>") == cp.PAD and v.id("<unk>") == cp.UNK

    def test_dict_round_trip(self):
        v = cp.build_char_vocab([["abc"]])
        assert cp.Vocabulary.from_dict(v.to_dict()) == v


class TestWordVectors:
    def test_full_coverage(self):
        v = cp.build_vocab([["a", "b"]])
        src = io.StringIO("a 1 2\nb 3 4\n")
        mat, coverage = cp.load_word_vectors(src, v, 2)
        assert coverage == 1.0
        assert np.array_equal(mat[v.id("a")], [1.0, 2.0])

    def test_empty_file_zero_coverage(self):
        v = cp.build_vocab([["a"]])
        mat, coverage = cp.load_word_vectors(io.StringIO(""), v, 3)
        assert coverage == 0.0
        assert mat.shape == (len(v), 3)

    def test_wrong_arity_names_line(self):
        v = cp.build_vocab([["a"]])
        with pytest.raises(ParseError, match="line 2"):
            cp.load_word_vectors(io.StringIO("a 1 2\nb 3\n"), v, 2)

    def test_malformed_float_names_line(self):
        v = cp.build_vocab([["a"]])
        with pytest.raises(ParseError, match="line 1"):
            cp.load_word_vectors(io.StringIO("a x y\n"), v, 2)

    @pytest.mark.parametrize("text, line", [("a 1 2\nb 3\n", 2), ("a x y\n", 1)])
    def test_errors_in_a_file_name_path_and_line(self, tmp_path, text, line):
        path = tmp_path / "bad.vec"
        path.write_text(text)
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}:{line}: "):
            cp.load_word_vectors(str(path), cp.build_vocab([["a"]]), 2)

    def test_missing_words_seeded(self):
        v = cp.build_vocab([["a", "b"]])
        m1, _ = cp.load_word_vectors(io.StringIO("a 1 2\n"), v, 2, seed=9)
        m2, _ = cp.load_word_vectors(io.StringIO("a 1 2\n"), v, 2, seed=9)
        assert np.array_equal(m1, m2)


class TestCharIds:
    def test_markers_and_padding(self):
        v = cp.build_char_vocab([["ab"]])
        row = cp.char_id_row("ab", v, 6)
        assert list(row) == [cp.BOW, v.id("a"), v.id("b"), cp.EOW, cp.PAD, cp.PAD]

    def test_unknown_char_maps_to_unk(self):
        v = cp.build_char_vocab([["ab"]])
        assert cp.char_id_row("aq", v, 6)[2] == cp.UNK

    def test_truncation_from_the_right(self):
        v = cp.build_char_vocab([["abcdefgh"]])
        row = cp.char_id_row("abcdefgh", v, 6)
        assert list(row) == [cp.BOW, v.id("a"), v.id("b"), v.id("c"), v.id("d"), cp.EOW]

    def test_too_small_max_len_rejected(self):
        v = cp.build_char_vocab([["a"]])
        with pytest.raises(ContractError):
            cp.char_id_row("a", v, 2)


class TestLMBatches:
    def _setup(self):
        sents = [["a", "b", "c"], ["d", "e"], ["f", "g", "h", "i"]]
        vocab = cp.build_vocab(sents)
        cvocab = cp.build_char_vocab(sents)
        return sents, vocab, cvocab

    def test_forward_targets_and_mask(self):
        sents, vocab, cvocab = self._setup()
        batches = cp.lm_batches([sents[0]], vocab, cvocab, 1, 8, seed=0)
        b = batches[0]
        expect = [vocab.id("b"), vocab.id("c"), cp.EOS]
        assert list(b.fwd_targets[0]) == expect
        assert list(b.bwd_targets[0]) == [cp.BOS, vocab.id("a"), vocab.id("b")]
        assert b.mask.sum() == 3

    def test_same_seed_identical_order(self):
        sents, vocab, cvocab = self._setup()
        b1 = cp.lm_batches(sents, vocab, cvocab, 2, 8, seed=4)
        b2 = cp.lm_batches(sents, vocab, cvocab, 2, 8, seed=4)
        assert all(np.array_equal(x.word_index, y.word_index)
                   for x, y in zip(b1, b2))

    def test_token_conservation(self):
        sents, vocab, cvocab = self._setup()
        batches = cp.lm_batches(sents, vocab, cvocab, 2, 8, seed=1)
        assert sum(b.n_tokens for b in batches) == sum(len(s) for s in sents)

    def test_bad_batch_size(self):
        sents, vocab, cvocab = self._setup()
        with pytest.raises(ContractError):
            cp.lm_batches(sents, vocab, cvocab, 0, 8)

    def test_token_spelled_pad_is_encoded_by_its_chars(self):
        sents = [["a", "<pad>", "b"]]
        vocab, cvocab = cp.build_vocab(sents), cp.build_char_vocab(sents)
        batch = cp.lm_batches(sents, vocab, cvocab, 1, 8)[0]
        row = batch.word_index[0, 1]
        assert row != 0
        assert np.array_equal(batch.uniq_char_ids[row],
                              cp.char_id_row("<pad>", cvocab, 8))
        assert not batch.uniq_char_ids[0].any()


class TestChunkOrder:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(1, 12), max_size=40), st.randoms(use_true_random=False),
           st.none() | st.integers(1, 6), st.none() | st.integers(1, 48))
    def test_runs_are_maximal_within_both_caps(self, lengths, rnd, max_rows, max_tokens):
        order = list(range(len(lengths)))
        rnd.shuffle(order)
        runs = cp.chunk_order(order, lengths, max_rows, max_tokens)

        def fits(run):
            return (max_rows is None or len(run) <= max_rows) and \
                (max_tokens is None or len(run) * max(lengths[i] for i in run) <= max_tokens)
        assert [i for run in runs for i in run] == order
        assert all(run for run in runs)
        assert all(len(run) <= (max_rows or len(order)) for run in runs)
        # a run breaks the token budget only as one over-budget sentence
        assert all(fits(run) or (len(run) == 1 and lengths[run[0]] > max_tokens)
                   for run in runs)
        # no run could have taken the next run's first index
        assert not any(fits(run + nxt[:1]) for run, nxt in zip(runs, runs[1:]))

    def test_a_run_may_fill_the_budget_exactly(self):
        assert cp.chunk_order([0, 1, 2, 3], [2, 3, 3, 1], max_tokens=6) == [[0, 1], [2, 3]]

    def test_rows_only_cut_as_slices(self):
        order = [5, 3, 0, 4, 1, 2, 6]
        assert cp.chunk_order(order, [9] * 7, 3) == [order[:3], order[3:6], order[6:]]

    @pytest.mark.parametrize("max_rows", [0, -1])
    def test_rows_below_one_rejected(self, max_rows):
        with pytest.raises(ContractError, match="batch_size must be >= 1"):
            cp.chunk_order([0, 1], [2, 2], max_rows)


def reference_pad_batch(token_lists, word_vocab=None, char_vocab=None,
                        max_word_len=None, tag_ids=None):
    """The per-token batch builder that `cp.pad_batch` replaced: each
    call builds the char rows of its distinct words one token at a time."""
    if not token_lists or not all(token_lists):
        raise ContractError("empty sentence")
    B, T = len(token_lists), max(len(s) for s in token_lists)
    mask = np.zeros((B, T), dtype=np.float64)
    words = np.full((B, T), cp.PAD, dtype=np.int64) if word_vocab is not None else None
    tags = np.zeros((B, T), dtype=np.int64) if tag_ids is not None else None
    rows = word_index = None
    if char_vocab is not None:
        uniq = {}  # token -> row; row 0, the pad row, is no token's
        rows = [np.full(max_word_len, cp.PAD, dtype=np.int64)]
        word_index = np.zeros((B, T), dtype=np.int64)
    for b, sent in enumerate(token_lists):
        n = len(sent)
        mask[b, :n] = 1.0
        if words is not None:
            words[b, :n] = [word_vocab.id(t) for t in sent]
        if tags is not None:
            tags[b, :n] = tag_ids[b]
        if rows is not None:
            for k, tok in enumerate(sent):
                if tok not in uniq:
                    uniq[tok] = len(rows)
                    rows.append(cp.char_id_row(tok, char_vocab, max_word_len))
                word_index[b, k] = uniq[tok]
    return cp.Batch(None if rows is None else np.stack(rows), word_index, mask,
                    word_ids=words, tag_ids=tags)


def reference_lm_batches(corpus, vocab, char_vocab, batch_size, max_word_len, seed=0):
    """`cp.lm_batches` as it was before it mapped word types once: the same
    shuffle and length buckets, each padded by `reference_pad_batch`."""
    sentences = [s for s in corpus if s]
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(sentences))
    shuffled = [sentences[i] for i in order]
    shuffled.sort(key=len)
    chunks = [shuffled[i:i + batch_size] for i in range(0, len(shuffled), batch_size)]
    batches = []
    for ci in rng.permutation(len(chunks)):
        batch = reference_pad_batch(chunks[ci], vocab, char_vocab, max_word_len)
        ids, real = batch.word_ids, batch.mask == 1.0
        fwd = np.full_like(ids, cp.PAD)
        fwd[:, :-1] = ids[:, 1:]
        fwd[np.arange(len(ids)), batch.lengths - 1] = cp.EOS
        bwd = np.full_like(ids, cp.BOS)
        bwd[:, 1:] = ids[:, :-1]
        bwd[~real] = cp.PAD
        batch.fwd_targets, batch.bwd_targets = fwd, bwd
        batches.append(batch)
    return batches


BATCH_FIELDS = ("uniq_char_ids", "word_index", "mask", "word_ids", "tag_ids",
                "fwd_targets", "bwd_targets")


def assert_same_batch(got, want):
    for field in BATCH_FIELDS:
        a, b = getattr(got, field), getattr(want, field)
        if b is None:
            assert a is None, field
        else:
            assert a.dtype == b.dtype and a.shape == b.shape, field
            assert np.array_equal(a, b), field


def _random_corpus(seed, max_word_len):
    """Sentences (some empty) over a small Zipf-like lexicon with a token
    spelled <pad>, tokens longer than max_word_len and chars that the char
    vocabulary, built from part of the corpus, does not hold."""
    rng = np.random.default_rng(seed)
    lexicon = ["<pad>", "<unk>", "x" * (max_word_len + 4)]
    lexicon += ["".join(rng.choice(list("abcdefgé#"), size=int(rng.integers(1, max_word_len + 3))))
                for _ in range(40)]
    weights = 1.0 / np.arange(1, len(lexicon) + 1)
    corpus = [[lexicon[i] for i in rng.choice(len(lexicon), size=int(rng.integers(0, 9)),
                                               p=weights / weights.sum())]
              for _ in range(70)]
    vocab = cp.build_vocab(corpus[:35])
    chars = cp.build_char_vocab([["abcdefg", "<pad>"]])  # no é, no #
    return corpus, vocab, chars


class TestBatchesMatchPerTokenBuilder:
    @pytest.mark.parametrize("batch_size", [1, 3, 8, 32])
    @pytest.mark.parametrize("seed", range(3))
    def test_lm_batches(self, batch_size, seed):
        corpus, vocab, chars = _random_corpus(seed, 8)
        got = cp.lm_batches(corpus, vocab, chars, batch_size, 8, seed=seed)
        want = reference_lm_batches(corpus, vocab, chars, batch_size, 8, seed=seed)
        assert len(got) == len(want) > 1
        assert any("<pad>" in s and "x" * 12 in s for s in corpus)
        assert any((b.uniq_char_ids == cp.UNK).any() for b in got)
        for a, b in zip(got, want):
            assert_same_batch(a, b)

    @pytest.mark.parametrize("batch_size", [1, 3, 8, 32])
    @pytest.mark.parametrize("seed", range(3))
    def test_pad_batch(self, batch_size, seed):
        corpus, vocab, chars = _random_corpus(seed, 8)
        sents = [s for s in corpus if s][:batch_size]
        rng = np.random.default_rng(seed)
        tags = [list(rng.integers(0, 5, size=len(s))) for s in sents]
        for kwargs in ({"word_vocab": vocab, "char_vocab": chars, "max_word_len": 8,
                        "tag_ids": tags},
                       {"char_vocab": chars, "max_word_len": 8},
                       {"word_vocab": vocab},
                       {"word_vocab": vocab, "tag_ids": tags}):
            assert_same_batch(cp.pad_batch(sents, **kwargs),
                              reference_pad_batch(sents, **kwargs))

    def test_words_repeat_across_batches(self):
        corpus, vocab, chars = _random_corpus(0, 8)
        batches = cp.lm_batches(corpus, vocab, chars, 3, 8, seed=0)
        seen = [{bytes(row) for row in b.uniq_char_ids[1:]} for b in batches]
        assert any(a & b for i, a in enumerate(seen) for b in seen[i + 1:])

    @pytest.mark.parametrize("batch_size", [1, 3, 32])
    def test_batches_of_a_call_share_its_type_table(self, batch_size):
        corpus, vocab, chars = _random_corpus(1, 8)
        batches = cp.lm_batches(corpus, vocab, chars, batch_size, 8, seed=1)
        table = batches[0].type_char_ids
        assert all(b.type_char_ids is table for b in batches)
        for b in batches:
            assert np.array_equal(table[b.type_ids], b.uniq_char_ids[b.word_index])
            assert np.array_equal(b.type_ids == 0, b.mask == 0.0)
        held = set().union(*(np.unique(b.type_ids).tolist() for b in batches))
        assert held - {0} == set(range(1, len(table)))
        assert cp.pad_batch([["a"]], word_vocab=vocab).type_char_ids is None

    @pytest.mark.parametrize("max_word_len", [None, 8.0, True, 2, -1])
    def test_char_rows_need_an_integer_max_word_len(self, max_word_len):
        sents = [["a", "b"]]
        with pytest.raises(ContractError, match="max_word_len"):
            cp.pad_batch(sents, char_vocab=cp.build_char_vocab(sents),
                         max_word_len=max_word_len)
        with pytest.raises(ContractError, match="max_word_len"):
            cp.lm_batches(sents, cp.build_vocab(sents), cp.build_char_vocab(sents), 1,
                          max_word_len)


class TestConllFuzz:
    FIELD = st.text(st.characters(blacklist_categories=("Cs",))
                    .filter(lambda c: not c.isspace()), min_size=1, max_size=6)

    @settings(max_examples=200, deadline=None)
    @given(st.text(st.characters(blacklist_categories=("Cs",))))
    def test_arbitrary_text_parses_or_raises_parse_error(self, text):
        try:
            sentences = cp.read_conll(io.StringIO(text))
        except ParseError:
            return
        assert all(len(s) and len(s.tokens) == len(s.tags) for s in sentences)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(st.tuples(FIELD, FIELD), min_size=1, max_size=5),
                    max_size=4))
    def test_write_then_read_round_trips(self, rows):
        sentences = [cp.LabeledSequence([t for t, _ in s], [g for _, g in s])
                     for s in rows]
        assert cp.read_conll(io.StringIO(cp.write_conll(sentences))) == sentences

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.text(st.characters(blacklist_categories=("Cs",)),
                                      min_size=1, max_size=6),
                              st.text(st.characters(blacklist_categories=("Cs",)),
                                      max_size=6)), min_size=1, max_size=5))
    def test_write_refuses_or_round_trips(self, rows):
        sentence = cp.LabeledSequence([t for t, _ in rows], [g for _, g in rows])
        try:
            text = cp.write_conll([sentence])
        except ContractError:
            return
        assert cp.read_conll(io.StringIO(text)) == [sentence]


class TestWriteConll:
    OLD = [cp.LabeledSequence(["Jakarta"], ["B-LOC"])]
    NEW = [cp.LabeledSequence(["di", "Bandung"], ["O", "B-LOC"])] * 40

    @pytest.mark.parametrize("tokens, tags, bad", [
        (["New York"], ["B-LOC"], "New York"),
        (["Jakarta"], ["B-\tLOC"], "B-\tLOC"),
        (["a\u00a0b"], ["O"], "a\u00a0b"),
        (["x", "y\n"], ["O", "O"], "y\n"),
        (["x"], [""], ""),
    ])
    def test_refuses_what_cannot_round_trip(self, tmp_path, tokens, tags, bad):
        """A field that is empty or holds whitespace would read back as
        another sentence: the error names the sentence and the field, and
        nothing is written."""
        sentences = self.NEW[:1] + [cp.LabeledSequence(tokens, tags)]
        path = tmp_path / "out.conll"
        cp.write_conll(self.OLD, path)
        buf = io.StringIO()
        for dest in (None, buf, path):
            with pytest.raises(ContractError, match=f"sentence 1: {re.escape(repr(bad))}"):
                cp.write_conll(sentences, dest)
        assert buf.getvalue() == ""
        assert cp.read_conll(path) == self.OLD

    def test_failed_write_keeps_previous_file(self, tmp_path, disk_full):
        path = tmp_path / "out.conll"
        cp.write_conll(self.OLD, path)
        before = path.read_bytes()
        disk_full(1)
        with pytest.raises(OSError, match="No space left"):
            cp.write_conll(self.NEW, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["out.conll"]


class TestWriteAtomic:
    def test_a_failing_chunk_keeps_previous_file(self, tmp_path):
        path = tmp_path / "f.bin"
        cp.write_atomic(path, [b"old"])

        def chunks():
            yield b"new bytes"
            raise OSError(28, "No space left on device")

        with pytest.raises(OSError, match="No space left"):
            cp.write_atomic(path, chunks())
        assert path.read_bytes() == b"old"
        assert [p.name for p in tmp_path.iterdir()] == ["f.bin"]
