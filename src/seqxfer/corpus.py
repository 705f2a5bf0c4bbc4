"""Corpus ingestion and conversion.

CoNLL column files, contiguous-entity -> BIO conversion, BIO <-> span
extraction (with an optional repair mode), vocabulary construction,
pre-trained word-vector loading and the padded batches of the LM and
the tagger.
"""

import contextlib
import io
import os
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .autodiff import seeded_init
from .errors import ContractError, DataError, ParseError

PAD, UNK = 0, 1
# char vocabularies reserve word-boundary markers
BOW, EOW = 2, 3
# word vocabularies reserve sentence-boundary targets for the LM
BOS, EOS = 2, 3

WORD_RESERVED = ("<pad>", "<unk>", "<bos>", "<eos>")
CHAR_RESERVED = ("<pad>", "<unk>", "<bow>", "<eow>")


@dataclass
class LabeledSequence:
    tokens: list
    tags: list

    def __post_init__(self):
        if len(self.tokens) != len(self.tags):
            raise ContractError(
                f"{len(self.tokens)} tokens but {len(self.tags)} tags")
        if any(t == "" for t in self.tokens):
            raise ContractError("empty token string")

    def __len__(self):
        return len(self.tokens)


@dataclass(frozen=True)
class EntitySpan:
    """Typed span over token indices, half-open [start, end)."""
    type: str
    start: int
    end: int

    def __post_init__(self):
        if not (0 <= self.start < self.end):
            raise ContractError(f"bad span bounds [{self.start}, {self.end})")


class Vocabulary:
    """Bidirectional symbol <-> id map with reserved leading entries.

    Unknown symbols look up to the UNK id; reserved symbols occupy
    ids 0..len(reserved)-1.
    """

    def __init__(self, symbols, reserved=WORD_RESERVED):
        self.reserved = tuple(reserved)
        seen = set(self.reserved)
        self.symbols = list(self.reserved)
        for s in symbols:
            if s not in seen:
                seen.add(s)
                self.symbols.append(s)
        self._index = {s: i for i, s in enumerate(self.symbols)}

    def id(self, symbol):
        return self._index.get(symbol, UNK)

    def symbol(self, idx):
        return self.symbols[idx]

    def __contains__(self, symbol):
        return symbol in self._index

    def __len__(self):
        return len(self.symbols)

    def non_reserved(self):
        return self.symbols[len(self.reserved):]

    def to_dict(self):
        return {"reserved": list(self.reserved), "symbols": self.non_reserved()}

    @classmethod
    def from_dict(cls, d):
        return cls(d["symbols"], reserved=tuple(d["reserved"]))

    def __eq__(self, other):
        return isinstance(other, Vocabulary) and self.symbols == other.symbols \
            and self.reserved == other.reserved


# CoNLL column format ------------------------------------------------


def read_lines(source):
    """Lines of a UTF-8 text file, a file object or an iterable of lines."""
    if isinstance(source, (str, Path)):
        try:
            with open(source, encoding="utf-8") as fh:
                return fh.read().splitlines()
        except UnicodeDecodeError as exc:
            raise DataError(f"{source}: not UTF-8 text: {exc}") from None
    if isinstance(source, io.IOBase) or hasattr(source, "read"):
        return source.read().splitlines()
    return [line.rstrip("\n") for line in source]


def write_atomic(path, chunks):
    """Write the bytes-like `chunks` to a temporary file beside `path`, then
    rename it over `path`: a failed write leaves the old file and no temp."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _where(source, lineno):
    """'path:N' for a file path source, 'line N' for other sources."""
    return f"{source}:{lineno}" if isinstance(source, (str, Path)) else f"line {lineno}"


def read_conll(source):
    """Parse whitespace-separated 'token tag' lines into LabeledSequences.
    Blank lines delimit sentences; runs of tabs/spaces both split.  A line
    with fewer than two columns raises ParseError located by `_where`."""
    sentences = []
    tokens, tags = [], []
    for lineno, raw in enumerate(read_lines(source), start=1):
        line = raw.strip()
        if not line:
            if tokens:
                sentences.append(LabeledSequence(tokens, tags))
                tokens, tags = [], []
            continue
        cols = line.split()
        if len(cols) < 2:
            raise ParseError(f"{_where(source, lineno)}: expected a token and a tag "
                             f"column, found {len(cols)} column(s)")
        tokens.append(cols[0])
        tags.append(cols[1])
    if tokens:
        sentences.append(LabeledSequence(tokens, tags))
    return sentences


def write_conll(sentences, dest=None):
    """Write 'token tag' lines, one blank line between sentences, to a path
    (by `write_atomic`) or a file object, or return them.  A token or tag
    that is empty or holds whitespace cannot read back: a ContractError."""
    lines = []
    for i, sent in enumerate(sentences):
        for s in (*sent.tokens, *sent.tags):
            if s.split() != [s]:
                raise ContractError(f"sentence {i}: {s!r} is empty or holds whitespace")
        lines += [f"{tok} {tag}\n" for tok, tag in zip(sent.tokens, sent.tags)] + ["\n"]
    text = "".join(lines)
    if dest is None:
        return text
    if isinstance(dest, (str, Path)):
        write_atomic(dest, [text.encode("utf-8")])
    else:
        dest.write(text)


def read_sentences(source):
    """Plain-text LM corpus: one pre-tokenized sentence per line."""
    return [line.split() for line in read_lines(source) if line.strip()]


# BIO conversions ----------------------------------------------------


def contiguous_to_bio(raw_tags):
    """Turn runs of bare entity types into BIO spans.

    Each maximal run of one non-O type becomes B-X I-X...; adjacent runs
    of different types each open with B-.
    """
    out = []
    prev = "O"
    for tag in raw_tags:
        if tag == "O":
            out.append("O")
        elif tag == prev:
            out.append(f"I-{tag}")
        else:
            out.append(f"B-{tag}")
        prev = tag
    return out


def bio_to_spans(tags, repair=False):
    """Extract EntitySpans from BIO tags.

    Strict mode raises DataError on an I-X with no live X entity;
    repair mode reads it as B-X.
    """
    spans = []
    cur_type, cur_start = None, None

    def close(end):
        nonlocal cur_type, cur_start
        if cur_type is not None:
            spans.append(EntitySpan(cur_type, cur_start, end))
            cur_type, cur_start = None, None

    for i, tag in enumerate(tags):
        if tag == "O":
            close(i)
        elif tag.startswith("B-"):
            close(i)
            cur_type, cur_start = tag[2:], i
        elif tag.startswith("I-"):
            etype = tag[2:]
            if cur_type == etype:
                continue
            if not repair:
                raise DataError(f"illegal tag {tag!r} at index {i}")
            close(i)
            cur_type, cur_start = etype, i
        else:
            raise DataError(f"not a BIO tag: {tag!r} at index {i}")
    close(len(tags))
    return spans


def spans_to_bio(spans, length):
    """Inverse of bio_to_spans for non-overlapping spans."""
    tags = ["O"] * length
    for span in spans:
        if span.end > length:
            raise ContractError(f"span {span} exceeds sentence length {length}")
        tags[span.start] = f"B-{span.type}"
        for i in range(span.start + 1, span.end):
            tags[i] = f"I-{span.type}"
    return tags


def validate_bio(sentences):
    """Raise DataError naming the sentence index on any illegal tag run."""
    for i, sent in enumerate(sentences):
        try:
            bio_to_spans(sent.tags, repair=False)
        except DataError as exc:
            raise DataError(f"sentence {i}: {exc}") from exc


# vocabularies -------------------------------------------------------


def build_vocab(token_lists, min_count=1):
    """Frequency-thresholded, codepoint-sorted symbol vocabulary."""
    if min_count < 1:
        raise ContractError("min_count must be >= 1")
    counts = Counter()
    for toks in token_lists:
        counts.update(toks)
    kept = sorted(s for s, c in counts.items() if c >= min_count)
    return Vocabulary(kept)


def build_char_vocab(token_lists):
    chars = set()
    for toks in token_lists:
        for tok in toks:
            chars.update(tok)
    return Vocabulary(sorted(chars), reserved=CHAR_RESERVED)


# pre-trained vectors ------------------------------------------------


def load_word_vectors(source, vocab, dim, seed=0):
    """Read 'word v1 ... v_dim' lines into a [|vocab|, dim] matrix.

    Vocab words absent from the file get seeded glorot rows; returns
    (matrix, fraction of non-reserved vocab words found).
    """
    matrix = seeded_init((len(vocab), dim), seed)
    matrix[PAD] = 0.0
    found = set()
    for lineno, raw in enumerate(read_lines(source), start=1):
        if not raw.strip():
            continue
        parts = raw.split()
        word, values = parts[0], parts[1:]
        if len(values) != dim:
            raise ParseError(f"{_where(source, lineno)}: expected {dim} floats, "
                             f"found {len(values)}")
        try:
            vec = np.array([float(v) for v in values], dtype=np.float64)
        except ValueError as exc:
            raise ParseError(f"{_where(source, lineno)}: {exc}") from exc
        if not np.isfinite(vec).all():
            raise ParseError(f"{_where(source, lineno)}: expected {dim} finite floats")
        if word in vocab:
            matrix[vocab.id(word)] = vec
            found.add(word)
    n = len(vocab.non_reserved())
    coverage = len(found & set(vocab.non_reserved())) / n if n else 0.0
    return matrix, coverage


# padded batches -----------------------------------------------------


@dataclass
class Batch:
    """Sentences padded to one [B, T] grid.

    Word surface forms are deduplicated: uniq_char_ids holds each
    distinct word's padded char-id row once (row 0 is the all-PAD row of
    padded positions), word_index maps [B, T] positions into it.  The
    batches of one `batches` call also share that call's word types:
    type_ids numbers each position's type (0 = padding) and
    type_char_ids, one array shared by reference, holds every type's row.
    """
    uniq_char_ids: np.ndarray   # [U, L] int, or None without a char vocabulary
    word_index: np.ndarray      # [B, T] int, or None without a char vocabulary
    mask: np.ndarray            # [B, T] float, 1 where a real token sits
    type_ids: np.ndarray = None       # [B, T] int, the call's type ids, 0 where padded
    type_char_ids: np.ndarray = None  # [1 + n_types, L] int, or None without chars
    word_ids: np.ndarray = None     # [B, T] int word-vocabulary ids, PAD where padded
    tag_ids: np.ndarray = None      # [B, T] int label ids, 0 where padded
    fwd_targets: np.ndarray = None  # [B, T] int, next-word ids (EOS at end)
    bwd_targets: np.ndarray = None  # [B, T] int, previous-word ids (BOS at front)

    def __len__(self):  # the number of sentences
        return len(self.mask)

    @property
    def n_tokens(self):
        return int(self.mask.sum())

    @property
    def lengths(self):
        return self.mask.sum(axis=1).astype(np.int64)


def prefix_lengths(mask, shape):
    """Row lengths of `mask`, the [B, T] `shape` mask of the LSTM and the
    CRF, once each row is checked to be 1 over a prefix and 0 after it."""
    mask = np.asarray(mask)
    lengths = mask.sum(axis=1).astype(np.int64) if mask.shape == shape else None
    if lengths is None or not (mask == (np.arange(shape[1]) < lengths[:, None])).all():
        raise ContractError(f"a mask must have shape (B, T) = {shape}, each row 1 over a prefix")
    return lengths


def char_id_row(word, char_vocab, max_len):
    """[BOW, chars..., EOW, PAD...] of fixed length; truncates long words."""
    if max_len < 3:
        raise ContractError("max_len must be >= 3")
    ids = [BOW] + [char_vocab.id(c) for c in word[:max_len - 2]] + [EOW]
    ids.extend([PAD] * (max_len - len(ids)))
    return np.array(ids, dtype=np.int64)


def _word_types(token_lists, word_vocab=None, char_vocab=None, max_word_len=None):
    """Map token lists onto their distinct surface forms ("types"), numbered
    from 1 in first-appearance order; type 0 is padding.  Returns one int
    array of type ids per sentence, the types' char-id rows
    [1 + n_types, max_word_len] (row 0 all PAD) when `char_vocab` is given,
    and their word ids [1 + n_types] (PAD first) when `word_vocab` is."""
    index = {}
    types = [np.array([index.setdefault(t, len(index) + 1) for t in sent], dtype=np.int64)
             for sent in token_lists]
    rows = words = None
    if char_vocab is not None:
        if isinstance(max_word_len, bool) or not isinstance(max_word_len, (int, np.integer)) \
                or max_word_len < 3:
            raise ContractError(f"char rows need an integer max_word_len >= 3, "
                                f"got {max_word_len!r}")
        rows = np.array([np.full(max_word_len, PAD)]
                        + [char_id_row(t, char_vocab, max_word_len) for t in index],
                        dtype=np.int64)
    if word_vocab is not None:
        words = np.array([PAD] + [word_vocab.id(t) for t in index], dtype=np.int64)
    return types, rows, words


def _grid_batch(types, rows=None, words=None, tag_ids=None):
    """Pad sentences given as type-id arrays (see `_word_types`) into one
    Batch: the char rows of the batch's distinct types in first-appearance
    order after the all-PAD row 0 when `rows` is given, word ids when
    `words` is, and a tag column from `tag_ids` (one int sequence per
    sentence).  The Batch keeps the type-id grid and `rows` itself."""
    lengths = [len(t) for t in types]
    real = np.arange(max(lengths)) < np.array(lengths)[:, None]
    grid = np.zeros(real.shape, dtype=np.int64)
    grid[real] = np.concatenate(types)
    tags = uniq = word_index = None
    if tag_ids is not None:
        tags = np.zeros(real.shape, dtype=np.int64)
        tags[real] = np.concatenate(tag_ids)
    if rows is not None:
        kinds = np.fromiter(dict.fromkeys([0] + grid[real].tolist()), dtype=np.int64)
        row_of = np.zeros(len(rows), dtype=np.int64)
        row_of[kinds] = np.arange(len(kinds))
        uniq, word_index = rows[kinds], row_of[grid]
    return Batch(uniq, word_index, real.astype(np.float64), grid, rows,
                 word_ids=None if words is None else words[grid], tag_ids=tags)


def batches(token_lists, chunks, word_vocab=None, char_vocab=None, max_word_len=None,
            tag_ids=None):
    """One Batch per chunk (a nonempty sequence of indices into nonempty
    `token_lists`), built by `_grid_batch` from word types that
    `_word_types` maps once for all chunks; `tag_ids` holds one int
    sequence per sentence."""
    if not all(len(c) for c in chunks) \
            or not all(s and not isinstance(s, str) for s in token_lists):
        raise ContractError("an empty batch, or a sentence that is not a nonempty token list")
    types, rows, words = _word_types(token_lists, word_vocab, char_vocab, max_word_len)
    return [_grid_batch([types[i] for i in c], rows, words,
                        None if tag_ids is None else [tag_ids[i] for i in c])
            for c in chunks]


def pad_batch(token_lists, word_vocab=None, char_vocab=None, max_word_len=None,
              tag_ids=None):
    """All of `token_lists` as one Batch (see `batches`)."""
    return batches(token_lists, [range(len(token_lists))], word_vocab, char_vocab,
                   max_word_len, tag_ids)[0]


def chunk_order(order, lengths, max_rows=None, max_tokens=None):
    """Cut the index sequence `order` into consecutive runs of at most
    `max_rows` indices whose padded size, rows x the run's longest
    `lengths[i]`, stays within `max_tokens`.  Every run takes at least one
    index, so a sentence longer than `max_tokens` runs alone."""
    if max_rows is not None and max_rows < 1:
        raise ContractError(f"batch_size must be >= 1, got {max_rows!r}")
    runs, widest = [], 0
    for i in order:
        if runs and len(runs[-1]) != max_rows and (
                max_tokens is None or max(widest, lengths[i]) * (len(runs[-1]) + 1) <= max_tokens):
            runs[-1].append(i)
            widest = max(widest, lengths[i])
        else:
            runs.append([i])
            widest = lengths[i]
    return runs


def lm_batches(corpus, vocab, char_vocab, batch_size, max_word_len, seed=0,
               max_tokens=None):
    """Shuffle, length-bucket and pad sentences into Batches with LM targets,
    cut by `chunk_order` at `batch_size` sentences and `max_tokens` slots."""
    sentences = [s for s in corpus if s]
    rng = np.random.default_rng(seed)
    # stable sort: equal lengths keep their shuffled order
    order = sorted(rng.permutation(len(sentences)).tolist(),
                   key=lambda i: len(sentences[i]))
    chunks = chunk_order(order, [len(s) for s in sentences], batch_size, max_tokens)
    chunks = [chunks[ci] for ci in rng.permutation(len(chunks))]

    out = batches(sentences, chunks, vocab, char_vocab, max_word_len)
    for batch in out:
        ids, real = batch.word_ids, batch.mask == 1.0
        fwd = np.full_like(ids, PAD)
        fwd[:, :-1] = ids[:, 1:]
        fwd[np.arange(len(ids)), batch.lengths - 1] = EOS
        bwd = np.full_like(ids, BOS)
        bwd[:, 1:] = ids[:, :-1]
        bwd[~real] = PAD
        batch.fwd_targets, batch.bwd_targets = fwd, bwd
    return out
