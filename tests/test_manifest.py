"""A checkpoint's manifest is read before anything else in it, so no value
there may drive unbounded work or raise anything but the named errors:
DataError (malformed), TransferError (wrong kind) or ContractError."""

import json
import math

import pytest

from seqxfer import bilm
from seqxfer import tagger as tg
from seqxfer.checkpoint import MAGIC, Checkpoint
from seqxfer.corpus import build_char_vocab, build_vocab
from seqxfer.errors import ContractError, DataError, TransferError

from conftest import tiny_bilm_config, tiny_tagger_config, toy_ner_corpus

CORPUS = toy_ner_corpus(4)
TOKENS = [s.tokens for s in CORPUS]
NAMED = (DataError, TransferError, ContractError)


def _bilm_checkpoint():
    config, words, chars = tiny_bilm_config(), build_vocab(TOKENS), build_char_vocab(TOKENS)
    params = bilm.init_bilm_params(config, len(chars), len(words), 0)
    return Checkpoint.create("bilm", bilm.architecture(config, len(chars), len(words)),
                             bilm.tensors_from_params(params), word_vocab=words,
                             char_vocab=chars, provenance=[{"event": "pretrain"}],
                             metrics={"train_loss": [1.5]})


def _tagger_checkpoint():
    provider = tg.ContextualProvider.from_checkpoint(_bilm_checkpoint())
    model = tg.TaggerModel.init(tiny_tagger_config(), build_vocab(TOKENS),
                                tg.LabelSet.from_sequences(CORPUS), 0, provider)
    return model.to_checkpoint(provenance=[{"event": "train"}], metrics={"epochs_run": 1})


MAKERS = {"bilm": _bilm_checkpoint, "tagger": _tagger_checkpoint}


def _read_all(ck):
    """Every reader of a loaded checkpoint, each left to return or raise."""
    yield lambda: bilm.read_bilm(ck)
    yield lambda: tg.read_tagger(ck)
    yield lambda: tg.TaggerModel.from_checkpoint(ck)
    yield lambda: tg.ContextualProvider.from_checkpoint(ck)
    yield lambda: bilm.replace_vocab_head(ck, build_vocab([["uno", "dos"]]), 0)


class TestLayerCountsBoundedByTensors:
    """A declared layer count builds parameter-table rows only until the
    first one without a tensor: at most one more row than there are tensors,
    whatever the count."""

    EDITS = [("bilm", ("config", "lm_layers")),
             ("bilm", ("config", "encoder", "highway_layers")),
             ("tagger", ("config", "layers")),
             ("tagger", ("provider", "lm_layers")),
             ("tagger", ("provider", "encoder", "highway_layers"))]

    @pytest.mark.parametrize("count", [10 ** 6, 2 ** 40])
    @pytest.mark.parametrize("kind, keys", EDITS, ids=[f"{k}-{'.'.join(p)}" for k, p in EDITS])
    def test_huge_count_is_a_data_error(self, monkeypatch, kind, keys, count):
        ck = MAKERS[kind]()
        where = ck.architecture
        for key in keys[:-1]:
            where = where[key]
        where[keys[-1]] = count
        rows, check = [], Checkpoint.check_tensors

        def counted(self, table):
            assert iter(table) is table   # lazy: the rows it yields are the rows built

            def each():
                for row in table:
                    rows.append(row[0])
                    yield row
            return check(self, each())
        monkeypatch.setattr(Checkpoint, "check_tensors", counted)
        read = bilm.read_bilm if kind == "bilm" else tg.read_tagger
        with pytest.raises(DataError, match="no tensor"):
            read(ck)
        assert 0 < len(rows) <= len(ck.tensors) + 1


NASTY = [None, -1, 0, 1000, 1.5, "x", [], {}, True, math.nan]


def _nodes(doc, path=()):
    """The path of every value below the root: each dict entry, and each
    list as a whole and each of its entries."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) \
        if isinstance(doc, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _nodes(value, path + (key,))


def _replaced(doc, path, value):
    doc = json.loads(json.dumps(doc))
    where = doc
    for key in path[:-1]:
        where = where[key]
    where[path[-1]] = value
    return doc


@pytest.mark.parametrize("kind", list(MAKERS))
def test_every_manifest_value_reads_or_names_its_error(tmp_path, kind):
    """Each value of a tiny manifest, in turn, is swapped for each of NASTY;
    every reader then returns or raises a named error."""
    good = tmp_path / "good.ckpt"
    MAKERS[kind]().save(good)
    with open(good, "rb") as fh:
        fh.read(len(MAGIC))
        length = int(fh.readline())
        doc = json.loads(fh.read(length))
        payload = fh.read()
    path, failures, cases = tmp_path / "bad.ckpt", [], 0
    for where in _nodes(doc):
        for value in NASTY:
            blob = json.dumps(_replaced(doc, where, value)).encode("utf-8")
            path.write_bytes(MAGIC + f"{len(blob)}\n".encode("ascii") + blob + payload)
            cases += 1
            try:
                readers = list(_read_all(Checkpoint.load(path)))
            except NAMED:
                continue
            for read in readers:
                try:
                    read()
                except NAMED:
                    pass
                except Exception as exc:  # noqa: BLE001 - the failure is the report
                    failures.append(f"{'.'.join(map(str, where))} = {value!r}: {exc!r:.120}")
    assert cases > 1000
    assert not failures, "\n".join(failures[:20])
