import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqxfer.checkpoint import MAGIC, Checkpoint
from seqxfer.corpus import build_char_vocab, build_vocab
from seqxfer.errors import DataError

from conftest import tiny_bilm_config


def _sample(seed=0):
    rng = np.random.default_rng(seed)
    tensors = {
        "b.weights": rng.normal(size=(3, 4)),
        "a.bias": rng.normal(size=5),
        "c.scalarish": rng.normal(size=(1,)),
    }
    return Checkpoint.create(
        "bilm", {"kind": "bilm", "n_words": 7}, tensors,
        word_vocab=build_vocab([["uno", "dos"]]),
        char_vocab=build_char_vocab([["unodos"]]),
        provenance=[{"event": "pretrain", "seed": 0}],
        metrics={"train_loss": [2.0, 1.5]})


class TestRoundTrip:
    def test_tensors_bit_exact(self, tmp_path):
        ck = _sample()
        path = tmp_path / "m.ckpt"
        ck.save(path)
        back = Checkpoint.load(path)
        assert sorted(back.tensors) == sorted(ck.tensors)
        for name, arr in ck.tensors.items():
            assert np.array_equal(back.tensors[name], arr)
            assert back.tensors[name].dtype == np.float64

    def test_manifest_and_vocabs_survive(self, tmp_path):
        ck = _sample()
        path = tmp_path / "m.ckpt"
        ck.save(path)
        back = Checkpoint.load(path)
        assert back.manifest == ck.manifest
        assert back.word_vocab == ck.word_vocab
        assert back.char_vocab == ck.char_vocab

    def test_save_load_save_byte_identical(self, tmp_path):
        ck = _sample()
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        ck.save(p1)
        Checkpoint.load(p1).save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_manifest_is_human_readable_json(self, tmp_path):
        ck = _sample()
        path = tmp_path / "m.ckpt"
        ck.save(path)
        raw = path.read_bytes()
        assert raw.startswith(MAGIC)
        rest = raw[len(MAGIC):]
        length, _, tail = rest.partition(b"\n")
        doc = json.loads(tail[:int(length)].decode("utf-8"))
        assert doc["kind"] == "bilm"
        assert [e["name"] for e in doc["tensor_index"]] == \
            sorted(ck.tensors)  # deterministic order


class TestValidation:
    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "junk"
        path.write_bytes(b"NOTCKPT\n123")
        with pytest.raises(DataError, match="not a seqxfer checkpoint"):
            Checkpoint.load(path)

    def test_truncated_payload_rejected(self, tmp_path):
        ck = _sample()
        path = tmp_path / "m.ckpt"
        ck.save(path)
        raw = path.read_bytes()
        (tmp_path / "cut.ckpt").write_bytes(raw[:-16])
        with pytest.raises(DataError):
            Checkpoint.load(tmp_path / "cut.ckpt")

    def test_trailing_bytes_rejected(self, tmp_path):
        ck = _sample()
        path = tmp_path / "m.ckpt"
        ck.save(path)
        (tmp_path / "fat.ckpt").write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(DataError, match="trailing"):
            Checkpoint.load(tmp_path / "fat.ckpt")


def _with_header(length_line, manifest):
    return MAGIC + length_line + b"\n" + manifest


class TestMalformedHeader:
    def test_non_integer_length_line(self, tmp_path):
        path = tmp_path / "m.ckpt"
        path.write_bytes(_with_header(b"twelve", b"{}"))
        with pytest.raises(DataError, match="m.ckpt: bad manifest length"):
            Checkpoint.load(path)

    def test_length_past_end_of_file(self, tmp_path):
        path = tmp_path / "m.ckpt"
        path.write_bytes(_with_header(b"4096", b"{}"))
        with pytest.raises(DataError, match="m.ckpt: manifest length 4096"):
            Checkpoint.load(path)

    def test_truncated_manifest_json(self, tmp_path):
        path = tmp_path / "m.ckpt"
        body = b'{"tensor_index": ['
        path.write_bytes(_with_header(str(len(body)).encode(), body))
        with pytest.raises(DataError, match="m.ckpt: manifest is not UTF-8 JSON"):
            Checkpoint.load(path)

    def test_non_utf8_manifest(self, tmp_path):
        path = tmp_path / "m.ckpt"
        body = b'{"kind": "\xff\xfe"}'
        path.write_bytes(_with_header(str(len(body)).encode(), body))
        with pytest.raises(DataError, match="m.ckpt: manifest is not UTF-8 JSON"):
            Checkpoint.load(path)

    def test_missing_tensor_index(self, tmp_path):
        path = tmp_path / "m.ckpt"
        body = b'{"kind": "bilm"}'
        path.write_bytes(_with_header(str(len(body)).encode(), body))
        with pytest.raises(DataError, match="m.ckpt: manifest has no tensor_index"):
            Checkpoint.load(path)

    def test_malformed_tensor_index_entry(self, tmp_path):
        path = tmp_path / "m.ckpt"
        body = b'{"tensor_index": [{"name": "w", "shape": [-2]}]}'
        path.write_bytes(_with_header(str(len(body)).encode(), body))
        with pytest.raises(DataError, match="m.ckpt: malformed tensor_index"):
            Checkpoint.load(path)

    def test_tensor_named_twice(self, tmp_path):
        """Both entries' bytes are in the payload, so only the index can
        show that the first one would be dropped."""
        path = tmp_path / "m.ckpt"
        body = (b'{"tensor_index": [{"name": "a", "shape": [3]}, '
                b'{"name": "a", "shape": [2]}]}')
        path.write_bytes(_with_header(str(len(body)).encode(), body)
                         + np.ones(5, dtype="<f8").tobytes())
        with pytest.raises(DataError, match="m.ckpt: tensor_index names tensor 'a' twice"):
            Checkpoint.load(path)

    def test_huge_declared_shape(self, tmp_path):
        path = tmp_path / "m.ckpt"
        body = b'{"tensor_index": [{"name": "w", "shape": [4611686018427387904, 4]}]}'
        path.write_bytes(_with_header(str(len(body)).encode(), body) + b"\0" * 8)
        with pytest.raises(DataError, match="m.ckpt: tensor 'w'.*exceeds payload"):
            Checkpoint.load(path)

    def test_malformed_vocabulary(self, tmp_path):
        path = tmp_path / "m.ckpt"
        body = b'{"tensor_index": [], "word_vocab": {"symbols": ["a"]}}'
        path.write_bytes(_with_header(str(len(body)).encode(), body))
        with pytest.raises(DataError, match="m.ckpt: malformed vocabulary"):
            Checkpoint.load(path)


class TestAtomicSave:
    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch, disk_full):
        path = tmp_path / "m.ckpt"
        _sample(0).save(path)
        before = path.read_bytes()
        disk_full(4)
        with pytest.raises(OSError, match="No space left"):
            _sample(1).save(path)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.ckpt"]

    def test_overwrite_replaces_whole_file(self, tmp_path):
        path = tmp_path / "m.ckpt"
        _sample(0).save(path)
        _sample(1).save(path)
        back = Checkpoint.load(path)
        assert back.digest() == _sample(1).digest()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.ckpt"]


class TestDigest:
    def test_ignores_timestamp(self, tmp_path):
        ck = _sample()
        other = _sample()
        other.manifest["created_at"] = "1999-01-01T00:00:00Z"
        assert ck.digest() == other.digest()

    def test_sensitive_to_tensor_bits(self):
        ck, other = _sample(), _sample()
        other.tensors["a.bias"] = other.tensors["a.bias"].copy()
        other.tensors["a.bias"][0] = np.nextafter(other.tensors["a.bias"][0], 1e9)
        assert ck.digest() != other.digest()


@pytest.fixture(scope="module")
def real_ckpt(tmp_path_factory):
    """A freshly initialised tiny BiLM checkpoint: (bytes, scratch dir)."""
    from seqxfer import bilm
    sents = [["red", "fox"], ["blue", "owl", "sat"]]
    vocab, chars = build_vocab(sents), build_char_vocab(sents)
    config = tiny_bilm_config()
    params = bilm.init_bilm_params(config, len(chars), len(vocab), seed=0)
    ck = Checkpoint.create(
        "bilm", bilm.architecture(config, len(chars), len(vocab)),
        bilm.tensors_from_params(params), word_vocab=vocab, char_vocab=chars,
        provenance=[{"event": "pretrain", "epochs": 0, "seed": 0}])
    tmp_dir = tmp_path_factory.mktemp("fuzz")
    ck.save(tmp_dir / "real.ckpt")
    return (tmp_dir / "real.ckpt").read_bytes(), tmp_dir


def reference_save(ck, path):
    """`Checkpoint.save` as it was before it wrote each tensor's buffer
    straight to the file: the whole payload copied into one bytearray
    first.  The new writer must produce the same bytes."""
    index = []
    payload = bytearray()
    for name in sorted(ck.tensors):
        arr = np.ascontiguousarray(ck.tensors[name], dtype="<f8")
        index.append({"name": name, "shape": list(arr.shape)})
        payload.extend(arr.tobytes())
    doc = dict(ck.manifest)
    doc["tensor_index"] = index
    doc["word_vocab"] = ck.word_vocab.to_dict() if ck.word_vocab else None
    doc["char_vocab"] = ck.char_vocab.to_dict() if ck.char_vocab else None
    blob = json.dumps(doc, ensure_ascii=False, sort_keys=True, indent=2).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC + f"{len(blob)}\n".encode("ascii") + blob + payload)


class TestWriterBytes:
    """The writer streams each tensor's buffer; the bytes stay those of the
    writer that built the whole payload first."""

    def _odd_tensors(self):
        rng = np.random.default_rng(3)
        big = rng.normal(size=(4, 6))
        return {"t.transposed": big.T, "t.strided": big[:, ::2],
                "t.float32": rng.normal(size=(2, 3)).astype(np.float32),
                "t.big_endian": rng.normal(size=5).astype(">f8"),
                "t.zero_d": np.array(2.5), "t.empty": np.zeros((3, 0))}

    @pytest.mark.parametrize("extra", [False, True])
    def test_same_bytes_as_the_payload_copying_writer(self, tmp_path, extra):
        ck = _sample(4)
        if extra:
            ck.tensors.update(self._odd_tensors())
        ck.save(tmp_path / "new.ckpt")
        reference_save(ck, tmp_path / "old.ckpt")
        assert (tmp_path / "new.ckpt").read_bytes() == (tmp_path / "old.ckpt").read_bytes()
        back = Checkpoint.load(tmp_path / "new.ckpt")
        for name, arr in ck.tensors.items():
            assert np.array_equal(back.tensors[name].reshape(np.shape(arr)), arr), name
            assert back.tensors[name].flags.writeable, name

    def test_real_checkpoint_bytes(self, real_ckpt, tmp_path):
        ck = Checkpoint.load(real_ckpt[1] / "real.ckpt")
        reference_save(ck, tmp_path / "old.ckpt")
        assert (tmp_path / "old.ckpt").read_bytes() == real_ckpt[0]


class TestCorruptBytesFuzz:
    """Damaged checkpoint bytes either load or raise DataError."""

    def _load(self, real_ckpt, blob):
        path = real_ckpt[1] / "damaged.ckpt"
        path.write_bytes(blob)
        try:
            Checkpoint.load(path)
        except DataError:
            pass

    @settings(max_examples=200, deadline=None)
    @given(cut=st.floats(0.0, 1.0, exclude_max=True))
    def test_truncated(self, real_ckpt, cut):
        blob = real_ckpt[0]
        self._load(real_ckpt, blob[:int(cut * len(blob))])

    @settings(max_examples=300, deadline=None)
    @given(where=st.floats(0.0, 1.0, exclude_max=True),
           in_header=st.booleans(), bit=st.integers(0, 7))
    def test_bit_flipped(self, real_ckpt, where, in_header, bit):
        blob = bytearray(real_ckpt[0])
        # most bytes are tensor payload; aim half the flips at the magic
        # line, the length line and the manifest
        manifest_at = blob.index(b"\n", len(MAGIC)) + 1
        span = (manifest_at + int(blob[len(MAGIC):manifest_at]) if in_header
                else len(blob))
        blob[int(where * span)] ^= 1 << bit
        self._load(real_ckpt, bytes(blob))
