"""On-disk checkpoint container.

Layout: a magic line, the byte length of a human-readable JSON manifest,
the manifest itself, then every named tensor as little-endian float64 in
manifest index order.  Loading validates each declared shape against the
payload; save -> load -> save is byte-identical.
"""

import hashlib
import json
import math
import os
import time
from dataclasses import dataclass

import numpy as np

from .corpus import Vocabulary, write_atomic
from .errors import DataError, TransferError

MAGIC = b"SEQXFER1\n"
FORMAT_VERSION = 1


@dataclass
class Checkpoint:
    manifest: dict
    tensors: dict
    word_vocab: Vocabulary = None
    char_vocab: Vocabulary = None
    # what error messages call this checkpoint; `load` sets its path
    source = "checkpoint"

    @classmethod
    def create(cls, kind, architecture, tensors, word_vocab=None, char_vocab=None,
               provenance=None, metrics=None):
        manifest = {
            "format_version": FORMAT_VERSION,
            "kind": kind,
            "created_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "architecture": architecture,
            "provenance": provenance or [],
            "metrics": metrics or {},
        }
        return cls(manifest, dict(tensors), word_vocab, char_vocab)

    @property
    def architecture(self):
        arch = self.manifest.get("architecture")
        if not isinstance(arch, dict) or "kind" not in arch:
            raise DataError(f"{self.source}: manifest has no architecture "
                            "object with a kind")
        return arch

    def read_architecture(self, kind, read):
        """What `read(architecture)` returns beside the parameter table it
        declares, once `check_tensors` holds for that table.  A checkpoint of
        another kind is a TransferError; a missing key or a value of the
        wrong type in the architecture is a DataError naming this checkpoint."""
        arch = self.architecture
        if arch["kind"] != kind:
            raise TransferError(f"{self.source} is not a {kind} checkpoint")
        try:
            value, table = read(arch)
            self.check_tensors(table)
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"{self.source}: malformed architecture: {exc!r}") from None
        return value

    def check_tensors(self, table):
        """DataError naming the first row of the lazy parameter table `table`
        whose tensor is missing or shaped otherwise, and building no row after it."""
        for name, shape, _ in table:
            if name not in self.tensors:
                raise DataError(f"{self.source}: no tensor {name!r} "
                                f"(architecture expects shape {shape})")
            got = self.tensors[name].shape
            if got != shape:
                raise DataError(f"{self.source}: tensor {name!r} has shape {got}; "
                                f"architecture expects {shape}")

    def save(self, path):
        names = sorted(self.tensors)
        arrays = [np.ascontiguousarray(self.tensors[name], dtype="<f8") for name in names]
        doc = dict(self.manifest)
        doc["tensor_index"] = [{"name": name, "shape": list(arr.shape)}
                               for name, arr in zip(names, arrays)]
        doc["word_vocab"] = self.word_vocab.to_dict() if self.word_vocab else None
        doc["char_vocab"] = self.char_vocab.to_dict() if self.char_vocab else None
        text = json.dumps(doc, ensure_ascii=False, sort_keys=True, indent=2)
        blob = text.encode("utf-8")
        write_atomic(path, [MAGIC, f"{len(blob)}\n".encode("ascii"), blob,
                            *(arr.data for arr in arrays)])   # buffers, uncopied

    @classmethod
    def load(cls, path):
        with open(path, "rb") as fh:
            if fh.read(len(MAGIC)) != MAGIC:
                raise DataError(f"{path}: not a seqxfer checkpoint")
            doc = _read_manifest(fh, path)
            payload = fh.read()
        tensors = {}
        offset = 0
        for entry in doc["tensor_index"]:
            shape = tuple(entry["shape"])
            count = math.prod(shape)
            if offset + 8 * count > len(payload):
                raise DataError(
                    f"{path}: tensor {entry['name']!r} declared shape {shape} "
                    "exceeds payload")
            arr = np.frombuffer(payload, dtype="<f8", count=count, offset=offset)
            tensors[entry["name"]] = arr.reshape(shape).copy()
            offset += 8 * count
        if offset != len(payload):
            raise DataError(f"{path}: {len(payload) - offset} trailing payload bytes")
        try:
            word_vocab = Vocabulary.from_dict(doc["word_vocab"]) if doc.get("word_vocab") else None
            char_vocab = Vocabulary.from_dict(doc["char_vocab"]) if doc.get("char_vocab") else None
        except (KeyError, TypeError) as exc:
            raise DataError(f"{path}: malformed vocabulary: {exc!r}") from None
        manifest = {k: v for k, v in doc.items()
                    if k not in ("tensor_index", "word_vocab", "char_vocab")}
        ck = cls(manifest, tensors, word_vocab, char_vocab)
        ck.source = os.fspath(path)
        return ck

    def digest(self):
        """Content hash, manifest timestamp excluded."""
        doc = dict(self.manifest)
        doc.pop("created_at", None)
        h = hashlib.sha256(json.dumps(doc, sort_keys=True).encode("utf-8"))
        if self.word_vocab:
            h.update(json.dumps(self.word_vocab.to_dict()).encode("utf-8"))
        if self.char_vocab:
            h.update(json.dumps(self.char_vocab.to_dict()).encode("utf-8"))
        for name in sorted(self.tensors):
            h.update(name.encode("utf-8"))
            h.update(np.ascontiguousarray(self.tensors[name], dtype="<f8").tobytes())
        return h.hexdigest()


def _read_manifest(fh, path):
    """The JSON manifest after the magic line, checked far enough that walking
    its tensor index cannot fail with anything but DataError, and that its
    provenance ([] if absent) is a list of objects and metrics ({}) an object."""
    line = fh.readline()
    try:
        length = int(line)
    except ValueError:
        raise DataError(f"{path}: bad manifest length line {line[:32]!r}") from None
    remaining = os.fstat(fh.fileno()).st_size - fh.tell()
    if not 0 <= length <= remaining:
        raise DataError(f"{path}: manifest length {length} does not fit the "
                        f"{remaining} bytes that follow")
    try:
        doc = json.loads(fh.read(length).decode("utf-8"))
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise DataError(f"{path}: manifest is not UTF-8 JSON: {exc}") from None
    index = doc.get("tensor_index") if isinstance(doc, dict) else None
    if not isinstance(index, list):
        raise DataError(f"{path}: manifest has no tensor_index list")
    names = set()
    for entry in index:
        if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)
                and isinstance(entry.get("shape"), list)
                and all(type(n) is int and n >= 0 for n in entry["shape"])):
            raise DataError(f"{path}: malformed tensor_index entry {entry!r:.80}")
        if entry["name"] in names:
            raise DataError(f"{path}: tensor_index names tensor {entry['name']!r} twice")
        names.add(entry["name"])
    provenance, metrics = doc.setdefault("provenance", []), doc.setdefault("metrics", {})
    if not (isinstance(provenance, list) and all(isinstance(e, dict) for e in provenance)):
        raise DataError(f"{path}: manifest provenance is not a list of objects")
    if not isinstance(metrics, dict):
        raise DataError(f"{path}: manifest metrics is not an object")
    return doc
