import numpy as np
import pytest

from seqxfer import tagger as tg
from seqxfer import transfer as xf
from seqxfer.corpus import build_vocab
from seqxfer.errors import ContractError, TransferError

from conftest import tiny_tagger_config, toy_ner_corpus


def _trained_source(head="crf", hidden=16, corpus=None, labels=None, seed=0):
    corpus = corpus or toy_ner_corpus(10)
    labels = labels or tg.LabelSet.from_sequences(corpus, bio=(head == "crf"))
    cfg = tiny_tagger_config(head=head, hidden=hidden)
    model, _ = tg.train_tagger(corpus, labels, cfg, epochs=2, batch_size=4,
                               seed=seed)
    return model, cfg, labels


def _tagger_arch(cfg, n_words, labels):
    return tg.tagger_architecture(cfg, n_words, len(labels), 0, labels)


class TestLabelMapping:
    def test_shared_dropped_new(self):
        src = tg.LabelSet(["O", "B-PER", "I-PER", "B-MISC"])
        tgt = tg.LabelSet(["O", "B-PER", "I-PER", "B-LOC"])
        m = xf.map_label_space(src, tgt)
        assert m.pairs == {"O": "O", "B-PER": "B-PER", "I-PER": "I-PER"}
        assert m.dropped == ["B-MISC"]
        assert m.new == ["B-LOC"]

    def test_identical_spaces(self):
        ls = tg.LabelSet(["O", "B-PER"])
        m = xf.map_label_space(ls, ls)
        assert not m.dropped and not m.new and len(m.pairs) == 2


class TestCharVocab:
    def test_shared_union_sorted(self):
        v = xf.build_shared_char_vocab([[["ab"]], [["bc"]]])
        assert v.non_reserved() == ["a", "b", "c"]

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            xf.build_shared_char_vocab([])


class TestTransferInit:
    def test_all_copy_is_bit_exact(self):
        model, cfg, labels = _trained_source()
        src = model.to_checkpoint()
        arch = _tagger_arch(cfg, len(model.word_vocab), labels)
        policy = xf.TransferPolicy({"word_embedding": "copy", "trunk": "copy",
                                    "emission": "copy", "crf": "copy"})
        tensors, report = xf.transfer_init(src, arch, policy, seed=1)
        for name, arr in tensors.items():
            assert np.array_equal(arr, src.tensors[name]), name
        assert not report.reinitialized and not report.skipped

    def test_every_target_parameter_traced_once(self):
        model, cfg, labels = _trained_source()
        src = model.to_checkpoint()
        arch = _tagger_arch(cfg, len(model.word_vocab), labels)
        policy = xf.TransferPolicy(
            {"word_embedding": "skip", "trunk": "copy",
             "emission": "reinitialize", "crf": "reinitialize"})
        tensors, report = xf.transfer_init(src, arch, policy, seed=1)
        traced = [n for n, _, note in
                  report.copied + report.reinitialized + report.skipped
                  if note != "source only"]
        assert sorted(traced) == sorted(tensors)
        assert len(traced) == len(set(traced))

    def test_uncovered_group_rejected(self):
        model, cfg, labels = _trained_source()
        src = model.to_checkpoint()
        arch = _tagger_arch(cfg, len(model.word_vocab), labels)
        with pytest.raises(ContractError, match="crf"):
            xf.transfer_init(src, arch,
                             xf.TransferPolicy({"word_embedding": "copy",
                                                "trunk": "copy",
                                                "emission": "copy"}), seed=0)

    def test_shape_mismatch_raises_never_truncates(self):
        model, cfg, labels = _trained_source(hidden=16)
        src = model.to_checkpoint()
        big = tiny_tagger_config(hidden=24)
        arch = _tagger_arch(big, len(model.word_vocab), labels)
        policy = xf.TransferPolicy({"word_embedding": "copy", "trunk": "copy",
                                    "emission": "copy", "crf": "copy"})
        with pytest.raises(TransferError, match="shape mismatch"):
            xf.transfer_init(src, arch, policy, seed=0)

    def test_pos_to_ner_trunk_reuse(self):
        pos_corpus = toy_ner_corpus(10)
        pos_labels = tg.LabelSet(["NOUN", "VERB", "ADP", "ADV"], bio=False)
        relabel = {"B-PER": "NOUN", "B-LOC": "NOUN", "O": "VERB"}
        from seqxfer.corpus import LabeledSequence
        pos_corpus = [LabeledSequence(s.tokens, [relabel[t] for t in s.tags])
                      for s in pos_corpus]
        model, cfg, _ = _trained_source(head="softmax", corpus=pos_corpus,
                                        labels=pos_labels)
        src = model.to_checkpoint()

        ner_labels = tg.LabelSet(["O", "B-PER", "I-PER", "B-LOC"])
        ner_cfg = tiny_tagger_config(head="crf")
        arch = _tagger_arch(ner_cfg, len(model.word_vocab), ner_labels)
        policy = xf.TransferPolicy(
            {"word_embedding": "copy", "trunk": "copy",
             "emission": "reinitialize", "crf": "reinitialize"})
        tensors, report = xf.transfer_init(src, arch, policy, seed=3)
        for name in tensors:
            if name.startswith("tagger.l") or name == "tagger.word_emb":
                assert np.array_equal(tensors[name], src.tensors[name])
        reinit = {n for n, _, _ in report.reinitialized}
        assert {"tagger.emission.W", "tagger.emission.b",
                "tagger.crf.trans"} <= reinit
        # the source softmax head is reported as unused
        assert any(note == "source only"
                   for _, _, note in report.skipped)

    def test_label_mapped_emission_copy(self):
        corpus = toy_ner_corpus(10)
        src_labels = tg.LabelSet.from_sequences(corpus)  # O, B-LOC, B-PER
        model, cfg, _ = _trained_source(corpus=corpus, labels=src_labels)
        src = model.to_checkpoint()

        tgt_labels = tg.LabelSet(["O", "B-PER", "I-PER"])
        arch = _tagger_arch(cfg, len(model.word_vocab), tgt_labels)
        mapping = xf.map_label_space(src_labels, tgt_labels)
        policy = xf.TransferPolicy(
            {"word_embedding": "copy", "trunk": "copy",
             "emission": "copy", "crf": "copy"},
            label_mapping=mapping)
        tensors, report = xf.transfer_init(src, arch, policy, seed=5)

        W_src, W_tgt = src.tensors["tagger.emission.W"], tensors["tagger.emission.W"]
        for lab in ("O", "B-PER"):
            assert np.array_equal(W_tgt[:, tgt_labels.id(lab)],
                                  W_src[:, src_labels.id(lab)])
        # unmapped target label keeps the fresh init, i.e. differs from any copy
        tr_src, tr_tgt = src.tensors["tagger.crf.trans"], tensors["tagger.crf.trans"]
        so, to = src_labels.id("O"), tgt_labels.id("O")
        assert tr_tgt[to, to] == tr_src[so, so]
        ms, mt = len(src_labels), len(tgt_labels)
        assert tr_tgt[mt, to] == tr_src[ms, so]  # START row follows the labels
        notes = {note for _, _, note in report.copied}
        assert "mapped labels only" in notes

    def test_report_text_is_complete(self):
        model, cfg, labels = _trained_source()
        src = model.to_checkpoint()
        arch = _tagger_arch(cfg, len(model.word_vocab), labels)
        policy = xf.TransferPolicy(
            {"word_embedding": "skip", "trunk": "copy",
             "emission": "copy", "crf": "copy"})
        tensors, report = xf.transfer_init(src, arch, policy, seed=0)
        text = report.to_text()
        for name in tensors:
            assert name in text

    def test_seeded_reinit_is_deterministic(self):
        model, cfg, labels = _trained_source()
        src = model.to_checkpoint()
        arch = _tagger_arch(cfg, len(model.word_vocab), labels)
        policy = xf.TransferPolicy(
            {"word_embedding": "reinitialize", "trunk": "copy",
             "emission": "reinitialize", "crf": "reinitialize"})
        t1, _ = xf.transfer_init(src, arch, policy, seed=9)
        t2, _ = xf.transfer_init(src, arch, policy, seed=9)
        for name in t1:
            assert np.array_equal(t1[name], t2[name])
