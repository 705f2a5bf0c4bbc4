"""Acceptance gate: ten criteria, one test (one pass/fail line) each.

Each test prints a `PASS criterion N` summary with the measured values;
run with `pytest -v` (test names carry the criterion number) or `-s` to
see the summaries inline.
"""

import itertools
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from seqxfer import autodiff as ad
from seqxfer import bilm, cli
from seqxfer import encoder as enc
from seqxfer import tagger as tg
from seqxfer import transfer as xf
from seqxfer.checkpoint import Checkpoint
from seqxfer.corpus import (LabeledSequence, bio_to_spans, build_char_vocab,
                            build_vocab, char_id_row, contiguous_to_bio,
                            lm_batches, read_conll, write_conll)
from seqxfer.errors import TransferError
from seqxfer.evaluation import (annotation_quality, span_f1, vocab_overlap,
                                word_tag_overlap)

from conftest import (bilingual_benchmark, tiny_bilm_config,
                      tiny_encoder_config, tiny_tagger_config, toy_ner_corpus)

# optional real-data directory for the data-conditional checks (7, 8)
DATA_DIR = Path(os.environ.get("SEQXFER_DATA_DIR", "data"))


def _report(n, detail):
    print(f"PASS criterion {n}: {detail}")


# 1 -------------------------------------------------------------------


def _enumerate_paths(e, tr):
    T, m = e.shape
    start, stop = m, m + 1
    best, best_path, scores = -math.inf, None, []
    for path in itertools.product(range(m), repeat=T):
        s = tr[start, path[0]] + tr[path[-1], stop]
        s += sum(e[t, y] for t, y in enumerate(path))
        s += sum(tr[a, b] for a, b in zip(path, path[1:]))
        scores.append(s)
        if s > best:
            best, best_path = s, list(path)
    mx = max(scores)
    logz = mx + math.log(sum(math.exp(s - mx) for s in scores))
    return logz, best_path


def _padded_batches(instances, size=8):
    """The instances grouped by label count into padded [B, 5, m] batches of
    up to `size` rows; each batch shares its first instance's transitions."""
    by_m = {}
    for e, tr in instances:
        by_m.setdefault(e.shape[1], []).append((e, tr))
    for m, group in sorted(by_m.items()):
        for lo in range(0, len(group), size):
            rows = [e for e, _ in group[lo:lo + size]]
            tr = group[lo][1]
            batch = np.zeros((len(rows), 5, m))
            mask = np.zeros((len(rows), 5))
            for b, e in enumerate(rows):
                batch[b, :len(e)] = e
                mask[b, :len(e)] = 1.0
            yield rows, batch, mask, tr


def test_criterion_01_crf_oracle_equivalence():
    start = time.time()
    rng = np.random.default_rng(0)
    n_instances = 500
    worst = 0.0
    instances = []
    for _ in range(n_instances):
        T = int(rng.integers(1, 6))        # sentence length <= 5
        m = int(rng.integers(2, 5))        # <= 4 labels
        e = rng.normal(size=(T, m)) * 2.0
        tr = rng.normal(size=(m + 2, m + 2)) * 2.0
        instances.append((e, tr))
        logz_ref, path_ref = _enumerate_paths(e, tr)
        worst = max(worst, abs(tg.crf_log_partition(e, tr) - logz_ref))
        assert tg.viterbi_decode(e, tr) == path_ref
    # the same emissions again, packed into padded batches
    worst_batched, n_batches = 0.0, 0
    for rows, batch, mask, tr in _padded_batches(instances):
        logz = tg.crf_log_partition(batch, tr, mask)
        paths = tg.viterbi_decode(batch, tr, mask)
        for b, e in enumerate(rows):
            logz_ref, path_ref = _enumerate_paths(e, tr)
            worst_batched = max(worst_batched, abs(logz[b] - logz_ref))
            assert paths[b] == path_ref
        n_batches += 1
    assert worst < 1e-9 and worst_batched < 1e-9
    elapsed = time.time() - start
    assert elapsed < 10.0
    _report(1, f"{n_instances} instances, max |logZ error| {worst:.2e}, "
               f"{worst_batched:.2e} in {n_batches} padded batches, "
               f"all decodes exact, {elapsed:.1f}s")


# 2 -------------------------------------------------------------------


def test_criterion_02_gradient_suite():
    start = time.time()
    results = {}
    rng = np.random.default_rng(0)

    # highway layer (Eq. 1): the encoder's tail node over one layer
    cvocab = build_char_vocab([["alpha", "beta", "gamma"]])
    cfg1 = tiny_encoder_config(highway_layers=1)
    hw = ad.init_params(enc.char_encoder_table(cfg1, len(cvocab)), 1)
    hw_rows = np.stack([char_id_row(w, cvocab, cfg1.max_word_len)
                        for w in ("gamma", "beta", "alpha")])

    def hw_loss():
        out = enc.encode_char_matrix(hw_rows, hw, cfg1)
        return (out * out).sum()

    results["highway"] = ad.finite_difference_check(hw_loss, hw, max_coords=100)

    # char-CNN encoder
    cfg = tiny_encoder_config()
    ep = ad.init_params(enc.char_encoder_table(cfg, len(cvocab)), 0)
    rows = np.stack([char_id_row(w, cvocab, cfg.max_word_len)
                     for w in ("alpha", "beta")])
    target = rng.normal(size=(2, cfg.d_out))

    def enc_loss():
        diff = enc.encode_char_matrix(rows, ep, cfg) + (-target)
        return (diff * diff).sum()

    results["char_cnn"] = ad.finite_difference_check(enc_loss, ep, max_coords=100)

    # LSTM cell
    D, H = 4, 5
    xs = ad.constant(rng.normal(size=(2, 3, D)))
    lp = {"Wx": ad.parameter("Wx", ad.seeded_init((D, 4 * H), 3)),
          "Wh": ad.parameter("Wh", ad.seeded_init((H, 4 * H), 4)),
          "b": ad.parameter("b", np.zeros(4 * H))}

    def lstm_loss():
        out = bilm.lstm_forward(xs, np.ones((2, 3)), lp["Wx"], lp["Wh"], lp["b"])
        return (out * out).sum()

    results["lstm"] = ad.finite_difference_check(lstm_loss, lp, max_coords=100)

    # BiLM loss (Eq. 2)
    sents = [["red", "fox", "ran"], ["blue", "fox", "sat"]]
    bcfg = tiny_bilm_config()
    vocab = build_vocab(sents)
    cvocab2 = build_char_vocab(sents)
    bp = bilm.init_bilm_params(bcfg, len(cvocab2), len(vocab), 0)
    batch = lm_batches(sents, vocab, cvocab2, 2,
                       bcfg.encoder.max_word_len, seed=0)[0]

    results["bilm_loss"] = ad.finite_difference_check(
        lambda: bilm.bilm_loss(batch, bp, bcfg), bp, max_coords=100)

    # CRF NLL (w.r.t. emissions and transitions)
    e = ad.parameter("e", rng.normal(size=(5, 4)))
    tr = ad.parameter("tr", rng.normal(size=(6, 6)))
    tags = [0, 2, 1, 3, 0]

    def crf_loss():
        return tg.crf_log_partition(e, tr) - tg.crf_sequence_score(e, tr, tags)

    results["crf_nll"] = ad.finite_difference_check(crf_loss,
                                                    {"e": e, "tr": tr},
                                                    max_coords=100)

    for name, err in results.items():
        assert err < 1e-4, f"{name}: {err}"
    elapsed = time.time() - start
    assert elapsed < 60.0
    detail = ", ".join(f"{k} {v:.1e}" for k, v in results.items())
    _report(2, f"max rel errors at eps=1e-5: {detail}; {elapsed:.1f}s")


# 3 -------------------------------------------------------------------


def test_criterion_03_lm_sanity():
    start = time.time()
    corpus = [s.tokens for s in toy_ner_corpus(30)]
    vocab = build_vocab(corpus)
    assert len(vocab) <= 200
    cvocab = build_char_vocab(corpus)
    cfg = tiny_bilm_config()

    # (a) zero-head per-token loss is exactly ln|V|
    params = bilm.init_bilm_params(cfg, len(cvocab), len(vocab), 0)
    params["lm.head.W"].data[:] = 0.0
    params["lm.head.b"].data[:] = 0.0
    batch = lm_batches(corpus, vocab, cvocab, 32,
                       cfg.encoder.max_word_len, seed=0)[0]
    loss0 = float(bilm.bilm_loss(batch, params, cfg).data)
    assert abs(loss0 - math.log(len(vocab))) < 1e-9

    # (b) 100 epochs cut perplexity by more than half
    fresh = bilm.init_bilm_params(cfg, len(cvocab), len(vocab), 0)
    ppl_init = bilm.perplexity(corpus, {n: p for n, p in fresh.items()},
                               cfg, vocab, cvocab)
    ck = bilm.train_lm(corpus, vocab, cvocab, cfg, epochs=100,
                       batch_size=32, seed=0)
    trained = bilm.params_from_tensors(ck.tensors)
    ppl_final = bilm.perplexity(corpus, trained, cfg, vocab, cvocab)
    assert ppl_final < 0.5 * ppl_init
    elapsed = time.time() - start
    assert elapsed < 120.0
    _report(3, f"zero-head loss = ln|V| ({loss0:.9f} vs {math.log(len(vocab)):.9f}); "
               f"perplexity {ppl_init:.1f} -> {ppl_final:.1f}; {elapsed:.1f}s")


# 4 -------------------------------------------------------------------


def test_criterion_04_tagger_overfit():
    start = time.time()
    corpus = toy_ner_corpus(30)
    labels = tg.LabelSet.from_sequences(corpus)
    cfg = tiny_tagger_config(d_word=16, hidden=24, layers=2)
    epochs_used = []
    for seed in (0, 1, 2):
        # the training set is its own dev set: training stops 30 epochs
        # after the first best train F1 and restores that epoch's weights
        model, metrics = tg.train_tagger(
            corpus, labels, cfg, epochs=300, batch_size=8, seed=seed,
            dev=corpus, patience=30)
        f1 = span_f1(corpus, tg.predict(corpus, model)).micro_f1
        assert f1 == 1.0, f"seed {seed}: train F1 {f1}"
        epochs_used.append(metrics["best_epoch"])
    elapsed = time.time() - start
    assert elapsed < 180.0
    _report(4, f"100% train span-F1 for 3/3 seeds "
               f"(epochs {epochs_used}); {elapsed:.1f}s")


# 5 -------------------------------------------------------------------


def test_criterion_05_vocab_head_surgery():
    src_sents = [s.tokens for s in toy_ner_corpus(20)]
    tgt_sents = [["siapa", "pergi", "ke", "kota"], ["dia", "pergi", "lagi"],
                 ["kota", "itu", "jauh"], ["dia", "lihat", "kota"]] * 5
    cvocab = build_char_vocab(src_sents + tgt_sents)
    cfg = tiny_bilm_config()
    src_vocab = build_vocab(src_sents)
    src = bilm.train_lm(src_sents, src_vocab, cvocab, cfg, epochs=5,
                        batch_size=8, seed=0)

    tgt_vocab = build_vocab(tgt_sents)
    surgered = bilm.replace_vocab_head(src, tgt_vocab, seed=1)

    for name, arr in src.tensors.items():
        if name not in bilm.HEAD_PARAMS:
            assert np.array_equal(surgered.tensors[name], arr), name
    assert surgered.tensors["lm.head.W"].shape == (len(tgt_vocab), cfg.d_out)
    assert surgered.tensors["lm.head.b"].shape == (len(tgt_vocab),)

    ppl_before = bilm.perplexity(tgt_sents,
                                 bilm.params_from_tensors(surgered.tensors),
                                 cfg, tgt_vocab, cvocab)
    tuned = bilm.train_lm(tgt_sents, epochs=3, init=surgered, batch_size=8,
                          seed=1, anchor_coeff=0.001)
    ppl_after = bilm.perplexity(tgt_sents,
                                bilm.params_from_tensors(tuned.tensors),
                                cfg, tgt_vocab, cvocab)
    assert ppl_after < ppl_before
    _report(5, f"non-head checksums preserved; head shape "
               f"{surgered.tensors['lm.head.W'].shape}; 3-epoch fine-tune "
               f"perplexity {ppl_before:.1f} -> {ppl_after:.1f}")


# 6 -------------------------------------------------------------------


def test_criterion_06_synthetic_cross_lingual_transfer():
    start = time.time()
    data = bilingual_benchmark()
    char_vocab = xf.build_shared_char_vocab(
        [data["lm_a"], data["lm_b"],
         [s.tokens for s in data["ner_train"] + data["ner_test"]]])
    cfg = tiny_bilm_config()

    # pretrain on language A (500 sentences), vocab-head surgery,
    # fine-tune 3 epochs on language B (200 sentences)
    vocab_a = build_vocab(data["lm_a"])
    ck_a = bilm.train_lm(data["lm_a"], vocab_a, char_vocab, cfg, epochs=30,
                         batch_size=32, seed=0)
    vocab_b = build_vocab(data["lm_b"])
    surgered = bilm.replace_vocab_head(ck_a, vocab_b, seed=0)
    ck_b = bilm.train_lm(data["lm_b"], epochs=3, init=surgered, batch_size=32,
                         seed=0, anchor_coeff=0.001)

    labels = tg.LabelSet.from_sequences(data["ner_train"])
    tcfg = tiny_tagger_config(dropout=0.2)
    pairs = []
    for seed in range(5):
        prov = tg.ContextualProvider.from_checkpoint(ck_b)
        model, _ = tg.train_tagger(data["ner_train"], labels, tcfg, epochs=20,
                                   batch_size=8, seed=seed, provider=prov)
        f1_transfer = span_f1(data["ner_test"],
                              tg.predict(data["ner_test"], model)).micro_f1

        rnd = bilm.init_bilm_params(cfg, len(char_vocab), len(vocab_b),
                                    1000 + seed)
        base_prov = tg.ContextualProvider(rnd, cfg, char_vocab)
        base, _ = tg.train_tagger(data["ner_train"], labels, tcfg, epochs=20,
                                  batch_size=8, seed=seed, provider=base_prov)
        f1_base = span_f1(data["ner_test"],
                          tg.predict(data["ner_test"], base)).micro_f1
        pairs.append((f1_transfer, f1_base))

    med_t = sorted(p[0] for p in pairs)[2]
    med_b = sorted(p[1] for p in pairs)[2]
    wins = sum(a > b for a, b in pairs)
    elapsed = time.time() - start
    assert med_t >= med_b, f"median transfer {med_t} < baseline {med_b}"
    assert wins >= 3, f"transfer won only {wins}/5 paired seeds"
    assert elapsed < 900.0
    _report(6, f"median F1 transfer {med_t:.3f} vs baseline {med_b:.3f}, "
               f"{wins}/5 paired wins; {elapsed:.0f}s")


# 7 -------------------------------------------------------------------


def _crafted_eval_suite():
    def pair(g, p):
        toks = [f"w{i}" for i in range(len(g))]
        return LabeledSequence(toks, g), LabeledSequence(toks, p)

    cases = [
        (["B-PER", "I-PER", "O"], ["B-PER", "I-PER", "O"]),   # exact
        (["B-PER", "I-PER", "O"], ["B-PER", "O", "O"]),       # too short
        (["B-LOC", "O", "O"], ["B-LOC", "I-LOC", "O"]),       # too long
        (["B-PER", "O"], ["B-LOC", "O"]),                     # type error
        (["O", "B-ORG", "I-ORG"], ["O", "O", "O"]),           # missed
        (["O", "O"], ["B-ORG", "O"]),                         # spurious
        (["B-PER", "O"], ["I-PER", "O"]),                     # repair orphan I
        (["B-PER", "B-LOC"], ["B-PER", "I-LOC"]),             # repair type switch
        (["B-LOC", "O", "B-LOC"], ["B-LOC", "O", "B-LOC"]),   # two entities
        (["O", "O", "O"], ["O", "O", "O"]),                   # no entities
    ]
    gold, pred = zip(*(pair(g, p) for g, p in cases))
    return list(gold), list(pred)


def test_criterion_07_evaluator_exactness():
    gold, pred = _crafted_eval_suite()
    m = span_f1(gold, pred)
    # hand tally: PER tp3 fp1 fn2; LOC tp3 fp2 fn1; ORG tp0 fp1 fn1
    assert m.counts["PER"] == [3, 1, 2]
    assert m.counts["LOC"] == [3, 2, 1]
    assert m.counts["ORG"] == [0, 1, 1]
    per = m.per_type()
    assert per["PER"] == pytest.approx((3 / 4, 3 / 5, 2 / 3))
    assert per["LOC"] == pytest.approx((3 / 5, 3 / 4, 2 / 3))
    assert m.micro() == pytest.approx((0.6, 0.6, 0.6))

    # BIO-conversion invariance on the gold side of the suite
    for sent in gold:
        contiguous = [t[2:] if t != "O" else "O" for t in sent.tags]
        assert contiguous_to_bio(contiguous) == sent.tags
        assert bio_to_spans(contiguous_to_bio(contiguous)) == \
            bio_to_spans(sent.tags)

    note = "Table 2 files not present, data-conditional check skipped"
    silver_files = [DATA_DIR / n for n in ("dee.conll", "mdee.conll",
                                           "gazz.conll")]
    clean_file = DATA_DIR / "clean.conll"
    if clean_file.exists() and all(p.exists() for p in silver_files):
        clean = read_conll(clean_file)
        expected = [(60.85, 33.08, 42.86), (61.77, 35.07, 44.74),
                    (63.83, 40.44, 49.51)]
        for path, (ep, er, ef) in zip(silver_files, expected):
            q = annotation_quality(read_conll(path), clean)
            p, r, f = q.micro()
            assert round(100 * p, 2) == ep
            assert round(100 * r, 2) == er
            assert round(100 * f, 2) == ef
        note = "Table 2 values reproduced exactly"
    _report(7, f"crafted 10-sentence suite exact (micro 60.00/60.00/60.00); "
               f"conversion invariance holds; {note}")


# 8 -------------------------------------------------------------------


def test_criterion_08_overlap_analyzer():
    def seq(toks, tags):
        return LabeledSequence(toks, tags)

    # A vocabulary {mira, oslo, pergi, dan}; B vocabulary
    # {mira, rian, oslo, kota, ke}: overlap 2/5
    a = [seq(["mira", "pergi"], ["B-PER", "O"]),
         seq(["oslo", "dan"], ["B-LOC", "O"])]
    b = [seq(["mira", "ke", "oslo"], ["B-PER", "O", "B-LOC"]),
         seq(["rian", "ke", "kota"], ["B-PER", "O", "B-LOC"])]
    assert vocab_overlap(a, b) == pytest.approx(2 / 5)
    rates = word_tag_overlap(a, b)
    assert rates["PER"] == pytest.approx(1 / 2)   # mira of {mira, rian}
    assert rates["LOC"] == pytest.approx(1 / 2)   # oslo of {oslo, kota}
    assert rates["O"] == pytest.approx(0.0)       # ke unseen as O in A
    assert rates["ORG"] == 0.0

    note = "corpus files not present, data-conditional check skipped"
    gold_file = DATA_DIR / "gold_id_ner.conll"
    refs = {"wp2": (26.77, DATA_DIR / "wp2.conll"),
            "wp3": (25.70, DATA_DIR / "wp3.conll"),
            "conll": (15.24, DATA_DIR / "conll_train.conll")}
    if gold_file.exists() and all(p.exists() for _, p in refs.values()):
        gold = read_conll(gold_file)
        for name, (expect, path) in refs.items():
            got = 100 * vocab_overlap(read_conll(path), gold)
            assert abs(got - expect) < 0.005, f"{name}: {got} vs {expect}"
        wp2_rates = word_tag_overlap(read_conll(refs["wp2"][1]), gold)
        for tag, expect in (("PER", 51.09), ("LOC", 60.9),
                            ("ORG", 60.54), ("O", 16.56)):
            assert abs(100 * wp2_rates[tag] - expect) < 0.005
        note = "corpus overlap figures reproduced within rounding"
    _report(8, f"crafted rates exact (vocab 40.00, PER 50.00, LOC 50.00); {note}")


# 9 -------------------------------------------------------------------


def test_criterion_09_transfer_mechanics():
    corpus = toy_ner_corpus(10)
    pos_labels = tg.LabelSet(["NOUN", "VERB"], bio=False)
    relabel = {"B-PER": "NOUN", "B-LOC": "NOUN", "O": "VERB"}
    pos_corpus = [LabeledSequence(s.tokens, [relabel[t] for t in s.tags])
                  for s in corpus]
    cfg = tiny_tagger_config(head="softmax", hidden=16)
    model, _ = tg.train_tagger(pos_corpus, pos_labels, cfg, epochs=2,
                               batch_size=4, seed=0)
    src = model.to_checkpoint()

    ner_labels = tg.LabelSet.from_sequences(corpus)
    ner_cfg = tiny_tagger_config(head="crf", hidden=16)
    arch = tg.tagger_architecture(ner_cfg, len(model.word_vocab),
                                  len(ner_labels), 0, ner_labels)
    policy = xf.TransferPolicy(
        {"word_embedding": "copy", "trunk": "copy",
         "emission": "reinitialize", "crf": "reinitialize"})
    tensors, report = xf.transfer_init(src, arch, policy, seed=2)

    for name in tensors:
        if name.startswith("tagger.l") or name == "tagger.word_emb":
            assert np.array_equal(tensors[name], src.tensors[name]), name
    reinit = {n for n, _, _ in report.reinitialized}
    assert {"tagger.emission.W", "tagger.emission.b",
            "tagger.crf.trans"} <= reinit
    assert not np.array_equal(tensors["tagger.emission.W"],
                              src.tensors["tagger.emission.W"])

    bad_arch = tg.tagger_architecture(tiny_tagger_config(head="crf", hidden=20),
                                      len(model.word_vocab), len(ner_labels),
                                      0, ner_labels)
    with pytest.raises(TransferError, match="shape mismatch"):
        xf.transfer_init(src, bad_arch, policy, seed=2)
    _report(9, "POS->NER trunk copied bit-exactly, head reinitialized, "
               "mismatched hidden size raises instead of truncating")


# 10 ------------------------------------------------------------------


def test_criterion_10_determinism_and_persistence(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("d_char=6\nd_out=12\nlm_hidden=12\nfilter_widths=1,2\n"
                        "filter_counts=4,4\nmax_word_len=10\nd_word=10\n"
                        "hidden=12\nlayers=1\ndropout=0.0\nunk_rate=0.0\n"
                        "batch_size=8\n")
    corpus = toy_ner_corpus(12)
    write_conll(corpus, tmp_path / "train.conll")
    lm_text = "\n".join(" ".join(s.tokens) for s in corpus) + "\n"
    (tmp_path / "lm.txt").write_text(lm_text)

    base = ["--config", str(cfg_file), "--seed", "3"]
    for cmd, extra in (
        ("train-ner", ["--train", str(tmp_path / "train.conll"),
                       "--epochs", "2"]),
        ("pretrain-lm", ["--corpus", str(tmp_path / "lm.txt"),
                         "--epochs", "2"]),
    ):
        p1, p2 = tmp_path / f"{cmd}-a.ckpt", tmp_path / f"{cmd}-b.ckpt"
        assert cli.run([cmd] + base + extra + ["--out", str(p1)]) == 0
        assert cli.run([cmd] + base + extra + ["--out", str(p2)]) == 0
        a, b = Checkpoint.load(p1), Checkpoint.load(p2)
        assert a.digest() == b.digest(), f"{cmd} rerun not bit-exact"
        # save -> load -> save is byte-identical
        resaved = tmp_path / f"{cmd}-resave.ckpt"
        a.save(resaved)
        assert p1.read_bytes() == resaved.read_bytes()
    _report(10, "train-ner and pretrain-lm reruns bit-exact (timestamp "
                "excluded); save->load->save byte-identical")
