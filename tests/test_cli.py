import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqxfer import cli
from seqxfer import transfer as transfer_mod
from seqxfer.checkpoint import Checkpoint
from seqxfer.corpus import LabeledSequence, Vocabulary, read_conll, write_conll
from seqxfer.errors import DataError

from conftest import toy_ner_corpus

TINY_CFG = """\
# desk-scale test dimensions
d_char=6
d_out=12
lm_hidden=12
filter_widths=1,2
filter_counts=4,4
max_word_len=10
d_word=10
hidden=12
layers=1
dropout=0.0
unk_rate=0.0
batch_size=8
"""


@pytest.fixture
def ws(tmp_path):
    """Workspace with a config file, an LM corpus, and NER CoNLL files."""
    (tmp_path / "tiny.cfg").write_text(TINY_CFG)
    corpus = toy_ner_corpus(16)
    lm_text = "\n".join(" ".join(s.tokens) for s in corpus) + "\n"
    (tmp_path / "lm.txt").write_text(lm_text)
    write_conll(corpus[:12], tmp_path / "train.conll")
    write_conll(corpus[12:], tmp_path / "test.conll")
    return tmp_path


def _run(args):
    return cli.run([str(a) for a in args])


class TestConfig:
    def test_file_then_flag_override(self, ws):
        cfg = cli.load_config(ws / "tiny.cfg", {"seed": "7"})
        assert cfg.d_char == 6 and cfg.seed == 7

    def test_unknown_key_names_location(self, ws):
        (ws / "bad.cfg").write_text("no_such_knob=1\n")
        with pytest.raises(DataError, match="bad.cfg:1"):
            cli.load_config(ws / "bad.cfg")

    def test_bad_value_rejected(self, ws):
        (ws / "bad.cfg").write_text("epochs=three\n")
        with pytest.raises(DataError, match="epochs"):
            cli.load_config(ws / "bad.cfg")

    def test_comments_and_blanks_ignored(self, ws):
        cfg = cli.load_config(ws / "tiny.cfg")
        assert cfg.hidden == 12


class TestExitCodes:
    def test_usage_error_is_2(self, capsys):
        assert _run(["train-ner", "--no-such-flag"]) == 2
        capsys.readouterr()

    def test_unknown_command_is_2(self, capsys):
        assert _run(["frobnicate"]) == 2
        capsys.readouterr()

    def test_missing_file_is_1(self, ws, capsys):
        code = _run(["evaluate", "--gold", ws / "nope.conll",
                     "--pred", ws / "nope.conll"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_conll_is_1(self, ws, capsys):
        (ws / "bad.conll").write_text("token_without_tag\n\n")
        code = _run(["evaluate", "--gold", ws / "bad.conll",
                     "--pred", ws / "bad.conll"])
        assert code == 1
        capsys.readouterr()

    def test_malformed_conll_names_file_and_line(self, ws, capsys):
        bad = ws / "bad.conll"
        bad.write_text("a O\nb\n\n")
        assert _run(["evaluate", "--gold", bad, "--pred", ws / "test.conll"]) == 1
        assert f"error: {bad}:2: expected a token and a tag column" \
            in capsys.readouterr().err

    def test_illegal_gold_tag_names_file_and_sentence(self, ws, capsys):
        bad = ws / "gold.conll"
        bad.write_text("a O\nb I-LOC\n\n")
        pred = ws / "pred.conll"
        pred.write_text("a O\nb O\n\n")
        assert _run(["evaluate", "--gold", bad, "--pred", pred]) == 1
        assert f"error: {bad}: sentence 0: illegal tag 'I-LOC' at index 1" \
            in capsys.readouterr().err

    def test_malformed_vectors_name_file_and_line(self, ws, capsys):
        bad = ws / "bad.vec"
        bad.write_text("alice 1 2\n")
        assert _run(["train-ner", "--config", ws / "tiny.cfg", "--train",
                     ws / "train.conll", "--vectors", bad, "--epochs", 1,
                     "--out", ws / "out.ckpt"]) == 1
        assert f"error: {bad}:1: expected 10 floats, found 2" in capsys.readouterr().err
        assert not (ws / "out.ckpt").exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_vectors_name_file_and_line(self, ws, capsys, value):
        bad = ws / "bad.vec"
        bad.write_text("went " + " ".join(["0.5"] * 10) + "\n"
                       f"alice {' '.join(['0.5'] * 9)} {value}\n")
        assert _run(["train-ner", "--config", ws / "tiny.cfg", "--train",
                     ws / "train.conll", "--vectors", bad, "--epochs", 1,
                     "--out", ws / "out.ckpt"]) == 1
        out, err = capsys.readouterr()
        assert f"error: {bad}:2: expected 10 finite floats" in err
        assert "epoch=" not in out
        assert not (ws / "out.ckpt").exists()

    @pytest.mark.parametrize("command, flag, text", [
        ("train-ner", "--dev", "alice B-PER\nwent\n\n"),
        ("train-ner", "--test", "alice B-PER\nwent\n\n"),
        ("train-ner", "--dev", "alice B-PER\nwent O\nto I-LOC\n\n"),
        ("train-ner", "--test", "alice B-PER\nwent O\nto I-LOC\n\n"),
        ("train-pos", "--dev", "alice B-PER\nwent\n\n"),
        ("train-pos", "--test", "alice B-PER\nwent\n\n"),
    ], ids=["ner-dev-column", "ner-test-column", "ner-dev-bio", "ner-test-bio",
            "pos-dev-column", "pos-test-column"])
    def test_bad_eval_file_is_1_before_training(self, ws, capsys, command, flag, text):
        bad = ws / "bad.conll"
        bad.write_text(text)
        assert _run([command, "--config", ws / "tiny.cfg", "--train", ws / "train.conll",
                     flag, bad, "--epochs", 1, "--out", ws / "out.ckpt"]) == 1
        out, err = capsys.readouterr()
        assert f"error: {bad}:" in err
        assert "epoch=" not in out
        assert not (ws / "out.ckpt").exists()

    def test_malformed_checkpoint_is_1(self, ws, capsys):
        (ws / "bad.ckpt").write_bytes(b"SEQXFER1\nnot-a-length\n{}")
        code = _run(["finetune-lm", "--init", ws / "bad.ckpt",
                     "--corpus", ws / "lm.txt", "--out", ws / "ft.ckpt"])
        assert code == 1
        assert "bad manifest length" in capsys.readouterr().err


class TestRequiredFlags:
    @pytest.mark.parametrize("argv, missing", [
        (["pretrain-lm", "--corpus", "lm.txt"], "--out"),
        (["pretrain-lm", "--out", "x.ckpt"], "--corpus"),
        (["finetune-lm", "--corpus", "lm.txt", "--out", "x.ckpt"], "--init"),
        (["train-ner", "--out", "x.ckpt"], "--train"),
        (["train-pos", "--train", "train.conll"], "--out"),
        (["transfer-init", "--init", "x.ckpt", "--out", "y.ckpt"], "--train"),
        (["evaluate", "--gold", "train.conll"], "--pred"),
        (["analyze", "--corpus", "train.conll"], "--test"),
        (["convert-bio", "--out", "bio.conll"], "--corpus"),
    ])
    def test_missing_flag_is_2_and_named(self, ws, capsys, monkeypatch, argv, missing):
        monkeypatch.chdir(ws)
        assert _run(argv) == 2
        assert missing in capsys.readouterr().err
        # nothing ran: no output file was written
        assert sorted(p.name for p in ws.iterdir()) == [
            "lm.txt", "test.conll", "tiny.cfg", "train.conll"]

    @pytest.mark.parametrize("argv", [
        ["finetune-lm", "--init", "x.ckpt", "--corpus", "lm.txt", "--corpus", "lm.txt",
         "--out", "ft.ckpt"],
        ["analyze", "--corpus", "train.conll", "--corpus", "test.conll",
         "--test", "test.conll"],
        ["convert-bio", "--corpus", "train.conll", "--corpus", "nowhere.conll",
         "--out", "bio.conll"],
    ], ids=lambda argv: argv[0])
    def test_second_corpus_is_2_and_named(self, ws, capsys, monkeypatch, argv):
        """Only pretrain-lm reads more than one --corpus; the others refuse a
        second one before reading any file."""
        def no_reading(*args, **kwargs):
            raise AssertionError("read a file before checking flags")

        monkeypatch.chdir(ws)
        monkeypatch.setattr(cli.corpus_mod, "read_lines", no_reading)
        monkeypatch.setattr(cli.Checkpoint, "load", no_reading)
        assert _run(argv) == 2
        assert "--corpus" in capsys.readouterr().err
        assert sorted(p.name for p in ws.iterdir()) == [
            "lm.txt", "test.conll", "tiny.cfg", "train.conll"]

    def test_pretrain_without_out_does_not_train(self, ws, capsys, monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("trained before checking flags")

        monkeypatch.setattr(cli.bilm_mod, "train_lm", no_training)
        assert _run(["pretrain-lm", "--config", ws / "tiny.cfg",
                     "--corpus", ws / "lm.txt", "--epochs", 1]) == 2
        assert "--out" in capsys.readouterr().err



class TestEvaluateAnalyzeConvert:
    def test_evaluate_prints_metrics(self, ws, capsys):
        code = _run(["evaluate", "--gold", ws / "train.conll",
                     "--pred", ws / "train.conll"])
        assert code == 0
        out = capsys.readouterr().out
        assert "f1 micro 100.00" in out

    def test_analyze_report(self, ws, capsys):
        code = _run(["analyze", "--corpus", ws / "train.conll",
                     "--test", ws / "test.conll"])
        assert code == 0
        out = capsys.readouterr().out
        assert "vocab_overlap" in out and "word_tag_overlap PER" in out

    def test_convert_bio_round_trip(self, ws, capsys):
        raw = "paris LOC\nis O\nhome O\n\n"
        (ws / "contig.conll").write_text(raw)
        code = _run(["convert-bio", "--corpus", ws / "contig.conll",
                     "--out", ws / "bio.conll"])
        assert code == 0
        assert (ws / "bio.conll").read_text() == "paris B-LOC\nis O\nhome O\n\n"
        capsys.readouterr()


class TestTrainingPipelines:
    def test_pretrain_finetune_and_provider_training(self, ws, capsys):
        lm_ck = ws / "lm.ckpt"
        assert _run(["pretrain-lm", "--config", ws / "tiny.cfg",
                     "--corpus", ws / "lm.txt", "--epochs", 1,
                     "--out", lm_ck]) == 0
        assert _run(["finetune-lm", "--config", ws / "tiny.cfg",
                     "--init", lm_ck, "--corpus", ws / "lm.txt",
                     "--epochs", 1, "--out", ws / "ft.ckpt"]) == 0
        ck = Checkpoint.load(ws / "ft.ckpt")
        events = [p["event"] for p in ck.manifest["provenance"]]
        assert events == ["pretrain", "replace_vocab_head", "continue_training"]
        assert _run(["train-ner", "--config", ws / "tiny.cfg",
                     "--init", ws / "ft.ckpt", "--train", ws / "train.conll",
                     "--test", ws / "test.conll", "--epochs", 1,
                     "--out", ws / "ner.ckpt"]) == 0
        out = capsys.readouterr().out
        assert "f1 micro" in out
        assert Checkpoint.load(ws / "ner.ckpt").architecture["kind"] == "tagger"

    def test_train_ner_rerun_is_bit_identical(self, ws, capsys):
        args = ["train-ner", "--config", ws / "tiny.cfg", "--seed", 3,
                "--train", ws / "train.conll", "--epochs", 2]
        assert _run(args + ["--out", ws / "a.ckpt"]) == 0
        assert _run(args + ["--out", ws / "b.ckpt"]) == 0
        capsys.readouterr()
        a = Checkpoint.load(ws / "a.ckpt")
        b = Checkpoint.load(ws / "b.ckpt")
        assert a.digest() == b.digest()

    def test_pos_then_transfer_init_writes_report(self, ws, capsys):
        pos = toy_ner_corpus(12)
        from seqxfer.corpus import LabeledSequence
        relabel = {"B-PER": "PROPN", "B-LOC": "PROPN", "O": "X"}
        write_conll([LabeledSequence(s.tokens, [relabel[t] for t in s.tags])
                     for s in pos], ws / "pos.conll")
        assert _run(["train-pos", "--config", ws / "tiny.cfg",
                     "--train", ws / "pos.conll", "--epochs", 1,
                     "--out", ws / "pos.ckpt"]) == 0
        assert _run(["transfer-init", "--config", ws / "tiny.cfg",
                     "--init", ws / "pos.ckpt", "--train", ws / "train.conll",
                     "--head", "crf", "--out", ws / "init.ckpt"]) == 0
        capsys.readouterr()
        report = (ws / "init.ckpt.report.txt").read_text()
        assert "copied" in report and "reinitialized" in report
        src = Checkpoint.load(ws / "pos.ckpt")
        ini = Checkpoint.load(ws / "init.ckpt")
        # trunk copied bit-exactly across the head swap
        for name in ini.tensors:
            if name.startswith("tagger.l"):
                assert np.array_equal(ini.tensors[name], src.tensors[name])
        assert "tagger.crf.trans" in ini.tensors


def test_failed_report_write_keeps_previous_report(ws, capsys, disk_full):
    """The transfer report goes through the checkpoint's temp-and-rename
    path: a disk-full error mid-write exits 1 and leaves the old report."""
    pos = _pos_checkpoint(ws)
    report = ws / "init.ckpt.report.txt"
    report.write_text("old report\n")
    disk_full(1, match=".report.txt")
    assert _run(["transfer-init", "--config", ws / "tiny.cfg", "--init", pos,
                 "--train", ws / "train.conll", "--out", ws / "init.ckpt"]) == 1
    assert "No space left" in capsys.readouterr().err
    assert report.read_text() == "old report\n"
    assert not list(ws.glob("*.tmp"))


def _pos_checkpoint(ws):
    from seqxfer.corpus import LabeledSequence
    relabel = {"B-PER": "PROPN", "B-LOC": "PROPN", "O": "X"}
    write_conll([LabeledSequence(s.tokens, [relabel[t] for t in s.tags])
                 for s in toy_ner_corpus(12)], ws / "pos.conll")
    assert _run(["train-pos", "--config", ws / "tiny.cfg",
                 "--train", ws / "pos.conll", "--epochs", 1,
                 "--out", ws / "pos.ckpt"]) == 0
    return ws / "pos.ckpt"


class TestPolicyFile:
    FULL = "trunk=copy\nword_embedding=skip\nemission=reinitialize\ncrf=reinitialize\n"

    def _transfer(self, ws, policy_text):
        (ws / "p.policy").write_text(policy_text)
        return _run(["transfer-init", "--config", ws / "tiny.cfg",
                     "--init", _pos_checkpoint(ws), "--train", ws / "train.conll",
                     "--policy", ws / "p.policy", "--out", ws / "init.ckpt"])

    def test_full_policy_is_applied(self, ws, capsys):
        assert self._transfer(ws, "# groups\n" + self.FULL) == 0
        report = (ws / "init.ckpt.report.txt").read_text()
        assert "tagger.l0.fwd.Wx" in report.split("reinitialized")[0]

    @pytest.mark.parametrize("line, message", [
        ("trunk copy", "p.policy:2: expected group=action"),
        ("trunkk=skip", "p.policy:2: unknown parameter group 'trunkk'"),
        ("anchor_l2=5.0", "p.policy:2: unknown parameter group 'anchor_l2'"),
        ("trunk=keep", "p.policy:2: unknown action 'keep' for 'trunk'"),
    ])
    def test_bad_line_is_1_with_location(self, ws, capsys, line, message):
        assert self._transfer(ws, "# groups\n" + line + "\n" + self.FULL) == 1
        assert message in capsys.readouterr().err
        assert not (ws / "init.ckpt").exists()

    @settings(max_examples=150, deadline=None)
    @given(st.text(alphabet=st.characters(blacklist_categories=("Cs",))))
    def test_arbitrary_text_parses_or_raises_data_error(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("policy") / "p.policy"
        path.write_bytes(text.encode("utf-8"))
        try:
            policy = cli._load_policy(path)
        except DataError:
            return
        assert set(policy.actions) <= set(transfer_mod.GROUPS)
        assert set(policy.actions.values()) <= set(transfer_mod.ACTIONS)


class TestTaggerInit:
    def test_train_ner_from_tagger_writes_report(self, ws, capsys):
        assert _run(["train-ner", "--config", ws / "tiny.cfg",
                     "--init", _pos_checkpoint(ws), "--train", ws / "train.conll",
                     "--epochs", 1, "--out", ws / "ner.ckpt"]) == 0
        capsys.readouterr()
        report = (ws / "ner.ckpt.report.txt").read_text()
        copied, rest = report.split("reinitialized")
        # softmax POS head -> CRF NER head: the trunk is copied, the head is not
        assert "tagger.l0.fwd.Wx" in copied
        assert "tagger.emission.W" in rest and "tagger.crf.trans" in rest
        ck = Checkpoint.load(ws / "ner.ckpt")
        assert ck.architecture["config"]["head"] == "crf"
        assert ck.manifest["provenance"][0]["init"] == str(ws / "pos.ckpt")


class TestCheckpointArchitecture:
    @pytest.fixture
    def lm_ck(self, ws, capsys):
        assert _run(["pretrain-lm", "--config", ws / "tiny.cfg",
                     "--corpus", ws / "lm.txt", "--epochs", 1,
                     "--out", ws / "lm.ckpt"]) == 0
        capsys.readouterr()
        return Checkpoint.load(ws / "lm.ckpt")

    @staticmethod
    def _run_from_bad(ws, command):
        argv = {"train-ner": ["--train", ws / "train.conll", "--out", ws / "ner.ckpt"],
                "finetune-lm": ["--corpus", ws / "lm.txt", "--out", ws / "ft.ckpt"]}
        return _run([command, "--config", ws / "tiny.cfg", "--epochs", 1,
                     "--init", ws / "bad.ckpt"] + argv[command])

    @pytest.mark.parametrize("command", ["train-ner", "finetune-lm"])
    def test_missing_tensor_is_1_and_named(self, ws, capsys, lm_ck, command):
        del lm_ck.tensors["lm.fwd.l0.Wx"]
        lm_ck.save(ws / "bad.ckpt")
        assert self._run_from_bad(ws, command) == 1
        assert "no tensor 'lm.fwd.l0.Wx'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train-ner", "finetune-lm"])
    def test_misshapen_tensor_is_1_and_named(self, ws, capsys, lm_ck, command):
        lm_ck.tensors["char_enc.proj.b"] = np.zeros(3)
        lm_ck.save(ws / "bad.ckpt")
        assert self._run_from_bad(ws, command) == 1
        assert "'char_enc.proj.b' has shape (3,)" in capsys.readouterr().err

    BAD_ARCHITECTURE = {
        "no-architecture": lambda ck: ck.manifest.pop("architecture"),
        "no-config": lambda ck: ck.architecture.pop("config"),
        "no-d_char": lambda ck: ck.architecture["config"]["encoder"].pop("d_char"),
        "architecture-list": lambda ck: ck.manifest.update(architecture=["bilm"]),
        "n_chars-string": lambda ck: ck.architecture.update(n_chars="x"),
        "no-char_vocab": lambda ck: setattr(ck, "char_vocab", None),
        "word_vocab-grown": lambda ck: setattr(ck, "word_vocab", Vocabulary(
            ck.word_vocab.non_reserved() + ["w1", "w2", "w3", "w4"])),
        # sizes that no tensor shape checks
        "max_word_len-string": lambda ck: ck.architecture["config"]["encoder"].update(
            max_word_len="x"),
        "highway_layers-negative": lambda ck: ck.architecture["config"]["encoder"].update(
            highway_layers=-1),
    }

    @pytest.mark.parametrize("command", ["train-ner", "finetune-lm"])
    @pytest.mark.parametrize("edit", list(BAD_ARCHITECTURE.values()),
                             ids=list(BAD_ARCHITECTURE))
    def test_malformed_architecture_is_1_and_named(self, ws, capsys, lm_ck, command,
                                                   edit):
        edit(lm_ck)
        lm_ck.save(ws / "bad.ckpt")
        assert self._run_from_bad(ws, command) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {ws / 'bad.ckpt'}: ")
        assert not (ws / "ner.ckpt").exists() and not (ws / "ft.ckpt").exists()


class TestTaggerCheckpointArchitecture:
    BAD = {
        "no-config": lambda arch: arch.pop("config"),
        "no-labels": lambda arch: arch.pop("labels"),
        "labels-not-a-list": lambda arch: arch.update(labels="X PROPN"),
        "unknown-head": lambda arch: arch["config"].update(head="xyz"),
        # n_labels is left as it was: the tensors are checked against the labels
        "labels-one-short": lambda arch: arch.update(labels=arch["labels"][:-1]),
    }

    @pytest.mark.parametrize("command", ["train-ner", "transfer-init"])
    @pytest.mark.parametrize("edit", list(BAD.values()), ids=list(BAD))
    def test_malformed_architecture_is_1_and_named(self, ws, capsys, command, edit):
        ck = Checkpoint.load(_pos_checkpoint(ws))
        edit(ck.architecture)
        ck.save(ws / "bad.ckpt")
        capsys.readouterr()
        assert _run([command, "--config", ws / "tiny.cfg", "--init", ws / "bad.ckpt",
                     "--train", ws / "train.conll", "--epochs", 1,
                     "--out", ws / "out.ckpt"]) == 1
        assert capsys.readouterr().err.startswith(f"error: {ws / 'bad.ckpt'}: ")
        assert not (ws / "out.ckpt").exists()


@pytest.mark.parametrize("key", ["beta1", "beta2", "eps", "head"])
def test_removed_config_key_is_unknown(ws, capsys, key):
    (ws / "old.cfg").write_text(TINY_CFG + f"{key}=1\n")
    assert _run(["train-ner", "--config", ws / "old.cfg", "--train", ws / "train.conll",
                 "--epochs", 1, "--out", ws / "out.ckpt"]) == 1
    assert f"unknown config key {key!r}" in capsys.readouterr().err
    assert not (ws / "out.ckpt").exists()


@pytest.mark.parametrize("kind", ["conll", "corpus", "config", "policy"])
def test_non_utf8_file_is_1_and_named(ws, capsys, kind):
    bad = ws / f"bad.{kind}"
    bad.write_bytes(b"caf\xe9 O\n\n")
    test, tiny = ws / "test.conll", ws / "tiny.cfg"
    if kind == "policy":
        argv = ["transfer-init", "--config", tiny, "--init", _pos_checkpoint(ws),
                "--train", ws / "train.conll", "--policy", bad, "--out", ws / "out"]
    else:
        argv = {"conll": ["evaluate", "--gold", bad, "--pred", test],
                "corpus": ["pretrain-lm", "--config", tiny, "--corpus", bad,
                           "--out", ws / "out"],
                "config": ["evaluate", "--config", bad, "--gold", test,
                           "--pred", test]}[kind]
    assert _run(argv) == 1
    assert f"error: {bad}: not UTF-8 text" in capsys.readouterr().err
    assert not (ws / "out").exists()


class TestDirectoryPaths:
    """A directory where a file is expected is an OSError: exit 1, named."""

    def test_corpus_directory_is_1(self, ws, capsys):
        assert _run(["pretrain-lm", "--config", ws / "tiny.cfg", "--corpus", ws,
                     "--out", ws / "out.ckpt"]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (ws / "out.ckpt").exists()

    def test_gold_directory_is_1(self, ws, capsys):
        assert _run(["evaluate", "--gold", ws, "--pred", ws / "test.conll"]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("command", ["pretrain-lm", "train-ner"])
    @pytest.mark.parametrize("out", ["taken", "no_such_dir/out.ckpt"])
    def test_out_directory_is_1_and_leaves_no_tmp(self, ws, capsys, command, out):
        (ws / "taken").mkdir()
        data = {"pretrain-lm": ["--corpus", ws / "lm.txt"],
                "train-ner": ["--train", ws / "train.conll"]}[command]
        assert _run([command, "--config", ws / "tiny.cfg", *data, "--epochs", 2,
                     "--out", ws / out]) == 1
        stdout, err = capsys.readouterr()
        assert err.startswith(f"error: {ws / out}: ")
        assert "epoch=" not in stdout  # refused before any training
        assert list((ws / "taken").iterdir()) == []
        assert not list(ws.glob("*.tmp"))


@pytest.mark.parametrize("command, line, key", [
    ("pretrain-lm", "filter_widths=1,x", "filter_widths"),
    ("pretrain-lm", "lm_hidden=-3", "lm_hidden"),
    ("train-ner", "hidden=-1", "hidden"),
    ("train-ner", "batch_size=0", "batch_size"),
])
def test_bad_size_in_config_is_1_and_named(ws, capsys, command, line, key):
    (ws / "bad.cfg").write_text(TINY_CFG + line + "\n")
    data = (["--corpus", ws / "lm.txt"] if command == "pretrain-lm"
            else ["--train", ws / "train.conll"])
    assert _run([command, "--config", ws / "bad.cfg", *data, "--epochs", 1,
                 "--out", ws / "out.ckpt"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{key} is " in err
    assert not (ws / "out.ckpt").exists()


BAD_VALUES = [("seed", "-1"), ("patience", "-1"), ("freeze_word_emb", "2"),
              ("epochs", "0"), ("lm_epochs", "0"), ("finetune_epochs", "0"),
              ("batch_size", "-4"), ("min_count", "0"), ("lr", "-1"), ("lr", "inf"), ("clip_norm", "0"),
              ("clip_norm", "nan"), ("anchor_l2", "-0.5"), ("anchor_l2", "nan"),
              ("dropout", "1.5"), ("dropout", "1"), ("unk_rate", "2"),
              ("unk_rate", "-0.1")]


@pytest.mark.parametrize("command", ["pretrain-lm", "train-ner"])
@pytest.mark.parametrize("key, value", BAD_VALUES)
def test_out_of_range_config_value_is_1_and_named(ws, capsys, command, key, value):
    (ws / "bad.cfg").write_text(TINY_CFG + f"{key}={value}\n")
    data = (["--corpus", ws / "lm.txt"] if command == "pretrain-lm"
            else ["--train", ws / "train.conll"])
    assert _run([command, "--config", ws / "bad.cfg", *data, "--epochs", 2,
                 "--out", ws / "out.ckpt"]) == 1
    stdout, err = capsys.readouterr()
    assert err.startswith(f"error: {ws / 'bad.cfg'}:{TINY_CFG.count(chr(10)) + 1}: "
                          f"{key} is ")
    assert "epoch=" not in stdout
    assert not (ws / "out.ckpt").exists()


@pytest.mark.parametrize("flag, value", [("--seed", -1), ("--epochs", 0),
                                         ("--patience", -2)])
def test_out_of_range_flag_is_1_and_named(ws, capsys, flag, value):
    args = ["train-ner", "--config", ws / "tiny.cfg", "--train", ws / "train.conll",
            "--out", ws / "out.ckpt", flag, value]
    if flag != "--epochs":
        args += ["--epochs", 2]
    assert _run(args) == 1
    stdout, err = capsys.readouterr()
    assert err.startswith(f"error: command line: {flag[2:]} is {value!r}, not ")
    assert "epoch=" not in stdout
    assert not (ws / "out.ckpt").exists()


def test_range_edges_are_accepted(ws):
    (ws / "edge.cfg").write_text("seed=0\npatience=0\nfreeze_word_emb=1\nepochs=1\n"
                                 "lr=1e-300\nclip_norm=1e-9\nanchor_l2=0\n"
                                 "dropout=0\nunk_rate=0.999\n")
    cfg = cli.load_config(ws / "edge.cfg")
    assert (cfg.seed, cfg.anchor_l2, cfg.dropout, cfg.unk_rate) == (0, 0.0, 0.0, 0.999)


@pytest.fixture(scope="module")
def made(tmp_path_factory):
    """A tiny BiLM checkpoint and a tiny POS tagger checkpoint, trained once
    for the tests that break a copy of one."""
    made = tmp_path_factory.mktemp("made")
    (made / "tiny.cfg").write_text(TINY_CFG)
    (made / "lm.txt").write_text(
        "\n".join(" ".join(s.tokens) for s in toy_ner_corpus(16)) + "\n")
    assert _run(["pretrain-lm", "--config", made / "tiny.cfg", "--corpus",
                 made / "lm.txt", "--epochs", 1, "--out", made / "lm.ckpt"]) == 0
    _pos_checkpoint(made)
    return made


def _pos_without(name):
    def write(ws, made):
        ck = Checkpoint.load(made / "pos.ckpt")
        del ck.tensors[name]
        ck.save(ws / "bad.ckpt")
        return ws / "bad.ckpt"
    return write


def _text(name, text):
    def write(ws, made):
        (ws / name).write_text(text)
        return ws / name
    return write


def _pred_from_test(edit):
    def write(ws, made):
        sentences = edit(read_conll(ws / "test.conll"))
        write_conll(sentences, ws / "pred.conll")
        return ws / "pred.conll"
    return write


def _swap_first_token(sentences):
    first = sentences[0]
    sentences[0] = LabeledSequence(["zed"] + first.tokens[1:], first.tags)
    return sentences


# malformed file -> (command, argv with the file as `bad`, every case's file)
MALFORMED = {
    "bio-train": (_text("bad.conll", "alice O\nwent I-PER\n\n"), [
        ["train-ner", "--train", "BAD"],
        ["transfer-init", "--init", "POS", "--train", "BAD"]]),
    "init-without-copied-tensor": (_pos_without("tagger.l0.fwd.Wx"), [
        ["train-ner", "--init", "BAD", "--train", "TRAIN"],
        ["transfer-init", "--init", "BAD", "--train", "TRAIN"]]),
    "init-without-reinitialized-tensor": (_pos_without("tagger.emission.b"), [
        ["train-ner", "--init", "BAD", "--train", "TRAIN"],
        ["transfer-init", "--init", "BAD", "--train", "TRAIN"]]),
    "empty-corpus": (_text("empty.txt", "\n \n"), [
        ["pretrain-lm", "--corpus", "BAD"],
        ["pretrain-lm", "--corpus", "LM", "--corpus", "BAD"],
        ["finetune-lm", "--init", "LM_CK", "--corpus", "BAD"]]),
    "empty-train": (_text("empty.conll", "\n"), [
        ["train-ner", "--train", "BAD"],
        ["train-pos", "--train", "BAD"],
        ["transfer-init", "--init", "POS", "--train", "BAD"]]),
    "short-policy": (_text("short.policy", "trunk=copy\n"), [
        ["train-ner", "--init", "POS", "--train", "TRAIN", "--policy", "BAD"],
        ["transfer-init", "--init", "POS", "--train", "TRAIN", "--policy", "BAD"]]),
    "pred-other-tokens": (_pred_from_test(_swap_first_token), [
        ["evaluate", "--gold", "TEST", "--pred", "BAD"]]),
    "pred-short": (_pred_from_test(lambda sentences: sentences[:-1]), [
        ["evaluate", "--gold", "TEST", "--pred", "BAD"]]),
    "empty-conll": (_text("empty.conll", "\n"), [
        ["train-ner", "--train", "TRAIN", "--dev", "BAD"],
        ["train-ner", "--train", "TRAIN", "--test", "BAD"],
        ["evaluate", "--gold", "BAD", "--pred", "BAD"],
        ["evaluate", "--gold", "TEST", "--pred", "BAD"],
        ["analyze", "--corpus", "BAD", "--test", "TEST"],
        ["analyze", "--corpus", "TRAIN", "--test", "BAD"],
        ["convert-bio", "--corpus", "BAD"]]),
}
MALFORMED_CASES = [(kind, argv) for kind, (_, argvs) in MALFORMED.items()
                   for argv in argvs]


@pytest.mark.parametrize("kind, argv", MALFORMED_CASES,
                         ids=[f"{kind}-{i}-{argv[0]}" for i, (kind, argv)
                              in enumerate(MALFORMED_CASES)])
def test_malformed_file_is_1_and_named_before_any_work(ws, made, capsys, kind, argv):
    """One malformed file per file flag: the command exits 1 with an error
    that starts with the file's path, trains nothing and writes nothing."""
    bad = MALFORMED[kind][0](ws, made)
    names = {"BAD": bad, "POS": made / "pos.ckpt", "LM_CK": made / "lm.ckpt",
             "TRAIN": ws / "train.conll", "TEST": ws / "test.conll", "LM": ws / "lm.txt"}
    argv = [names.get(a, a) for a in argv]
    if argv[0] != "evaluate":
        argv += ["--config", ws / "tiny.cfg", "--epochs", 1, "--out", ws / "out.ckpt"]
    capsys.readouterr()
    assert _run(argv) == 1
    out, err = capsys.readouterr()
    assert err.startswith(f"error: {bad}"), err
    assert "epoch=" not in out
    assert not (ws / "out.ckpt").exists()
    assert not (ws / "out.ckpt.report.txt").exists()


@pytest.mark.parametrize("where", ["flag", "config"])
def test_patience_0_is_disabled(ws, capsys, where):
    """`patience` 0 means disabled, set by the key or by the flag alike."""
    (ws / "dev.cfg").write_text(TINY_CFG + "epochs=4\n"
                                + ("patience=0\n" if where == "config" else ""))
    argv = ["train-ner", "--config", ws / "dev.cfg", "--train", ws / "train.conll",
            "--dev", ws / "test.conll", "--out", ws / "out.ckpt"]
    assert _run(argv + (["--patience", 0] if where == "flag" else [])) == 0
    assert capsys.readouterr().out.count("train_nll=") == 4


@pytest.mark.parametrize("command, key", [("pretrain-lm", "lm_epochs"),
                                          ("finetune-lm", "finetune_epochs"),
                                          ("train-ner", "epochs")])
def test_epochs_flag_sets_the_commands_key(ws, made, capsys, command, key):
    """--epochs overrides the one config key its command trains by, through
    the range check of that key."""
    (ws / "e.cfg").write_text(TINY_CFG + f"{key}=3\n")
    data = {"pretrain-lm": ["--corpus", ws / "lm.txt"],
            "finetune-lm": ["--init", made / "lm.ckpt", "--corpus", ws / "lm.txt"],
            "train-ner": ["--train", ws / "train.conll"]}[command]
    argv = [command, "--config", ws / "e.cfg", *data, "--out", ws / "out.ckpt"]
    capsys.readouterr()
    assert _run(argv + ["--epochs", 2]) == 0
    assert capsys.readouterr().out.count("epoch=") == 2
    assert _run(argv + ["--epochs", 0]) == 1
    assert capsys.readouterr().err.startswith(
        f"error: command line: {key} is 0, not >= 1")
