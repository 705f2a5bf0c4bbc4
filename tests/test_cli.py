import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqxfer import cli
from seqxfer import transfer as transfer_mod
from seqxfer.checkpoint import Checkpoint
from seqxfer.corpus import write_conll
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

    def test_out_directory_is_1_and_leaves_no_tmp(self, ws, capsys):
        (ws / "taken").mkdir()
        assert _run(["pretrain-lm", "--config", ws / "tiny.cfg", "--corpus",
                     ws / "lm.txt", "--epochs", 1, "--out", ws / "taken"]) == 1
        assert capsys.readouterr().err.startswith("error: ")
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
