"""Tests of the benchmark itself, at a tiny scale.

Run from the root of a seqxfer checkout:

    python3 bench/selftest.py

(The file name keeps these out of the repository's pytest run.)
"""

import collections
import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

run.import_checkout(ROOT)

import harness  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def tiny(workload, **changes):
    """The workload with a few sentences per set and short training."""
    counts = dict(workload.counts, lm_a=96, lm_b=48, heldout_b=8, ner_train=4,
                  ner_dev=2, ner_test=4, tag_set=4)
    if "types" in counts:
        counts.update(types=40, lm_len=(5, 12))
    return dataclasses.replace(workload, counts=counts, f1_floor=None,
                               **changes)


def measure(workload, seed=1, trace=0):
    """One tiny run: set-up, warm-up and a single timed round."""
    return harness.measure(workload, seed, 0.0, trace, ROOT, out=io.StringIO())


class TestWorkloads(unittest.TestCase):

    def test_every_metric_printed_with_its_unit(self):
        for name, workload in wl.WORKLOADS.items():
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=name, trace=trace):
                    result, record = measure(tiny(workload), trace=trace)
                    self.assertTrue(result["correct"], record["failures"])
                    self.assertGreaterEqual(result["attempted"], 2)
                    want = {m["name"]: m["unit"] for m in SPEC[key]}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)
                    if trace:
                        self.assertGreaterEqual(record["coverage_min"], 0.85)

    def test_seed_changes_inputs_not_metric_set(self):
        workload = tiny(wl.WORKLOADS["xfer_ner"])
        a, rec_a = measure(workload, seed=1)
        b, rec_b = measure(workload, seed=2)
        self.assertNotEqual(rec_a["inputs_fingerprint"], rec_b["inputs_fingerprint"])
        self.assertEqual(set(a["metrics"]), set(b["metrics"]))
        again, rec_again = measure(workload, seed=1)
        self.assertEqual(rec_a["inputs_fingerprint"], rec_again["inputs_fingerprint"])
        self.assertEqual(rec_a["digests"], rec_again["digests"])

    def test_broken_check_counts_as_failure(self):
        # a span-F1 floor above 100% can never be met
        workload = dataclasses.replace(tiny(wl.WORKLOADS["xfer_ner"]), f1_floor=101.0)
        result, record = measure(workload)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])
        self.assertIn("below floor", record["failures"][0])


class TestHostSpeed(unittest.TestCase):

    def test_times_and_rates_scale_inversely(self):
        # a host running the reference loop half as fast as the reference
        m = {"x_s": (2.0, "s", 3), "x_ms": (20.0, "ms", 3),
             "x_tok_s": (100.0, "tok/s", 3), "rss": (50.0, "MB", 1)}
        got = harness.host_adjusted(m, 2 * harness.HOST_REFERENCE_S)
        self.assertAlmostEqual(got["x_s"][0], 1.0)
        self.assertAlmostEqual(got["x_ms"][0], 10.0)
        self.assertAlmostEqual(got["x_tok_s"][0], 200.0)
        self.assertEqual(got["rss"], m["rss"])

    def test_run_records_measured_values(self):
        result, record = measure(tiny(wl.WORKLOADS["xfer_ner"]))
        self.assertGreater(record["host_reference_s"], 0.0)
        self.assertEqual(set(record["measured_end_to_end"]), set(result["metrics"]))


class TestTracing(unittest.TestCase):

    def summary(self, spans):
        tracer = tracing.Tracer()
        tracer.spans[:] = spans
        return tracer.round_summary()

    def test_entry_point_self_time_is_not_coverage(self):
        # half of the phase is spent in cli.run outside any named operation
        s = self.summary([["phase.pretrain", None, 0.0, 10.0],
                          ["cli.run", 0, 0.0, 10.0],
                          ["bilm.lstm_forward", 1, 0.0, 5.0]])
        self.assertAlmostEqual(s["coverage"]["pretrain"], 0.5)
        self.assertAlmostEqual(s["self"]["cli"], 5.0)
        self.assertAlmostEqual(s["self"]["bilm"], 5.0)
        # coverage is taken over all repeats of a phase in the round
        s = self.summary([["phase.pretrain", None, 0.0, 10.0],
                          ["cli.run", 0, 0.0, 10.0],
                          ["bilm.lstm_forward", 1, 0.0, 5.0],
                          ["phase.pretrain", None, 10.0, 40.0],
                          ["bilm.lstm_forward", 3, 10.0, 40.0]])
        self.assertAlmostEqual(s["coverage"]["pretrain"], 35.0 / 40.0)

    def test_backward_estimate_is_split_by_training_step(self):
        s = self.summary([["phase.x", None, 0.0, 10.0],
                          ["bilm.train_lm", 0, 0.0, 4.0],
                          ["bilm.lstm_forward", 1, 0.0, 2.0],
                          ["gc.collect", 2, 1.5, 2.0],
                          ["tagger.sentence_loss", 0, 4.0, 6.0],
                          ["bilm.lstm_forward", 4, 4.0, 5.0],
                          ["bilm.lstm_forward", 0, 6.0, 9.0]])  # not trained
        self.assertAlmostEqual(s["trained"]["bilm.train_lm", "bilm.lstm_forward"], 1.5)
        self.assertAlmostEqual(s["trained"]["tagger.sentence_loss", "bilm.lstm_forward"], 1.0)
        ratios = {("lstm", "bilm.train_lm"): 2.0, ("lstm", "tagger.sentence_loss"): 5.0}
        m = tracing.per_layer_metrics(s, collections.defaultdict(float), ratios)
        self.assertAlmostEqual(m["bilm.lstm_forward.bwd_s"][0], 1.5 * 2.0 + 1.0 * 5.0)


class TestCommandLine(unittest.TestCase):

    def test_fails_without_the_program(self):
        """In a directory holding only the benchmark, it exits non-zero
        without printing a result."""
        bare = os.path.join(ROOT, ".bench_work", "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copytree(HERE, os.path.join(bare, "bench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "xfer_ner",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=120)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
