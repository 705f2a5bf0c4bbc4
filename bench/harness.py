"""One benchmark run: set-up, warm-up, timed rounds, checks and report.

Import after `run.import_checkout` has put the checkout's src/ on sys.path.
"""

import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

import numpy as np

import tracing
import workloads as wl

SETUP_REPEATS = 11
COVERAGE_TOLERANCE = 0.15   # share of each phase that entry-point glue may take
# End-to-end times are reported at this host speed: the mean seconds of
# one workloads.host_reference() pass on the 2-vCPU host the bounds were
# set on (NOTES.md, "Host speed").
HOST_REFERENCE_S = 0.007


def git_commit(root):
    """HEAD from .git without running git; 'unknown' outside a repository."""
    try:
        with open(os.path.join(root, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(root, ".git", ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_record(root, workload, seed, seconds, trace):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "machine": platform.machine(), "git_commit": git_commit(root),
    }


def host_adjusted(metrics, host_ref_s):
    """Scale time metrics to a host on which host_reference() takes
    HOST_REFERENCE_S: times by HOST_REFERENCE_S / host_ref_s, rates by its
    inverse.  Other units are left as measured."""
    f = HOST_REFERENCE_S / host_ref_s
    scale = {"s": f, "ms": f, "tok/s": 1.0 / f}
    return {k: (v * scale.get(u, 1.0), u, n) for k, (v, u, n) in metrics.items()}


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


class Run:
    """One benchmark invocation: set-up, warm-up, timed rounds, checks."""

    def __init__(self, workload, seed, seconds, work_root):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.work_root = work_root
        self.attempted = 0
        self.failures = []
        self.rounds = []          # (traced, Round, trace summary, trace counts)
        self.notes = {}

    def _attempt(self, fn):
        """Run one checked operation; a failed check or error is a failure."""
        self.attempted += 1
        try:
            return fn()
        except wl.CheckFailed as exc:
            self.failures.append(str(exc))
        except Exception as exc:  # a crashing round is a failed operation
            self.failures.append(f"{type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
        return None

    def setup(self):
        times, self.setup_host_ref = [], []
        for k in range(SETUP_REPEATS):
            path = os.path.join(self.work_root, f"setup{k}")
            self.setup_host_ref.append(wl.host_reference())
            t0 = time.perf_counter()
            os.makedirs(path)
            os.chdir(path)
            self.inputs, self.model = wl.setup(self.workload, self.seed)
            times.append(time.perf_counter() - t0)
        self.setup_times = times

    def warm_up(self):
        """Untimed first round; its digests are the reference for repeats."""
        def first():
            r = wl.run_round(self.workload, self.inputs, self.model)
            self.reference = wl.checkpoint_digests()
            wl.check_round(self.workload, self.inputs, r, self.reference)
            wl.check_viterbi(self.inputs)
            self.notes["perplexity_before_finetune"] = wl.check_finetune_gain(
                self.inputs, r)
            self.notes["perplexity"] = r.ppl
            self.notes["test_f1"] = r.test_f1
            return r
        self.reference = None
        self._attempt(first)

    def timed_rounds(self, tracer=None):
        deadline = time.perf_counter() + self.seconds
        durations = []
        while True:
            traced = tracer is not None and len(durations) % 2 == 0
            if traced:
                tracer.reset_round()

            def one():
                r = wl.run_round(self.workload, self.inputs, self.model,
                                 tracer.phase if traced else None)
                summary = tracer.round_summary() if traced else None
                # a round that ran to the end is timed even if a check fails
                self.rounds.append((traced, r, summary,
                                    dict(tracer.counts) if traced else None))
                wl.check_round(self.workload, self.inputs, r, self.reference)
                if traced:
                    low = {k: v for k, v in summary["coverage"].items()
                           if v < 1.0 - COVERAGE_TOLERANCE}
                    wl.check(not low, f"named layer spans cover too little of {low}")
            t0 = time.perf_counter()
            self._attempt(one)
            durations.append(time.perf_counter() - t0)
            if time.perf_counter() + statistics.median(durations) > deadline:
                break

    def end_to_end(self):
        """Medians over the untraced rounds, with times scaled to the
        reference host speed by the run's mean host_reference()."""
        plain = [r for traced, r, _, _ in self.rounds if not traced]
        samples = {}
        for r in plain:
            for name, rates in wl.throughputs(self.workload, self.inputs, r).items():
                samples.setdefault(name, []).extend(rates)
        m = {name: (statistics.median(v), "tok/s", len(v)) for name, v in samples.items()}
        m["pipeline_s"] = (statistics.median(wl.pipeline_s(r) for r in plain), "s", len(plain))
        sent_ms = [ms for r in plain for ms in r.sent_ms]
        m["tag_sent_p50_ms"] = (statistics.median(sent_ms), "ms", len(sent_ms))
        m["tag_sent_p90_ms"] = (percentile(sent_ms, 90), "ms", len(sent_ms))
        m["setup_s"] = (statistics.median(self.setup_times), "s", len(self.setup_times))
        m["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "MB", 1)
        host = [t for r in plain for t in r.host_ref] + self.setup_host_ref
        # the mean: the host switches between two speeds within
        # milliseconds, and a phase averages over the switches
        self.notes["host_reference_s"] = statistics.fmean(host)
        self.notes["host_reference_samples"] = len(host)
        self.notes["measured_end_to_end"] = {k: v for k, (v, _, _) in m.items()}
        scaled = host_adjusted(m, self.notes["host_reference_s"])
        # a set-up can be too short to average over the host's two speeds,
        # so each one is scaled by the reference pass run just before it
        scaled["setup_s"] = (statistics.median(
            t * HOST_REFERENCE_S / h for t, h in zip(self.setup_times, self.setup_host_ref)),
            "s", len(self.setup_times))
        return scaled

    def per_layer(self, tracer):
        ratios = tracing.replay_ratios(tracer, self.seed)
        self.notes["replay_bwd_fwd_ratio"] = {f"{kind}@{step}": r for (kind, step), r
                                              in ratios.items()}
        per_round = [tracing.per_layer_metrics(s, c, ratios)
                     for traced, r, s, c in self.rounds if traced]
        m = {name: (statistics.median(x[name][0] for x in per_round), unit, len(per_round))
             for name, (_, unit) in per_round[0].items()}
        coverage = [v for traced, r, s, c in self.rounds if traced
                    for v in s["coverage"].values()]
        traced_wall = [wl.pipeline_s(r) for traced, r, _, _ in self.rounds if traced]
        plain_wall = [wl.pipeline_s(r) for traced, r, _, _ in self.rounds if not traced]
        self.notes["coverage_by_phase"] = {
            k: statistics.median(s["coverage"][k] for traced, r, s, c in self.rounds if traced)
            for k in wl.Round.PHASES}
        self.notes["coverage_min"] = min(coverage)
        if plain_wall:
            self.notes["trace_overhead"] = (statistics.median(traced_wall)
                                            / statistics.median(plain_wall) - 1.0)
        return m


def measure(workload, seed, seconds, trace, root, out=sys.stdout):
    """Run one workload in `root`; returns (result, record), after printing
    the report to `out`.  Raises SystemExit when no round ran to the end."""
    work_root = os.path.join(root, ".bench_work", f"{workload.name}-{os.getpid()}")
    cwd = os.getcwd()
    run = Run(workload, seed, seconds, work_root)
    tracer = tracing.Tracer(seed) if trace else None
    try:
        run.setup()
        run.warm_up()
        run.timed_rounds(tracer)
    finally:
        os.chdir(cwd)
        shutil.rmtree(work_root, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_root))
        except OSError:  # another run is still using it
            pass
    if not any(traced == bool(trace) for traced, *_ in run.rounds):
        raise SystemExit("error: no round completed; failures: "
                         + "; ".join(run.failures))
    metrics = run.per_layer(tracer) if trace else run.end_to_end()
    failed = len(run.failures)
    result = {"correct": failed == 0, "attempted": run.attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}}
    record = {"run": run_record(root, workload.name, seed, seconds, trace),
              "inputs_fingerprint": run.inputs.fingerprint(),
              "digests": run.reference, "failures": run.failures,
              "samples": {k: n for k, (_, _, n) in metrics.items()},
              "rounds": [{"traced": t, "wall": r.wall, "host_ref": r.host_ref}
                         for t, r, _, _ in run.rounds],
              "setup_times": run.setup_times, "setup_host_ref": run.setup_host_ref,
              **run.notes}
    if trace:
        record["last_traced_round"] = {"spans": tracer.spans, "counts": tracer.counts}
    report(result, metrics, record, out)
    return result, record


def report(result, metrics, record, out):
    w = out.write
    w(f"# seqxfer benchmark  workload={record['run']['workload']} "
      f"seed={record['run']['seed']} trace={record['run']['trace']}\n")
    w("# run record: " + json.dumps(record["run"], sort_keys=True) + "\n")
    rounds = record["rounds"]
    w(f"# rounds: 1 warm-up + {len(rounds)} timed "
      f"({sum(r['traced'] for r in rounds)} traced); "
      f"attempted {result['attempted']}, failed {result['failed']}\n")
    for f in record["failures"]:
        w(f"#   FAILED: {f}\n")
    if "host_reference_s" in record:
        w(f"# times below are scaled to a host_reference() of {HOST_REFERENCE_S * 1e3:g} ms; "
          f"this run's mean was {record['host_reference_s'] * 1e3:.3f} ms\n")
    for name, (value, unit, n) in metrics.items():
        w(f"#   {name:<34} {value:>14.6g} {unit:<10} from {n} samples\n")
    for key in ("host_reference_s", "host_reference_samples", "measured_end_to_end",
                "coverage_by_phase", "coverage_min", "trace_overhead",
                "replay_bwd_fwd_ratio", "perplexity", "perplexity_before_finetune",
                "test_f1"):
        if key in record:
            w(f"# {key}: {json.dumps(record[key])}\n")
