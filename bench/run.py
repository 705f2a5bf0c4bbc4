"""seqxfer benchmark entry point.

Run from the root of a seqxfer checkout:

    python3 bench/run.py --workload xfer_ner --seed 1 --seconds 30 --trace 0

It builds the workload's inputs from --seed, runs one untimed warm-up
round, then timed rounds for --seconds, checks every round's outputs and
prints a report followed, as the last stdout line, by one JSON object:
{"correct", "attempted", "failed", "metrics"}.  --trace 0 gives the
end-to-end metrics; --trace 1 gives the per-layer metrics, from rounds
that alternate traced and untraced so tracing overhead can be reported.
A record of the run (environment, per-round values, digests, trace
summary) is written to .bench_out/.  See bench/NOTES.md.
"""

import argparse
import json
import os
import sys


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_checkout(root):
    """Put the checkout's src/ first on sys.path; the benchmark must
    measure this checkout's seqxfer, not an installed one.

    BLAS always gets one thread, whatever the caller's environment says:
    the workloads are bound by per-node Python overhead, one thread was as
    fast as two and steadier from run to run on a shared 2-vCPU host, and
    the bounds in BENCHMARK.json were set for it.
    """
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "seqxfer", "__init__.py")):
        raise SystemExit(f"error: {src}/seqxfer not found; run from the root "
                         "of a seqxfer checkout")
    sys.path.insert(0, src)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import seqxfer
    if not os.path.abspath(seqxfer.__file__).startswith(src + os.sep):
        raise SystemExit(f"error: seqxfer imported from {seqxfer.__file__}, not {src}")


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    import_checkout(root)
    import harness
    import workloads
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    result, record = harness.measure(workloads.WORKLOADS[args.workload], args.seed,
                                     args.seconds, args.trace, root)
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump({"result": result, **record}, fh, indent=1, sort_keys=True, default=str)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
