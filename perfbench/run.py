"""Benchmark of treesched: one workload per invocation, run from the repo root.

    python3 perfbench/run.py --workload {study,design,longrun} --seed N \
        --seconds S --trace {0,1}

Builds nothing: the package is imported from ``src/`` of the checkout.
With ``--trace 0`` it sets up, runs the workload's fixed item list once
with nothing installed around the program, and reports the end-to-end
metrics. With ``--trace 1`` it runs the list untraced and then again with
spans around every layer call, and reports the per-layer metrics. Either
way it then checks every output against independent computations. The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

import time

_START = time.perf_counter()  # set-up is timed from here, before any import

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH_DIR, "out")

# Set-up also runs in this many fresh processes before the item list and as
# many after it, so that its samples span the run; the reported set-up time
# is the median of these and the measuring process's own.
SETUP_PROBES_EACH_SIDE = 3


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["study", "design", "longrun"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only set up, print the set-up seconds and exit")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0: it seeds the protocol's unsigned generator")
    return args


def setup_probes(args):
    """Set-up seconds of SETUP_PROBES_EACH_SIDE fresh processes, one after another."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    out = []
    for _ in range(SETUP_PROBES_EACH_SIDE):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        out.append(float(done.stdout.strip().splitlines()[-1]))
    return out


def tail(times):
    """Highest percentile with at least ten items beyond it, or None under 40 items."""
    n = len(times)
    if n < 40:
        return None
    ordered = sorted(times)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "treesched", "__init__.py")):
        print(f"error: no treesched sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import treesched

    if not os.path.abspath(treesched.__file__).startswith(SRC + os.sep):
        print(f"error: treesched imported from {treesched.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import checks
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, args.seconds,
                                                  os.path.join(OUT, args.workload))
    workload.setup()
    setup_s = time.perf_counter() - _START
    if args.setup_probe:
        print(repr(setup_s))
        return 0

    setups = [setup_s]
    if not args.trace:
        setups += setup_probes(args)  # before the item list
    times, wall, failed, outputs = workload.run()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted = len(times)
    digest = workload.digest(outputs)

    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            workload.setup()
            _, traced_wall, failed, traced_outputs = workload.run()
        finally:
            tracer.uninstall()
        traced_digest = workload.digest(traced_outputs)
        overhead_s = (traced_wall - wall) / attempted
        metrics = tracing.layer_metrics(tracer, overhead_s)
    else:
        setups += setup_probes(args)  # and after it
        metrics = {
            "items_per_s": {"value": attempted / wall, "unit": "1/s"},
            "item_s_p50": {"value": statistics.median(times), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

    correct = True
    try:
        checks.check_splitmix_reference()
        workload.check(outputs)
        if args.trace:
            checks.require(traced_digest == digest, "traced pass produced different outputs")
    except checks.CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        correct = False

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"attempted {attempted} failed {failed} digest sha256:{digest}")
    if args.trace:
        print(f"untraced pass {wall:.4f} s, traced pass {traced_wall:.4f} s")
    else:
        print(f"set-up samples (s): {' '.join(f'{s:.4f}' for s in setups)}")
        tail_at = tail(times)
        if tail_at is not None:
            print(f"item_s_tail {tail_at[1]:.6g} s (p{tail_at[0]:.1f} of {attempted} items)")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
