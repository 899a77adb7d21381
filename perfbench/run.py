"""graphpower benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout: the package is imported from ``src/`` of
that checkout, never from an installed copy.  Workloads: sparse-implicit,
sparse-coloring, dense-explicit, theory-eval (see workloads.py and
README.md).  Each measurement runs in a fresh interpreter (worker.py) with
workers=1 and single-threaded numeric libraries; a closed loop runs whole
rounds of the workload's ops until ``--seconds`` have passed.

``--trace 0`` reports the end-to-end metrics.  ``setup_s`` is the median
over six set-up-only processes and the measuring one.  ``--trace 1``
spends half the time in an untraced process and half in a traced one, and
reports the per-layer metrics per op plus ``trace_overhead``, the traced
ops/s over the untraced ops/s.

Every op's output is checked (record digests for the stored seeds, record
invariants for any seed, reference values for theory-eval).  The last line
of stdout is one JSON object; the exit code is 1 when a check failed and 2
when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 6
TIME_LIMIT_S = 170
TAIL_BEYOND = 10

# one process, one thread: the numeric libraries must not start pools
CHILD_ENV = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                 MKL_NUM_THREADS="1")


class BenchError(Exception):
    pass


def _child(args, mode, seconds, outdir, deadline):
    out = os.path.join(outdir, f"{mode}.jsonl")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--mode", mode, "--out", out]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=CHILD_ENV, stdout=subprocess.PIPE,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} process passed the {TIME_LIMIT_S} s limit")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} process exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _ops(child):
    """(attempted, failed, times of the ops that passed their checks)."""
    ok = [t for t in child["times"] if t is not None]
    return len(child["times"]), len(child["times"]) - len(ok), ok


def _rate(child):
    return len(_ops(child)[2]) / child["elapsed_s"]


def _tail(times):
    """The highest percentile with TAIL_BEYOND samples beyond it (nearest
    rank), as (value, percentile); None when there are too few samples."""
    n = len(times)
    if n <= TAIL_BEYOND:
        return None
    k = n - TAIL_BEYOND - 1
    return sorted(times)[k], 100.0 * (k + 1) / n


def end_to_end(child, setups):
    attempted, failed, ok = _ops(child)
    tail = _tail(ok)
    if tail is None:
        raise BenchError(f"{len(ok)} ops are too few for a tail with "
                         f"{TAIL_BEYOND} samples beyond it; raise --seconds")
    metrics = {
        "ops_per_s": (_rate(child), "1/s"),
        "op_p50_ms": (statistics.median(ok) * 1e3, "ms"),
        "op_tail_ms": (tail[0] * 1e3, "ms"),
        "peak_rss_mb": (child["peak_rss_mb"], "MB"),
        "setup_s": (statistics.median(setups), "s"),
        "success_ratio": ((attempted - failed) / attempted, "ratio"),
    }
    notes = {"op_tail_ms": f"p{tail[1]:.1f} of {len(ok)} ops, {TAIL_BEYOND} beyond",
             "setup_s": f"median of {len(setups)} fresh processes",
             "success_ratio": f"fail_ratio = {failed / attempted:.4f} "
                              f"({failed} of {attempted} ops)"}
    return metrics, notes, attempted, failed


def per_layer(plain, traced):
    attempted = failed = 0
    for child in (plain, traced):
        a, f, _ = _ops(child)
        attempted, failed = attempted + a, failed + f
    plain_rate, traced_rate = _rate(plain), _rate(traced)
    values = tracer.per_layer_metrics(traced["trace"], len(traced["times"]),
                                      traced_rate / plain_rate if plain_rate else 0.0)
    units = tracer.per_layer_units()
    metrics = {name: (value, units[name]) for name, value in values.items()}
    notes = {"trace_overhead": f"{traced_rate:.4g} traced / {plain_rate:.4g} "
                               f"untraced ops/s"}
    return metrics, notes, attempted, failed


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "graphpower", "__init__.py")):
        print(f"benchmark: no graphpower package under {ROOT}/src", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    scratch = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(scratch, exist_ok=True)
    outdir = tempfile.mkdtemp(dir=scratch)
    try:
        if args.trace:
            plain = _child(args, "measure", args.seconds / 2, outdir, deadline)
            traced = _child(args, "trace", args.seconds / 2, outdir, deadline)
            children = [plain, traced]
            metrics, notes, attempted, failed = per_layer(plain, traced)
        else:
            probes = [_child(args, "setup", 0, outdir, deadline)
                      for _ in range(SETUP_PROBES)]
            main_run = _child(args, "measure", args.seconds, outdir, deadline)
            children = probes + [main_run]
            metrics, notes, attempted, failed = end_to_end(
                main_run, [c["setup_s"] for c in children])
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass

    problems = [p for c in children for p in c["problems"]]
    for p in problems[:20]:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    correct = not problems
    measured = children[-1]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{measured['rounds']} rounds, {len(measured['times'])} ops in "
          f"{measured['elapsed_s']:.2f} s, {measured['digests_checked']} record "
          f"digests checked")
    for name, (value, unit) in metrics.items():
        note = notes.get(name, "")
        print(f"  {name:<40} {value:>14.6g} {unit:<8} {note}")
    by_label = {}
    for label, t in zip(measured["labels"], measured["times"]):
        if t is not None:
            by_label.setdefault(label, []).append(t * 1e3)
    for label, times in sorted(by_label.items()):
        print(f"  op {label:<37} {statistics.median(times):>14.6g} ms median "
              f"of {len(times)}, {min(times):.6g}..{max(times):.6g}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
