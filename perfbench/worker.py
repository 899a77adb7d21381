"""One benchmark process: set up, then run whole rounds of one workload.

Started by run.py in a fresh interpreter per measurement, with workers=1
and single-threaded numeric libraries.  Prints one JSON line with the raw
per-op times, the set-up time, the peak RSS and, when traced, the span
totals.  Modes:

- ``setup``: import and warm up, report set-up time, exit;
- ``measure``: set up, then time ops for ``--seconds``;
- ``trace``: as ``measure`` with the tracer installed after set-up.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def _import_package():
    """The graphpower package of this checkout, never an installed copy."""
    sys.path.insert(0, SRC)
    import graphpower
    where = os.path.dirname(os.path.abspath(graphpower.__file__))
    if where != os.path.join(SRC, "graphpower"):
        raise ImportError(f"graphpower imported from {where}, not {SRC}")
    return graphpower


def _timed(op, t, stored):
    """(wall seconds, what failed or None) of op ``t``; ``stored`` holds the
    reference digests of this op kind, by trial index."""
    start = time.perf_counter()
    try:
        out = op.run(t)
    except Exception as exc:        # a failed op is counted, not fatal
        return None, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    problem = op.check(t, out)
    if problem is None and t < len(stored):
        got = op.digest(t, out)
        if got != stored[t]:
            problem = f"record digest {got} != stored {stored[t]}"
    return elapsed, problem


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--out", required=True, help="scratch record file")
    args = ap.parse_args(argv)

    start = time.perf_counter()
    gp = _import_package()
    import workloads
    problems = workloads.warmup(gp, args.workload, args.out)
    setup_s = time.perf_counter() - start
    result = {"setup_s": setup_s, "problems": problems}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)
    digests = reference["digests"].get(str(args.seed), {}).get(args.workload, {})
    ops = workloads.build(gp, args.workload, args.seed, args.out, reference)

    spans = None
    if args.mode == "trace":
        import tracer
        spans = tracer.Tracer()
        spans.install(gp)

    times, labels = [], []
    rounds = 0
    loop_start = time.perf_counter()
    deadline = loop_start + args.seconds
    while True:
        for op in ops:
            elapsed, problem = _timed(op, rounds, digests.get(op.label, []))
            times.append(None if problem else elapsed)
            labels.append(op.label)
            if problem:
                problems.append(f"{op.label} #{rounds}: {problem}")
        rounds += 1
        if time.perf_counter() >= deadline:
            break
    elapsed = time.perf_counter() - loop_start
    if spans:
        spans.restore()
        result["trace"] = spans.totals()

    result.update(
        times=times, labels=labels, rounds=rounds, elapsed_s=elapsed,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        digests_checked=sum(min(rounds, len(v)) for v in digests.values()))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
