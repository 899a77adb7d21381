"""Regenerate reference.json: the stored outputs the benchmark checks.

    python3 perfbench/make_reference.py

For each seed in REFERENCE_SEEDS and each trial workload, the digest of the
emitted record file (or of the stats op's output) of the first
DIGEST_ROUNDS rounds; for theory-eval, the value of every evaluator call in
the batch.  Run it only on a version whose records are known good: a
change that must keep records byte-identical is checked against these.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from worker import _import_package  # noqa: E402

# enough rounds to cover a 25 s run at this version's speed, with room to spare
DIGEST_ROUNDS = {"sparse-implicit": 32, "sparse-coloring": 200,
                 "dense-explicit": 48}


def main():
    gp = _import_package()
    reference = {"theory": None, "digests": {}}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "records.jsonl")
        ops = workloads.build(gp, "theory-eval", 0, path, reference)
        values = {op.index: workloads.canonical(op.run(0)) for op in ops}
        theory = [values[i] for i in range(len(ops))]
        for seed in workloads.REFERENCE_SEEDS:
            per_workload = reference["digests"][str(seed)] = {}
            for workload, rounds in DIGEST_ROUNDS.items():
                ops = workloads.build(gp, workload, seed, path, reference)
                digests = {op.label: [] for op in ops}
                for t in range(rounds):
                    for op in ops:
                        out = op.run(t)
                        problem = op.check(t, out)
                        if problem:
                            sys.exit(f"{workload} seed {seed} {op.label} #{t}: {problem}")
                        digests[op.label].append(op.digest(t, out))
                per_workload[workload] = digests
                print(f"seed {seed} {workload}: {rounds} rounds", file=sys.stderr)
    reference["theory"] = theory
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
