"""The four benchmark workloads, their inputs, and the checks on their outputs.

Every op goes through the package's public calls only: a trial op is
``ExperimentConfig`` + ``run_single_trial`` + ``summarize`` + ``emit`` (a
one-trial campaign, the path ``graphpower experiment run`` takes per trial);
the stats op and the theory ops call public ``graph``/``metrics``/``theory``
functions.  Functions are looked up on their modules at call time, so the
traced run sees the wrappers it installs.

Inputs come from ``--seed`` alone: each op kind gets its campaign seed from
``input_seed(seed, workload, label)``; the package receives only the
generated configs.

Limits of the package at this version, which every op here stays inside
(a change that lifts one may add a workload for it, as its own change):

- ``delta-concentration`` needs ``log_(r+2) n > 0`` for ``D*``: at r=3 that
  is n > e^(e^e), about 3.8e6, and smaller n raise ``DomainError``.  The
  r=3 BFS load therefore comes from ``degree-pmf`` trials.
- ``degree_sum_pmf`` raises ``BudgetExceededError`` for D above
  ``DEFAULT_PMF_CAP`` (60); theory-eval stays at D <= 40.
- ``lemma2_min_exact`` enumerates compositions under a work cap of
  ``DEFAULT_ENUM_WORK_CAP`` (5e6): r=3 reaches it near D=3160, r=4 near
  D=310.  theory-eval uses r <= 3 and D <= 1000 (about 5e5 compositions).
- ``dense-chi`` needs d > log n; ``chi2-equality`` needs r=2.
- The exact clique and chromatic solvers have node budgets (5e6 and 2e6);
  at n=150, d=3 and on the radius-2 balls of chi2-equality they are not hit.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

WORKLOADS = ("sparse-implicit", "sparse-coloring", "dense-explicit", "theory-eval")

# seeds whose per-trial record digests are stored in reference.json: the
# default --seed and one held out while the benchmark was tuned
REFERENCE_SEEDS = (1, 7)

# campaign length written into every config (it enters the config hash);
# trial indices stay below it
TRIALS = 100_000

# (label, config) per trial op kind.  Sizes are set so that a 25 s run holds
# about 30 ops of the slow workloads, enough for a steady median and a tail
# with 10 samples beyond it: sparse-implicit runs delta-concentration at
# n=1e5 and degree-pmf at n=7e4, where both kinds of trial cost about the
# same (two well-separated clusters of op times would make the median of a
# ~30-op run jump between them); dense-explicit runs at n=1000, d=30, where
# G^2 has about 3e5 edges.
TRIAL_KINDS = {
    "sparse-implicit": [
        ("delta-concentration", dict(kind="delta-concentration", n=100_000, d=2.0, r=2)),
        ("degree-pmf", dict(kind="degree-pmf", n=70_000, d=2.0, r=3)),
    ],
    "sparse-coloring": [
        ("chi2-equality", dict(kind="chi2-equality", n=2000, d=2.0, r=2)),
        ("chi-sandwich", dict(kind="chi-sandwich", n=3000, d=2.0, r=3)),
        ("clique-sandwich-r2", dict(kind="clique-sandwich", n=150, d=3.0, r=2)),
        ("clique-sandwich-r3", dict(kind="clique-sandwich", n=150, d=3.0, r=3)),
    ],
    "dense-explicit": [
        ("dense-chi", dict(kind="dense-chi", n=1000, d=30.0, r=2)),
    ],
}

# the same code paths at toy sizes, run during set-up
WARMUP_SIZES = {"delta-concentration": dict(n=400), "degree-pmf": dict(n=400),
                "chi2-equality": dict(n=200), "chi-sandwich": dict(n=200),
                "clique-sandwich": dict(n=40), "dense-chi": dict(n=100, d=10.0)}

STATS = dict(n=500, d=2.0, r=2, s=2, t=8)   # `graphpower stats --codegree`


def theory_batch():
    """The fixed evaluator batch of theory-eval, as (formula, args) pairs."""
    calls = []
    for d, r, top in ((2.0, 2, 40), (2.0, 3, 40), (5.0, 2, 40), (0.7, 4, 30)):
        calls += [("degree_sum_pmf", (d, r, big_d)) for big_d in range(top + 1)]
    calls += [("lemma2_min_exact", (big_d, r))
              for big_d in (100, 300, 1000) for r in (2, 3)]
    grid = [10 ** (6 * k / 29) for k in range(30)]   # D from 1 to 1e6
    calls += [("lemma2_min_lagrange", (big_d, r))
              for r in (2, 3, 4) for big_d in grid]
    return calls


def input_seed(*parts):
    """63-bit seed derived from its parts, e.g. (--seed, workload, op label)."""
    text = ":".join(map(str, parts)).encode()
    return int.from_bytes(hashlib.sha256(text).digest()[:8], "big") >> 1


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


class TrialOp:
    """One trial of a campaign: run, summarize, emit one jsonl record file."""

    def __init__(self, gp, label, config, campaign_seed, path):
        self.label = label
        self.ex = gp.experiments
        self.cfg = gp.experiments.ExperimentConfig(
            trials=TRIALS, seed=campaign_seed, **config)
        self.path = path

    def run(self, t):
        ex = self.ex
        rec = ex.run_single_trial(self.cfg, t)
        summary = ex.summarize(self.cfg, [rec])
        ex.emit([rec], "jsonl", self.path, self.cfg.config_hash())
        return rec, summary

    def digest(self, t, out):
        with open(self.path, "rb") as fh:
            return _digest(fh.read())

    def check(self, t, out):
        """None if the record's invariants hold, else what broke."""
        rec, summary = out
        v = rec.values
        kind, n = self.cfg.kind, self.cfg.n
        if summary["kind"] != kind or summary["trials"] != 1:
            return "summary does not describe the trial"
        if kind == "delta-concentration":
            deltas = [v[f"delta_{s}"] for s in range(1, self.cfg.r + 1)]
            if deltas != sorted(deltas) or not 0 < deltas[-1] < n:
                return f"power max degrees out of order: {deltas}"
            if not math.isclose(v["ratio"], deltas[-1] / v["d_star"], rel_tol=1e-12):
                return "ratio != delta_r / d_star"
        elif kind == "degree-pmf":
            counts = [v[f"count_{k}"] for k in range(self.cfg.degree_cap + 1)]
            if min(counts) < 0 or sum(counts) > n:
                return f"degree counts exceed n: {sum(counts)}"
        elif kind == "chi2-equality":
            if v["proper"] is not True:
                return "coloring of G^2 not proper"
        elif kind == "chi-sandwich":
            if v["proper"] is not True or v["lb_ok"] is not True:
                return f"proper={v['proper']} lb_ok={v['lb_ok']}"
        elif kind == "clique-sandwich":
            if v["lower_ok"] is not True:
                return f"clique lower bound {v['clique_lower']} > omega {v['omega']}"
        elif kind == "dense-chi":
            if not (1 <= v["palette"] <= n and 1 <= v["alpha_greedy"] <= n):
                return f"palette {v['palette']} / alpha {v['alpha_greedy']} out of range"
            if not math.isclose(v["ratio_chi"], v["palette"] / v["theta"], rel_tol=1e-12):
                return "ratio_chi != palette / theta"
        return None


class StatsOp:
    """Co-degree and short-cycle statistics of one sampled graph."""

    label = "stats"

    def __init__(self, gp, campaign_seed):
        self.gp = gp
        self.seed = campaign_seed

    def run(self, t):
        gp, p = self.gp, STATS
        g = gp.graph.gnp_sample(p["n"], p["d"] / p["n"],
                                gp.rng.RandomSource(input_seed(self.seed, "stats", t)))
        layer, power = gp.metrics.codegree_max(g, p["r"])
        z = gp.metrics.short_cycle_proximity(g, p["s"], p["t"])
        return int(g.degrees().max()), [layer, power, z]

    def digest(self, t, out):
        return _digest(json.dumps(out[1]).encode())

    def check(self, t, out):
        max_degree, (layer, power, z) = out
        if not (0 <= layer <= max_degree and 0 <= power <= max_degree):
            return f"co-degree ({layer}, {power}) above max degree {max_degree}"
        if not (z == 0 or 3 <= z <= STATS["n"]):
            return f"Z = {z} is not a union of cycles' neighbourhoods"
        return None


def canonical(result):
    """Comparable value of an evaluator result."""
    if isinstance(result, float):
        return result
    if isinstance(result, tuple):                     # lemma2_min_exact
        value, profile = result
        return [value, list(profile.ell)]
    return result.value                               # LagrangeSolution


class TheoryOp:
    """One evaluator call, compared with a stored value by relative tolerance:
    an equivalent formula may differ from this version in the last bits."""

    # the Lagrange solution comes from bisection to a 1e-10 tolerance
    RTOL = {"degree_sum_pmf": 1e-9, "lemma2_min_exact": 1e-9,
            "lemma2_min_lagrange": 1e-7}

    def __init__(self, gp, index, formula, args, expected):
        self.label = formula
        self.theory = gp.theory
        self.index, self.formula, self.args = index, formula, args
        self.expected = expected

    def run(self, t):
        return getattr(self.theory, self.formula)(*self.args)

    def check(self, t, out):
        got = canonical(out)
        want = self.expected
        if isinstance(want, list):
            if got[1] != want[1]:
                return f"{self.formula}{self.args}: argmin {got[1]} != {want[1]}"
            got, want = got[0], want[0]
        if not math.isclose(got, want, rel_tol=self.RTOL[self.formula], abs_tol=1e-300):
            return f"{self.formula}{self.args} = {got!r}, expected {want!r}"
        return None


def build(gp, workload, seed, path, reference):
    """The ops of one round, in order.  A round runs each op once."""
    if workload == "theory-eval":
        batch = theory_batch()
        expected = reference["theory"]
        ops = [TheoryOp(gp, i, f, a, expected[i] if expected else None)
               for i, (f, a) in enumerate(batch)]
        random.Random(input_seed(seed, workload, "order")).shuffle(ops)
        return ops
    ops = [TrialOp(gp, label, config, input_seed(seed, workload, label), path)
           for label, config in TRIAL_KINDS[workload]]
    if workload == "sparse-coloring":
        ops.append(StatsOp(gp, input_seed(seed, workload, "stats")))
    return ops


def warmup(gp, workload, path):
    """Run every code path of the workload once at toy size; returns the
    problems found (empty when all checks pass)."""
    if workload == "theory-eval":
        gp.theory.degree_sum_pmf(2.0, 3, 6)
        gp.theory.lemma2_min_exact(20, 3)
        gp.theory.lemma2_min_lagrange(100.0, 3)
        return []
    problems = []
    ops = [TrialOp(gp, label, dict(config, **WARMUP_SIZES[config["kind"]]), 0, path)
           for label, config in TRIAL_KINDS[workload]]
    for op in ops:
        problem = op.check(0, op.run(0))
        if problem:
            problems.append(f"warm-up {op.label}: {problem}")
    if workload == "sparse-coloring":
        g = gp.graph.gnp_sample(100, 0.02, gp.rng.RandomSource(0))
        gp.metrics.codegree_max(g, 2)
        gp.metrics.short_cycle_proximity(g, 2, 8)
    return problems
