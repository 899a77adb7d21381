"""Reproducible Monte Carlo campaigns testing each structural claim at desk
scale, with machine-readable output.

Per-trial seeds derive from (seed, trial index) via splitmix64, so serial and
parallel runs produce identical records; the record sink orders by trial
index regardless of completion order.  Frequency gates for the asymptotic
(w.h.p.) claims are artifact regression thresholds, not literal claims, and
are documented as such in the emitted reports.
"""

from __future__ import annotations

import csv
import hashlib
import inspect
import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from . import coloring as col
from . import metrics, theory
from .errors import (BudgetExceededError, ConfigError, DomainError,
                     ForestViolationError)
from .graph import (DEFAULT_EDGE_CAP, ball, gnp_sample, graph_power,
                    induced_subgraph, power_table)
from .rng import RandomSource, derive_seed

# fields that define the experiment semantically (hashed into every record
# file header); output routing and worker count deliberately excluded
_HASH_FIELDS = ("kind", "n", "d", "r", "epsilon", "trials", "seed",
                "clique_budget", "chi_budget", "edge_cap", "degree_cap",
                "measure_z", "sample_mode")


@dataclass
class ExperimentConfig:
    kind: str
    n: int
    r: int
    d: float = None
    p: float = None
    epsilon: float = 0.1
    trials: int = 1
    seed: int = 0
    clique_budget: int = 5_000_000
    chi_budget: int = 2_000_000
    edge_cap: int = 10 ** 8
    degree_cap: int = 15
    measure_z: bool = False
    sample_mode: str = "auto"
    workers: int = 1
    out: str = None
    fmt: str = "jsonl"

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown experiment kind {self.kind!r}")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.n < 1 or self.r < 1:
            raise ConfigError("require n >= 1 and r >= 1")
        if self.d is None and self.p is None:
            raise ConfigError("give one of d or p")
        if self.p is None:
            self.p = self.d / self.n
        elif self.d is None:
            self.d = self.p * self.n
        if not 0 <= self.p <= 1:
            raise ConfigError("edge probability must be in [0, 1]")
        if self.kind == "chi2-equality" and self.r != 2:
            raise ConfigError("chi2-equality requires r = 2")
        if self.kind in ("chi-sandwich",) and self.r < 2:
            raise ConfigError("chi-sandwich requires r >= 2")
        if self.kind == "dense-chi" and self.d <= math.log(self.n):
            raise ConfigError("dense-chi requires d > log n")
        if self.fmt not in ("csv", "jsonl"):
            raise ConfigError(f"unknown format {self.fmt!r}")
        if self.sample_mode not in ("auto", "bernoulli", "skip"):
            raise ConfigError(f"unknown sample_mode {self.sample_mode!r}; "
                              "use auto, bernoulli or skip")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        for key in ("clique_budget", "chi_budget", "edge_cap", "degree_cap"):
            if getattr(self, key) < 0:
                raise ConfigError(f"{key} must be >= 0")

    def config_hash(self) -> str:
        text = "\n".join(f"{k}={getattr(self, k)!r}" for k in _HASH_FIELDS)
        return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class TrialRecord:
    trial: int
    seed: int
    values: dict
    exact: dict = field(default_factory=dict)
    wall_ms: float = 0.0  # volatile; excluded from serialized output


def _parse_bool(text):
    if text.lower() in ("true", "1", "yes"):
        return True
    if text.lower() in ("false", "0", "no"):
        return False
    raise ValueError(text)


# a config value parses by the annotation of its ExperimentConfig field
_PARSERS = {"str": str, "int": int, "float": float, "bool": _parse_bool}


def _read_lines(path):
    """The lines of a text file; a file that is not UTF-8 is a config error."""
    try:
        with open(path) as fh:
            return fh.readlines()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not a UTF-8 text file: {exc}") from None


def parse_config_file(path) -> ExperimentConfig:
    """Flat ``key = value`` config text; '#' comments; unknown keys error."""
    known = {f.name: _PARSERS[f.type] for f in fields(ExperimentConfig)}
    raw = {}
    for lineno, line in enumerate(_read_lines(path), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in known:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            raw[key] = known[key](value)
        except ValueError:
            raise ConfigError(
                f"{path}:{lineno}: bad value for {key}: {value!r}") from None
    if "d" in raw and "p" in raw:
        raise ConfigError(f"{path}: give only one of d or p")
    for f in fields(ExperimentConfig):
        if f.default is MISSING and f.name not in raw:
            raise ConfigError(f"{path}: missing required key {f.name!r}")
    return ExperimentConfig(**raw)


# -- per-trial measurement --------------------------------------------------


def run_single_trial(cfg: ExperimentConfig, trial: int) -> TrialRecord:
    seed = derive_seed(cfg.seed, trial)
    start = time.perf_counter()
    g = gnp_sample(cfg.n, cfg.p, RandomSource(seed), mode=cfg.sample_mode)
    values, exact = _MEASURE[cfg.kind](cfg, g)
    if cfg.measure_z:
        t = min(2 * cfg.r, metrics.DEFAULT_CYCLE_LENGTH_CAP)
        values["z_proximity"] = metrics.short_cycle_proximity(g, cfg.r, max(t, 3))
        exact["z_proximity"] = True
    wall = (time.perf_counter() - start) * 1000.0
    return TrialRecord(trial, seed, values, exact, wall)


def _measure_delta(cfg, g):
    degrees, _ = power_table(g, cfg.r, None)
    values = {}
    for s in range(1, cfg.r + 1):
        values[f"delta_{s}"] = metrics.power_max_degree(degrees, s).delta
    ds = theory.d_star(cfg.n, cfg.r)
    values["d_star"] = ds
    values["ratio"] = values[f"delta_{cfg.r}"] / ds
    return values, {f"delta_{s}": True for s in range(1, cfg.r + 1)}


def _color_power(cfg, g):
    """(degree table, coloring, two_phase_ok, proper) from one pass over
    G^r under the default cap; greedy on it when the forest check fails."""
    degrees, gp = power_table(g, cfg.r, DEFAULT_EDGE_CAP)
    try:
        c, ok = col.two_phase_power_coloring(g, cfg.r, degrees, gp), True
    except ForestViolationError:
        c, ok = col.greedy_coloring_explicit(gp, radius=cfg.r), False
    proper, _ = col.verify_proper_power_coloring(gp, c)
    return degrees, c, ok, proper


def _measure_chi2(cfg, g):
    degrees, c, ok, proper = _color_power(cfg, g)
    top = metrics.power_max_degree(degrees, 1)
    # lower-bound certificate: exact chromatic number of the square of the
    # subgraph induced by the radius-2 ball around a max-degree vertex
    sub, _ = induced_subgraph(g, ball(g, top.argmax, 2))
    sq = graph_power(sub, 2, edge_cap=cfg.edge_cap)
    try:
        cert, _ = col.dsatur_chromatic_exact(sq, node_budget=cfg.chi_budget)
        cert_exact = True
    except BudgetExceededError as exc:
        cert, cert_exact = exc.lower or 0, False
    values = {
        "delta_1": top.delta,
        "two_phase_ok": ok,
        "palette": c.palette_size,
        "proper": proper,
        "equality": ok and c.palette_size == top.delta + 1,
        "cert_chi": cert,
        "cert_matches": ok and cert == c.palette_size,
    }
    return values, {"palette": ok, "cert_chi": cert_exact}


def _measure_chi_sandwich(cfg, g):
    r = cfg.r  # >= 2, as the config requires
    degrees, c, ok, proper = _color_power(cfg, g)
    deltas = {s: metrics.power_max_degree(degrees, s).delta
              for s in sorted({1, r // 2, r - 1})}
    clique_lb = deltas[r // 2] + 1
    values = {
        **{f"delta_{s}": v for s, v in deltas.items()},
        "two_phase_ok": ok,
        "palette": c.palette_size,
        "proper": proper,
        "clique_lb": clique_lb,
        "lb_ok": clique_lb <= c.palette_size,
        "bound_ok": (c.palette_size <= deltas[r - 1] + 1) if ok else None,
    }
    return values, {"palette": ok}


def _measure_clique_sandwich(cfg, g):
    r = cfg.r
    degrees, gp = power_table(g, r, cfg.edge_cap)
    lower = metrics.clique_lower_bound(degrees, r)
    upper = metrics.power_max_degree(degrees, (r + 1) // 2).delta + 1
    try:
        omega = metrics.max_clique_exact(gp, node_budget=cfg.clique_budget)
        exact = True
    except BudgetExceededError as exc:
        omega, exact = exc.lower or 1, False
    values = {
        "clique_lower": lower,
        "clique_upper": upper,
        "omega": omega,
        "lower_ok": lower <= omega,
        "upper_ok": omega <= upper,
    }
    return values, {"omega": exact}


def _measure_dense_chi(cfg, g):
    gp = graph_power(g, cfg.r, edge_cap=cfg.edge_cap)
    palette = col.greedy_coloring_explicit(gp, radius=cfg.r).palette_size
    alpha = len(metrics.greedy_independent_set(gp))
    theta = cfg.d ** cfg.r / math.log(cfg.d)
    values = {
        "palette": palette,
        "alpha_greedy": alpha,
        "theta": theta,
        "ratio_chi": palette / theta,
        "ratio_alpha": (cfg.n / alpha) / theta,
        "ordering_ok": palette >= cfg.n / alpha,
    }
    return values, {"palette": False, "alpha_greedy": False}


def _measure_degree_pmf(cfg, g):
    top = cfg.degree_cap + 1
    counts = np.bincount(metrics.power_degrees(g, cfg.r), minlength=top)
    values = {"n": cfg.n}
    values.update((f"count_{k}", c) for k, c in enumerate(counts[:top].tolist()))
    return values, {}


_MEASURE = {
    "delta-concentration": _measure_delta,
    "chi2-equality": _measure_chi2,
    "chi-sandwich": _measure_chi_sandwich,
    "clique-sandwich": _measure_clique_sandwich,
    "dense-chi": _measure_dense_chi,
    "degree-pmf": _measure_degree_pmf,
}
KINDS = tuple(_MEASURE)


# -- campaign driver -------------------------------------------------------


def run_experiment(cfg: ExperimentConfig):
    """Run all trials; returns (summary, records) and writes cfg.out if set.

    Trials are independent tasks; per-trial seeding makes results identical
    at any worker count.
    """
    if cfg.workers > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            records = list(pool.map(run_single_trial, [cfg] * cfg.trials,
                                    range(cfg.trials)))
    else:
        records = [run_single_trial(cfg, t) for t in range(cfg.trials)]
    records.sort(key=lambda rec: rec.trial)
    summary = summarize(cfg, records)
    if cfg.out:
        emit(records, cfg.fmt, cfg.out, cfg.config_hash())
    return summary, records


def _fraction(records, key):
    hits = sum(1 for rec in records if rec.values.get(key))
    return hits / len(records)


def summarize(cfg: ExperimentConfig, records) -> dict:
    """Aggregate means / empirical frequencies per experiment kind."""
    out = {"kind": cfg.kind, "n": cfg.n, "d": cfg.d, "r": cfg.r,
           "trials": len(records), "config_hash": cfg.config_hash()}
    if cfg.kind == "delta-concentration":
        ratios = [rec.values["ratio"] for rec in records]
        out["mean_ratio"] = sum(ratios) / len(ratios)
        out["mean_delta"] = (sum(rec.values[f"delta_{cfg.r}"] for rec in records)
                             / len(records))
        out["d_star"] = records[0].values["d_star"]
    elif cfg.kind == "chi2-equality":
        out["two_phase_rate"] = _fraction(records, "two_phase_ok")
        out["equality_rate"] = _fraction(records, "equality")
        out["certified_rate"] = _fraction(records, "cert_matches")
        out["proper_rate"] = _fraction(records, "proper")
    elif cfg.kind == "chi-sandwich":
        out["two_phase_rate"] = _fraction(records, "two_phase_ok")
        out["lb_rate"] = _fraction(records, "lb_ok")
        successes = [rec for rec in records if rec.values["two_phase_ok"]]
        out["bound_violations"] = sum(
            1 for rec in successes if not rec.values["bound_ok"])
        out["proper_rate"] = _fraction(records, "proper")
    elif cfg.kind == "clique-sandwich":
        out["lower_rate"] = _fraction(records, "lower_ok")
        out["upper_rate"] = _fraction(records, "upper_ok")
        out["exact_rate"] = sum(1 for rec in records if rec.exact.get("omega")) \
            / len(records)
    elif cfg.kind == "dense-chi":
        out["ratio_chi"] = [rec.values["ratio_chi"] for rec in records]
        out["ratio_alpha"] = [rec.values["ratio_alpha"] for rec in records]
        out["ordering_rate"] = _fraction(records, "ordering_ok")
    elif cfg.kind == "degree-pmf":
        out["mean_freq"] = {
            k: sum(rec.values[f"count_{k}"] / cfg.n for rec in records)
            / len(records) for k in range(cfg.degree_cap + 1)}
        out["pmf"] = dict(enumerate(theory.degree_pmf(cfg.d, cfg.r,
                                                      cfg.degree_cap)))
        out["total_observations"] = cfg.n * len(records)
    return out


# -- record emission -------------------------------------------------------


def _record_row(rec: TrialRecord):
    row = {"trial": rec.trial, "seed": rec.seed}
    row.update(rec.values)
    for key, flag in rec.exact.items():
        row[f"exact_{key}"] = flag
    return row


def emit(records, fmt, path, config_hash=""):
    """Write records with a stable column order and the config hash carried
    in the header (jsonl header object / csv config_hash column).

    Output is byte-identical across reruns of the same config at any worker
    count (volatile wall-time stays out of the files); rows are flushed as
    written.
    """
    rows = [_record_row(rec) for rec in records]
    columns = list(rows[0].keys()) if rows else ["trial", "seed"]
    if fmt == "jsonl":
        with open(path, "w") as fh:
            fh.write(json.dumps({"config_hash": config_hash, "columns": columns},
                                separators=(",", ":")) + "\n")
            for row in rows:
                fh.write(json.dumps(row, separators=(",", ":")) + "\n")
                fh.flush()
    elif fmt == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=columns + ["config_hash"],
                                    lineterminator="\n")
            writer.writeheader()
            for row in rows:
                writer.writerow(dict(row, config_hash=config_hash))
                fh.flush()
    else:
        raise ConfigError(f"unknown format {fmt!r}")


def read_records(path, fmt=None):
    """Round-trip reader for emitted files; returns (config_hash, rows)."""
    if fmt is None:
        fmt = "csv" if str(path).endswith(".csv") else "jsonl"
    if fmt == "jsonl":
        with open(path) as fh:
            header = json.loads(fh.readline())
            rows = [json.loads(line) for line in fh if line.strip()]
        return header.get("config_hash", ""), rows
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    config_hash = rows[0].get("config_hash", "") if rows else ""
    for row in rows:
        row.pop("config_hash", None)
    return config_hash, rows


# -- theorem-level verification --------------------------------------------


def _stats_se(samples):
    mean = sum(samples) / len(samples)
    if len(samples) < 2:
        return mean, 0.0
    var = sum((x - mean) ** 2 for x in samples) / (len(samples) - 1)
    return mean, math.sqrt(var / len(samples))


def verify_theorem(kind, seed=1, workers=1, **overrides) -> dict:
    """Run the named verification campaign with its acceptance thresholds.

    Thresholds operationalize w.h.p. statements as frequency gates; they are
    artifact regression choices.  Returns a report dict with ``passed``.
    """
    runner = _VERIFIERS.get(kind)
    if runner is None:
        raise ConfigError(f"unknown theorem kind {kind!r}; "
                          f"choose from {sorted(_VERIFIERS)}")
    accepted = inspect.signature(runner).parameters
    for key in overrides:
        if key not in accepted:
            raise ConfigError(f"{kind} does not take --{key.replace('_', '-')}")
    return runner(seed=seed, workers=workers, **overrides)


# the pmf horizon grows until fewer than this many of the n draws are
# expected in its top half; the mass past it is then negligible
_PMF_TAIL_TOLERANCE = 1e-3


def predicted_max_degree(n, d, r):
    """(mean, SD) of the maximum of n independent draws from the limit
    G^r-degree pmf ``theory.degree_pmf(d, r, .)``.

    With P(max >= k) = 1 - (1 - P(D >= k))^n, E[max] is the sum of
    P(max >= k) and E[max^2] the sum of (2k - 1) P(max >= k) over
    k = 1..top.  The horizon top starts at 64 and doubles until it holds
    at least half the mass and n * P(top/2 < D <= top) <= 1e-3; the mass
    past it is then dropped.  Raises DomainError, naming n, d and r, when
    the pmf refuses the horizon.
    """
    top = 64
    while True:
        try:
            pmf = theory.degree_pmf(d, r, top)
        except (BudgetExceededError, DomainError) as exc:
            raise DomainError(f"no predicted maximum at n={n}, d={d}, r={r}: "
                              f"{exc}") from exc
        if (math.fsum(pmf) >= 0.5
                and n * math.fsum(pmf[top // 2 + 1:]) <= _PMF_TAIL_TOLERANCE):
            break
        top *= 2
    mean = second = tail = 0.0
    for k in range(top, 0, -1):
        tail = min(tail + pmf[k], 1.0)  # P(D >= k)
        reached = -math.expm1(n * math.log1p(-tail)) if tail < 1.0 else 1.0
        mean += reached
        second += (2 * k - 1) * reached
    return mean, math.sqrt(max(second - mean * mean, 0.0))


def _verify_th1(seed=1, workers=1, n_list=(10 ** 4, 10 ** 5, 10 ** 6),
                d=2.0, r=2, trials=10):
    """Theorem 1 (Delta(G^r) ~ D* = log n / log_(r+1) n) at desk scale.

    The theorem is a limit statement, and at feasible n the limit degree
    law itself puts Delta(G^r)/D* near 3 and rising (about 2.84, 2.94,
    2.99 at n = 10^4, 10^5, 10^6 for d=2, r=2).  So each measured mean
    maximum is compared with ``predicted_max_degree``:
    z = (mean - predicted mean) / (predicted SD / sqrt(trials)).  The gate
    is every |z| <= 4 (the degree-pmf standard) and every mean ratio in
    the band [0.3, 3].  ``monotone_toward_1`` (|ratio - 1| non-increasing
    along n_list) is reported but not gated.
    """
    points = []
    for idx, n in enumerate(n_list):
        cfg = ExperimentConfig(kind="delta-concentration", n=n, d=d, r=r,
                               trials=trials, seed=derive_seed(seed, idx),
                               workers=workers)
        predicted, sd = predicted_max_degree(n, d, r)
        summary, _ = run_experiment(cfg)
        se = sd / math.sqrt(trials)
        points.append({"n": n, "mean_ratio": summary["mean_ratio"],
                       "mean_delta": summary["mean_delta"],
                       "d_star": summary["d_star"],
                       "predicted_max": predicted, "predicted_sd": sd,
                       "max_z": ((summary["mean_delta"] - predicted) / se
                                 if se else 0.0),
                       "predicted_ratio": predicted / summary["d_star"]})
    ratios = [pt["mean_ratio"] for pt in points]
    errs = [abs(x - 1.0) for x in ratios]
    in_band = all(0.3 <= x <= 3.0 for x in ratios)
    z_ok = all(abs(pt["max_z"]) <= 4.0 for pt in points)
    monotone = all(errs[i] >= errs[i + 1] for i in range(len(errs) - 1))
    return {"theorem": "th1", "points": points, "in_band": in_band,
            "z_ok": z_ok, "monotone_toward_1": monotone,
            "passed": in_band and z_ok}


def _verify_th2(seed=1, workers=1, n=2000, d=2.0, trials=50):
    cfg = ExperimentConfig(kind="chi2-equality", n=n, d=d, r=2, trials=trials,
                           seed=seed, workers=workers)
    summary, records = run_experiment(cfg)
    good = sum(1 for rec in records
               if rec.values["equality"] and rec.values["cert_matches"]
               and rec.values["proper"])
    rate = good / len(records)
    return {"theorem": "th2", "summary": summary, "certified_equality_rate": rate,
            "threshold": 0.9, "passed": rate >= 0.9}


def _verify_th3(seed=1, workers=1, n=3000, d=2.0, r=3, trials=30):
    cfg = ExperimentConfig(kind="chi-sandwich", n=n, d=d, r=r, trials=trials,
                           seed=seed, workers=workers)
    summary, records = run_experiment(cfg)
    success_rate = summary["two_phase_rate"]
    report = {
        "theorem": "th3", "summary": summary,
        "success_rate": success_rate,
        "bound_violations": summary["bound_violations"],
        "lb_rate": summary["lb_rate"],
        "proper_rate": summary["proper_rate"],
    }
    report["passed"] = (success_rate >= 0.8
                        and summary["bound_violations"] == 0
                        and summary["lb_rate"] == 1.0
                        and summary["proper_rate"] == 1.0)
    return report


def _verify_th4(seed=1, workers=1, n=4000, d=60.0, r=2, trials=10):
    cfg = ExperimentConfig(kind="dense-chi", n=n, d=d, r=r, trials=trials,
                           seed=seed, workers=workers)
    summary, records = run_experiment(cfg)
    lo, hi = 0.05, 20.0
    ok = all(lo <= rec.values["ratio_chi"] <= hi
             and lo <= rec.values["ratio_alpha"] <= hi
             and rec.values["ordering_ok"] for rec in records)
    return {"theorem": "th4", "summary": summary, "band": [lo, hi],
            "passed": ok}


def _verify_lemma_clique(seed=1, workers=1, n=150, d=3.0, trials=100):
    reports = []
    passed = True
    for idx, r in enumerate((2, 3)):
        cfg = ExperimentConfig(kind="clique-sandwich", n=n, d=d, r=r,
                               trials=trials, seed=derive_seed(seed, idx),
                               workers=workers)
        summary, _ = run_experiment(cfg)
        ok = summary["lower_rate"] == 1.0 and summary["upper_rate"] >= 0.9
        passed = passed and ok
        reports.append({"r": r, "summary": summary, "passed": ok})
    return {"theorem": "lemma-clique", "per_radius": reports, "passed": passed}


def _verify_degree_pmf(seed=1, workers=1, n=10 ** 5, d=2.0, r=2, trials=200):
    cfg = ExperimentConfig(kind="degree-pmf", n=n, d=d, r=r, trials=trials,
                           seed=seed, workers=workers)
    summary, records = run_experiment(cfg)
    checks = []
    passed = True
    for k in range(cfg.degree_cap + 1):
        pmf = summary["pmf"][k]
        expected = pmf * n * trials
        if expected < 5.0:
            continue
        samples = [rec.values[f"count_{k}"] / n for rec in records]
        mean, se = _stats_se(samples)
        se = max(se, math.sqrt(pmf * (1 - pmf) / (n * trials)))
        dev = abs(mean - pmf) / se if se else 0.0
        ok = dev <= 4.0
        passed = passed and ok
        checks.append({"D": k, "pmf": pmf, "mean_freq": mean,
                       "sigma_deviation": dev, "ok": ok})
    return {"theorem": "degree-pmf", "checks": checks, "passed": passed}


_VERIFIERS = {
    "th1": _verify_th1,
    "th2": _verify_th2,
    "th3": _verify_th3,
    "th4": _verify_th4,
    "lemma-clique": _verify_lemma_clique,
    "degree-pmf": _verify_degree_pmf,
}
