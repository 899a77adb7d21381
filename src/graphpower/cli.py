"""Command-line interface.

Subcommands: sample, power, stats, color, eval, experiment, verify-theorem.
Exit codes: 0 pass, 1 verification fail, 2 config error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import coloring as col
from . import experiments, metrics, theory
from .errors import (BudgetExceededError, ConfigError, ForestViolationError,
                     GraphPowerError, MemoryBudgetError)
from .graph import (gnp_sample, graph_power, power_table, read_dimacs,
                    read_edgelist, write_dimacs, write_edgelist)
from .rng import RandomSource


def _read_graph(path):
    try:
        return read_dimacs(path) if path.endswith(".col") else read_edgelist(path)
    except ValueError as exc:
        raise ConfigError(f"{path}: malformed graph file: {exc}") from exc


def _write_graph(g, path):
    (write_dimacs if path.endswith(".col") else write_edgelist)(g, path)


def _require(ok, message):
    """Refuse an out-of-range flag value as a config error (exit 2)."""
    if not ok:
        raise ConfigError(message)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="graphpower",
        description="Structural statistics and colorings of powers of "
                    "binomial random graphs.")
    subs = parser.add_subparsers(dest="command", required=True)

    p_sample = subs.add_parser("sample", help="sample G(n, p) to a file")
    p_sample.add_argument("--n", type=int, required=True)
    p_sample.add_argument("--p", type=float, default=None)
    p_sample.add_argument("--d", type=float, default=None)
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.add_argument("--mode", default="auto",
                          choices=["auto", "bernoulli", "skip"])
    p_sample.add_argument("--out", required=True,
                          help=".col writes DIMACS, anything else edge list")
    p_sample.set_defaults(run=_cmd_sample)

    p_power = subs.add_parser("power", help="materialize an explicit power")
    p_power.add_argument("--in", dest="infile", required=True)
    p_power.add_argument("--r", type=int, required=True)
    p_power.add_argument("--edge-cap", type=int, default=10 ** 8)
    p_power.add_argument("--out", required=True)
    p_power.set_defaults(run=_cmd_power)

    p_stats = subs.add_parser("stats", help="implicit power statistics")
    p_stats.add_argument("--in", dest="infile", required=True)
    p_stats.add_argument("--r", type=int, required=True)
    p_stats.add_argument("--codegree", action="store_true")
    p_stats.add_argument("--cycle-s", type=int, default=None)
    p_stats.add_argument("--cycle-t", type=int, default=None)
    p_stats.set_defaults(run=_cmd_stats)

    p_color = subs.add_parser("color", help="color a power of a graph")
    p_color.add_argument("--in", dest="infile", required=True)
    p_color.add_argument("--r", type=int, required=True)
    p_color.add_argument("--method", default="two-phase",
                         choices=["greedy", "two-phase", "dsatur-exact"])
    p_color.add_argument("--chi-budget", type=int, default=2_000_000)
    p_color.add_argument("--edge-cap", type=int, default=10 ** 8)
    p_color.add_argument("--out", default=None)
    p_color.set_defaults(run=_cmd_color)

    p_eval = subs.add_parser("eval", help="evaluate a closed-form quantity")
    p_eval.add_argument("formula", nargs="?", default=None,
                        choices=[None] + sorted(_FORMULAS))
    p_eval.add_argument("params", nargs="*", help="key=value pairs")
    p_eval.add_argument("--batch", default=None,
                        help="file with one 'formula key=value ...' per line")
    p_eval.set_defaults(run=_cmd_eval)

    p_exp = subs.add_parser("experiment", help="run a configured campaign")
    exp_subs = p_exp.add_subparsers(dest="action", required=True)
    p_run = exp_subs.add_parser("run")
    p_run.add_argument("config", help="flat key=value config file")
    p_run.add_argument("--workers", type=int, default=None)
    p_run.add_argument("--out", default=None)
    p_run.set_defaults(run=_cmd_experiment)

    p_verify = subs.add_parser("verify-theorem",
                               help="run a verification campaign with gates")
    p_verify.add_argument("kind", choices=list(experiments._VERIFIERS))
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--workers", type=int, default=1)
    p_verify.add_argument("--trials", type=int, default=None)
    p_verify.add_argument("--n", type=int, default=None)
    p_verify.add_argument("--d", type=float, default=None)
    p_verify.add_argument("--r", type=int, default=None)
    p_verify.set_defaults(run=_cmd_verify)
    return parser


def _profile(text):
    """A layer profile written as comma-separated integers."""
    return tuple(int(x) for x in text.split(",") if x != "")


def _value(fn):
    """A formula whose one result field is ``value = fn(*keys)``."""
    return lambda *args: {"value": fn(*args)}


def _lemma2_exact(big_d, r):
    value, profile = theory.lemma2_min_exact(big_d, r)
    return {"value": value, "argmin": list(profile.ell)}


def _lemma2_lagrange(big_d, r):
    sol = theory.lemma2_min_lagrange(big_d, r)
    return {"value": sol.value, "ratios": sol.ratios, "ell": sol.ell,
            "residual": sol.residual}


def _janson_k0(n, d, r, epsilon):
    return {"value": theory.janson_k0(theory.TheoryParams(n, d, r, epsilon))}


def _janson_mu(n, d, r, epsilon, k):
    params = theory.TheoryParams(n, d, r, epsilon)
    return {"value": theory.janson_mu(params, k)}


# formula -> (its keys and their types in call order, the call that turns
# their values into the result fields)
_FORMULAS = {
    "iterated-log": ({"x": float, "k": int}, _value(theory.iterated_log)),
    "d-star": ({"n": int, "r": int}, _value(theory.d_star)),
    "u-value": ({"ell": _profile, "d": float}, _value(theory.u_value)),
    "log-u": ({"ell": _profile, "d": float}, _value(theory.log_u)),
    "degree-pmf": ({"d": float, "r": int, "D": int},
                   _value(theory.degree_sum_pmf)),
    "lemma2-exact": ({"D": int, "r": int}, _lemma2_exact),
    "lemma2-lagrange": ({"D": float, "r": int}, _lemma2_lagrange),
    "janson-k0": ({"n": int, "d": float, "r": int, "epsilon": float},
                  _janson_k0),
    "janson-mu": ({"n": int, "d": float, "r": int, "epsilon": float, "k": int},
                  _janson_mu),
    "aks-bound": ({"delta": float, "t": float, "c": float},
                  _value(theory.aks_chi_bound)),
}
# the keys a formula may leave out
_DEFAULTS = {"epsilon": 0.1, "c": 1.0}


def _eval_formula(formula, params):
    if formula not in _FORMULAS:
        raise ConfigError(f"unknown formula {formula!r}")
    types, call = _FORMULAS[formula]
    kv = {}
    for item in params:
        if "=" not in item:
            raise ConfigError(f"expected key=value, got {item!r}")
        key, val = item.split("=", 1)
        _require(key not in kv, f"{formula}: {key}= is given twice")
        kv[key] = val
    for key in kv:
        _require(key in types, f"{formula} does not take {key}=...; it takes "
                               f"{', '.join(types)}")
    args = []
    for key, cast in types.items():
        if key not in kv:
            _require(key in _DEFAULTS, f"{formula} needs {key}=...")
            args.append(_DEFAULTS[key])
            continue
        try:
            args.append(cast(kv[key]))
        except ValueError:
            what = ("is not a comma-separated list of integers"
                    if cast is _profile else f"does not parse as {cast.__name__}")
            raise ConfigError(f"{formula}: {key}={kv[key]!r} {what}") from None
    return {"formula": formula, "inputs": kv, **call(*args)}


def _cmd_sample(args):
    if (args.p is None) == (args.d is None):
        raise ConfigError("give exactly one of --p or --d")
    _require(args.n >= 0, "--n must be >= 0")
    if args.p is None:
        _require(args.n >= 1 and 0 <= args.d <= args.n,
                 "--d must be in [0, --n], with --n >= 1")
        p = args.d / args.n
    else:
        _require(0 <= args.p <= 1, "--p must be in [0, 1]")
        p = args.p
    g = gnp_sample(args.n, p, RandomSource(args.seed), mode=args.mode)
    _write_graph(g, args.out)
    print(json.dumps({"n": g.n, "m": g.m, "seed": args.seed, "out": args.out}))
    return 0


def _cmd_power(args):
    _require(args.r >= 1, "--r must be >= 1")
    _require(args.edge_cap >= 0, "--edge-cap must be >= 0")
    g = _read_graph(args.infile)
    gp = graph_power(g, args.r, edge_cap=args.edge_cap)
    _write_graph(gp, args.out)
    print(json.dumps({"n": gp.n, "m": gp.m, "r": args.r, "out": args.out}))
    return 0


def _cmd_stats(args):
    _require(args.r >= 1, "--r must be >= 1")
    _require((args.cycle_s is None) == (args.cycle_t is None),
             "give both --cycle-s and --cycle-t, or neither")
    if args.cycle_s is not None:
        _require(args.cycle_s >= 0, "--cycle-s must be >= 0")
        _require(args.cycle_t >= 3, "--cycle-t must be >= 3")
    g = _read_graph(args.infile)
    degrees, _ = power_table(g, args.r, None)
    out = {"n": g.n, "m": g.m, "r": args.r}
    for s in range(1, args.r + 1):
        top = metrics.power_max_degree(degrees, s)
        out[f"delta_{s}"] = top.delta
        out[f"argmax_{s}"] = top.argmax
    out["clique_lower_bound"] = metrics.clique_lower_bound(degrees, args.r)
    if args.codegree:
        layer, power = metrics.codegree_max(g, args.r)
        out["layer_codegree"] = layer
        out["power_codegree"] = power
    if args.cycle_s is not None:
        out["z_proximity"] = metrics.short_cycle_proximity(
            g, args.cycle_s, args.cycle_t)
    print(json.dumps(out))
    return 0


def _cmd_color(args):
    if args.method == "two-phase":
        _require(args.r >= 2, "--r must be >= 2 for --method two-phase")
    _require(args.r >= 1, "--r must be >= 1")
    _require(args.edge_cap >= 0, "--edge-cap must be >= 0")
    _require(args.chi_budget >= 0, "--chi-budget must be >= 0")
    g = _read_graph(args.infile)
    degrees, gp = power_table(g, args.r, args.edge_cap)
    if args.method == "greedy":
        c = col.greedy_coloring_explicit(gp, radius=args.r)
    elif args.method == "two-phase":
        try:
            c = col.two_phase_power_coloring(g, args.r, degrees, gp)
        except ForestViolationError as exc:
            print(json.dumps({"error": "forest-violation",
                              "cycle": exc.cycle}), file=sys.stderr)
            return 1
    else:
        chi, c = col.dsatur_chromatic_exact(gp, node_budget=args.chi_budget)
        c = col.Coloring(c.colors, c.palette_size, args.r)
    proper, witness = col.verify_proper_power_coloring(gp, c)
    if args.out:
        col.write_coloring(c, args.out)
    print(json.dumps({"method": args.method, "palette": c.palette_size,
                      "r": args.r, "proper": proper,
                      "violation": witness}))
    return 0 if proper else 1


def _cmd_eval(args):
    if args.batch:
        for line in experiments._read_lines(args.batch):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            print(json.dumps(_eval_formula(parts[0], parts[1:])))
        return 0
    if args.formula is None:
        raise ConfigError("give a formula or --batch FILE")
    print(json.dumps(_eval_formula(args.formula, args.params)))
    return 0


def _cmd_experiment(args):
    cfg = experiments.parse_config_file(args.config)
    flags = {key: getattr(args, key) for key in ("workers", "out")
             if getattr(args, key) is not None}
    summary, _ = experiments.run_experiment(dataclasses.replace(cfg, **flags))
    print(json.dumps(summary))
    return 0


def _cmd_verify(args):
    _require(args.workers >= 1, "--workers must be >= 1")
    # verify_theorem refuses an override its campaign does not take
    overrides = {key: getattr(args, key) for key in ("trials", "n", "d", "r")
                 if getattr(args, key) is not None}
    report = experiments.verify_theorem(args.kind, seed=args.seed,
                                        workers=args.workers, **overrides)
    print(json.dumps(report))
    return 0 if report["passed"] else 1


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3
    except (BudgetExceededError, MemoryBudgetError, GraphPowerError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
