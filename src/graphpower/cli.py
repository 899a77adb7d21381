"""Command-line interface.

Subcommands: sample, power, stats, color, eval, experiment, verify-theorem.
Exit codes: 0 pass, 1 verification fail, 2 config error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import coloring as col
from . import experiments, metrics, theory
from .errors import (BudgetExceededError, ConfigError, ForestViolationError,
                     GraphPowerError, MemoryBudgetError)
from .graph import (gnp_sample, graph_power, read_dimacs, read_edgelist,
                    write_dimacs, write_edgelist)
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

    p_power = subs.add_parser("power", help="materialize an explicit power")
    p_power.add_argument("--in", dest="infile", required=True)
    p_power.add_argument("--r", type=int, required=True)
    p_power.add_argument("--edge-cap", type=int, default=10 ** 8)
    p_power.add_argument("--out", required=True)

    p_stats = subs.add_parser("stats", help="implicit power statistics")
    p_stats.add_argument("--in", dest="infile", required=True)
    p_stats.add_argument("--r", type=int, required=True)
    p_stats.add_argument("--codegree", action="store_true")
    p_stats.add_argument("--cycle-s", type=int, default=None)
    p_stats.add_argument("--cycle-t", type=int, default=None)

    p_color = subs.add_parser("color", help="color a power of a graph")
    p_color.add_argument("--in", dest="infile", required=True)
    p_color.add_argument("--r", type=int, required=True)
    p_color.add_argument("--method", default="two-phase",
                         choices=["greedy", "two-phase", "dsatur-exact"])
    p_color.add_argument("--chi-budget", type=int, default=2_000_000)
    p_color.add_argument("--edge-cap", type=int, default=10 ** 8)
    p_color.add_argument("--out", default=None)

    p_eval = subs.add_parser("eval", help="evaluate a closed-form quantity")
    p_eval.add_argument("formula", nargs="?", default=None,
                        choices=[None] + sorted(_FORMULAS))
    p_eval.add_argument("params", nargs="*", help="key=value pairs")
    p_eval.add_argument("--batch", default=None,
                        help="file with one 'formula key=value ...' per line")

    p_exp = subs.add_parser("experiment", help="run a configured campaign")
    exp_subs = p_exp.add_subparsers(dest="action", required=True)
    p_run = exp_subs.add_parser("run")
    p_run.add_argument("config", help="flat key=value config file")
    p_run.add_argument("--workers", type=int, default=None)
    p_run.add_argument("--out", default=None)

    p_verify = subs.add_parser("verify-theorem",
                               help="run a verification campaign with gates")
    p_verify.add_argument("kind", choices=list(experiments._VERIFIERS))
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--workers", type=int, default=1)
    p_verify.add_argument("--trials", type=int, default=None)
    p_verify.add_argument("--n", type=int, default=None)
    p_verify.add_argument("--d", type=float, default=None)
    p_verify.add_argument("--r", type=int, default=None)
    return parser


_FORMULAS = {
    "iterated-log": (("x", float), ("k", int)),
    "d-star": (("n", int), ("r", int)),
    "u-value": (("ell", str), ("d", float)),
    "log-u": (("ell", str), ("d", float)),
    "degree-pmf": (("d", float), ("r", int), ("D", int)),
    "lemma2-exact": (("D", int), ("r", int)),
    "lemma2-lagrange": (("D", float), ("r", int)),
    "janson-k0": (("n", int), ("d", float), ("r", int), ("epsilon", float)),
    "janson-mu": (("n", int), ("d", float), ("r", int), ("epsilon", float),
                  ("k", int)),
    "aks-bound": (("delta", float), ("t", float), ("c", float)),
}


def _eval_formula(formula, params):
    if formula not in _FORMULAS:
        raise ConfigError(f"unknown formula {formula!r}")
    kv = {}
    for item in params:
        if "=" not in item:
            raise ConfigError(f"expected key=value, got {item!r}")
        key, val = item.split("=", 1)
        _require(key not in kv, f"{formula}: {key}= is given twice")
        kv[key] = val
    casters = dict(_FORMULAS[formula])
    for key in kv:
        _require(key in casters, f"{formula} does not take {key}=...; it takes "
                                 f"{', '.join(casters)}")

    def arg(name, default=None):
        if name not in kv:
            if default is not None:
                return default
            raise ConfigError(f"{formula} needs {name}=...")
        try:
            return casters[name](kv[name])
        except ValueError:
            raise ConfigError(f"{formula}: {name}={kv[name]!r} does not parse "
                              f"as {casters[name].__name__}") from None

    if formula == "iterated-log":
        value = theory.iterated_log(arg("x"), arg("k"))
    elif formula == "d-star":
        value = theory.d_star(arg("n"), arg("r"))
    elif formula in ("u-value", "log-u"):
        try:
            ell = tuple(int(x) for x in arg("ell").split(",") if x != "")
        except ValueError:
            raise ConfigError(f"{formula}: ell={kv['ell']!r} is not a "
                              "comma-separated list of integers") from None
        fn = theory.u_value if formula == "u-value" else theory.log_u
        value = fn(ell, arg("d"))
    elif formula == "degree-pmf":
        value = theory.degree_sum_pmf(arg("d"), arg("r"), arg("D"))
    elif formula == "lemma2-exact":
        value, profile = theory.lemma2_min_exact(arg("D"), arg("r"))
        return {"formula": formula, "inputs": kv, "value": value,
                "argmin": list(profile.ell)}
    elif formula == "lemma2-lagrange":
        sol = theory.lemma2_min_lagrange(arg("D"), arg("r"))
        return {"formula": formula, "inputs": kv, "value": sol.value,
                "ratios": sol.ratios, "ell": sol.ell,
                "residual": sol.residual}
    elif formula == "janson-k0":
        params_t = theory.TheoryParams(arg("n"), arg("d"), arg("r"),
                                       arg("epsilon", 0.1))
        value = theory.janson_k0(params_t)
    elif formula == "janson-mu":
        params_t = theory.TheoryParams(arg("n"), arg("d"), arg("r"),
                                       arg("epsilon", 0.1))
        value = theory.janson_mu(params_t, arg("k"))
    else:  # aks-bound
        value = theory.aks_chi_bound(arg("delta"), arg("t"),
                                     arg("c", 1.0))
    return {"formula": formula, "inputs": kv, "value": value}


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
    out = {"n": g.n, "m": g.m, "r": args.r}
    for s in range(1, args.r + 1):
        summary = metrics.power_max_degree(g, s)
        out[f"delta_{s}"] = summary.delta
        out[f"argmax_{s}"] = summary.argmax
    out["clique_lower_bound"] = metrics.clique_lower_bound(g, args.r)
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
    if args.method == "greedy":
        c = col.greedy_power_coloring(g, args.r)
    elif args.method == "two-phase":
        try:
            c = col.two_phase_power_coloring(g, args.r)
        except ForestViolationError as exc:
            print(json.dumps({"error": "forest-violation",
                              "cycle": exc.cycle}), file=sys.stderr)
            return 1
    else:
        gp = graph_power(g, args.r, edge_cap=args.edge_cap)
        chi, c = col.dsatur_chromatic_exact(gp, node_budget=args.chi_budget)
        c = col.Coloring(c.colors, c.palette_size, args.r)
    proper, witness = col.verify_proper_power_coloring(g, args.r, c)
    if args.out:
        col.write_coloring(c, args.out)
    print(json.dumps({"method": args.method, "palette": c.palette_size,
                      "r": args.r, "proper": proper,
                      "violation": witness}))
    return 0 if proper else 1


def _cmd_eval(args):
    if args.batch:
        with open(args.batch) as fh:
            for line in fh:
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
    # the flag is set after the config is built, so its checks do not run
    _require(args.workers is None or args.workers >= 1,
             "--workers must be >= 1")
    cfg = experiments.parse_config_file(args.config)
    if args.workers is not None:
        cfg.workers = args.workers
    if args.out is not None:
        cfg.out = args.out
    summary, _ = experiments.run_experiment(cfg)
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "sample":
            return _cmd_sample(args)
        if args.command == "power":
            return _cmd_power(args)
        if args.command == "stats":
            return _cmd_stats(args)
        if args.command == "color":
            return _cmd_color(args)
        if args.command == "eval":
            return _cmd_eval(args)
        if args.command == "experiment":
            return _cmd_experiment(args)
        if args.command == "verify-theorem":
            return _cmd_verify(args)
        raise ConfigError(f"unknown command {args.command!r}")
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
