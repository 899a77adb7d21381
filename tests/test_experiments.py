import hashlib
import json
import math

import numpy as np
import pytest
from scipy.stats import poisson

from graphpower import (ConfigError, DomainError, ExperimentConfig, Graph,
                        GraphPowerError, TrialRecord, d_star, derive_seed,
                        emit, parse_config_file, read_records, run_experiment,
                        verify_theorem)
from graphpower import experiments
from graphpower.experiments import (predicted_max_degree, run_single_trial,
                                    summarize)


def make_cfg(**kw):
    base = dict(kind="delta-concentration", n=300, r=2, d=2.0, trials=3, seed=7)
    base.update(kw)
    return ExperimentConfig(**base)


class TestConfig:
    def test_parse_roundtrip(self, tmp_path):
        p = tmp_path / "exp.cfg"
        p.write_text(
            "# demo config\n"
            "kind = chi2-equality\n"
            "n = 500\n"
            "d = 2.0\n"
            "r = 2  # radius\n"
            "trials = 5\n"
            "seed = 11\n")
        cfg = parse_config_file(p)
        assert cfg.kind == "chi2-equality" and cfg.n == 500
        assert cfg.p == pytest.approx(2.0 / 500)
        assert cfg.trials == 5 and cfg.seed == 11

    def test_unknown_key(self, tmp_path):
        p = tmp_path / "exp.cfg"
        p.write_text("kind = degree-pmf\nn = 10\nr = 2\nd = 1\nbogus = 3\n")
        with pytest.raises(ConfigError, match="bogus"):
            parse_config_file(p)

    def test_both_d_and_p_rejected(self, tmp_path):
        p = tmp_path / "exp.cfg"
        p.write_text("kind = degree-pmf\nn = 10\nr = 2\nd = 1\np = 0.1\n")
        with pytest.raises(ConfigError):
            parse_config_file(p)

    def test_missing_kind(self, tmp_path):
        p = tmp_path / "exp.cfg"
        p.write_text("n = 10\nr = 2\nd = 1\n")
        with pytest.raises(ConfigError):
            parse_config_file(p)

    def test_bad_kind(self):
        with pytest.raises(ConfigError):
            make_cfg(kind="nonsense")

    def test_chi2_requires_r2(self):
        with pytest.raises(ConfigError):
            make_cfg(kind="chi2-equality", r=3)

    def test_dense_chi_requires_dense(self):
        # theta = d^r / log d needs d > 1 too, which d > log n misses at
        # n <= 2: n = 2, d = 1 once divided by log 1
        for n, d in ((1000, 2.0), (2, 1.0), (1, 0.5)):
            with pytest.raises(ConfigError, match="dense-chi requires"):
                make_cfg(kind="dense-chi", n=n, d=d)

    @pytest.mark.parametrize("key", ["clique_budget", "chi_budget", "edge_cap"])
    def test_negative_cap_or_budget_refused(self, key):
        with pytest.raises(ConfigError, match=key):
            make_cfg(**{key: -1})
        assert make_cfg(**{key: 0}).config_hash() != make_cfg().config_hash()

    def test_hash_of_valid_configs_is_pinned(self):
        assert ExperimentConfig(kind="delta-concentration", n=200, d=2.0,
                                r=2).config_hash() == "d26c5661f0a7e332"
        assert ExperimentConfig(kind="dense-chi", n=1000, d=30.0, r=2,
                                edge_cap=0, clique_budget=0,
                                chi_budget=0).config_hash() == "b75324b06a0f38bb"

    def test_hash_ignores_routing(self):
        a = make_cfg(out="x.jsonl", workers=4)
        b = make_cfg(out=None, workers=1)
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != make_cfg(seed=8).config_hash()


class TestSeeding:
    def test_derived_seeds_distinct(self):
        seeds = {derive_seed(7, t) for t in range(1000)}
        assert len(seeds) == 1000

    def test_trial_records_deterministic(self):
        a = run_single_trial(make_cfg(), 2)
        b = run_single_trial(make_cfg(), 2)
        assert a.trial == b.trial and a.seed == b.seed
        assert a.values == b.values and a.exact == b.exact


class TestEmit:
    def test_empty_stream_header_only(self, tmp_path):
        p = tmp_path / "empty.jsonl"
        emit([], "jsonl", p, config_hash="abc")
        lines = p.read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["config_hash"] == "abc"

    def test_three_csv_records_four_lines(self, tmp_path):
        recs = [TrialRecord(t, 100 + t, {"x": t * 2}) for t in range(3)]
        p = tmp_path / "r.csv"
        emit(recs, "csv", p, config_hash="h")
        assert len(p.read_text().splitlines()) == 4

    def test_jsonl_roundtrip_field_equality(self, tmp_path):
        recs = [TrialRecord(t, 5 + t, {"a": t, "b": t / 3}, {"a": True})
                for t in range(3)]
        p = tmp_path / "r.jsonl"
        emit(recs, "jsonl", p, config_hash="hash123")
        h, rows = read_records(p)
        assert h == "hash123"
        assert rows == [{"trial": t, "seed": 5 + t, "a": t, "b": t / 3,
                         "exact_a": True} for t in range(3)]

    def test_wall_time_not_serialized(self, tmp_path):
        rec = TrialRecord(0, 1, {"x": 2}, wall_ms=123.4)
        p = tmp_path / "r.jsonl"
        emit([rec], "jsonl", p)
        assert "wall" not in p.read_text()

    def test_csv_reader_roundtrip(self, tmp_path):
        recs = [TrialRecord(t, t, {"v": t}) for t in range(2)]
        p = tmp_path / "r.csv"
        emit(recs, "csv", p, config_hash="h9")
        h, rows = read_records(p)
        assert h == "h9"
        assert [int(r["v"]) for r in rows] == [0, 1]


class TestRunExperiment:
    def test_byte_identical_rerun(self, tmp_path):
        outs = []
        for i in range(2):
            out = tmp_path / f"run{i}.jsonl"
            run_experiment(make_cfg(out=str(out)))
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_worker_count_equivalence(self, tmp_path):
        serial = tmp_path / "serial.jsonl"
        parallel = tmp_path / "parallel.jsonl"
        run_experiment(make_cfg(trials=4, out=str(serial), workers=1))
        run_experiment(make_cfg(trials=4, out=str(parallel), workers=3))
        assert serial.read_bytes() == parallel.read_bytes()

    def test_delta_summary(self):
        summary, records = run_experiment(make_cfg())
        assert summary["trials"] == 3
        assert summary["mean_ratio"] == pytest.approx(
            sum(r.values["ratio"] for r in records) / 3)

    def test_chi2_summary(self):
        cfg = make_cfg(kind="chi2-equality", n=400, trials=4)
        summary, records = run_experiment(cfg)
        for key in ("two_phase_rate", "equality_rate", "certified_rate",
                    "proper_rate"):
            assert 0.0 <= summary[key] <= 1.0
        assert summary["proper_rate"] == 1.0  # colorings are always proper

    def test_clique_sandwich_invariants(self):
        cfg = make_cfg(kind="clique-sandwich", n=60, d=2.5, r=3, trials=5)
        summary, records = run_experiment(cfg)
        assert summary["lower_rate"] == 1.0
        for rec in records:
            assert rec.values["clique_lower"] <= rec.values["omega"]

    def test_chi_sandwich_chain(self):
        cfg = make_cfg(kind="chi-sandwich", n=500, d=1.5, r=3, trials=5)
        summary, records = run_experiment(cfg)
        assert summary["lb_rate"] == 1.0
        assert summary["proper_rate"] == 1.0
        assert summary["bound_violations"] == 0

    def test_degree_pmf_counts(self):
        cfg = make_cfg(kind="degree-pmf", n=500, d=1.0, trials=2, degree_cap=5)
        summary, records = run_experiment(cfg)
        for rec in records:
            counted = sum(rec.values[f"count_{k}"] for k in range(6))
            assert counted <= cfg.n
        partial = sum(summary["pmf"].values())  # mass up to the cap only
        assert 0.8 < partial <= 1.0

    def test_dense_chi_ordering(self):
        cfg = make_cfg(kind="dense-chi", n=300, d=20.0, trials=2)
        summary, _ = run_experiment(cfg)
        assert summary["ordering_rate"] == 1.0

    def test_dense_chi_builds_no_adjacency_lists(self, monkeypatch):
        def no_lists(g):
            raise AssertionError("adjacency lists built")

        monkeypatch.setattr(Graph, "adjacency_lists", no_lists)
        rec = run_single_trial(make_cfg(kind="dense-chi", n=200, d=15.0), 0)
        assert rec.values["ordering_ok"] and rec.values["palette"] > 0

    @pytest.mark.parametrize("kind,r", [("chi2-equality", 2), ("chi-sandwich", 3)])
    def test_coloring_trials_build_no_lists_of_the_sample(self, monkeypatch,
                                                          kind, r):
        # only the small graphs the trial derives (the closure of the
        # high-degree set, the squared ball) may build lists
        sampled = []
        gnp_sample, adjacency_lists = experiments.gnp_sample, Graph.adjacency_lists

        def sample(*args, **kwargs):
            sampled.append(gnp_sample(*args, **kwargs))
            return sampled[-1]

        def lists(g):
            assert g is not sampled[-1], "adjacency lists of the sampled graph"
            return adjacency_lists(g)

        monkeypatch.setattr(experiments, "gnp_sample", sample)
        monkeypatch.setattr(Graph, "adjacency_lists", lists)
        cfg = make_cfg(kind=kind, n=300, d=2.0, r=r)
        records = [run_single_trial(cfg, t) for t in range(4)]
        assert len(sampled) == 4
        assert all(rec.values["proper"] for rec in records)

    def test_measure_z(self):
        cfg = make_cfg(measure_z=True, n=100, d=3.0, trials=2)
        _, records = run_experiment(cfg)
        for rec in records:
            assert rec.values["z_proximity"] >= 0

    def test_summarize_matches_emitted(self, tmp_path):
        out = tmp_path / "r.csv"
        cfg = make_cfg(out=str(out), fmt="csv")
        summary, records = run_experiment(cfg)
        h, rows = read_records(out)
        assert h == cfg.config_hash() == summary["config_hash"]
        assert len(rows) == len(records) == 3


class TestWorkerCount:
    """The pool starts every process it is given at once, so it is given no
    more than there are trials or CPUs; a stand-in pool records its size."""

    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        sizes = []

        class StandInPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", StandInPool)
        return sizes

    @pytest.mark.parametrize("workers, trials, cpus, sizes", [
        (5000, 1, 8, []),     # one trial runs serially
        (5000, 3, 8, [3]),
        (5000, 3, 2, [2]),
        (3, 5, 8, [3]),
        (4, 5, 1, []),
        (4, 5, None, []),     # CPU count unknown: serial
    ])
    def test_pool_size(self, monkeypatch, pool_sizes, workers, trials, cpus,
                       sizes):
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: cpus)
        cfg = make_cfg(n=100, trials=trials, workers=workers)
        _, records = run_experiment(cfg)
        _, serial = run_experiment(make_cfg(n=100, trials=trials))
        assert pool_sizes == sizes
        assert ([(rec.trial, rec.values) for rec in records]
                == [(rec.trial, rec.values) for rec in serial])


# every hashed config field changes a small trial's record or the refusal of
# its config: the field, a config, and the value it is changed to
BINDING = {
    "kind": (dict(kind="delta-concentration"), "degree-pmf"),
    "n": (dict(kind="delta-concentration"), 301),
    "d": (dict(kind="delta-concentration"), 2.5),
    "r": (dict(kind="degree-pmf"), 3),
    "seed": (dict(kind="delta-concentration"), 8),
    "clique_budget": (dict(kind="clique-sandwich", n=60, d=3.0, r=3), 0),
    "chi_budget": (dict(kind="chi2-equality"), 0),
    "edge_cap": (dict(kind="chi-sandwich", r=3), 1),
    "degree_cap": (dict(kind="degree-pmf"), 5),
    "measure_z": (dict(kind="delta-concentration"), True),
    "sample_mode": (dict(kind="delta-concentration", sample_mode="bernoulli"),
                    "skip"),
}
# hashed fields no trial reads, with the reason each is hashed anyway
HEADER_ONLY = {
    "epsilon": "the paper's gap d <= n^(1/r - eps): it scopes the theorem, "
               "and no measure reads it",
    "trials": "the length of the campaign, not what one trial measures",
}
# one small config per kind, for the header-only check
SMALL = {"delta-concentration": {}, "degree-pmf": {}, "chi2-equality": {},
         "chi-sandwich": dict(r=3), "clique-sandwich": dict(n=60, d=3.0, r=3),
         "dense-chi": dict(n=100, d=10.0)}


def _trial_outcome(**config):
    """Trial 0's (values, exact), or the (error type, message) refusing it."""
    config = dict(dict(n=300, d=2.0, r=2, seed=7), **config)
    try:
        rec = run_single_trial(ExperimentConfig(**config), 0)
    except GraphPowerError as exc:
        return type(exc).__name__, str(exc)
    return rec.values, rec.exact


def test_every_hashed_field_is_bound_or_header_only():
    assert set(BINDING).isdisjoint(HEADER_ONLY)
    assert BINDING.keys() | HEADER_ONLY.keys() == set(experiments._HASH_FIELDS)


@pytest.mark.parametrize("field", sorted(BINDING))
def test_hashed_field_changes_a_trial(field):
    config, value = BINDING[field]
    assert (_trial_outcome(**config)
            != _trial_outcome(**dict(config, **{field: value})))


@pytest.mark.parametrize("field, value", [("epsilon", 0.03), ("trials", 5)])
@pytest.mark.parametrize("kind", experiments.KINDS)
def test_header_only_field_changes_no_trial(kind, field, value):
    assert field in HEADER_ONLY
    config = dict(SMALL[kind], kind=kind)
    assert _trial_outcome(**config) == _trial_outcome(**config, **{field: value})


# one small campaign per kind and the sha256[:16] of its summary's
# json.dumps, so that field order and every value count
PINNED_SUMMARIES = {
    "delta-concentration": (dict(n=2000, d=2.0, r=2, trials=3, seed=1),
                            "533d8fa0af11bf15"),
    "chi2-equality": (dict(n=300, d=2.0, r=2, trials=4, seed=2, measure_z=True),
                      "27d68521b30026ef"),
    "chi-sandwich": (dict(n=300, d=1.5, r=3, trials=4, seed=3),
                     "8b481646697bc180"),
    "clique-sandwich": (dict(n=60, d=3.0, r=3, trials=3, seed=4,
                             clique_budget=50), "bf0fe3bfc5dcc9a7"),
    "dense-chi": (dict(n=200, d=20.0, r=2, trials=2, seed=5), "f19282a6e972ead4"),
    "degree-pmf": (dict(n=2000, d=2.0, r=3, trials=3, seed=6, degree_cap=12),
                   "7ab61234e6d4e879"),
}


@pytest.mark.parametrize("kind", experiments.KINDS)
def test_summary_of_each_kind_is_pinned(kind):
    config, digest = PINNED_SUMMARIES[kind]
    summary, _ = run_experiment(ExperimentConfig(kind=kind, **config))
    text = json.dumps(summary)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest, text


def _max_law(n, cdf):
    """(mean, SD) of the maximum of n iid draws with cdf[k] = P(D <= k)."""
    probs = np.diff(cdf ** n, prepend=0.0)
    k = np.arange(len(cdf))
    mean = probs @ k
    return mean, math.sqrt(probs @ k ** 2 - mean ** 2)


class TestPredictedMax:
    # past the pmf horizon of 64, so the oracle keeps the whole tail
    K = np.arange(121)

    @staticmethod
    def compound_poisson_cdf(d, k):
        # D = X + (sum of X iid Poisson(d)) with X ~ Poisson(d)
        return (poisson.pmf(k, d) * poisson.cdf(k[:, None] - k, k * d)).sum(axis=1)

    @pytest.mark.parametrize("n", [10, 10 ** 4, 10 ** 6])
    @pytest.mark.parametrize("d", [0.5, 2.0, 5.0])
    def test_r1_is_poisson_order_statistic(self, n, d):
        mean, sd = predicted_max_degree(n, d, 1)
        want_mean, want_sd = _max_law(n, poisson.cdf(self.K, d))
        assert mean == pytest.approx(want_mean, rel=1e-9)
        assert sd == pytest.approx(want_sd, rel=1e-6)

    def test_r2_is_compound_poisson_order_statistic(self):
        n = 10 ** 5
        mean, sd = predicted_max_degree(n, 2.0, 2)
        want_mean, want_sd = _max_law(n, self.compound_poisson_cdf(2.0, self.K))
        assert mean == pytest.approx(want_mean, rel=1e-6)
        assert sd == pytest.approx(want_sd, rel=1e-4)

    def test_horizon_grows_past_64(self):
        # the maximum sits near 125: the horizon doubles to 512
        n = 10 ** 6
        mean, sd = predicted_max_degree(n, 5.0, 2)
        want_mean, want_sd = _max_law(
            n, self.compound_poisson_cdf(5.0, np.arange(513)))
        assert mean == pytest.approx(want_mean, rel=1e-6)
        assert sd == pytest.approx(want_sd, rel=1e-4)

    def test_past_work_bound_refused(self):
        # the bulk of D sits near d^3 = 125000, beyond the pmf's work bound
        with pytest.raises(DomainError, match="n=1000000, d=50.0, r=3"):
            predicted_max_degree(10 ** 6, 50.0, 3)


class TestTh1Gate:
    """The th1 gate on fabricated mean maxima, without sampling."""

    def run(self, monkeypatch, shift):
        def fake_run(cfg):
            delta = predicted_max_degree(cfg.n, cfg.d, cfg.r)[0] + shift
            ds = d_star(cfg.n, cfg.r)
            return {"mean_ratio": delta / ds, "mean_delta": delta,
                    "d_star": ds}, []

        monkeypatch.setattr(experiments, "run_experiment", fake_run)
        return verify_theorem("th1", n_list=(10 ** 4, 10 ** 5))

    def test_prediction_passes(self, monkeypatch):
        rep = self.run(monkeypatch, 0.0)
        assert rep["passed"] and rep["z_ok"] and rep["in_band"]
        for pt in rep["points"]:
            assert pt["max_z"] == pytest.approx(0.0, abs=1e-12)
            assert pt["predicted_ratio"] == pytest.approx(pt["mean_ratio"])
            ratio = pt["predicted_ratio"]
            assert pt["predicted_band_margin"] == min(ratio - 0.3, 3.0 - ratio)
            assert pt["band_margin"] == pytest.approx(
                pt["predicted_band_margin"])

    def test_shifted_maxima_fail(self, monkeypatch):
        rep = self.run(monkeypatch, -5.0)
        assert rep["in_band"] and not rep["z_ok"] and not rep["passed"]
        assert all(pt["max_z"] < -4.0 for pt in rep["points"])
        # the maxima sit 5 below the prediction, below the upper band edge
        assert all(pt["band_margin"] > pt["predicted_band_margin"] > 0
                   for pt in rep["points"])
