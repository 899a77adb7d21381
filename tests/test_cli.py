import contextlib
import io
import json
import math
import os
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphpower import (RandomSource, experiments, gnp_sample, read_edgelist,
                        u_value, write_edgelist)
from graphpower.cli import main

from compositions import feasible_compositions
from test_graph import path_graph, star_graph


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip()
    return code, json.loads(out) if out else None


class TestSample:
    def test_writes_edgelist(self, tmp_path, capsys):
        out = tmp_path / "g.txt"
        code, rep = run(capsys, "sample", "--n", "100", "--p", "0.05",
                        "--seed", "3", "--out", str(out))
        assert code == 0
        g = read_edgelist(out)
        assert g.n == 100 and g.m == rep["m"]

    def test_d_flag(self, tmp_path, capsys):
        out = tmp_path / "g.txt"
        code, rep = run(capsys, "sample", "--n", "200", "--d", "2",
                        "--out", str(out))
        assert code == 0 and rep["n"] == 200

    def test_p_and_d_conflict(self, tmp_path):
        code = main(["sample", "--n", "10", "--p", "0.1", "--d", "2",
                     "--out", str(tmp_path / "g.txt")])
        assert code == 2


class TestPowerAndStats:
    @pytest.fixture
    def graph_file(self, tmp_path, capsys):
        out = tmp_path / "g.txt"
        main(["sample", "--n", "60", "--p", "0.05", "--seed", "5",
              "--out", str(out)])
        capsys.readouterr()
        return str(out)

    def test_power(self, graph_file, tmp_path, capsys):
        out = tmp_path / "g2.txt"
        code, rep = run(capsys, "power", "--in", graph_file, "--r", "2",
                        "--out", str(out))
        assert code == 0
        assert read_edgelist(out).m == rep["m"]

    def test_power_over_edge_cap_exit_1(self, graph_file, tmp_path, capsys):
        out = tmp_path / "g2.txt"
        assert main(["power", "--in", graph_file, "--r", "2",
                     "--edge-cap", "1", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    def test_stats(self, graph_file, capsys):
        code, rep = run(capsys, "stats", "--in", graph_file, "--r", "2",
                        "--codegree", "--cycle-s", "1", "--cycle-t", "4")
        assert code == 0
        assert rep["delta_1"] <= rep["delta_2"]
        assert "layer_codegree" in rep and "z_proximity" in rep

    def test_color_greedy(self, graph_file, tmp_path, capsys):
        out = tmp_path / "c.txt"
        code, rep = run(capsys, "color", "--in", graph_file, "--r", "2",
                        "--method", "greedy", "--out", str(out))
        assert code == 0 and rep["proper"]
        assert out.read_text().startswith(f"s {rep['palette']} 2\n")

    def test_color_dsatur(self, graph_file, capsys):
        code, rep = run(capsys, "color", "--in", graph_file, "--r", "2",
                        "--method", "dsatur-exact")
        assert code == 0 and rep["proper"]

    @pytest.mark.parametrize("argv", [
        ["power", "--r", "1", "--edge-cap", "1"],
        ["color", "--r", "1", "--method", "dsatur-exact", "--edge-cap", "1"],
    ])
    def test_r1_over_edge_cap_exit_1(self, graph_file, tmp_path, capsys, argv):
        out = tmp_path / "out.txt"
        assert main(argv + ["--in", graph_file, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err == "error: explicit power exceeds edge cap 1\n"

    def test_color_dsatur_deep_clique(self, tmp_path, capsys):
        # the square of a star is K_1100: its clique search goes 1100 deep
        graph = tmp_path / "star.txt"
        write_edgelist(star_graph(1099), graph)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            code, rep = run(capsys, "color", "--in", str(graph), "--r", "2",
                            "--method", "dsatur-exact")
        finally:
            sys.setrecursionlimit(limit)
        assert code == 0 and rep["palette"] == 1100 and rep["proper"]

    @pytest.mark.parametrize("method", ["greedy", "two-phase"])
    def test_color_over_edge_cap_exit_1(self, tmp_path, capsys, method):
        # P5 passes the two-phase forest check; its square has 7 edges
        graph, out = tmp_path / "p5.txt", tmp_path / "c.txt"
        write_edgelist(path_graph(5), graph)
        argv = ["color", "--in", str(graph), "--r", "2", "--method", method,
                "--out", str(out)]
        code, rep = run(capsys, *argv, "--edge-cap", "7")
        assert code == 0 and rep["proper"] and out.exists()
        out.unlink()
        assert main(argv + ["--edge-cap", "6"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err == "error: explicit power exceeds edge cap 6\n"

    def test_missing_file_io_error(self):
        assert main(["stats", "--in", "/nonexistent", "--r", "2"]) == 3


class TestEval:
    def test_d_star(self, capsys):
        code, rep = run(capsys, "eval", "d-star", "n=1000000", "r=1")
        assert code == 0
        assert rep["value"] == pytest.approx(5.261, abs=1e-3)

    def test_lemma2_exact(self, capsys):
        code, rep = run(capsys, "eval", "lemma2-exact", "D=4", "r=2")
        assert code == 0
        assert rep["value"] == pytest.approx(2 * math.log(2))
        assert rep["argmin"] == [2, 2]

    def test_u_value(self, capsys):
        code, rep = run(capsys, "eval", "u-value", "ell=1,1", "d=1")
        assert rep["value"] == pytest.approx(math.exp(-2))

    @pytest.mark.parametrize("formula,value", [("u-value", 1.0),
                                               ("log-u", 0.0)])
    def test_empty_profile_has_weight_one(self, capsys, formula, value):
        # r = 0: the only layer is l_0 = 1, so the profile is certain
        code, rep = run(capsys, "eval", formula, "ell=", "d=2")
        assert code == 0 and rep["value"] == value

    def test_aks(self, capsys):
        code, rep = run(capsys, "eval", "aks-bound", "delta=10000", "t=100")
        assert rep["value"] == pytest.approx(2171.5, abs=0.1)

    def test_missing_param(self, capsys):
        assert main(["eval", "d-star", "n=10"]) == 2

    def test_repeated_key_exit_2(self, capsys):
        assert main(["eval", "d-star", "n=10", "n=100000", "r=2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "config error: d-star: n= is given twice\n"

    @pytest.mark.parametrize("argv,key", [
        (["d-star", "n=100000", "r=2", "foo=3"], "foo="),
        (["janson-k0", "n=1000", "d=10", "r=2", "eps=0.3"], "eps="),
    ])
    def test_key_the_formula_does_not_take_exit_2(self, capsys, argv, key):
        # a misspelt epsilon would otherwise fall back to its default
        assert main(["eval", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"config error: {argv[0]} does not "
                                       f"take {key}")

    def test_degree_pmf_matches_enumeration(self, capsys):
        code, rep = run(capsys, "eval", "degree-pmf", "d=2", "r=2", "D=61")
        oracle = sum(u_value(ell, 2.0) for ell in feasible_compositions(61, 2))
        assert code == 0
        assert rep["value"] == pytest.approx(oracle, rel=1e-12)

    def test_degree_pmf_work_bound(self, capsys):
        assert main(["eval", "degree-pmf", "d=2", "r=2", "D=100000000"]) == 1
        err = capsys.readouterr().err
        assert "exceeds work cap" in err and "Traceback" not in err

    def test_degree_pmf_underflow(self, capsys):
        assert main(["eval", "degree-pmf", "d=800", "r=1", "D=60"]) == 1
        assert "e^-d underflows at d=800" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,key", [
        (["degree-pmf", "d=2", "r=2", "D=x"], "D='x'"),
        (["u-value", "ell=1,x", "d=2"], "ell='1,x'"),
        (["janson-k0", "n=100", "d=2", "r=2", "epsilon=zz"], "epsilon='zz'"),
    ])
    def test_value_that_does_not_parse_exit_2(self, capsys, argv, key):
        assert main(["eval", *argv]) == 2
        err = capsys.readouterr().err
        assert key in err and "Traceback" not in err

    def test_unknown_batch_formula_exit_2(self, tmp_path, capsys):
        batch = tmp_path / "batch.txt"
        batch.write_text("no-such-formula x=1\n")
        assert main(["eval", "--batch", str(batch)]) == 2
        assert "no-such-formula" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,message", [
        (["d=nan", "r=2", "D=3"], "d must be finite"),
        (["d=2", "r=-1", "D=0"], "r must be >= 0"),
    ])
    def test_degree_pmf_domain_exit_1(self, capsys, argv, message):
        assert main(["eval", "degree-pmf", *argv]) == 1
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""

    @pytest.mark.parametrize("argv", [
        ["lemma2-exact", "D=-1", "r=2"],
        ["lemma2-exact", "D=4", "r=0"],
        ["lemma2-lagrange", "D=0", "r=2"],
        ["lemma2-lagrange", "D=inf", "r=2"],
        ["janson-k0", "n=0", "d=2", "r=2"],
        ["u-value", "ell=-1", "d=2"],
        ["iterated-log", "x=2", "k=-1"],
        ["log-u", "ell=1", "d=nan"],
        ["u-value", "ell=1", "d=inf"],
        ["iterated-log", "x=nan", "k=2"],
        ["iterated-log", "x=nan", "k=0"],
        ["aks-bound", "delta=100", "t=10", "c=nan"],
        ["aks-bound", "delta=100", "t=10", "c=-1"],
    ])
    def test_outside_domain_exit_1(self, capsys, argv):
        assert main(["eval", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.out == ""
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("argv", [["delta=inf", "t=10"],
                                      ["delta=inf", "t=inf"],
                                      ["delta=100", "t=inf"]])
    def test_aks_bound_infinite_exit_1(self, capsys, argv):
        assert main(["eval", "aks-bound", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.out == ""
        assert "2 <= t <= delta < inf" in captured.err

    def test_janson_mu_negative_k_exit_1(self, capsys):
        argv = ["janson-mu", "n=1000", "d=10", "r=1", "epsilon=0.5", "k=-3"]
        assert main(["eval", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: k must be >= 0, got -3\n"
        assert captured.out == ""

    def test_undecodable_batch_exit_2(self, tmp_path, capsys):
        batch = tmp_path / "batch.txt"
        batch.write_bytes(b"d-star n=1000000 r=2\n\x7fELF\xff\xfe\n")
        assert main(["eval", "--batch", str(batch)]) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert captured.out == "" and len(lines) == 1
        assert lines[0].startswith(f"config error: {batch}: ")

    def test_batch(self, tmp_path, capsys):
        batch = tmp_path / "batch.txt"
        batch.write_text("# two evaluations\n"
                         "iterated-log x=2.718281828459045 k=1\n"
                         "janson-mu n=1000 d=10 r=1 epsilon=0.5 k=100\n")
        code = main(["eval", "--batch", str(batch)])
        lines = capsys.readouterr().out.strip().splitlines()
        assert code == 0 and len(lines) == 2
        assert json.loads(lines[0])["value"] == pytest.approx(1.0)
        assert json.loads(lines[1])["value"] == pytest.approx(49.5)


class TestExperimentCommand:
    def test_run_config(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("kind = delta-concentration\nn = 200\nd = 2\nr = 2\n"
                       "trials = 2\nseed = 4\n")
        out = tmp_path / "rec.jsonl"
        code, summary = run(capsys, "experiment", "run", str(cfg),
                            "--out", str(out))
        assert code == 0 and summary["trials"] == 2
        assert out.exists()

    def test_undecodable_config_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_bytes(b"kind = delta-concentration\n\x7fELF\xff\xfe\n")
        assert main(["experiment", "run", str(cfg)]) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert captured.out == "" and len(lines) == 1
        assert lines[0].startswith(f"config error: {cfg}: ")

    # a missing n or r once exited 2 with the dataclass's TypeError text,
    # which named neither the file nor the key
    @pytest.mark.parametrize("key", ["n", "r"])
    def test_missing_required_key_exit_2(self, tmp_path, capsys, key):
        cfg = tmp_path / "exp.cfg"
        lines = {"kind": "delta-concentration", "n": "50", "d": "2", "r": "2"}
        del lines[key]
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()))
        assert main(["experiment", "run", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"config error: {cfg}: missing required "
                                f"key {key!r}\n")

    def test_bad_config_exit_2(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("kind = no-such-kind\nn = 10\nd = 1\nr = 2\n")
        assert main(["experiment", "run", str(cfg)]) == 2

    @pytest.mark.parametrize("key", ["edge_cap", "clique_budget", "chi_budget"])
    def test_negative_cap_or_budget_exit_2(self, tmp_path, capsys, key):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("kind = clique-sandwich\nn = 40\nd = 3\nr = 2\n"
                       f"{key} = -1\n")
        out = tmp_path / "rec.jsonl"
        assert main(["experiment", "run", str(cfg), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err == f"config error: {key} must be >= 0\n"

    def test_negative_degree_cap_exit_2(self, tmp_path, capsys):
        """A negative degree_cap once ran and wrote an empty pmf."""
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("kind = degree-pmf\nn = 100\nd = 2\nr = 2\n"
                       "degree_cap = -1\n")
        out = tmp_path / "rec.jsonl"
        assert main(["experiment", "run", str(cfg), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err == "config error: degree_cap must be >= 0\n"

    def test_bad_value_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("kind = delta-concentration\nn = abc\nd = 2\nr = 2\n")
        assert main(["experiment", "run", str(cfg)]) == 2
        assert f"{cfg}:2:" in capsys.readouterr().err

    # an unknown mode once ended in a traceback from the sampler (d = 2),
    # or ran and was hashed into the records (d = 0)
    @pytest.mark.parametrize("d", [2, 0])
    def test_unknown_sample_mode_exit_2(self, tmp_path, capsys, d):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"kind = delta-concentration\nn = 50\nd = {d}\nr = 2\n"
                       "sample_mode = foo\n")
        out = tmp_path / "rec.jsonl"
        assert main(["experiment", "run", str(cfg), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert "config error: unknown sample_mode 'foo'" in captured.err

    # workers below 1 once ran serially and exited 0
    @pytest.mark.parametrize("key,flag", [("workers = 0\n", []),
                                          ("", ["--workers", "-1"])],
                             ids=["config", "flag"])
    def test_workers_below_one_exit_2(self, tmp_path, capsys, key, flag):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("kind = delta-concentration\nn = 50\nd = 2\nr = 2\n"
                       + key)
        out = tmp_path / "rec.jsonl"
        assert main(["experiment", "run", str(cfg), "--out", str(out)]
                    + flag) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert "workers must be >= 1" in captured.err


class TestVerifyCommand:
    # refused before any campaign runs: th1 takes a grid of n, th2 fixes r=2
    @pytest.mark.parametrize("kind,flag", [("th1", "--n"), ("th2", "--r")])
    def test_unaccepted_override_exit_2(self, capsys, kind, flag):
        assert main(["verify-theorem", kind, flag, "3"]) == 2
        assert flag in capsys.readouterr().err

    def test_dropped_flag_is_a_usage_error(self, monkeypatch, capsys):
        def no_campaign(*args, **kwargs):
            raise AssertionError("campaign ran")

        monkeypatch.setattr(experiments, "verify_theorem", no_campaign)
        with pytest.raises(SystemExit) as exc:
            main(["verify-theorem", "th2", "--edge-cap", "5"])
        assert exc.value.code == 2
        assert "--edge-cap" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_workers_below_one_exit_2(self, monkeypatch, capsys, workers):
        def no_campaign(*args, **kwargs):
            raise AssertionError("campaign ran")

        monkeypatch.setattr(experiments, "verify_theorem", no_campaign)
        assert main(["verify-theorem", "th2", "--workers", workers]) == 2
        assert "--workers must be >= 1" in capsys.readouterr().err


class TestOutOfRangeFlags:
    @pytest.fixture
    def graph_file(self, tmp_path):
        path = tmp_path / "g.txt"
        write_edgelist(gnp_sample(60, 0.05, RandomSource(5)), path)
        return str(path)

    @pytest.mark.parametrize("argv,flag", [
        (["sample", "--n", "0", "--d", "2"], "--d"),
        (["sample", "--n", "-5", "--p", "0.1"], "--n"),
        (["sample", "--n", "10", "--p", "2"], "--p"),
        (["sample", "--n", "10", "--d", "-1"], "--d"),
        (["stats", "--r", "0"], "--r"),
        (["stats", "--r", "-1"], "--r"),
        (["stats", "--r", "2", "--cycle-s", "1", "--cycle-t", "2"], "--cycle-t"),
        (["stats", "--r", "2", "--cycle-s", "-1", "--cycle-t", "5"], "--cycle-s"),
        (["stats", "--r", "2", "--cycle-s", "1"], "--cycle-t"),
        (["power", "--r", "0"], "--r"),
        (["color", "--r", "1"], "--r"),
        (["color", "--r", "0", "--method", "dsatur-exact"], "--r"),
        (["color", "--r", "0", "--method", "greedy"], "--r"),
        (["power", "--r", "1", "--edge-cap", "-1"], "--edge-cap"),
        (["power", "--r", "2", "--edge-cap", "-1"], "--edge-cap"),
        (["color", "--r", "1", "--method", "dsatur-exact", "--edge-cap", "-1"],
         "--edge-cap"),
        (["color", "--r", "2", "--method", "greedy", "--edge-cap", "-5"],
         "--edge-cap"),
        (["color", "--r", "2", "--method", "dsatur-exact", "--chi-budget", "-1"],
         "--chi-budget"),
    ])
    def test_refused_exit_2(self, graph_file, tmp_path, capsys, argv, flag):
        out = tmp_path / "out.txt"
        files = {"sample": ["--out", str(out)],
                 "power": ["--in", graph_file, "--out", str(out)]}
        assert main(argv + files.get(argv[0], ["--in", graph_file])) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert captured.out == "" and not out.exists()
        assert len(lines) == 1 and lines[0].startswith("config error: ")
        assert flag in lines[0]


def _flag_values(draw, flags):
    """``--name=value`` for each (name, strategy) drawn present."""
    return [f"--{name}={draw(values)}" for name, values in flags
            if draw(st.booleans())]


_INTS = st.integers(-3, 40)
_FLOATS = st.one_of(st.sampled_from(["nan", "inf", "-inf", "0", "-0.5", "1"]),
                    st.floats(-2, 50, allow_nan=False).map(repr))


@st.composite
def flag_argvs(draw):
    command = draw(st.sampled_from(["sample", "stats", "power", "color"]))
    r = [f"--r={draw(st.integers(-3, 4))}"]
    if command == "sample":
        return ["sample", f"--n={draw(_INTS)}", "--out", "{dir}/s.txt",
                *_flag_values(draw, [("p", _FLOATS), ("d", _FLOATS),
                                     ("seed", _INTS)])]
    if command == "stats":
        return ["stats", "--in", "{graph}", *r,
                *_flag_values(draw, [("cycle-s", _INTS), ("cycle-t", _INTS)]),
                *(["--codegree"] if draw(st.booleans()) else [])]
    if command == "power":
        return ["power", "--in", "{graph}", *r, "--out", "{dir}/p.txt",
                *_flag_values(draw, [("edge-cap", _INTS)])]
    method = draw(st.sampled_from(["greedy", "two-phase", "dsatur-exact"]))
    return ["color", "--in", "{graph}", *r, f"--method={method}",
            *_flag_values(draw, [("chi-budget", st.integers(-3, 2000)),
                                 ("edge-cap", _INTS)])]


@settings(max_examples=150, deadline=None)
@given(flag_argvs())
def test_numeric_flags_exit_0_to_3(argv):
    with tempfile.TemporaryDirectory() as tmp:
        graph = os.path.join(tmp, "g.txt")
        write_edgelist(gnp_sample(12, 0.3, RandomSource(3)), graph)
        argv = [a.format(dir=tmp, graph=graph) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("config error: ")


class TestMalformedGraphFile:
    def stats(self, tmp_path, capsys, name, text):
        path = tmp_path / name
        path.write_text(text)
        code = main(["stats", "--in", str(path), "--r", "2"])
        assert str(path) in capsys.readouterr().err
        return code

    def test_edge_count_mismatch(self, tmp_path, capsys):
        assert self.stats(tmp_path, capsys, "g.txt", "3 2\n0 1\n") == 2

    def test_non_integer_token(self, tmp_path, capsys):
        assert self.stats(tmp_path, capsys, "g.txt", "3 1\n0 x\n") == 2

    def test_empty_file(self, tmp_path, capsys):
        assert self.stats(tmp_path, capsys, "g.txt", "") == 2

    def test_endpoint_out_of_range(self, tmp_path, capsys):
        assert self.stats(tmp_path, capsys, "g.txt", "3 1\n0 3\n") == 2

    def test_negative_vertex_count(self, tmp_path, capsys):
        assert self.stats(tmp_path, capsys, "g.txt", "-1 0\n") == 2

    def test_dimacs_missing_problem_line(self, tmp_path, capsys):
        assert self.stats(tmp_path, capsys, "g.col", "e 1 2\n") == 2
