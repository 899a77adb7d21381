"""Mangled edge-list, DIMACS, coloring, experiment-config and eval-batch
files.

Each example starts from a valid file and mangles it: lines dropped,
duplicated or swapped, tokens replaced, lines inserted, the text cut short
and stray bytes (bad UTF-8 among them) spliced in.  The graph files go
through ``main()`` to every command that reads one (``stats``, ``color``
and ``power``), the config files to ``experiment run`` and the batch files
to ``eval --batch``; each may exit 0-3 and must never leak an exception.
No command reads a coloring file, so ``read_coloring`` is held to its own
contract: a Coloring or a ValueError.

The token pool holds no vertex count between the test's 12 and the int64
key limit (about 3e9): such a header names a graph the machine would try to
build, which is real work, not a malformed file.  Config and batch lines
are written as ``key=value`` tokens, so a replaced token never keeps its
key and takes a pool value: no n, r or trials grows past the valid file's.
The junk bytes hold no digit, so a splice cannot enlarge a value either.
"""

import contextlib
import io
import os
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphpower import (Coloring, RandomSource, gnp_sample,
                        greedy_power_coloring, write_dimacs, write_edgelist)
from graphpower.cli import main
from graphpower.coloring import read_coloring, write_coloring

SETTINGS = settings(max_examples=150, deadline=None)
TOKENS = ["", "0", "1", "2", "5", "11", "12", "13", "-1", "-12", "x", "1.5",
          "nan", "inf", "1e3", "0x1", "p", "e", "c", "s", "edge", "#", "\x00",
          "é", str(2 ** 40), str(2 ** 62), str(2 ** 63), str(10 ** 30),
          str(-2 ** 63 - 1)]
JUNK = [b"\xff", b"\xc3", b"\x00", b" ", b"\n", b"\t", b"-", b"#", b"x", b"."]


def _valid_texts():
    g = gnp_sample(12, 0.3, RandomSource(3))
    with tempfile.TemporaryDirectory() as tmp:
        texts = {}
        for name, write, obj in (("g.txt", write_edgelist, g),
                                 ("g.col", write_dimacs, g),
                                 ("c.txt", write_coloring,
                                  greedy_power_coloring(g, 2))):
            path = os.path.join(tmp, name)
            write(obj, path)
            with open(path) as fh:
                texts[name] = fh.read()
    return texts


VALID = _valid_texts()

# one tiny campaign per kind, n <= 20 and one trial
CONFIGS = [
    "kind=delta-concentration\nn=20\nd=2\nr=2\ntrials=1\nseed=1\n",
    "kind=chi2-equality\nn=20\nd=2\nr=2\ntrials=1\nseed=1\n"
    "measure_z=true\n",
    "kind=chi-sandwich\nn=20\nd=2\nr=3\ntrials=1\nseed=2\n",
    "kind=clique-sandwich\nn=20\nd=3\nr=2\ntrials=1\nseed=3\n"
    "clique_budget=1000\n",
    "kind=dense-chi\nn=20\nd=5\nr=2\ntrials=1\nseed=4\nfmt=csv\n",
    "kind=degree-pmf\nn=20\np=0.1\nr=2\ntrials=1\nseed=5\ndegree_cap=4\n"
    "sample_mode=skip\n",
]
BATCH = ("# every formula once\n"
         "iterated-log x=2.718281828459045 k=1\n"
         "d-star n=1000000 r=2\n"
         "u-value ell=1,2 d=2\n"
         "log-u ell=1,2 d=2\n"
         "degree-pmf d=2 r=2 D=20\n"
         "lemma2-exact D=40 r=3\n"
         "lemma2-lagrange D=1000 r=2\n"
         "janson-k0 n=1000 d=10 r=2\n"
         "janson-mu n=1000 d=10 r=1 k=100\n"
         "aks-bound delta=10000 t=100\n")


@st.composite
def mangled(draw, text):
    lines = [line.split() for line in text.splitlines()]
    for _ in range(draw(st.integers(1, 6))):
        op = draw(st.sampled_from(["drop", "dup", "swap", "token", "insert"]))
        i = draw(st.integers(0, len(lines)))
        if op == "insert" or not lines:
            lines.insert(i, draw(st.lists(st.sampled_from(TOKENS), max_size=4)))
            continue
        i = min(i, len(lines) - 1)
        if op == "drop":
            del lines[i]
        elif op == "dup":
            lines.insert(i, list(lines[i]))
        elif op == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        else:
            row = lines[i]
            j = draw(st.integers(0, len(row)))
            row[j:j + 1] = [draw(st.sampled_from(TOKENS))]
    data = "".join(" ".join(row) + "\n" for row in lines).encode()
    data = data[:draw(st.integers(0, len(data)))] if draw(st.booleans()) else data
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from(JUNK)) + data[at:]
    return data


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@SETTINGS
@example(("g.txt", b"3 1\n0 %d\n" % 2 ** 63))  # int64 overflow at an endpoint
@example(("g.col", b"p edge %d 1\ne 1 2\n" % 2 ** 63))  # and at n
@example(("g.txt", b"%d 0\n" % 2 ** 40))  # n past the int64 key limit
@given(st.sampled_from(["g.txt", "g.col"]).flatmap(
    lambda name: st.tuples(st.just(name), mangled(VALID[name]))))
def test_mangled_graph_file_exits_0_to_3(case):
    name, data = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, name)
        with open(path, "wb") as fh:
            fh.write(data)
        for argv in (["stats", "--in", path, "--r", "2"],
                     ["color", "--in", path, "--r", "2", "--method", "greedy"],
                     ["power", "--in", path, "--r", "2",
                      "--out", os.path.join(tmp, "out.txt")]):
            code, err = run_main(argv)
            assert code in (0, 1, 2, 3)
            assert "Traceback" not in err
            if code == 2:
                assert path in err


def _exits_0_to_3(argv):
    code, err = run_main(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    if code == 2:
        assert err.startswith("config error: ")


@SETTINGS
@example(CONFIGS[0].encode() + b"\xff\n")  # not UTF-8
@given(st.sampled_from(CONFIGS).flatmap(mangled))
def test_mangled_config_file_exits_0_to_3(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "exp.cfg")
        with open(path, "wb") as fh:
            fh.write(data)
        _exits_0_to_3(["experiment", "run", path])


@SETTINGS
@example(BATCH.encode() + b"\xc3\n")  # not UTF-8
@given(mangled(BATCH))
def test_mangled_batch_file_exits_0_to_3(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "batch.txt")
        with open(path, "wb") as fh:
            fh.write(data)
        _exits_0_to_3(["eval", "--batch", path])


@SETTINGS
@example(b"s 2\nc 0 0\n")  # a short line
@given(mangled(VALID["c.txt"]))
def test_mangled_coloring_file_reads_or_raises_value_error(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.txt")
        with open(path, "wb") as fh:
            fh.write(data)
        try:
            coloring = read_coloring(path)
        except ValueError:
            return
    assert isinstance(coloring, Coloring)
    assert coloring.palette_size == (max(coloring.colors) + 1
                                     if coloring.colors else 0)


def test_valid_files_pass():
    with tempfile.TemporaryDirectory() as tmp:
        for name in ("g.txt", "g.col"):
            path = os.path.join(tmp, name)
            with open(path, "w") as fh:
                fh.write(VALID[name])
            assert run_main(["stats", "--in", path, "--r", "2"])[0] == 0
        path = os.path.join(tmp, "c.txt")
        with open(path, "w") as fh:
            fh.write(VALID["c.txt"])
        assert read_coloring(path).palette_size > 0
        path = os.path.join(tmp, "exp.cfg")
        for text in CONFIGS:
            with open(path, "w") as fh:
                fh.write(text)
            assert run_main(["experiment", "run", path])[0] == 0
        path = os.path.join(tmp, "batch.txt")
        with open(path, "w") as fh:
            fh.write(BATCH)
        assert run_main(["eval", "--batch", path])[0] == 0
