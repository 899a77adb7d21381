"""Each trial and ``graphpower stats`` expand the balls of their graph once.

One pass of the (A+I)^r kernel gives the G^r degrees at every radius and
G^r itself, so a trial makes at most one pass over its sample, and
chi2-equality one more over the ball of its certificate.  The passes are
counted at the block driver, ``graph._root_blocks``, which every pass of
the kernel runs on.  The co-degree and short-cycle statistics run their
own expansions on the driver and are not counted here.  Also here: the
bernoulli sampler compares raw 64-bit words with p, and gives the pairs
that comparing numpy's doubles with p gives.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from collections import Counter

import networkx as nx
import numpy as np
import pytest

from graphpower import experiments, graph
from graphpower.cli import main
from graphpower.experiments import KINDS, ExperimentConfig, run_single_trial
from graphpower.rng import RandomSource

SIZES = {"delta-concentration": (2000, 2.0, 2), "degree-pmf": (2000, 2.0, 3),
         "chi2-equality": (400, 2.0, 2), "chi-sandwich": (400, 2.0, 3),
         "clique-sandwich": (60, 3.0, 3), "dense-chi": (120, 20.0, 2)}


@contextlib.contextmanager
def counted_passes():
    """Counts the kernel passes per graph, and records the sampled graphs."""
    passes, samples = Counter(), []
    root_blocks, sample = graph._root_blocks, experiments.gnp_sample

    def counting(g, grow):
        passes[id(g)] += 1
        return root_blocks(g, grow)

    def recording(*args, **kwargs):
        samples.append(sample(*args, **kwargs))
        return samples[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph, "_root_blocks", counting)
        mp.setattr(experiments, "gnp_sample", recording)
        yield passes, samples


@pytest.mark.parametrize("kind", KINDS)
def test_one_pass_per_trial(kind):
    n, d, r = SIZES[kind]
    cfg = ExperimentConfig(kind=kind, n=n, d=d, r=r, seed=3)
    for trial in range(3):
        with counted_passes() as (passes, samples):
            run_single_trial(cfg, trial)
        (g,) = samples
        assert passes[id(g)] == 1
        # the chi2 certificate's pass, over the ball of a max-degree vertex
        others = sum(passes.values()) - passes[id(g)]
        assert others == (1 if kind == "chi2-equality" else 0)


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "g.txt"
    with contextlib.redirect_stdout(io.StringIO()):
        main(["sample", "--n", "50", "--d", "3", "--seed", "1",
              "--out", str(path)])
    return str(path)


@pytest.mark.parametrize("r", [1, 2, 4, 9])
def test_stats_makes_one_pass(graph_file, r):
    with counted_passes() as (passes, _), \
            contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(["stats", "--in", graph_file, "--r", str(r)]) == 0
    assert sum(passes.values()) == 1
    rep = json.loads(out.getvalue())
    deltas = [rep[f"delta_{s}"] for s in range(1, r + 1)]
    assert deltas == sorted(deltas)
    assert rep["clique_lower_bound"] == (2 if r == 1 else
                                         rep[f"delta_{r // 2}"] + 1)


def test_stats_past_the_diameter_finishes(graph_file):
    """At r = 100000 the pass stops once the balls stop growing, after
    about diameter hops; one pass per radius did not finish in 60 s."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [os.path.dirname(os.path.dirname(graph.__file__)),
                      os.environ.get("PYTHONPATH", "")])))
    start = time.perf_counter()
    out = subprocess.run([sys.executable, "-m", "graphpower.cli", "stats",
                          "--in", graph_file, "--r", "100000"],
                         capture_output=True, text=True, env=env, timeout=30)
    elapsed = time.perf_counter() - start
    assert out.returncode == 0, out.stderr
    rep = json.loads(out.stdout)
    g = graph.read_edgelist(graph_file)
    h = nx.Graph(g.edge_array().tolist())
    h.add_nodes_from(range(g.n))
    component = max(map(len, nx.connected_components(h)))
    assert rep["delta_100000"] == rep["delta_50"] == component - 1
    assert elapsed < 15


class RawOnly:
    """A generator that hands out its raw words and refuses doubles."""

    def __init__(self, seed):
        self.bit_generator = np.random.PCG64(seed)

    def random(self, *args):
        raise AssertionError("the bernoulli sampler drew doubles")


@pytest.mark.parametrize("seed", [0, 5, 2 ** 40 + 3])
def test_raw_words_are_numpys_doubles(seed):
    """numpy's uniform double is (x >> 11) * 2**-53 of the raw word x."""
    words = np.random.PCG64(seed).random_raw(20000)
    doubles = np.random.Generator(np.random.PCG64(seed)).random(20000)
    assert np.array_equal((words >> np.uint64(11)) * 2.0 ** -53, doubles)


# n = 129 spans two chunks of UNIFORM_CHUNK pairs, n = 2000 about 244;
# 0.5 and 0.25 lie on the 2**-53 grid, 2/2000 and 1/3 do not
@pytest.mark.parametrize("n", [2, 129, 2000])
@pytest.mark.parametrize("p", [0.5, 0.25, 2 / 2000, 1 / 3])
@pytest.mark.parametrize("seed", [1, 7])
def test_bernoulli_compares_raw_words(n, p, seed):
    src = RandomSource(seed)
    src.generator = RawOnly(seed)
    got = graph.gnp_sample(n, p, src, mode="bernoulli")
    # one double per pair in lexicographic order, kept when below p
    total = n * (n - 1) // 2
    lin = np.flatnonzero(
        np.random.Generator(np.random.PCG64(seed)).random(total) < p)
    i, j = np.triu_indices(n, k=1)
    want = graph.Graph.from_edges(n, np.column_stack([i[lin], j[lin]]))
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
