"""Source rules for the package itself.

Invariants must raise real errors: an ``assert`` vanishes under
``python -O``, so none may appear in ``src/graphpower``.  The closed-form
evaluators raise only the package's own error types, which the CLI maps to
exit codes; a bare ``ValueError`` there would end in a traceback.  The
package needs numpy alone at run time: no module imports scipy, and no
trial kind or ``graphpower power`` call loads it, since its import alone
costs about as much set-up time and memory as a trial.  The numpy floor
declared in ``pyproject.toml`` has every numpy function the package
calls.  Adjacency lists
are built only from a pinned list of functions, so a new per-vertex Python
walk fails here rather than in a profile.  The ball expansions of
``metrics`` tell layers apart by sorting, never by ``searchsorted``.  The
dense predicate and the
packed bit rows are read by a pinned list of functions too, so a third
dense fork fails here, and one helper alone reads them as Python ints.
The constants that size a
block of ball expansions are read by the one block driver alone, so a
second block loop fails here; only ``_root_blocks`` tells every vertex
from given roots, and only it and the two power kernels take roots at
all.  No code branches on an experiment kind by name, since each kind is
one row of the experiments table.  Every
function the benchmark's tracer wraps still exists, so a renamed one
fails here rather than in a traced benchmark run.  The package loads its
exports lazily, so every name in ``__all__`` is read here: a renamed or
deleted one would otherwise fail only where it is first used.
"""

import ast
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import graphpower
from graphpower import errors

PACKAGE = Path(graphpower.__file__).parent


def test_no_assert_in_package():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    found = [f"{path.name}:{node.lineno}"
             for path in sources
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the package: {', '.join(found)}"


def test_no_scipy_import_in_package():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "scipy" for name in names):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"scipy imported by the package: {', '.join(found)}"


# numpy functions the package may call, with the first numpy release that
# has them, where that is newer than numpy 1.24
NUMPY_SINCE = {"bitwise_count": (2, 0)}


def test_numpy_floor_covers_the_functions_called():
    used = {node.attr
            for path in sorted(PACKAGE.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, ast.Attribute) and node.attr in NUMPY_SINCE
            and isinstance(node.value, ast.Name) and node.value.id == "np"}
    assert used, "no call left needs a numpy newer than 1.24"
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    floor = re.search(r'"numpy>=(\d+)\.(\d+)', pyproject.read_text())
    assert floor, "pyproject.toml declares no numpy floor"
    floor = tuple(map(int, floor.groups()))
    low = sorted(name for name in used if NUMPY_SINCE[name] > floor)
    assert not low, f"numpy>={floor[0]}.{floor[1]} lacks np.{', np.'.join(low)}"


def test_theory_raises_only_package_errors():
    own = {name for name, obj in vars(errors).items()
           if isinstance(obj, type) and issubclass(obj, errors.GraphPowerError)}
    path = PACKAGE / "theory.py"
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        name = exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None)
        if name not in own:
            found.append(f"theory.py:{node.lineno} raises {name}")
    assert not found, f"non-package errors raised: {', '.join(found)}"


NO_SCIPY = """
import contextlib, io, os, sys, tempfile
from graphpower.cli import main
from graphpower.experiments import KINDS, ExperimentConfig, run_single_trial
trials = (("delta-concentration", 2000, 2.0, 2), ("degree-pmf", 2000, 2.0, 3),
          ("chi2-equality", 300, 2.0, 2), ("chi-sandwich", 300, 2.0, 3),
          ("clique-sandwich", 150, 2.0, 3), ("dense-chi", 200, 20.0, 2))
for kind, n, d, r in trials:
    run_single_trial(ExperimentConfig(kind=kind, n=n, d=d, r=r, seed=1), 0)
with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
    g, g2 = os.path.join(tmp, "g.txt"), os.path.join(tmp, "g2.txt")
    codes = [main(["sample", "--n", "200", "--d", "3", "--out", g]),
             main(["power", "--in", g, "--r", "3", "--out", g2])]
print(sorted(kind for kind, *_ in trials) == sorted(KINDS), codes == [0, 0],
      "scipy" in sys.modules)
"""


def test_no_trial_kind_or_power_command_imports_scipy():
    path = [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    out = subprocess.run([sys.executable, "-c", NO_SCIPY], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["True", "True", "False"]


# every call of adjacency_lists in the package, as module:function: the
# Python loops of the DSATUR and forest code.  Balls, powers and colorings
# run on the CSR arrays, the two-phase coloring takes its order from the
# forest check's one walk, and the clique search reads the bit rows; a call
# added here is a new Python walk
ADJACENCY_LISTS_CALLERS = sorted([
    "coloring.py:dsatur_chromatic_exact",
    "coloring.py:dsatur_greedy",
    "graph.py:is_forest",
])


def owners(tree, match):
    """The innermost function around each node that ``match`` accepts."""
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        elif match(node):
            found.append(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, "<module>")
    return found


def name_of(node):
    return getattr(node, "id", getattr(node, "attr", None))


def calls_by_function(tree, callee):
    """The innermost function around each call of ``callee``."""
    return owners(tree, lambda node: isinstance(node, ast.Call)
                  and name_of(node.func) == callee)


def test_adjacency_lists_callers_are_pinned():
    found = sorted(f"{path.name}:{owner}"
                   for path in sorted(PACKAGE.glob("*.py"))
                   for owner in calls_by_function(
                       ast.parse(path.read_text(), str(path)), "adjacency_lists"))
    assert found == ADJACENCY_LISTS_CALLERS


# every call of the dense predicate, of the bit-row packer and of the
# cached bit rows in the package, as module:function: the power table, the
# greedy coloring and the min-degree independent set run on packed bit rows
# when the graph is dense, and only the cache packs them.  A call added
# here is another dense fork.  The clique search reads the bit rows of
# every graph as Python ints (metrics.py:_adjacency_bitsets), which is the
# one packer's output and not a dense fork.  The bit-row kernel reads them
# in its grow (graph.py:grow), so a scan with no root packs none
DENSE_CALLERS = {
    "_dense": ["coloring.py:_greedy_fill", "graph.py:_power_kernel",
               "metrics.py:greedy_independent_set"],
    "_bit_rows": ["graph.py:bit_rows"],
    "bit_rows": ["coloring.py:_greedy_fill", "graph.py:grow",
                 "metrics.py:_adjacency_bitsets",
                 "metrics.py:greedy_independent_set"],
}


@pytest.mark.parametrize("callee", sorted(DENSE_CALLERS))
def test_dense_callers_are_pinned(callee):
    found = sorted(f"{path.name}:{owner}"
                   for path in sorted(PACKAGE.glob("*.py"))
                   for owner in calls_by_function(
                       ast.parse(path.read_text(), str(path)), callee))
    assert found == DENSE_CALLERS[callee]


# every call of int.from_bytes in the package: packed rows become Python
# ints in one helper, which the clique search and the dense greedy share,
# so a second reading of the bytes, with its own byte order, fails here
def test_int_from_bytes_callers_are_pinned():
    found = sorted(f"{path.name}:{owner}"
                   for path in sorted(PACKAGE.glob("*.py"))
                   for owner in calls_by_function(
                       ast.parse(path.read_text(), str(path)), "from_bytes"))
    assert found == ["graph.py:_bit_ints"]


# the ball expansions of metrics.py tell a key's layer by one tagged sort,
# as the power kernel does: a binary search per unsorted key costs many
# times a key's share of that sort, so a call of searchsorted fails here,
# and so does a return of the old membership helper
def test_metrics_membership_is_by_sort():
    path = PACKAGE / "metrics.py"
    tree = ast.parse(path.read_text(), str(path))
    calls = calls_by_function(tree, "searchsorted")
    defined = [node.name for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and node.name == "_in_sorted"]
    assert not calls, f"searchsorted called in metrics.py by {calls}"
    assert not defined, "metrics.py defines _in_sorted"


# the constants that size a block of ball expansions, read by the one
# block driver alone: a second hand-rolled block loop fails here
BLOCK_CONSTANTS = ("POWER_KEY_BUDGET", "POWER_INT32_KEYS")


def test_block_constants_are_read_by_the_driver_alone():
    def reads(node):
        return (isinstance(node, (ast.Name, ast.Attribute))
                and isinstance(node.ctx, ast.Load)
                and name_of(node) in BLOCK_CONSTANTS)

    found = sorted({f"{path.name}:{owner}"
                    for path in sorted(PACKAGE.glob("*.py"))
                    for owner in owners(ast.parse(path.read_text(), str(path)),
                                        reads)})
    assert found == ["graph.py:_root_blocks"]


# the one place that tells every vertex from given roots: a block of the
# driver holds its roots as keys, which every grow reads as ``keys % n``,
# so a second "every vertex or given roots" fork fails here
def test_roots_are_told_from_every_vertex_by_the_driver_alone():
    def roots_against_none(node):
        if not isinstance(node, ast.Compare):
            return False
        sides = [node.left, *node.comparators]
        return (any(name_of(side) == "roots" for side in sides)
                and any(isinstance(side, ast.Constant) and side.value is None
                        for side in sides))

    found = sorted(f"{path.name}:{owner}"
                   for path in sorted(PACKAGE.glob("*.py"))
                   for owner in owners(ast.parse(path.read_text(), str(path)),
                                       roots_against_none))
    assert found == ["graph.py:_root_blocks"]


# only _root_blocks and the two power kernels take given roots: every
# other pass runs over every vertex, so a function that grows a roots
# parameter of its own (a second roots mode) fails here
ROOTS_TAKERS = ["graph.py:_bit_power_blocks", "graph.py:_power_blocks",
                "graph.py:_root_blocks"]


def test_roots_parameters_are_pinned():
    found = sorted(f"{path.name}:{owner}"
                   for path in sorted(PACKAGE.glob("*.py"))
                   for owner in owners(ast.parse(path.read_text(), str(path)),
                                       lambda node: isinstance(node, ast.arg)
                                       and node.arg == "roots"))
    assert found == ROOTS_TAKERS


def test_tracer_sites_resolve_on_the_package():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    sites = [site for sites in tracer.SPANS.values() for site in sites]
    sites += list(tracer.HOOKS)
    assert sites
    missing = [site for site in sites
               if not hasattr(getattr(graphpower, site.split(".")[0]),
                              site.split(".")[1])]
    assert not missing, f"tracer sites missing from the package: {missing}"


def test_every_export_resolves():
    missing = [name for name in graphpower.__all__
               if not hasattr(graphpower, name)]
    assert not missing, f"exports missing from the package: {missing}"


def is_strings(node):
    """A string constant, or a tuple, list or set of them."""
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return all(map(is_strings, node.elts))
    return isinstance(node, ast.Constant) and isinstance(node.value, str)


def test_no_branch_on_experiment_kind():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            if (any(isinstance(op, ast.Attribute) and op.attr == "kind"
                    for op in operands) and any(map(is_strings, operands))):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"branches on an experiment kind: {', '.join(found)}"
