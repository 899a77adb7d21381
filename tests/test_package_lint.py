"""Source rules for the package itself.

Invariants must raise real errors: an ``assert`` vanishes under
``python -O``, so none may appear in ``src/graphpower``.  The closed-form
evaluators raise only the package's own error types, which the CLI maps to
exit codes; a bare ``ValueError`` there would end in a traceback.  The sparse
implicit trials must not import scipy, whose import alone costs about as
much set-up time and memory as a trial.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

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


SPARSE_TRIALS = """
import sys
from graphpower.experiments import ExperimentConfig, run_single_trial
for kind, n, r in (("delta-concentration", 2000, 2), ("degree-pmf", 2000, 3)):
    run_single_trial(ExperimentConfig(kind=kind, n=n, d=2.0, r=r, seed=1), 0)
print("scipy" in sys.modules)
"""


def test_sparse_trials_do_not_import_scipy():
    path = [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    out = subprocess.run([sys.executable, "-c", SPARSE_TRIALS], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["False"]
