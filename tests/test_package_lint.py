"""Source rules for the package itself.

Invariants must raise real errors: an ``assert`` vanishes under
``python -O``, so none may appear in ``src/graphpower``.
"""

import ast
from pathlib import Path

import graphpower

PACKAGE = Path(graphpower.__file__).parent


def test_no_assert_in_package():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    found = [f"{path.name}:{node.lineno}"
             for path in sources
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the package: {', '.join(found)}"
