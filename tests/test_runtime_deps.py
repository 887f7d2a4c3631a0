"""numpy is the package's only runtime dependency.

Every import in the package is of the standard library, of numpy, or
relative to the package, so installing numpy is all a run needs.  A
third-party import added to a module would be a hidden dependency; this scan
keeps one from being added.
"""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "hawkes_mle"
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def foreign_imports(tree):
    """(line, module) of each absolute import of neither the standard
    library nor numpy."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        found += [(node.lineno, name) for name in names if name.split(".")[0] not in ALLOWED]
    return found


def test_scan_sees_foreign_imports():
    code = (
        "from __future__ import annotations\n"
        "import os, scipy.stats\n"
        "import numpy.linalg as la\n"
        "from . import model\n"
        "from .model import Exponential\n"
        "from sympy import Symbol\n"
        "def f():\n"
        "    import pandas\n"
    )
    assert foreign_imports(ast.parse(code)) == [(2, "scipy.stats"), (6, "sympy"), (8, "pandas")]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_module_imports_only_stdlib_and_numpy(module):
    tree = ast.parse((SRC / module).read_text(), filename=module)
    assert foreign_imports(tree) == [], f"{module} imports beyond the standard library and numpy"
