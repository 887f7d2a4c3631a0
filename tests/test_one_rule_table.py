"""Scalar inputs are checked through ``model._RULES`` alone.

The six kinds of scalar an input takes (positive integer, non-negative integer,
finite number, finite > 0, finite >= 0, fraction in [0, 1]) each have one rule,
a (predicate, phrase) pair in ``model``, and ``model._require`` words every
refusal the way the config reader does.  A module that called ``_is_integer``
or ``_is_finite`` itself, or a config reader with a (predicate, phrase) rule of
its own, would write a rule a second time, and the two copies would drift.
This scan keeps either from being added.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "hawkes_mle"
PREDICATES = {"_is_integer", "_is_finite"}


def predicate_uses(tree):
    """(line, name) per call or import of ``_is_integer`` / ``_is_finite``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in PREDICATES:
                found.append((node.lineno, name))
        elif isinstance(node, ast.ImportFrom):
            found += [(node.lineno, a.name) for a in node.names if a.name in PREDICATES]
    return sorted(found)


def is_phrase(node):
    return isinstance(node, ast.JoinedStr) or (
        isinstance(node, ast.Constant) and isinstance(node.value, str)
    )


def module_rules(tree):
    """(line, name) per module-level assignment of a (predicate, phrase) pair: a
    2-tuple of a lambda or a named function and a string or f-string."""
    found = []
    for node in tree.body:
        if not (isinstance(node, ast.Assign) and isinstance(node.value, ast.Tuple)):
            continue
        elts = node.value.elts
        if (len(elts) == 2 and isinstance(elts[0], (ast.Lambda, ast.Name, ast.Attribute))
                and is_phrase(elts[1])):
            found += [(node.lineno, t.id) for t in node.targets if isinstance(t, ast.Name)]
    return found


def test_scan_sees_predicates_and_rules():
    code = (
        "from .model import _is_finite\n"
        "_POSITIVE = (lambda v: _is_finite(v) and v > 0), 'a finite number > 0'\n"
        "_NAME = (str.isidentifier, f'a {\"name\"}')\n"
        "PAIR = (1, 'not a rule')\n"
        "def f(v):\n"
        "    return model._is_integer(v)\n"
    )
    tree = ast.parse(code)
    assert predicate_uses(tree) == [(1, "_is_finite"), (2, "_is_finite"), (6, "_is_integer")]
    assert module_rules(tree) == [(2, "_POSITIVE"), (3, "_NAME")]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_only_model_calls_the_scalar_predicates(module):
    tree = ast.parse((SRC / module).read_text(), filename=module)
    found = [] if module == "model.py" else predicate_uses(tree)
    assert found == [], f"{module} checks a scalar itself; use model._require and model._RULES"


def test_config_reader_defines_no_rule_of_its_own():
    tree = ast.parse((SRC / "io.py").read_text(), filename="io.py")
    assert module_rules(tree) == [], "io.py defines a rule; model._RULES holds them"
