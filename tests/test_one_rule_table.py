"""Scalar inputs are checked through ``model._RULES`` alone, event streams through
``EventSequence`` alone, experiment arguments through ``experiments._RUN_RULES`` alone,
the shape of a theta or a box through ``model.FlatIndexMap`` alone.

Each kind of scalar an input takes (positive integer, non-negative integer,
finite number, finite > 0, finite >= 0, fraction in [0, 1] or (0, 1), finite
>= 1, event type) has one rule, a (predicate, phrase) pair in ``model``, and
``model._require`` words every refusal the way the config reader does.  A
module that called ``_is_integer`` or ``_is_finite`` itself, a config reader
with a (predicate, phrase) rule of its own, an event-file reader that compared
its times or types itself, a ``HyperParams.validate`` that read field
annotations or worded a range of its own, a config reader that checked a list's
values or their repeats itself, a runner that worded an argument error of its
own, or a module that worded a theta-shape refusal of its own, would write a rule
a second time, and the two copies would drift.  These scans keep each from being
added.
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


ORDERING = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)
# The hand-worded refusals ``HyperParams.validate`` keeps: the coupled epsilon and gamma
# bounds ("... eps ...") and the step-size and delta compliance rules.
KEPT_WORDING = ("eps", "non-compliant")


def function(tree, name, cls=None):
    """The definition of function ``name``, or of the method ``name`` of class ``cls``."""
    scope = tree if cls is None else next(
        node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == cls)
    return next(node for node in scope.body
                if isinstance(node, ast.FunctionDef) and node.name == name)


def ordering_comparisons(func):
    """Line of each <, <=, > or >= comparison in ``func``."""
    return sorted(node.lineno for node in ast.walk(func) if isinstance(node, ast.Compare)
                  and any(isinstance(op, ORDERING) for op in node.ops))


def annotation_reads(func):
    """Line of each ``.type``, ``.__annotations__`` or ``fields(...)`` in ``func``."""
    found = []
    for node in ast.walk(func):
        if isinstance(node, ast.Attribute) and node.attr in ("type", "__annotations__"):
            found.append(node.lineno)
        elif isinstance(node, ast.Call):
            callee = node.func
            name = callee.id if isinstance(callee, ast.Name) else getattr(callee, "attr", None)
            if name == "fields":
                found.append(node.lineno)
    return sorted(found)


def worded_raises(func, kept=KEPT_WORDING):
    """Line of each raise in ``func`` whose message holds words of its own (a string
    constant) but none of ``kept``."""
    found = []
    for node in ast.walk(func):
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and node.exc.args:
            words = "".join(part.value for part in ast.walk(node.exc.args[0])
                            if isinstance(part, ast.Constant) and isinstance(part.value, str))
            if words and not any(phrase in words for phrase in kept):
                found.append(node.lineno)
    return found


def test_scan_sees_stream_rules_and_worded_ranges():
    code = (
        "def read_events(path):\n"
        "    if last > t:\n"
        "        raise ValueError('negative time')\n"
        "    return horizon is None\n"
        "class HyperParams:\n"
        "    def validate(self):\n"
        "        for f in fields(self):\n"
        "            rule = f.type\n"
        "        if self.c1 < 1:\n"
        "            raise HyperParamsError('c1 must be >= 1')\n"
        "        raise HyperParamsError(f'{name} must lie in [0, 1 - 2 eps]')\n"
        "        raise HyperParamsError('non-compliant: ' + '; '.join(issues))\n"
        "        _require(name, value, rule, HyperParamsError)\n"
    )
    tree = ast.parse(code)
    assert ordering_comparisons(function(tree, "read_events")) == [2]
    validate = function(tree, "validate", "HyperParams")
    assert annotation_reads(validate) == [7, 8]
    assert worded_raises(validate) == [10]


def test_read_events_compares_no_time_or_type_itself():
    """``EventSequence`` holds the stream rules; the reader only parses fields."""
    tree = ast.parse((SRC / "io.py").read_text(), filename="io.py")
    found = ordering_comparisons(function(tree, "read_events"))
    assert found == [], f"io.read_events checks a stream rule itself at lines {found}"


def test_hyperparams_validate_takes_its_ranges_from_the_table():
    """``optim._RANGES`` holds each field's range; only the coupled epsilon and gamma
    bounds and the compliance rules are worded in ``validate``."""
    tree = ast.parse((SRC / "optim.py").read_text(), filename="optim.py")
    validate = function(tree, "validate", "HyperParams")
    assert annotation_reads(validate) == [], "validate reads field annotations"
    assert worded_raises(validate) == [], "validate words a range of its own"


def called(node):
    """The name a call calls, or None."""
    func = node.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def list_checks(tree):
    """Line of each check of a list's values (an ``all`` or ``any`` call) or of their
    repeats (``len(set(...))``)."""
    return sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call) and (
        called(node) in ("all", "any") or called(node) == "len" and any(
            isinstance(arg, ast.Call) and called(arg) == "set" for arg in node.args)))


RUNNERS = ("run_benchmark", "run_consistency_study")


def test_scan_sees_list_rules_and_worded_argument_errors():
    code = (
        "def _nonempty_list(rule, expected):\n"
        "    return (lambda v: isinstance(v, list) and all(map(rule[0], v))), expected\n"
        "def _experiment(doc, keys):\n"
        "    _require(key, v, ((lambda v: len(set(v)) == len(v)), 'distinct values'))\n"
        "    unknown = set(doc) - set(keys)\n"
        "def run_benchmark(instance, seeds):\n"
        "    if not seeds:\n"
        "        raise ValueError(f'{name} must not be empty')\n"
        "    _check_arguments(seeds=seeds)\n"
        "    raise error(message)\n"
    )
    tree = ast.parse(code)
    assert list_checks(tree) == [2, 4]
    assert worded_raises(function(tree, "run_benchmark"), kept=()) == [8]


def test_config_reader_checks_no_list_itself():
    """``experiments._RUN_RULES`` holds the list rules, built by ``model._distinct_list``."""
    tree = ast.parse((SRC / "io.py").read_text(), filename="io.py")
    found = list_checks(tree)
    assert found == [], f"io.py checks a list's values or repeats itself at lines {found}"


@pytest.mark.parametrize("runner", RUNNERS)
def test_runners_word_no_argument_error(runner):
    """A runner checks its arguments through ``_check_arguments`` alone."""
    tree = ast.parse((SRC / "experiments.py").read_text(), filename="experiments.py")
    found = worded_raises(function(tree, runner), kept=())
    assert found == [], f"{runner} words an argument error of its own at lines {found}"


# The two refusals of a wrong theta or box shape, worded by ``FlatIndexMap.flat`` and
# ``FlatIndexMap.shaped``.
SHAPE_PHRASES = ("expected flat vector of dim", "do not match the model spec")


def shape_phrases(tree):
    """Line of each string constant or f-string part holding one of ``SHAPE_PHRASES``."""
    return sorted({node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Constant) and isinstance(node.value, str)
                   and any(phrase in node.value for phrase in SHAPE_PHRASES)})


def test_scan_sees_shape_phrases():
    code = (
        "def _as_flat(problem, theta):\n"
        "    raise ValueError(f'expected flat vector of dim {problem.dim}')\n"
        "def _shaped(value, spec):\n"
        "    raise ValueError(f'shapes for K={value.K} do not match the model spec')\n"
        "def ipalm_map(u, P):\n"
        "    raise ValueError(f'expected doubled state of dim {2 * P}')\n"
    )
    assert shape_phrases(ast.parse(code)) == [2, 4]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_only_model_words_a_shape_refusal(module):
    tree = ast.parse((SRC / module).read_text(), filename=module)
    found = [] if module == "model.py" else shape_phrases(tree)
    assert found == [], (f"{module} words a theta-shape refusal itself at lines {found}; use "
                         "FlatIndexMap.flat or FlatIndexMap.shaped")
