"""Only ``optim`` issues warnings, and no module of the package filters them.

A run's non-compliant hyperparameters are reported in one place, the
optimizer loop, once per fit.  A second module that warned would report a
decision a second time, and one that caught or filtered warnings would hide
what that place reports.  This scan keeps either from being added.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "hawkes_mle"
FILTERS = {"catch_warnings", "simplefilter", "filterwarnings"}


def warning_calls(tree):
    """(line, name) per use of ``warnings.warn`` or a ``warnings`` filter, and per
    import of one from ``warnings``."""
    found = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "warnings"
            and node.attr in FILTERS | {"warn"}
        ):
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module == "warnings":
            found += [(node.lineno, a.name) for a in node.names if a.name in FILTERS | {"warn"}]
    return sorted(found)


def test_scan_sees_warnings_and_filters():
    code = (
        "import warnings\n"
        "warnings.warn('a')\n"
        "with warnings.catch_warnings():\n"
        "    warnings.simplefilter('ignore')\n"
        "from warnings import warn\n"
        "x = warnings.WarningMessage\n"
    )
    assert warning_calls(ast.parse(code)) == [
        (2, "warn"), (3, "catch_warnings"), (4, "simplefilter"), (5, "warn"),
    ]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_only_optim_warns_and_no_module_filters(module):
    tree = ast.parse((SRC / module).read_text(), filename=module)
    allowed = {"warn"} if module == "optim.py" else set()
    assert [c for c in warning_calls(tree) if c[1] not in allowed] == [], (
        f"{module} warns or filters warnings; only optim.py's run loop warns"
    )
