"""Only ``io`` reads or writes files.

How a value goes into a file (its digits, the CSV layout, the JSON layout) is
decided once, in ``io``'s table and JSON writers; a module that opened its own
file would make that decision a second time.  This scan keeps one from doing so.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "hawkes_mle"
JSON_NAMES = {"dump", "dumps", "load"}
PATH_NAMES = {"write_text", "read_text", "write_bytes", "read_bytes"}


def file_access(tree):
    """Line numbers of calls to ``open``, ``json.dump``/``dumps``/``load`` and
    ``.write_text``/``.read_text`` (and their bytes forms)."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            lines.append(node.lineno)
        elif isinstance(func, ast.Attribute) and (
            func.attr in PATH_NAMES
            or (func.attr in JSON_NAMES and isinstance(func.value, ast.Name)
                and func.value.id == "json")
        ):
            lines.append(node.lineno)
    return sorted(lines)


def test_scan_sees_file_access():
    code = (
        "import json\n"
        "with open('a') as f:\n"
        "    json.dump({}, f)\n"
        "text = json.dumps({})\n"
        "path.write_text(text)\n"
        "doc = json.loads(text)\n"
    )
    assert file_access(ast.parse(code)) == [2, 3, 4, 5]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py") if p.name != "io.py"))
def test_module_touches_no_file(module):
    tree = ast.parse((SRC / module).read_text(), filename=module)
    assert file_access(tree) == [], f"{module} reads or writes a file; only io.py may"
