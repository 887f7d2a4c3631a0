"""The command line converts no error itself.

Each input is checked where it is read, by a reader that raises the error
class carrying the input's exit code (``ConfigError``, ``DomainError``,
``DataError``, ...), and ``cli.main`` maps those classes to exit codes in one
place.  A ``try`` in a ``cmd_*`` function would decide an input's exit code a
second time; this scan keeps one from doing so.
"""

import ast
from pathlib import Path

CLI = Path(__file__).resolve().parents[1] / "src" / "hawkes_mle" / "cli.py"
TRY = (ast.Try, ast.TryStar) if hasattr(ast, "TryStar") else (ast.Try,)  # TryStar: 3.11+


def commands_with_try(tree):
    """Names of the top-level ``cmd_*`` functions that contain a ``try`` statement."""
    return sorted(
        node.name for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_")
        and any(isinstance(inner, TRY) for inner in ast.walk(node))
    )


def test_scan_sees_try():
    code = (
        "def cmd_a(args):\n"
        "    if args:\n"
        "        try:\n"
        "            pass\n"
        "        except ValueError:\n"
        "            pass\n"
        "def cmd_b(args):\n"
        "    return 0\n"
        "def main(argv):\n"
        "    try:\n"
        "        return 0\n"
        "    except ValueError:\n"
        "        return 1\n"
    )
    assert commands_with_try(ast.parse(code)) == ["cmd_a"]


def test_commands_contain_no_try():
    tree = ast.parse(CLI.read_text(), filename="cli.py")
    assert [n.name for n in tree.body if getattr(n, "name", "").startswith("cmd_")]
    assert commands_with_try(tree) == [], "a cmd_* function converts an error itself"
