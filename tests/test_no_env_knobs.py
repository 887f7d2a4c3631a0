"""No module of the package reads the environment.

Every setting is an argument, a config key or a command-line flag, so a run
is reproduced from its inputs alone.  An environment variable read deep in a
module is a hidden knob; this scan keeps one from being added.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "hawkes_mle"
ENV_NAMES = {"environ", "environb", "getenv", "getenvb"}


def env_reads(tree):
    """Line numbers of ``os.environ``/``os.getenv`` uses and imports of them."""
    lines = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "os"
            and node.attr in ENV_NAMES
        ):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            if any(alias.name in ENV_NAMES for alias in node.names):
                lines.append(node.lineno)
    return sorted(lines)


def test_scan_sees_env_reads():
    code = "import os\nx = os.environ.get('A')\nfrom os import getenv\ny = os.getenv('B')\n"
    assert env_reads(ast.parse(code)) == [2, 3, 4]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_module_reads_no_environment(module):
    tree = ast.parse((SRC / module).read_text(), filename=module)
    assert env_reads(tree) == [], f"{module} reads the environment"
