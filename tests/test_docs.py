"""Documented usage still runs: the README's Python example and the demos.

Each script runs in its own interpreter inside a temporary directory (also
its TMPDIR), so a signature change that breaks documented usage fails here.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(path, workdir):
    env = dict(os.environ, TMPDIR=str(workdir))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(path)], cwd=workdir, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_readme_python_example_runs(tmp_path):
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert blocks
    for i, code in enumerate(blocks):
        script = tmp_path / f"readme_{i}.py"
        script.write_text(code)
        run_script(script, tmp_path)


@pytest.mark.parametrize(
    "demo",
    [
        "01_simulate_and_rates.py",
        "02_fit_small_instance.py",
        "03_benchmark_regret.py",
        "04_consistency_curve.py",
        "05_cli_walkthrough.py",
    ],
)
def test_demo_runs(demo, tmp_path):
    assert run_script(ROOT / "demos" / demo, tmp_path)
    assert not list(tmp_path.glob("hawkes_demo_*"))  # temp dirs are cleaned up
