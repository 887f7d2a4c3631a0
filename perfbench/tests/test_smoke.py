"""Smoke test of the benchmark at tiny sizes (not part of the tier-1 suite).

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_package()

from workloads import WORKLOADS, FitExpK10, SimulateK10  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())

# The recipes run the paper's non-compliant step sizes on purpose.
pytestmark = pytest.mark.filterwarnings("ignore:delta=:UserWarning")


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.fixture
def workdir():
    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as d:
        yield d


def test_declared_workloads_are_the_benchmarks():
    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in DECLARED["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in DECLARED["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_declared_metric_is_printed_with_its_unit(workload, trace):
    out = bench("--workload", workload, "--seed", "0", "--seconds", "0.2",
                "--trace", str(trace), "--scale", "tiny")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for v in result["metrics"].values():
        assert isinstance(v["value"], (int, float)) and np.isfinite(v["value"])
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    stamp = json.loads(out.stdout.strip().splitlines()[-2])["stamp"]
    assert stamp["seed"] == 0 and stamp["machine"]["nproc"] >= 1


def test_corrupted_fit_outputs_fail_their_checks(workdir):
    wl = FitExpK10("tiny", 0, None)
    wl.setup(workdir)
    assert wl.cli_fit("aa-ipalm") == 0
    assert all(op.ok for op in wl.check("aa-ipalm", 0))
    params_path, trace_path = wl.paths("aa-ipalm")

    doc = json.loads(Path(params_path).read_text())
    doc["objective"] *= 1.01
    Path(params_path).write_text(json.dumps(doc))
    failed = {op.name for op in wl.check("aa-ipalm", 0) if not op.ok}
    assert failed == {"aa-ipalm:objective-recomputed"}

    lines = Path(trace_path).read_text().splitlines(keepends=True)
    Path(trace_path).write_text("".join(lines[:-1]))
    failed = {op.name for op in wl.check("aa-ipalm", 0) if not op.ok}
    assert "aa-ipalm:trace-rows" in failed

    assert [op.ok for op in wl.check("aa-ipalm", 1)] == [False]


def test_recorded_values_are_checked(workdir):
    wl = FitExpK10("tiny", 0, None)
    wl.setup(workdir)
    outputs = {"palm": wl.cli_fit("palm")}
    recorded = wl.record(outputs)
    recorded["objectives"]["palm"] += 1.0
    recorded["simulated_events"] += 1
    wl = FitExpK10("tiny", 0, recorded)
    wl.setup(workdir)
    assert [op.name for op in wl.setup_ops if not op.ok] == ["setup-stream:event-count"]
    wl.cli_fit("palm")
    failed = [op.name for op in wl.check("palm", 0) if not op.ok]
    assert failed == ["palm:objective-vs-reference"]


def test_unsorted_stream_fails_its_check(workdir):
    wl = SimulateK10("tiny", 0, None)
    wl.setup(workdir)
    streams = wl.sample(*SimulateK10.JOBS[-1])
    assert all(op.ok for op in wl.check("thinning-pwl", streams))
    ev = streams[0]
    ev.times = ev.times[::-1].copy()
    assert not all(op.ok for op in wl.check("thinning-pwl", streams))


def test_without_the_package_it_fails_and_prints_no_result():
    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as d:
        shutil.copy(ROOT / "BENCHMARK.json", d)
        for path in DECLARED["paths"]:
            shutil.copytree(ROOT / path, os.path.join(d, path),
                            ignore=shutil.ignore_patterns(".work", "__pycache__"))
        out = subprocess.run(
            [sys.executable, *DECLARED["command"][1:], "--workload", "fit-exp-k10",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=d, capture_output=True, text=True, timeout=180,
        )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
