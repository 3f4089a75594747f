"""Smoke test of the benchmark itself: tiny sizes, every metric name emitted.

    python3 -m pytest perfbench/test_smoke.py -q

Takes about 15 seconds on two cores. It is not part of the package's test suite.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import spec

ROOT = Path(__file__).resolve().parent.parent
RUN = ["perfbench/run.py"]


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, *RUN, *args], cwd=cwd, capture_output=True, text=True, timeout=180
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [name for name, _ in spec.WORKLOADS])
def test_every_metric_is_emitted(workload, trace):
    done = _bench("--workload", workload, "--seed", "7", "--seconds", "1",
                  "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    expected = spec.PER_LAYER if trace else spec.END_TO_END
    assert list(result["metrics"]) == [m[0] for m in expected]
    for name, unit, *_ in expected:
        value = result["metrics"][name]
        assert value["unit"] == unit
        assert isinstance(value["value"], (int, float))
    if workload == "stream":
        # outcome_distribution overflows at the stream workload's 1200 probes
        assert result["failed"] >= 1
        assert "OverflowError" in done.stdout
    else:
        assert result["failed"] == 0


def test_benchmark_json_matches_the_spec():
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == spec.benchmark_json()


def test_refuses_to_run_without_the_package_sources():
    bare = ROOT / ".bench_run" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        done = _bench("--workload", "stream", "--seed", "1", "--seconds", "1", "--trace", "0",
                      cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
