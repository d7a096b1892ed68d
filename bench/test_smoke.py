"""Smoke test of the benchmark at tiny sizes.

Run from the repository root: ``python -m pytest bench/test_smoke.py``.
It checks the result contract of every workload in both modes against
BENCHMARK.json, and that the benchmark refuses to run without the sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_results_follow_the_contract(trace):
    proc = _run(ROOT, "--workload", "all", "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    assert len(results) == len(SPEC["workloads"])
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    for result in results:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    if not trace:
        for result in results:
            assert result["metrics"]["setup_s"]["value"] > 0
            assert result["metrics"]["run_s"]["value"] > 0


def test_workload_names_match_the_spec():
    proc = _run(ROOT, "--workload", "none", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    for w in SPEC["workloads"]:
        assert w["name"] in proc.stderr


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "planted-testing", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert not proc.stdout.strip()
