"""Smoke test of the benchmark on its tiny `smoke` config (a few seconds).

It lives with the benchmark, outside the package's test suite:

    python3 -m pytest -q benchmark/test_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
BENCHMARK_JSON = RUN.parent.parent / "BENCHMARK.json"


def run(*args):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", "smoke", "--seconds", "0", *args],
        capture_output=True,
        text=True,
        timeout=120,
    )
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr


def test_untraced_run_reports_every_end_to_end_metric():
    code, result, err = run("--seed", "3", "--trace", "0")
    assert code == 0, err
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    names = {m["name"] for m in json.loads(BENCHMARK_JSON.read_text())["end_to_end"]}
    assert set(result["metrics"]) == names
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_per_layer_metric_with_repeatable_counts():
    spec = json.loads(BENCHMARK_JSON.read_text())["per_layer"]
    counts = []
    for _ in range(2):
        code, result, err = run("--seed", "3", "--trace", "1")
        assert code == 0, err
        assert set(result["metrics"]) == {m["name"] for m in spec}
        counts.append({k: v["value"] for k, v in result["metrics"].items() if v["unit"] != "s"})
    assert counts[0] == counts[1]
    assert counts[0]["hermite_pade.solves"] == 3


def test_refuses_to_run_without_the_package_source(tmp_path):
    bench = tmp_path / "benchmark"
    bench.mkdir()
    for f in RUN.parent.glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "smoke", "--seconds", "0"],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()
