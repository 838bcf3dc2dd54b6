"""Smoke test of the benchmark at tiny problem sizes.

    python3 -m pytest benchmarks/test_smoke.py

Checks that every run prints each metric by name with a unit and ends with
the result line, and that each run passes its own checks (same-seed runs
reproduce their artifacts); nothing here depends on how fast anything ran.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
METRIC_LINE = re.compile(r"^(\S+) = (\S+) (\S+)$")

# Reported on every untraced run besides the gated metrics, and where they apply.
REPORTED = {"wall_s", "setup_s", "throughput", "peak_rss_mb", "oracle_err", "failed_frac"}
TUNE_ONLY = {"steps_per_s", "fit_steps"}
REJECTION_ONLY = {"tilt_vs_reject_x"}


def run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "benchmarks" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def parse(stdout: str):
    lines = stdout.strip().splitlines()
    printed = {}
    for line in lines[:-1]:
        match = METRIC_LINE.match(line)
        if match:
            printed[match.group(1)] = match.group(3)
    return printed, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric_with_unit(workload, trace):
    proc = run("--workload", workload, "--seed", "3", "--seconds", "1",
               "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    printed, result = parse(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))
        assert printed[m["name"]] == m["unit"]
    if not trace:
        expected = set(REPORTED)
        if workload.startswith("tune-"):
            expected |= TUNE_ONLY
        if workload == "tune-gauss-rare":
            expected |= REJECTION_ONLY
        assert expected <= set(printed), expected - set(printed)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
               "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
