"""Tests of the benchmark harness itself (not of chebgreen)."""

import shutil
import subprocess
import sys
from pathlib import Path

import run

BENCH_DIR = Path(__file__).resolve().parent


def test_self_check_passes():
    out = subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), "--self-check"],
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip().splitlines()[-1] == "self-check passed"


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "solve",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert out.stdout == ""


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    samples = [float(v) for v in range(100, 0, -1)]
    value, pct = run.tail(samples)
    assert (value, pct) == (90.0, 90.0)
    assert sum(s > value for s in samples) == 10
