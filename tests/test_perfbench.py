"""The benchmark's smoke run against the library in this checkout."""

import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_benchmark_smoke_run_passes():
    """Every workload once at reduced size with all its reference checks, which read the
    experiment CSVs; the run writes its report to the ignored perfbench/out/."""
    pytest.importorskip("scipy")  # the checks' references (the bench extra)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
