"""Each benchmark workload in its smoke mode: a few ops, checked against the
benchmark's exact oracles. No timing is asserted."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["catalog-cli", "tree-codisc", "blowup-classify"])
def test_bench_smoke(workload):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["correct"] is True
    assert report["failed"] == 0
