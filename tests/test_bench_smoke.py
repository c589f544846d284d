"""Each benchmark workload in its smoke mode, and one traced: a few ops,
checked against the benchmark's exact oracles. No timing is asserted."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_smoke(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", *args, "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["correct"] is True
    assert report["failed"] == 0
    return report


@pytest.mark.parametrize("workload", ["catalog-cli", "tree-codisc", "blowup-classify"])
def test_bench_smoke(workload):
    run_smoke("--workload", workload)


def test_traced_bench_smoke():
    # the tracer looks its targets up by name and swaps its wrappers in for
    # them, so a renamed or removed target fails here, not in a traced run;
    # a wrapper that no longer binds where the op calls counts nothing
    metrics = run_smoke("--workload", "blowup-classify", "--trace", "1")["metrics"]
    for span in ("contract.classify", "discrepancy.fundamental_cycle", "linalg.solve",
                 "linalg.definiteness"):
        assert metrics[f"{span}.calls"]["value"] > 0, span
