"""Tests of the benchmark itself, on tiny inputs (``--smoke``).

    python -m pytest -q bench

They check that every oracle passes and that every metric
BENCHMARK.json names is emitted; they make no wall-clock assertion.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import oracles  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload: str, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


@pytest.fixture(scope="module")
def results():
    out = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = run_bench(workload, trace)
            assert proc.returncode == 0, proc.stderr
            out[workload, trace] = json.loads(proc.stdout.splitlines()[-1])
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_oracles_pass_and_every_metric_is_emitted(results, workload, trace):
    res = results[workload, trace]
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(res["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(m["value"] > 0 for m in res["metrics"].values())


def test_layer_counts_follow_the_workloads(results):
    def value(workload, name):
        return results[workload, 1]["metrics"][name]["value"]

    for name in ("classify", "contract_minus_ones", "blow_down_once", "recognize_duval"):
        assert value("tree-codisc", f"contract.{name}.calls") == 0
        assert value("blowup-classify", f"contract.{name}.calls") > 0
    assert value("tree-codisc", "linalg.kernel_basis.calls") == 0
    assert value("blowup-classify", "linalg.kernel_basis.calls") > 0
    assert value("blowup-classify", "linalg.solve.raised") > 0
    assert value("catalog-cli", "catalog.checks") == 208
    trees = len(inputs.tree_passes(7, 6, 10, 1)[0])
    assert value("tree-codisc", "linalg.solve.calls") == 3 * trees


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_self_times_account_for_the_op(results, workload):
    metrics = results[workload, 1]["metrics"]
    parts = sum(v["value"] for k, v in metrics.items()
                if k.startswith("layer.") or k == "bench.op.self_ms")
    assert parts == pytest.approx(metrics["trace.op_ms"]["value"], rel=1e-9)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_without_the_program_it_fails_without_a_result(tmp_path, workload):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(workload, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_inputs_repeat_for_a_seed():
    assert inputs.tree_passes(3, 6, 9, 1) == inputs.tree_passes(3, 6, 9, 1)
    assert inputs.blowup_passes(3, 3, 9, 1) == inputs.blowup_passes(3, 3, 9, 1)
    assert inputs.tree_passes(3, 6, 9, 1) != inputs.tree_passes(4, 6, 9, 1)


def test_tree_det_matches_cofactor_expansion():
    def det(m):
        if not m:
            return 1
        return sum((-1) ** j * m[0][j] * det([row[:j] + row[j + 1:] for row in m[1:]])
                   for j in range(len(m)) if m[0][j])

    rng = random.Random(0)
    for _ in range(50):
        n = rng.randint(1, 6)
        weights = [rng.choice((-1, -2, -3)) for _ in range(n)]
        parent = [-1] + [rng.randrange(i) for i in range(1, n)]
        removed = frozenset(rng.sample(range(n), rng.randint(0, n - 1)))
        keep = [i for i in range(n) if i not in removed]
        m = [[weights[i] if i == j else int(parent[i] == j or parent[j] == i) for j in keep]
             for i in keep]
        assert inputs.tree_det(weights, parent, removed) == det(m)


def test_oracles_reject_a_wrong_answer():
    sys.path.insert(0, str(ROOT / "src"))
    from resgraph import contract, discrepancy, graph

    case = inputs.tree_passes(5, 8, 8, 1)[0][0]
    g = graph.parse(case.text)
    free = discrepancy.codiscrepancies(g.graph)
    pins = {f"n{i}": free.values[f"n{i}"] for i in case.pins}
    pinned = discrepancy.pinned_codiscrepancies(g.graph, pins)
    pullback = discrepancy.mumford_pullback(g.graph, g.cycles["s"])
    assert oracles.check_tree(case, (free, pinned, pullback)) is None
    free.values["n0"] += Fraction(1, 7)
    assert oracles.check_tree(case, (free, pinned, pullback)) is not None

    case = next(c for c in inputs.blowup_passes(5, 6, 9, 1)[0] if c.kind == "smooth")
    g = graph.parse(case.text).graph
    result = (contract.classify(g), discrepancy.codiscrepancies(g),
              discrepancy.fundamental_cycle(g))
    assert oracles.check_blowup(case, result) is None
    z, genus = result[2]
    assert oracles.check_blowup(case, (result[0], result[1], (z + z, genus))) is not None
