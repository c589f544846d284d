"""The resgraph benchmark: whole user operations on three seeded workloads,
and a separate traced run that times each resgraph module from outside.

    python3 bench/run.py --workload tree-codisc --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload blowup-classify --seed 1 --trace 1
    python3 bench/run.py --workload catalog-cli --smoke

Run it from anywhere inside a checkout; it imports ``resgraph`` from the
checkout's ``src/`` and runs the CLI with ``PYTHONPATH=src``, as the tier-1
suite does. One client runs one op at a time (closed loop).

With ``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it runs each op of the first pass twice, untraced and traced, and reports the
per-layer metrics. Human-readable lines start with ``#``; the last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. See ``bench/README.md`` for what each metric
means and which workload should move it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import inputs
import oracles
import tracer as tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SHIM = Path(__file__).resolve().parent / "cli_shim.py"
GOLDEN_VERIFY = Path(__file__).resolve().parent / "golden" / "catalog-verify.json"
OUT_DIR = ROOT / ".bench_out"

MIN_OPS = 100  # so that at least ten samples lie beyond op_ms.p90
SETUP_CHILDREN = 8  # fresh processes that time their set-up, besides this one
VERIFY_RUNS = 9  # `catalog verify --json` processes timed, spread over the op loop
PROBE_RUNS = 5  # bare-interpreter and import-only processes in a traced run
SPEED_PROBE_EVERY = 4  # ops between two speed probes in an end-to-end run
# Medians of the two speed probes on the machine the benchmark was defined on
# (2-vCPU x86_64 VM, CPython 3.11.7); end-to-end times are scaled to them.
RATIONAL_PROBE_REF_S = 17e-3
INTERPRETER_PROBE_REF_S = 65e-3

# The package modules timed by the traced run. wps is left out on purpose: it
# is a set of one-line formulas that cost microseconds.
LAYERS = ("graph", "linalg", "contract", "discrepancy", "catalog", "cli")

# Per-layer metrics read off the folded spans: span name -> fields, each
# reported as "<span>.<field>". Counts cover one pass; builds are calls.
SPAN_FIELDS = {
    "graph.parse": ("calls", "self_ms"),
    "graph.intersection_matrix": ("calls", "self_ms"),
    "graph.DualGraph": ("builds", "self_ms"),
    "linalg.solve": ("calls", "self_ms", "dim_max", "out_bits_max", "repeat_ratio", "raised"),
    "linalg.definiteness": ("calls", "self_ms", "repeat_ratio"),
    "linalg.kernel_basis": ("calls", "self_ms"),
    "contract.classify": ("calls", "self_ms"),
    "contract.contract_minus_ones": ("calls", "self_ms"),
    "contract.blow_down_once": ("calls", "self_ms"),
    "contract.recognize_duval": ("calls", "self_ms"),
    "discrepancy.codiscrepancies": ("self_ms",),
    "discrepancy.pinned_codiscrepancies": ("self_ms",),
    "discrepancy.mumford_pullback": ("self_ms",),
    "discrepancy.fundamental_cycle": ("calls", "self_ms", "laufer_steps"),
    "discrepancy.implied_tail_start": ("calls",),
    "catalog.load_catalog": ("self_ms",),
    "catalog.verify_entry": ("calls", "self_ms"),
    "cli.main": ("self_ms",),
}
SPAN_UNITS = {"self_ms": "ms", "out_bits_max": "bits", "repeat_ratio": "ratio"}

END_TO_END = {
    "ops_per_s": "op/s",
    "op_ms.p50": "ms",
    "op_ms.p90": "ms",
    "verify_ms.p50": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark cannot run here: no program to measure, or a helper
    process failed."""


def cli_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_process(argv: list[str], timeout: float = 120) -> tuple[float, subprocess.CompletedProcess]:
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=cli_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, timeout=timeout)
    return time.perf_counter() - t0, proc


def resgraph_cli(argv) -> list[str]:
    return [sys.executable, "-m", "resgraph.cli", *argv]


def import_resgraph():
    """Import the checkout's resgraph, never an installed copy."""
    sys.path.insert(0, str(SRC))
    import resgraph
    import resgraph.cli  # noqa: F401  (load every module the wrappers touch)

    if Path(resgraph.__file__).resolve().parent != SRC / "resgraph":
        raise BenchError(f"imported resgraph from {resgraph.__file__}, not from {SRC}")
    return resgraph


# -- workloads --------------------------------------------------------------


class Workload:
    """Set-up shared by the workloads: load the program, make the inputs,
    and run one warm-up op, timing each step for ``setup_parts``."""

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.smoke = smoke
        self.passes: list[list] = []
        self.setup_parts: dict[str, float] = {}

    def setup(self) -> None:
        t0 = time.perf_counter()
        self.load()
        t1 = time.perf_counter()
        self.passes = self.make_passes()
        t2 = time.perf_counter()
        warm = self.passes[0][0]
        error = self.check(warm, self.run(warm))
        if error:
            raise BenchError(f"warm-up op failed: {error}")
        t3 = time.perf_counter()
        self.setup_parts = {"load": t1 - t0, "inputs": t2 - t1, "warm-up": t3 - t2}


class InProcess(Workload):
    """Workloads whose op is a sequence of library calls in this process."""

    def load(self) -> None:
        self.rg = import_resgraph()

    def vertices(self, case) -> int:
        return case.n


class TreeCodisc(InProcess):
    name = "tree-codisc"

    def make_passes(self):
        if self.smoke:
            return inputs.tree_passes(self.seed, 6, 10, 1)
        return inputs.tree_passes(self.seed, 20, 60, 6)

    def run(self, case):
        parsed = self.rg.graph.parse(case.text)
        g = parsed.graph
        disc = self.rg.discrepancy
        free = disc.codiscrepancies(g)
        pins = {f"n{i}": free.values[f"n{i}"] for i in case.pins}
        pinned = disc.pinned_codiscrepancies(g, pins)
        pullback = disc.mumford_pullback(g, parsed.cycles["s"])
        return free, pinned, pullback

    def check(self, case, result):
        return oracles.check_tree(case, result)


class BlowupClassify(InProcess):
    name = "blowup-classify"

    def make_passes(self):
        if self.smoke:
            return inputs.blowup_passes(self.seed, 3, 10, 1)
        return inputs.blowup_passes(self.seed, 10, 80, 3)

    def run(self, case):
        g = self.rg.graph.parse(case.text).graph
        disc = self.rg.discrepancy
        outcome = self.rg.contract.classify(g)
        try:
            codisc = disc.codiscrepancies(g)
        except disc.SingularConfiguration as exc:
            codisc = exc
        fundamental = None
        if not isinstance(outcome, self.rg.contract.CurveFiber):
            fundamental = disc.fundamental_cycle(g)
        return outcome, codisc, fundamental

    def check(self, case, result):
        return oracles.check_blowup(case, result)


class CatalogCli(Workload):
    """One ``python -m resgraph.cli ...`` process per op. The catalog is
    fixed, so the seed changes nothing; each process imports resgraph anew,
    so set-up imports nothing."""

    name = "catalog-cli"

    def load(self) -> None:
        if not (SRC / "resgraph" / "cli.py").is_file():
            raise BenchError(f"no resgraph package under {SRC}")
        self.golden = GOLDEN_VERIFY.read_bytes()

    def make_passes(self):
        return [inputs.catalog_calls(ROOT, self.smoke)]

    def run(self, call):
        _, proc = run_process(resgraph_cli(call.argv))
        return proc

    def check(self, call, proc):
        error = oracles.check_cli(call, proc.returncode, proc.stdout, self.golden)
        if error and proc.stderr:
            error += f" (stderr: {proc.stderr.decode(errors='replace').strip()[-200:]})"
        return error

    def vertices(self, call) -> int:
        if len(call.argv) < 2 or not call.argv[1].endswith(".dg"):
            return 0
        text = (ROOT / call.argv[1]).read_text(encoding="utf-8")
        return sum(1 for line in text.splitlines() if line.startswith("v "))


WORKLOADS = {w.name: w for w in (CatalogCli, TreeCodisc, BlowupClassify)}


# -- measurement ------------------------------------------------------------


class Tally:
    """Ops attempted and failed, with the first few reasons kept."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def add(self, error: str | None) -> None:
        self.attempted += 1
        if error:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(error)


def timed_op(workload, case, tally: Tally, tr: tracing.Tracer | None = None, op: int = 0) -> float:
    """Run one op, time it, then check its answer outside the timed region.
    With a tracer, the op runs with the wrappers installed, as op ``op``."""
    if tr:
        tr.install()
        tr.begin_op(op)
    t0 = time.perf_counter()
    try:
        result = workload.run(case)
    except Exception as exc:  # an op that raises is a failed op, not a crash
        result = exc
    elapsed = time.perf_counter() - t0
    if tr:
        elapsed = tr.end_op()
        tr.uninstall()
    tally.add(f"raised {type(result).__name__}: {result}" if isinstance(result, Exception)
              else workload.check(case, result))
    return elapsed


def verify_once(golden: bytes, tally: Tally) -> float:
    elapsed, proc = run_process(resgraph_cli(inputs.VERIFY_CALL.argv))
    tally.add(oracles.check_cli(inputs.VERIFY_CALL, proc.returncode, proc.stdout, golden))
    return elapsed


def setup_child(args) -> dict[str, float]:
    """Set up in a fresh process; its set-up time, whole and by part."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-only"] + (["--smoke"] if args.smoke else [])
    _, proc = run_process(argv)
    if proc.returncode != 0:
        raise BenchError(f"set-up process failed: {proc.stderr.decode(errors='replace')[-500:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def rational_probe_s() -> float:
    """Time a fixed exact-rational elimination (30x30, Fractions) that does
    not touch resgraph: the kind of work the in-process ops do."""
    t0 = time.perf_counter()
    n = 30
    rows = [[Fraction(-2 - i % 4 if i == j else int(abs(i - j) == 1 or i * j == 0 and (i + j) % 3 == 0))
             for j in range(n)] for i in range(n)]
    for c in range(n):
        for i in range(c + 1, n):
            if rows[i][c]:
                f = rows[i][c] / rows[c][c]
                for j in range(c, n):
                    rows[i][j] -= f * rows[c][j]
    return time.perf_counter() - t0


def interpreter_probe_s() -> float:
    """Time a bare interpreter start, the fixed part of every CLI op."""
    elapsed, _ = run_process([sys.executable, "-c", "pass"])
    return elapsed


def end_to_end(args, workload, own_setup: dict[str, float]) -> tuple[dict, Tally]:
    tally = Tally()
    golden = GOLDEN_VERIFY.read_bytes()
    cases = [case for block in workload.passes for case in block]
    min_ops = 1 if args.smoke else MIN_OPS
    verify_runs = 1 if args.smoke else VERIFY_RUNS
    latencies: list[float] = []
    verify: list[float] = []
    rational_probe = [rational_probe_s()]
    interpreter_probe = [interpreter_probe_s()]
    extra_verifies = 0
    start = time.perf_counter()
    while len(latencies) < min_ops or time.perf_counter() - start < args.seconds:
        if args.smoke and len(latencies) == len(cases):
            break
        case = cases[len(latencies) % len(cases)]
        latencies.append(timed_op(workload, case, tally))
        if getattr(case, "argv", None) == inputs.VERIFY_CALL.argv:
            verify.append(latencies[-1])
        # The extra verify processes and the speed probes are spread over
        # the run, so that they see the same machine as the ops do.
        due = (time.perf_counter() - start) / args.seconds * verify_runs - 0.5
        if extra_verifies < verify_runs and extra_verifies <= due:
            verify.append(verify_once(golden, tally))
            extra_verifies += 1
        if len(latencies) % SPEED_PROBE_EVERY == 0:
            rational_probe.append(rational_probe_s())
            interpreter_probe.append(interpreter_probe_s())
    if isinstance(workload, CatalogCli):
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    while extra_verifies < verify_runs:
        verify.append(verify_once(golden, tally))
        extra_verifies += 1
    setups = [own_setup] + [setup_child(args) for _ in range(1 if args.smoke else SETUP_CHILDREN)]

    # Other tenants of a shared machine change its speed by tens of percent
    # from one minute to the next. Two probes that do not use resgraph time
    # the machine during the run; times are scaled to the probes' reference
    # medians by the geometric mean of the two ratios.
    scale = math.sqrt(RATIONAL_PROBE_REF_S / statistics.median(rational_probe)
                      * INTERPRETER_PROBE_REF_S / statistics.median(interpreter_probe))
    p90 = statistics.quantiles(latencies, n=10)[8] if len(latencies) > 1 else latencies[0]
    wall = {
        "ops_per_s": len(latencies) / sum(latencies),
        "op_ms.p50": statistics.median(latencies) * 1e3,
        "op_ms.p90": p90 * 1e3,
        "verify_ms.p50": statistics.median(verify) * 1e3,
        "setup_s": statistics.median(s["setup_s"] for s in setups),
    }
    values = {name: v / scale if name == "ops_per_s" else v * scale for name, v in wall.items()}
    values["peak_rss_mb"] = peak_kb / 1024
    print(f"# ops {len(latencies)}, timed {sum(latencies):.3f} s, "
          f"verify runs {len(verify)}, set-ups {len(setups)}, probes {len(rational_probe)}")
    # Of set-up, only loading resgraph and the warm-up op are the program's;
    # making the inputs and the rest ("bench") are the benchmark's own.
    parts = ", ".join(f"{part} {statistics.median(s[part] for s in setups):.4f} s"
                      for part in own_setup if part != "setup_s")
    print(f"# setup_s parts, unscaled medians: {parts}")
    print(f"# speed probes: rational {statistics.median(rational_probe) * 1e3:.3f} ms, "
          f"interpreter {statistics.median(interpreter_probe) * 1e3:.3f} ms; time scale {scale!r}")
    for name, value in wall.items():
        print(f"# unscaled {name} = {value!r} {END_TO_END[name]}")
    print(f"# failed_ratio = {tally.failed / tally.attempted!r} ratio "
          f"({tally.failed} of {tally.attempted})")
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}, tally


def import_probe_ms() -> float:
    """``import resgraph.cli`` timed inside a fresh interpreter, in ms."""
    _, proc = run_process([sys.executable, str(SHIM), "--import-only"])
    if proc.returncode != 0:
        raise BenchError(f"import probe failed: {proc.stderr.decode(errors='replace')[-300:]}")
    return float(proc.stdout)


def per_layer(args, workload) -> tuple[dict, Tally]:
    tally = Tally()
    interpreter_ms = statistics.median(interpreter_probe_s() for _ in range(PROBE_RUNS)) * 1e3
    import_ms = statistics.median(import_probe_ms() for _ in range(PROBE_RUNS))

    tr = tracing.Tracer()
    block = workload.passes[0]
    untraced: list[float] = []
    traced: list[float] = []
    first_pass_stats = None
    op = 0
    OUT_DIR.mkdir(exist_ok=True)
    spans_file = OUT_DIR / f"shim-{os.getpid()}.json"
    shim_spans: list[list] = []
    start = time.perf_counter()
    pass_s = 0.0
    try:
        # Whole passes only, so that the counts describe one pass exactly;
        # no pass is started that would end past --seconds.
        while first_pass_stats is None or (
                not args.smoke and time.perf_counter() - start + pass_s <= args.seconds):
            pass_start = time.perf_counter()
            for case in block:
                # Alternate which run goes first, so neither always gets the
                # warmer caches.
                for traced_run in ((False, True) if op % 2 == 0 else (True, False)):
                    if not traced_run:
                        untraced.append(timed_op(workload, case, tally))
                    elif isinstance(workload, CatalogCli):
                        traced.append(traced_cli_op(workload, case, tr, op, spans_file,
                                                    shim_spans, tally))
                    else:
                        traced.append(timed_op(workload, case, tally, tr, op))
                op += 1
            pass_s = time.perf_counter() - pass_start
            if first_pass_stats is None:
                first_pass_stats = {name: dict(s) for name, s in tr.stats.items()}
    finally:
        spans_file.unlink(missing_ok=True)
    write_spans(args, tr.spans + shim_spans)

    ops = len(traced)
    stats = tr.stats

    def span_metric(span: str, field: str):
        if field == "self_ms":
            return stats.get(span, {}).get("self_ms", 0) / ops
        first = first_pass_stats.get(span, {})
        if field == "repeat_ratio":
            return first["repeats"] / first["calls"] if first.get("calls") else 0.0
        return first.get("calls" if field == "builds" else field, 0)

    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, s in stats.items():
        if name != tracing.OP:
            layer_self[name.split(".")[0]] += s["self_ms"]
    cli_runs = untraced if isinstance(workload, CatalogCli) else []
    values = {
        f"{span}.{field}": (span_metric(span, field), SPAN_UNITS.get(field, "count"))
        for span, fields in SPAN_FIELDS.items() for field in fields
    }
    values.update({
        "catalog.checks": (span_metric("catalog.verify_entry", "checks"), "count"),
        "cli.interpreter_ms": (interpreter_ms, "ms"),
        "cli.import_ms": (import_ms, "ms"),
        "cli.process_ms.p50": (statistics.median(cli_runs) * 1e3 if cli_runs else 0.0, "ms"),
        **{f"layer.{layer}.self_ms": (ms / ops, "ms") for layer, ms in layer_self.items()},
        "bench.op.self_ms": ((sum(traced) * 1e3 - sum(layer_self.values())) / ops, "ms"),
        "trace.op_ms": (sum(traced) * 1e3 / ops, "ms"),
        "trace.ops_per_s.untraced": (len(untraced) / sum(untraced), "op/s"),
        "trace.ops_per_s.traced": (ops / sum(traced), "op/s"),
        "trace.overhead_ops_per_s": (len(untraced) / sum(untraced) - ops / sum(traced), "op/s"),
    })
    print(f"# traced ops {ops} ({ops // len(block)} passes of {len(block)}); counts are per "
          f"pass, self_ms per op")
    return {name: {"value": v, "unit": u} for name, (v, u) in values.items()}, tally


def traced_cli_op(workload, call, tr, op: int, spans_file: Path, shim_spans: list,
                  tally: Tally) -> float:
    elapsed, proc = run_process([sys.executable, str(SHIM), str(spans_file), *call.argv])
    tally.add(workload.check(call, proc))
    payload = json.loads(spans_file.read_text(encoding="utf-8"))
    tracing.merge_stats(tr.stats, payload["stats"])
    offset = len(shim_spans)
    for name, start, end, parent, _ in payload["spans"]:
        shim_spans.append([name, start, end, parent + offset if parent >= 0 else -1, op])
    return elapsed


def write_spans(args, spans: list[list]) -> None:
    path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    with path.open("w", encoding="utf-8") as fh:
        fh.write('# name, start_s, end_s, parent index, op\n')
        for rec in spans:
            fh.write(json.dumps(rec) + "\n")
    print(f"# spans written to {path.relative_to(ROOT)}")


def facts(workload) -> dict:
    sizes = [workload.vertices(case) for block in workload.passes for case in block]
    sizes = [n for n in sizes if n] or [0]
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "workload": workload.name,
        "vertices": [min(sizes), max(sizes)],
        "inputs": sum(len(block) for block in workload.passes),
    }


def main(argv: list[str] | None = None) -> int:
    t_start = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and a single pass, for the benchmark's own tests")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, args.smoke)
    try:
        workload.setup()
        setup_s = time.perf_counter() - t_start
        own_setup = {"setup_s": setup_s, **workload.setup_parts,
                     "bench": setup_s - sum(workload.setup_parts.values())}
        if args.setup_only:
            print(json.dumps(own_setup))
            return 0
        print("# facts " + json.dumps(facts(workload)))
        if args.trace:
            metrics, tally = per_layer(args, workload)
        else:
            metrics, tally = end_to_end(args, workload, own_setup)
    except (BenchError, ImportError, OSError, subprocess.SubprocessError) as exc:
        print(f"benchmark cannot run: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    for reason in tally.reasons:
        print(f"# FAILED {reason}")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']!r} {m['unit']}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
