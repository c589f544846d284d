"""The golden catalog: every diagram the library must reproduce, stored as
text fixtures with expectations, plus the pipeline that checks them.

A fixture file holds one graph, optional named cycles (``pinned`` carries
externally known codiscrepancies, others are divisors to test), and
``expect`` lines. verify_entry runs each expectation against the live
solvers and reports exact expected/actual pairs; a fresh build must verify
the whole catalog clean.
"""

from __future__ import annotations

import fnmatch
import json
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources
from pathlib import Path

from .contract import (
    ContractionError,
    CurveFiber,
    NotContractible,
    classify,
    complete_definiteness,
    contract_minus_ones,
)
from .discrepancy import (
    CodiscrepancyResult,
    DiscrepancyError,
    codiscrepancies,
    denominator_filter,
    all_components_rational,
    implied_tail_start,
    mumford_pullback,
    numerically_trivial,
    pinned_consistent,
)
from .graph import Cycle, DualGraph, GraphError, parse
from .linalg import format_rational, rational
from .wps import cdisc_from_blowup

ROLE_TAIL_ROOT = "tail-root"

REQUIRED_ENTRIES = (
    "classification/a2-target",
    "classification/conic-fiber",
    "classification/d4-target",
    "classification/d5-target",
    "classification/e6-target",
    "classification/index5-fiber",
    "classification/smooth-target",
    "duval/crepant-a1",
    "duval/crepant-e8",
    "pullbacks/dm-11",
    "pullbacks/dm-5",
    "pullbacks/dm-7",
    "pullbacks/dm-9",
    "pullbacks/e6-section",
    "rejected/chain-tail-1",
    "rejected/chain-tail-2",
    "rejected/chain-tail-3",
    "rejected/conic-chain-tail",
    "rejected/double-minus3-bridge",
    "rejected/fork-tail-1",
    "rejected/fork-tail-2",
    "rejected/fork-tail-3",
)


# The expectation keys (by head) that each file command of the CLI checks.
# ``rational`` and ``rejected`` run only under ``catalog verify``.
COMMAND_KEYS = {
    "classify": ("outcome", "definiteness", "fiber_cycle", "contracts_to_zero_curve"),
    "codisc": ("codisc", "codisc_nonneg", "denominators_divide", "blowup_disc", "blowup_mult",
               "pinned_consistent", "implied_tail_start"),
    "pullback": ("pullback",),
    "triviality": ("trivial",),
}


class CatalogError(Exception):
    pass


@dataclass
class CatalogEntry:
    name: str
    title: str
    graph: DualGraph
    cycles: dict[str, Cycle]
    expects: list[tuple[str, str]]
    warnings: list[str] = field(default_factory=list)
    path: Path | None = None

    @property
    def special_vertices(self) -> dict[str, str]:
        """Role -> vertex id, read off vertex labels."""
        roles: dict[str, str] = {}
        for v in self.graph.vertices:
            if v.label:
                roles[v.label] = v.id
        return roles

    @property
    def rejection_stated(self) -> bool:
        """Whether the entry's first ``rejected`` expectation is true."""
        return [value for key, value in self.expects if key == "rejected"][:1] == ["true"]


@dataclass
class CheckRecord:
    entry: str
    check: str
    expected: str
    actual: str

    @property
    def passed(self) -> bool:
        return self.expected == self.actual

    def as_dict(self) -> dict:
        return {
            "entry": self.entry,
            "check": self.check,
            "expected": self.expected,
            "actual": self.actual,
            "pass": self.passed,
        }


def data_root() -> Path:
    return Path(resources.files("resgraph") / "data" / "catalog")


def _entry_title(text: str) -> str:
    for line in text.splitlines():
        stripped = line.strip()
        if stripped.startswith("#"):
            return stripped.lstrip("#").strip()
        if stripped:
            break
    return ""


def load_entry(path: Path, name: str | None = None) -> CatalogEntry:
    text = path.read_text(encoding="utf-8")
    result = parse(text)
    return CatalogEntry(
        name=name or path.stem,
        title=_entry_title(text),
        graph=result.graph,
        cycles=result.cycles,
        expects=result.expects,
        warnings=result.warnings,
        path=path,
    )


def load_catalog(root: Path | None = None) -> list[CatalogEntry]:
    """Load every fixture under root (default: the packaged catalog),
    validating that the required entries are all present."""
    base = Path(root) if root is not None else data_root()
    entries: list[CatalogEntry] = []
    for path in sorted(base.glob("*/*.dg")):
        name = f"{path.parent.name}/{path.stem}"
        try:
            entries.append(load_entry(path, name))
        except (OSError, UnicodeDecodeError, GraphError) as exc:
            raise CatalogError(f"{name}: {exc}") from exc
    found = {e.name for e in entries}
    missing = [name for name in REQUIRED_ENTRIES if name not in found]
    if missing:
        raise CatalogError(
            "catalog is missing required entries: " + ", ".join(missing)
        )
    return entries


def _bool(value: str) -> str:
    v = value.strip().lower()
    if v not in ("true", "false"):
        raise CatalogError(f"expected true/false, got {value!r}")
    return v


def _render_bool(flag: bool) -> str:
    return "true" if flag else "false"


class EntryChecker:
    """Evaluates one entry's expectations with shared cached solves."""

    def __init__(self, entry: CatalogEntry):
        self.entry = entry
        self.g = entry.graph
        self._codisc: CodiscrepancyResult | None = None
        self._outcome = None
        self._outcome_error: str | None = None
        self._blowup_disc: Fraction | None = None

    def codisc(self) -> CodiscrepancyResult:
        if self._codisc is None:
            self._codisc = codiscrepancies(self.g)
        return self._codisc

    def _render_codisc(self, vid: str) -> str:
        actual = self.codisc().values.get(vid)
        return "absent" if actual is None else format_rational(actual)

    def outcome(self):
        if self._outcome is None and self._outcome_error is None:
            try:
                self._outcome = classify(self.g)
            except ContractionError as exc:
                self._outcome_error = f"error: {exc}"
        return self._outcome

    def outcome_render(self) -> str:
        out = self.outcome()
        return self._outcome_error if out is None else out.render()

    def pins(self) -> dict[str, Fraction]:
        pinned = self.entry.cycles.get("pinned")
        if pinned is None:
            raise CatalogError(f"{self.entry.name}: no pinned cycle")
        return dict(pinned.coefficients)

    def tail_root(self) -> str:
        roots = self.g.labeled(ROLE_TAIL_ROOT)
        if len(roots) != 1:
            raise CatalogError(f"{self.entry.name}: needs exactly one tail-root label")
        return roots[0]

    def implied_start(self) -> Fraction:
        return implied_tail_start(self.g, self.tail_root(), self.pins())

    def negative_tail_start(self) -> Fraction | None:
        """The implied tail start if it is negative (no effective
        codiscrepancy divisor exists), else None, also when it is undefined."""
        try:
            start = self.implied_start()
        except (DiscrepancyError, CatalogError):
            return None
        return start if start < 0 else None

    def run(self, key: str, value: str) -> CheckRecord | None:
        name = self.entry.name
        parts = key.split()
        head = parts[0]

        if head == "blowup_disc":
            self._blowup_disc = rational(value)
            return None

        if head == "outcome":
            return CheckRecord(name, key, value, self.outcome_render())

        if head == "definiteness":
            return CheckRecord(
                name, key, value, complete_definiteness(self.g).render()
            )

        if head == "rational":
            actual = _render_bool(all_components_rational(self.g))
            return CheckRecord(name, key, _bool(value), actual)

        if head == "codisc":
            expected = format_rational(rational(value))
            return CheckRecord(name, key, expected, self._render_codisc(parts[1]))

        if head == "codisc_nonneg":
            return CheckRecord(
                name, key, _bool(value), _render_bool(self.codisc().all_nonnegative)
            )

        if head == "denominators_divide":
            index = int(value)
            ok = denominator_filter(self.codisc(), index)
            return CheckRecord(name, key, "true", _render_bool(ok))

        if head == "blowup_mult":
            vid = parts[1]
            if self._blowup_disc is None:
                raise CatalogError(f"{name}: blowup_mult before blowup_disc")
            predicted = format_rational(cdisc_from_blowup(int(value), self._blowup_disc))
            return CheckRecord(name, f"blowup_codisc {vid}", predicted, self._render_codisc(vid))

        if head == "pinned_consistent":
            ok = pinned_consistent(self.g, self.pins())
            return CheckRecord(name, key, _bool(value), _render_bool(ok))

        if head == "implied_tail_start":
            actual = self.implied_start()
            return CheckRecord(
                name, key, format_rational(rational(value)), format_rational(actual)
            )

        if head == "rejected":
            confirmed = (
                isinstance(self.outcome(), NotContractible)
                or self.negative_tail_start() is not None
            )
            return CheckRecord(name, key, _bool(value), _render_bool(confirmed))

        if head == "pullback":
            src = self.entry.cycles[parts[1]]
            expected = self.entry.cycles[value.strip()]
            actual = mumford_pullback(self.g, src)
            return CheckRecord(name, key, expected.render(), actual.render())

        if head == "trivial":
            z = self.entry.cycles[parts[1]]
            ok = numerically_trivial(self.g, z)
            return CheckRecord(name, key, _bool(value), _render_bool(ok))

        if head == "fiber_cycle":
            expected = self.entry.cycles[value.strip()]
            out = self.outcome()
            if isinstance(out, CurveFiber):
                actual_s = out.fiber.render()
            else:
                actual_s = self.outcome_render()
            return CheckRecord(name, key, expected.render(), actual_s)

        if head == "contracts_to_zero_curve":
            residual = contract_minus_ones(self.g)
            rest = residual.complete_ids()
            ok = len(rest) == 1 and residual.vertex(rest[0]).self_int == 0
            return CheckRecord(name, key, _bool(value), _render_bool(ok))

        raise CatalogError(f"{name}: unknown expectation key {key!r}")

    def run_all(self, command: str | None = None, cycle: str | None = None) -> list[CheckRecord]:
        """Run the entry's expectations in fixture order: all of them, or
        those that the CLI ``command`` reports (``COMMAND_KEYS``). With
        ``cycle``, only those about that cycle (``expect <key> <cycle>``)
        run, and a key that names no cycle is a CatalogError. A check that
        raises becomes an error record, so one bad check never aborts a
        catalog run."""
        heads = None if command is None else COMMAND_KEYS[command]
        records = []
        for key, value in self.entry.expects:
            parts = key.split()
            if heads is not None and parts[0] not in heads:
                continue
            if cycle is not None:
                if len(parts) < 2:
                    path = self.entry.path
                    raise CatalogError(f"expectation {key!r} in {path} names no cycle")
                if parts[1] != cycle:
                    continue
            try:
                record = self.run(key, value)
            except Exception as exc:  # report, do not abort the catalog run
                record = CheckRecord(self.entry.name, key, value, f"error: {exc}")
            if record is not None:
                records.append(record)
        return records


def verify_entry(entry: CatalogEntry) -> list[CheckRecord]:
    """Run every expectation of the entry; failures become records, never
    exceptions (a crash is reported as an error record)."""
    return EntryChecker(entry).run_all()


def verify_catalog(
    entries: list[CatalogEntry] | None = None,
    pattern: str | None = None,
    root: Path | None = None,
) -> list[CheckRecord]:
    """Verify all (or glob-filtered) entries; records are ordered by entry
    name, then fixture order, so reports are reproducible."""
    if entries is None:
        entries = load_catalog(root)
    if pattern is not None:
        entries = [e for e in entries if fnmatch.fnmatch(e.name, pattern)]
    records: list[CheckRecord] = []
    for entry in sorted(entries, key=lambda e: e.name):
        records.extend(verify_entry(entry))
    return records


def records_to_json(records: list[CheckRecord]) -> str:
    """Byte-stable JSON for a list of check records."""
    payload = {
        "checks": [r.as_dict() for r in records],
        "failed": sum(1 for r in records if not r.passed),
        "total": len(records),
    }
    return json.dumps(payload, indent=2, sort_keys=False) + "\n"


def records_to_table(records: list[CheckRecord]) -> str:
    """Fixed-width human table, one line per check."""
    lines = []
    width_entry = max((len(r.entry) for r in records), default=5)
    width_check = max((len(r.check) for r in records), default=5)
    for r in records:
        status = "pass" if r.passed else "FAIL"
        line = f"{status}  {r.entry:<{width_entry}}  {r.check:<{width_check}}"
        if not r.passed:
            line += f"  expected {r.expected!r} got {r.actual!r}"
        lines.append(line)
    failed = sum(1 for r in records if not r.passed)
    lines.append(f"{len(records) - failed}/{len(records)} checks passed")
    return "\n".join(lines)
