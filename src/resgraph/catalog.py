"""The golden catalog: every diagram the library must reproduce, stored as
text fixtures with expectations, plus the pipeline that checks them.

A fixture file holds one graph, optional named cycles (``pinned`` carries
externally known codiscrepancies, others are divisors to test), and
``expect`` lines. ``EXPECT_KEYS`` is the expectation vocabulary: loading
parses each ``expect`` line once against it, and a malformed one is a
CatalogError with its file and line. verify_entry runs each expectation
against the live solvers and reports exact expected/actual pairs; a fresh
build must verify the whole catalog clean.
"""

from __future__ import annotations

import fnmatch
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from typing import Callable, NamedTuple

from .contract import (
    ContractionError,
    ContractionOutcome,
    NotContractible,
    classify,
    contracts_to_zero_curve,
)
from .discrepancy import (
    CodiscrepancyResult,
    DiscrepancyError,
    codiscrepancies,
    denominator_filter,
    all_components_rational,
    implied_tail_start,
    mumford_pullback,
)
from .graph import Cycle, DualGraph, GraphError, VertexKind, cycle_dot, parse
from .linalg import Definiteness, LinAlgError, format_rational, rational
from .wps import WpsError, cdisc_from_blowup

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


class CatalogError(Exception):
    pass


class Expectation(NamedTuple):
    """One ``expect <key> = <value>`` line, parsed at load."""

    key: str  # as written
    text: str  # the value as written
    line: int
    head: str  # the first word of the key, an ``EXPECT_KEYS`` head
    arg: str | None  # the vertex or cycle that the key names
    value: object  # the value as the head's parser read it
    check: str  # the check name of its record


class CatalogEntry(NamedTuple):
    name: str
    graph: DualGraph
    cycles: dict[str, Cycle]
    expects: list[Expectation]
    path: Path | None = None

    @property
    def rejection_stated(self) -> bool:
        """Whether the entry's first ``rejected`` expectation is true."""
        return next((e.value for e in self.expects if e.head == "rejected"), False)


class CheckRecord(NamedTuple):
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


# -- value parsers: (value as written, the entry loaded so far) -> value


def _text(text: str, entry: CatalogEntry) -> str:
    return text


def _flag(text: str, entry: CatalogEntry) -> bool:
    if text.lower() not in ("true", "false"):
        raise ValueError(f"expected true/false, got {text!r}")
    return text.lower() == "true"


def _rational(text: str, entry: CatalogEntry) -> Fraction:
    try:
        return rational(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"bad rational {text!r}") from None


def _count(text: str, entry: CatalogEntry) -> int:
    if not (text.isascii() and text.isdigit() and int(text) > 0):
        raise ValueError(f"expected a positive integer, got {text!r}")
    return int(text)


def _cycle(text: str, entry: CatalogEntry) -> Cycle:
    if text not in entry.cycles:
        raise ValueError(f"no cycle named {text!r}")
    return entry.cycles[text]


def _blowup_mult(text: str, entry: CatalogEntry) -> tuple[int, Fraction]:
    """The multiplicity and the last ``blowup_disc`` before it."""
    discs = [e.value for e in entry.expects if e.head == "blowup_disc"]
    if not discs:
        raise ValueError("blowup_mult before blowup_disc")
    return _count(text, entry), discs[-1]


class ExpectKey(NamedTuple):
    command: str | None  # the file command that reports it; None: catalog verify only
    names: str | None  # what the key's argument names: None, "vertex" or "cycle"
    parse: Callable[[str, CatalogEntry], object]
    # (checker, expectation) -> (expected, actual), for ``_render``; None for a
    # key that only feeds later ones
    check: Callable[[EntryChecker, Expectation], tuple] | None
    reads: str | None = None  # a cycle that the entry must define for the check
    reported_as: str | None = None  # the record's check name, with the argument


EXPECT_KEYS: dict[str, ExpectKey] = {
    "outcome": ExpectKey("classify", None, _text, lambda c, e: (e.value, c.outcome)),
    "definiteness": ExpectKey("classify", None, _text, lambda c, e: (e.value, c.form)),
    "fiber_cycle": ExpectKey("classify", None, _cycle,
                             lambda c, e: (e.value, getattr(c.outcome, "fiber", c.outcome))),
    "contracts_to_zero_curve": ExpectKey("classify", None, _flag,
                                         lambda c, e: (e.value, contracts_to_zero_curve(c.g))),
    "codisc": ExpectKey("codisc", "vertex", _rational,
                        lambda c, e: (e.value, c.codisc.values[e.arg])),
    "codisc_nonneg": ExpectKey("codisc", None, _flag,
                               lambda c, e: (e.value, c.codisc.all_nonnegative)),
    "denominators_divide": ExpectKey("codisc", None, _count,
                                     lambda c, e: (True, denominator_filter(c.codisc, e.value))),
    "blowup_disc": ExpectKey("codisc", None, _rational, None),
    "blowup_mult": ExpectKey(
        "codisc", "vertex", _blowup_mult,
        lambda c, e: (cdisc_from_blowup(*e.value), c.codisc.values[e.arg]),
        reported_as="blowup_codisc",
    ),
    "pinned_consistent": ExpectKey("codisc", None, _flag, lambda c, e: (
        e.value, all(c.codisc.values.get(k) == v for k, v in c.pins().items())
    ), reads="pinned"),
    "implied_tail_start": ExpectKey("codisc", None, _rational,
                                    lambda c, e: (e.value, c.implied_start()), reads="pinned"),
    "pullback": ExpectKey("pullback", "cycle", _cycle, lambda c, e: (e.value, c.pullback(e.arg))),
    "trivial": ExpectKey("triviality", "cycle", _flag, lambda c, e: (e.value, not c.pairings(e.arg))),
    "rational": ExpectKey(None, None, _flag, lambda c, e: (e.value, all_components_rational(c.g))),
    "rejected": ExpectKey(None, None, _flag, lambda c, e: (
        e.value, isinstance(c.outcome, NotContractible) or c.negative_tail_start() is not None
    )),
}


def _render(value) -> str:
    """A check's expected or actual value as its record shows it."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, Exception):
        return f"error: {value}"
    return value if isinstance(value, str) else value.render()  # a cycle, outcome or form


def _expectation(entry: CatalogEntry, key: str, text: str, line: int) -> Expectation:
    head, *args = key.split()
    spec = EXPECT_KEYS.get(head)
    if spec is None:
        raise ValueError(f"unknown expectation key {key!r}")
    if len(args) != (spec.names is not None):
        if not args:
            raise ValueError(f"expectation {key!r} names no {spec.names}")
        takes = f"one {spec.names}" if spec.names else "no argument"
        raise ValueError(f"expectation {key!r} takes {takes}")
    arg = args[0] if args else None
    named = entry.cycles if spec.names == "cycle" else entry.graph.ids()
    if arg is not None and arg not in named:
        raise ValueError(f"no {spec.names} named {arg!r}")
    if spec.names == "vertex" and entry.graph.vertex(arg).kind is not VertexKind.EXCEPTIONAL:
        raise ValueError(f"vertex {arg!r} is not exceptional; {head} solves for exceptional curves")
    if spec.reads is not None and spec.reads not in entry.cycles:
        raise ValueError(f"{head} needs a {spec.reads!r} cycle")
    check = key if spec.reported_as is None else f"{spec.reported_as} {arg}"
    return Expectation(key, text, line, head, arg, spec.parse(text, entry), check)


def data_root() -> Path:
    # Imported here: only the commands that read the packaged catalog need it.
    from importlib import resources

    return Path(resources.files("resgraph") / "data" / "catalog")


def parse_entry(text: str, name: str, path: Path | None = None) -> CatalogEntry:
    """Parse a fixture and each of its ``expect`` lines against
    ``EXPECT_KEYS``; a malformed one is a CatalogError naming the file (the
    entry, without a path) and the line."""
    result = parse(text)
    entry = CatalogEntry(name, result.graph, result.cycles, [], path)
    for key, value, line in result.expects:
        try:
            entry.expects.append(_expectation(entry, key, value, line))
        except ValueError as exc:
            raise CatalogError(f"{path or name}: line {line}: {exc}") from None
    return entry


def load_entry(path: Path, name: str | None = None) -> CatalogEntry:
    return parse_entry(path.read_text(encoding="utf-8"), name or path.stem, path)


def load_catalog(root: Path | None = None) -> list[CatalogEntry]:
    """Load every fixture ``<topic>/<name>.dg`` under root. There must be
    one; the packaged catalog (no root) must hold every REQUIRED_ENTRIES
    name."""
    base = Path(root) if root is not None else data_root()
    entries: list[CatalogEntry] = []
    for path in sorted(base.glob("*/*.dg")):
        name = f"{path.parent.name}/{path.stem}"
        try:
            entries.append(load_entry(path, name))
        except (OSError, UnicodeDecodeError, GraphError) as exc:
            raise CatalogError(f"{name}: {exc}") from exc
    if not entries:
        raise CatalogError(f"no catalog entries under {base}")
    found = {e.name for e in entries}
    missing = [name for name in REQUIRED_ENTRIES if name not in found and root is None]
    if missing:
        raise CatalogError("catalog is missing required entries: " + ", ".join(missing))
    return entries


# A check records one of the library's errors, the CLI exits 2 on it; any other is a defect.
LIBRARY_ERRORS = (CatalogError, ContractionError, DiscrepancyError, GraphError, LinAlgError, WpsError)


class EntryChecker:
    """The one owner of each result computed for an entry: its
    classification, intersection form, codiscrepancy solve, implied tail
    start, and the pullback and pairings of each named cycle, each computed
    at most once. The CLI commands print these results, and the entry's
    expectations are checked against them."""

    def __init__(self, entry: CatalogEntry):
        self.entry = entry
        self.g = entry.graph
        self._pullbacks: dict[str, Cycle] = {}
        self._pairings: dict[str, list[tuple[str, Fraction]]] = {}

    @cached_property
    def codisc(self) -> CodiscrepancyResult:
        return codiscrepancies(self.g)

    @cached_property
    def outcome(self) -> ContractionOutcome | ContractionError:
        """What ``classify`` returns, or the ContractionError it raises."""
        try:
            return classify(self.g)
        except ContractionError as exc:
            return exc

    @property
    def form(self) -> Definiteness:
        """The definiteness that ``classify`` read off the blown-down form."""
        return self.outcome._form

    def pullback(self, name: str) -> Cycle:
        """The numerical pullback of the named cycle onto every complete curve."""
        if name not in self._pullbacks:
            self._pullbacks[name] = mumford_pullback(self.g, self.entry.cycles[name])
        return self._pullbacks[name]

    def pairings(self, name: str) -> list[tuple[str, Fraction]]:
        """The nonzero pairings (curve, number) of the named cycle with the
        complete curves, in vertex order; none when it is numerically trivial."""
        if name not in self._pairings:
            z = self.entry.cycles[name]
            dots = ((vid, cycle_dot(self.g, z, vid)) for vid in self.g.complete_ids())
            self._pairings[name] = [(vid, value) for vid, value in dots if value]
        return self._pairings[name]

    def pins(self) -> dict[str, Fraction]:
        """The ``pinned`` cycle as written, a curve written with 0 included."""
        pinned = self.entry.cycles.get("pinned")
        if pinned is None:
            raise CatalogError(f"{self.entry.name}: no pinned cycle")
        return {vid: pinned.coeff(vid) for vid in pinned._named}

    @cached_property
    def _start(self) -> Fraction | DiscrepancyError | CatalogError:
        """What ``implied_start`` returns, or the error it raises."""
        try:
            roots = self.g.labeled(ROLE_TAIL_ROOT)
            if len(roots) != 1:
                raise CatalogError(f"{self.entry.name}: needs exactly one tail-root label")
            return implied_tail_start(self.g, roots[0], self.pins())
        except (DiscrepancyError, CatalogError) as exc:
            return exc

    def implied_start(self) -> Fraction:
        if isinstance(self._start, Exception):
            raise self._start
        return self._start

    def negative_tail_start(self) -> Fraction | None:
        """The implied tail start if it is negative (no effective
        codiscrepancy divisor exists), else None, also when it is undefined."""
        start = self._start
        return start if isinstance(start, Fraction) and start < 0 else None

    def run_all(self, command: str | None = None, cycle: str | None = None) -> list[CheckRecord]:
        """Run the entry's expectations in fixture order: all of them, or
        those that the CLI ``command`` reports (``EXPECT_KEYS``), and with
        ``cycle`` only those whose key names that cycle. A check that meets
        a library error becomes an error record, so one bad check never
        aborts a catalog run; any other exception is a defect and raises."""
        records = []
        for e in self.entry.expects:
            spec = EXPECT_KEYS[e.head]
            if spec.check is None or command not in (None, spec.command):
                continue
            if cycle not in (None, e.arg):
                continue
            try:
                expected, actual = map(_render, spec.check(self, e))
            except LIBRARY_ERRORS as exc:
                expected, actual = e.text, f"error: {exc}"
            records.append(CheckRecord(self.entry.name, e.check, expected, actual))
        return records


def verify_entry(entry: CatalogEntry) -> list[CheckRecord]:
    """Run every expectation of the entry; a failed check, or one that meets
    a library error, becomes a record, not an exception."""
    return EntryChecker(entry).run_all()


def verify_catalog(
    entries: list[CatalogEntry] | None = None, pattern: str | None = None
) -> list[CheckRecord]:
    """Verify all (or glob-filtered) entries, the packaged catalog's by
    default; records are ordered by entry name, then fixture order, so
    reports are reproducible."""
    if entries is None:
        entries = load_catalog()
    if pattern is not None:
        entries = [e for e in entries if fnmatch.fnmatch(e.name, pattern)]
    records: list[CheckRecord] = []
    for entry in sorted(entries, key=lambda e: e.name):
        records.extend(verify_entry(entry))
    return records


def records_to_json(records: list[CheckRecord]) -> str:
    """Byte-stable JSON for a list of check records."""
    import json  # only a --json report writes JSON

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
