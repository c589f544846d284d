"""Command-line front end.

Exit codes: 0 success, 1 a stated expectation failed (or a rejection fixture
confirmed its rejection), 2 bad input (unreadable file, parse error, bad
flag values, or any library error, which ``main`` maps in one place). All
output is deterministic; ``--json`` switches from the human table to the
machine schema.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path

from .catalog import (
    LIBRARY_ERRORS,
    CatalogError,
    CheckRecord,
    EntryChecker,
    load_catalog,
    load_entry,
    records_to_json,
    records_to_table,
    verify_catalog,
)
from .contract import ContractionError, CurveFiber
from .discrepancy import EmptySubset, codiscrepancies, mumford_pullback
from .graph import GraphError
from .linalg import format_rational, rational
from .wps import WpsError, pair, subadjunction_genus, wblowup_discrepancy

EXIT_OK = 0
EXIT_EXPECT = 1
EXIT_INPUT = 2


class _Report:
    """Collects command output for either rendering mode."""

    def __init__(self, command: list[str]):
        self.command = command
        self.lines: list[str] = []
        self.checks: list[CheckRecord] = []

    def say(self, line: str) -> None:
        self.lines.append(line)

    @property
    def failed(self) -> bool:
        return any(not r.passed for r in self.checks)

    def finish(self, as_json: bool, status: int | None = None) -> int:
        """Print the report and return the exit status, which defaults to 1
        when a check failed and 0 otherwise."""
        if status is None:
            status = EXIT_EXPECT if self.failed else EXIT_OK
        if as_json:
            import json  # only a --json report writes JSON

            payload = {
                "command": self.command,
                "output": self.lines,
                "checks": [r.as_dict() for r in self.checks],
                "status": status,
            }
            print(json.dumps(payload, indent=2, sort_keys=False))
        else:
            for line in self.lines:
                print(line)
            for r in self.checks:
                mark = "pass" if r.passed else "FAIL"
                print(f"{mark}  {r.check}: expected {r.expected}, got {r.actual}")
        return status


def _load(path: str):
    p = Path(path)
    try:
        return load_entry(p)
    except FileNotFoundError:
        raise CatalogError(f"no such file: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise CatalogError(f"cannot read {path}: {exc}") from None
    except GraphError as exc:
        raise CatalogError(f"parse error in {path}: {exc}") from None


def cmd_classify(args) -> int:
    checker = EntryChecker(_load(args.file))
    report = _Report(["classify", args.file])
    outcome = checker.outcome
    if isinstance(outcome, ContractionError):
        raise outcome
    report.say(f"outcome: {outcome.render()}")
    report.say(f"definiteness: {checker.form.render()}")
    if isinstance(outcome, CurveFiber):
        report.say(f"fiber cycle: {outcome.fiber.render()}")
    report.checks.extend(checker.run_all("classify"))
    return report.finish(args.json)


def cmd_codisc(args) -> int:
    entry = _load(args.file)
    checker = EntryChecker(entry)
    report = _Report(["codisc", args.file])
    # the stated expectations refer to the default system, which the
    # checker solves; --include-central is a second system
    if args.include_central:
        result = codiscrepancies(entry.graph, include_central=True)
    else:
        result = checker.codisc
    if not result.values:
        curves = "complete" if args.include_central else "exceptional"
        raise EmptySubset(f"no {curves} curve to solve for")
    for vid in sorted(result.values):
        report.say(f"{vid} = {format_rational(result.values[vid])}")
    report.say(f"all_nonnegative: {str(result.all_nonnegative).lower()}")
    report.say(f"max_denominator: {format_rational(result.max_denominator)}")
    report.checks.extend(checker.run_all("codisc"))
    if not report.failed and entry.rejection_stated:
        start = checker.negative_tail_start()
        if start is not None:
            report.say(f"rejection confirmed: implied tail start {format_rational(start)} < 0")
            return report.finish(args.json, EXIT_EXPECT)
    return report.finish(args.json)


def cmd_pullback(args) -> int:
    entry = _load(args.file)
    report = _Report(["pullback", args.file])
    if args.attached not in entry.cycles:
        raise CatalogError(f"no cycle named {args.attached!r} in {args.file}")
    if args.subset is not None:
        subset = [s for s in args.subset.split(",") if s]
        if not subset:
            raise EmptySubset(f"--subset {args.subset!r} names no curve")
        result = mumford_pullback(entry.graph, entry.cycles[args.attached], subset)
    else:
        checker = EntryChecker(entry)
        result = checker.pullback(args.attached)
        report.checks.extend(checker.run_all("pullback", args.attached))
    report.say(f"pullback multiplicities: {result.render()}")
    return report.finish(args.json)


def cmd_triviality(args) -> int:
    entry = _load(args.file)
    report = _Report(["triviality", args.file])
    if args.cycle not in entry.cycles:
        raise CatalogError(f"no cycle named {args.cycle!r} in {args.file}")
    checker = EntryChecker(entry)
    nonzero = checker.pairings(args.cycle)
    report.say(f"numerically trivial: {str(not nonzero).lower()}")
    for vid, value in nonzero:
        report.say(f"  pairs with {vid}: {format_rational(value)}")
    report.checks.extend(checker.run_all("triviality", args.cycle))
    return report.finish(args.json)


# these flags feed only the wps commands, so a bad one is a WpsError
def _parse_rational(text: str, what: str) -> Fraction:
    try:
        return rational(text)
    except (ValueError, ZeroDivisionError):
        raise WpsError(f"bad {what}: {text!r}") from None


def _parse_int(text: str, what: str) -> int:
    # rational reads ASCII digits only; int alone also reads "1_0" and other scripts' digits
    if "/" in text:
        raise WpsError(f"bad {what}: {text!r}")
    return _parse_rational(text, what).numerator


def _parse_ints(text: str, what: str) -> list[int]:
    try:
        return [_parse_int(x, what) for x in text.split(",") if x]
    except WpsError:
        raise WpsError(f"bad {what}: {text!r}") from None


def cmd_pair(args) -> int:
    report = _Report(["pair"])
    k = _parse_int(args.k, "k")
    weights = _parse_ints(args.weights, "weights")
    value = pair(weights, _parse_ints(args.degrees, "degrees"), k)
    report.say(f"pairing: {format_rational(value)}")
    return report.finish(args.json)


def cmd_wdisc(args) -> int:
    report = _Report(["wdisc"])
    index = _parse_int(args.index, "index")
    value = wblowup_discrepancy(index, _parse_ints(args.weights, "weights"))
    report.say(f"discrepancy: {format_rational(value)}")
    return report.finish(args.json)


def cmd_genus(args) -> int:
    report = _Report(["genus"])
    weights = _parse_ints(args.weights, "weights")
    correction = _parse_rational(args.correction, "correction")
    value = subadjunction_genus(weights, _parse_int(args.degree, "degree"), correction)
    report.say(f"arithmetic genus: {format_rational(value)}")
    return report.finish(args.json)


def cmd_catalog(args) -> int:
    entries = load_catalog(Path(args.root) if args.root else None)
    records = verify_catalog(entries, args.filter)
    if args.filter is not None and not records:
        print(f"warning: filter {args.filter!r} matched no entries", file=sys.stderr)
        return EXIT_OK
    if args.json:
        sys.stdout.write(records_to_json(records))
    else:
        print(records_to_table(records))
    return EXIT_EXPECT if any(not r.passed for r in records) else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="resgraph",
        description="Exact calculus on weighted dual graphs of surface-singularity resolutions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_json(p):
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("classify", help="contract a configuration and name the target")
    p.add_argument("file")
    add_json(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("codisc", help="solve the codiscrepancy system")
    p.add_argument("file")
    p.add_argument("--include-central", action="store_true")
    add_json(p)
    p.set_defaults(func=cmd_codisc)

    p = sub.add_parser("pullback", help="numerical pullback multiplicities")
    p.add_argument("file")
    p.add_argument("--attached", required=True, help="name of the attached cycle")
    p.add_argument("--subset", help="comma-separated vertex ids (default: all complete)")
    add_json(p)
    p.set_defaults(func=cmd_pullback)

    p = sub.add_parser("triviality", help="test a cycle for numerical triviality")
    p.add_argument("file")
    p.add_argument("--cycle", required=True)
    add_json(p)
    p.set_defaults(func=cmd_triviality)

    p = sub.add_parser("pair", help="degree pairing in a weighted projective space")
    p.add_argument("--weights", required=True, help="comma-separated positive integers")
    p.add_argument("--degrees", required=True, help="comma-separated positive integers")
    p.add_argument("--k", required=True)
    add_json(p)
    p.set_defaults(func=cmd_pair)

    p = sub.add_parser("wdisc", help="weighted blowup discrepancy")
    p.add_argument("--index", required=True)
    p.add_argument("--weights", required=True)
    add_json(p)
    p.set_defaults(func=cmd_wdisc)

    p = sub.add_parser("genus", help="subadjunction genus of a weighted-space curve")
    p.add_argument("--weights", required=True, help="exactly three comma-separated weights")
    p.add_argument("--degree", required=True)
    p.add_argument("--correction", required=True, help="orbifold correction, p/q")
    add_json(p)
    p.set_defaults(func=cmd_genus)

    p = sub.add_parser("catalog", help="catalog operations")
    p.add_argument("action", choices=["verify"])
    p.add_argument("--filter", help="glob over entry names, e.g. 'rejected/*'")
    p.add_argument("--root", help="alternate catalog directory")
    add_json(p)
    p.set_defaults(func=cmd_catalog)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except LIBRARY_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
