import json
from fractions import Fraction
from pathlib import Path

import pytest

from resgraph.catalog import (
    COMMAND_KEYS,
    CatalogEntry,
    CatalogError,
    EntryChecker,
    REQUIRED_ENTRIES,
    data_root,
    load_catalog,
    records_to_json,
    records_to_table,
    verify_catalog,
    verify_entry,
)
from resgraph.graph import parse

ROOT = Path(__file__).resolve().parent.parent


def test_load_catalog_has_required_entries():
    entries = load_catalog()
    names = {e.name for e in entries}
    assert set(REQUIRED_ENTRIES) <= names
    assert len(entries) == len(names)


def test_index5_entry_shape():
    entries = {e.name: e for e in load_catalog()}
    g = entries["classification/index5-fiber"].graph
    assert len(g.vertices) == 10
    central = [v for v in g.vertices if v.kind.value == "cen"]
    assert len(central) == 1 and central[0].self_int == -1
    weights = sorted(v.self_int for v in g.vertices if v.kind.value == "exc")
    assert weights == [-3, -3, -3, -2, -2, -2, -2, -2, -2]


def test_conic_entry_shape():
    entries = {e.name: e for e in load_catalog()}
    g = entries["classification/conic-fiber"].graph
    # the central curve sits at a chain end, and there is a -4 branch
    (z,) = [v.id for v in g.vertices if v.kind.value == "cen"]
    assert len(g.neighbors(z)) == 1
    assert any(v.self_int == -4 for v in g.vertices if v.complete)


def test_special_vertex_roles():
    entries = {e.name: e for e in load_catalog()}
    roles = entries["classification/d4-target"].special_vertices
    assert roles["core"] == "c"
    assert roles["side"] == "e"
    d5 = entries["classification/d5-target"].special_vertices
    assert d5["section"] == "x"


def test_empty_catalog_reports_missing_entries(tmp_path):
    (tmp_path / "classification").mkdir()
    with pytest.raises(CatalogError) as err:
        load_catalog(tmp_path)
    message = str(err.value)
    assert "missing required entries" in message
    assert "classification/a2-target" in message


def test_every_entry_verifies_clean():
    records = verify_catalog()
    bad = [r for r in records if not r.passed]
    assert bad == [], "\n".join(
        f"{r.entry} {r.check}: expected {r.expected}, got {r.actual}" for r in bad
    )
    assert len(records) > 150


def test_verify_entry_reports_failures_instead_of_raising():
    entries = {e.name: e for e in load_catalog()}
    entry = entries["duval/crepant-a1"]
    entry.expects.append(("outcome", "SmoothPoint"))
    records = verify_entry(entry)
    assert any(not r.passed for r in records)
    entry.expects.append(("bogus_key", "1"))
    records = verify_entry(entry)
    assert any(r.actual.startswith("error:") for r in records)


def test_filtering():
    records = verify_catalog(pattern="rejected/*")
    assert records and all(r.entry.startswith("rejected/") for r in records)
    assert verify_catalog(pattern="no-such-thing/*") == []


def test_json_report_is_deterministic_and_schema_complete():
    first = records_to_json(verify_catalog())
    second = records_to_json(verify_catalog())
    assert first == second
    payload = json.loads(first)
    assert payload["failed"] == 0
    assert payload["total"] == len(payload["checks"])
    for record in payload["checks"]:
        assert set(record) == {"entry", "check", "expected", "actual", "pass"}


def test_table_rendering():
    table = records_to_table(verify_catalog(pattern="duval/*"))
    assert "pass" in table
    assert "checks passed" in table


def _readme_keys() -> dict[str, str]:
    """Key head -> the "reported by" cell of the README's expectation table."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.partition("\n## Expectation keys\n")[2].partition("\n## ")[0]
    rows = {}
    for line in section.splitlines():
        if line.startswith("| `"):
            cells = [cell.strip() for cell in line.strip("|").split("|")]
            rows[cells[0].strip("`").split()[0]] = cells[-1].strip("`")
    return rows


def _fixture_keys() -> set[str]:
    """Every expectation key head used in the packaged catalog and the CLI
    test inputs (read as Latin-1, so the non-UTF-8 input reads too)."""
    paths = [*data_root().glob("*/*.dg"), *(ROOT / "tests" / "data" / "cli").rglob("*.dg")]
    heads = set()
    for path in paths:
        for line in path.read_text(encoding="latin-1").splitlines():
            words = line.split("#", 1)[0].split()
            if words[:1] == ["expect"]:
                heads.add(words[1])
    return heads


def test_readme_key_table_matches_command_keys():
    readme = _readme_keys()
    verify_only = {head for head, by in readme.items() if by == "verify only"}
    assert verify_only == {"rational", "rejected"}
    reported = {head: command for command, heads in COMMAND_KEYS.items() for head in heads}
    assert {head: by for head, by in readme.items() if head not in verify_only} == reported
    assert _fixture_keys() <= reported.keys() | verify_only


def _checker(text: str) -> EntryChecker:
    result = parse(text)
    return EntryChecker(CatalogEntry("probe", "", result.graph, result.cycles, result.expects))


@pytest.mark.parametrize("head", sorted(_readme_keys()))
def test_every_documented_key_reaches_a_check(head):
    checker = _checker("graph g\nv a -2\ncycle z: a=1\n")
    with pytest.raises(CatalogError, match="unknown expectation key"):
        checker.run("no_such_key z", "z")
    try:
        checker.run(f"{head} z", "z")
    except Exception as exc:  # a check may reject the probe's values
        assert "unknown expectation key" not in str(exc)


# root r (-3) pinned to 1 with a pinned neighbour o and a one-curve tail t:
# the implied tail start is 1 - (3 - 1 - o) = o - 1
TAIL = "graph g\nv r -3 label=tail-root\nv o -2\nv t -2\ne r o\ne r t\n"


@pytest.mark.parametrize(
    "o, start",
    [("1/2", Fraction(-1, 2)), ("1", None), ("2", None)],
)
def test_negative_tail_start_is_the_rejection_rule(o, start):
    checker = _checker(TAIL + f"cycle pinned: r=1, o={o}\n")
    assert checker.implied_start() == Fraction(o) - 1
    assert checker.negative_tail_start() == start
    record = checker.run("rejected", "true")
    assert record.actual == ("false" if start is None else "true")


def test_negative_tail_start_is_none_without_a_pinned_tail():
    assert _checker(TAIL).negative_tail_start() is None  # no pinned cycle
    assert _checker(TAIL.replace(" label=tail-root", "")).negative_tail_start() is None


def test_rejection_stated_reads_the_first_rejected_key():
    assert _checker(TAIL + "expect rejected = true\n").entry.rejection_stated
    both = TAIL + "expect rejected = false\nexpect rejected = true\n"
    assert not _checker(both).entry.rejection_stated
    assert not _checker(TAIL).entry.rejection_stated
