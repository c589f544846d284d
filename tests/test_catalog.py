import json
from fractions import Fraction
from pathlib import Path

import pytest

import resgraph.catalog
from resgraph.catalog import (
    EXPECT_KEYS,
    CatalogError,
    EntryChecker,
    REQUIRED_ENTRIES,
    data_root,
    load_catalog,
    parse_entry,
    records_to_json,
    records_to_table,
    verify_catalog,
    verify_entry,
)
from util import special_vertices

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
    roles = special_vertices(entries["classification/d4-target"])
    assert roles["core"] == "c"
    assert roles["side"] == "e"
    d5 = special_vertices(entries["classification/d5-target"])
    assert d5["section"] == "x"


def _copy_fixture(root: Path, name: str, as_name: str | None = None) -> None:
    target = root / f"{as_name or name}.dg"
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text((data_root() / f"{name}.dg").read_text(encoding="utf-8"), encoding="utf-8")


def test_packaged_catalog_names_missing_entries(tmp_path, monkeypatch):
    _copy_fixture(tmp_path, "classification/smooth-target")
    monkeypatch.setattr(resgraph.catalog, "data_root", lambda: tmp_path)
    with pytest.raises(CatalogError) as err:
        load_catalog()
    message = str(err.value)
    assert "missing required entries" in message
    assert "classification/a2-target" in message and "duval/crepant-a1" in message
    assert "classification/smooth-target" not in message


def test_root_without_entries_is_an_error(tmp_path):
    (tmp_path / "classification").mkdir()
    with pytest.raises(CatalogError, match="no catalog entries under"):
        load_catalog(tmp_path)
    with pytest.raises(CatalogError, match="no catalog entries under"):
        load_catalog(tmp_path / "no-such-dir")


def test_one_entry_root_verifies(tmp_path):
    _copy_fixture(tmp_path, "duval/crepant-e8", "mine/e8")
    (entry,) = load_catalog(tmp_path)
    assert entry.name == "mine/e8"
    records = verify_catalog(load_catalog(tmp_path))
    assert records and all(r.passed and r.entry == "mine/e8" for r in records)


def test_every_entry_verifies_clean():
    records = verify_catalog()
    bad = [r for r in records if not r.passed]
    assert bad == [], "\n".join(
        f"{r.entry} {r.check}: expected {r.expected}, got {r.actual}" for r in bad
    )
    assert len(records) > 150


def test_verify_entry_reports_failures_instead_of_raising(monkeypatch):
    text = (data_root() / "duval" / "crepant-a1.dg").read_text(encoding="utf-8")
    entry = parse_entry(text + "expect outcome = SmoothPoint\n", "duval/crepant-a1")
    records = verify_entry(entry)
    assert any(not r.passed for r in records)
    assert (records[-1].check, records[-1].expected) == ("outcome", "SmoothPoint")
    # a check that meets a library error (here a singular system) is an error record
    fiber = "graph g\nv a -2\nv b -2\ne a b m=2\n"
    fiber += "expect codisc a = 1\nexpect outcome = NotContractible\n"
    records = verify_entry(parse_entry(fiber, "fiber"))
    assert records[0].check == "codisc a" and records[0].expected == "1"
    assert records[0].actual.startswith("error: ")
    assert records[1].passed
    # an unknown key is an input error at load, with the file and line
    line = len(text.splitlines()) + 1
    message = f"^duval/crepant-a1: line {line}: unknown expectation key"
    with pytest.raises(CatalogError, match=message):
        parse_entry(text + "expect bogus_key = 1\n", "duval/crepant-a1")
    # any other exception in a check is a defect, not a record
    def defect(checker, expectation):
        raise RuntimeError("defect")

    monkeypatch.setitem(EXPECT_KEYS, "outcome", EXPECT_KEYS["outcome"]._replace(check=defect))
    with pytest.raises(RuntimeError, match="defect"):
        verify_entry(entry)


def test_a_classification_error_is_the_actual_value_of_each_check_that_reads_it():
    text = "graph g\nv t ~\ncycle z: t=1\n"
    text += "expect outcome = SmoothPoint\nexpect fiber_cycle = z\n"
    records = verify_entry(parse_entry(text, "probe"))
    message = "error: no complete vertices to contract"
    assert [(r.check, r.expected, r.actual) for r in records] == [
        ("outcome", "SmoothPoint", message),
        ("fiber_cycle", "t=1", message),
    ]


def test_a_codisc_vertex_that_the_solve_does_not_give_is_a_load_error():
    # the codiscrepancy system solves for exceptional curves only
    text = "graph g\nv a -2\nv c -1 cen\ne a c\nexpect codisc c = 1\n"
    with pytest.raises(CatalogError) as err:
        parse_entry(text, "probe")
    assert str(err.value) == (
        "probe: line 5: vertex 'c' is not exceptional; codisc solves for exceptional curves"
    )


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


def _readme_keys() -> dict[str, tuple[str, str, str]]:
    """Key head -> (the key's argument, the value cell, the "reported by"
    cell) of the README's expectation table."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.partition("\n## Expectation keys\n")[2].partition("\n## ")[0]
    rows = {}
    for line in section.splitlines():
        if line.startswith("| `"):
            cells = [cell.strip() for cell in line.strip("|").split("|")]
            head, *arg = cells[0].strip("`").split()
            rows[head] = ("".join(arg), cells[1], cells[-1].strip("`"))
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
    verify_only = {head for head, (*_, by) in readme.items() if by == "verify only"}
    assert verify_only == {"rational", "rejected"}
    arg = {None: "", "vertex": "<v>", "cycle": "<cycle>"}
    value = {
        resgraph.catalog._text: {"text"},
        resgraph.catalog._flag: {"flag"},
        resgraph.catalog._rational: {"rational"},
        resgraph.catalog._count: {"index"},
        resgraph.catalog._blowup_mult: {"multiplicity"},
        resgraph.catalog._cycle: {"cycle"},
    }
    assert readme.keys() == EXPECT_KEYS.keys() == PROBE_LINES.keys()
    for head, (argument, grammar, by) in readme.items():
        key = EXPECT_KEYS[head]
        assert (argument, by) == (arg[key.names], key.command or "verify only"), head
        assert grammar in value[key.parse], head
    # expect-unknown-key.dg states a key that is in no table, on purpose
    assert _fixture_keys() <= EXPECT_KEYS.keys() | {"no_such_key"}


def _checker(text: str) -> EntryChecker:
    return EntryChecker(parse_entry(text, "probe"))


# A pinned tail root r with a neighbour o and a one-curve tail t, a
# transversal germ s on o, and one valid line per documented key.
PROBE = (
    "graph g\nv r -3 label=tail-root\nv o -2\nv t -2\nv s ~\ne r o\ne r t\ne o s\n"
    "cycle pinned: r=1, o=1/2\ncycle z: s=1\n"
)
PROBE_LINES = {
    "outcome": ["outcome = SmoothPoint"],
    "definiteness": ["definiteness = NegativeDefinite"],
    "fiber_cycle": ["fiber_cycle = z"],
    "contracts_to_zero_curve": ["contracts_to_zero_curve = false"],
    "codisc": ["codisc o = 0"],
    "codisc_nonneg": ["codisc_nonneg = true"],
    "denominators_divide": ["denominators_divide = 2"],
    "blowup_disc": ["blowup_disc = 1/2"],
    "blowup_mult": ["blowup_disc = 1/2", "blowup_mult o = 3"],
    "pinned_consistent": ["pinned_consistent = false"],
    "implied_tail_start": ["implied_tail_start = -1/2"],
    "pullback": ["pullback z = z"],
    "trivial": ["trivial z = false"],
    "rational": ["rational = true"],
    "rejected": ["rejected = true"],
}


@pytest.mark.parametrize("head", sorted(_readme_keys()))
def test_every_documented_key_reaches_a_check(head):
    lines = PROBE_LINES[head]
    checker = _checker(PROBE + "".join(f"expect {line}\n" for line in lines))
    line = PROBE.count("\n") + 1
    with pytest.raises(CatalogError, match=f"^probe: line {line}: unknown expectation key"):
        _checker(PROBE + f"expect no_such_key z = z\nexpect {lines[-1]}\n")
    (e,) = [e for e in checker.entry.expects if e.head == head]
    assert (e.key, e.text, e.line) == (*lines[-1].split(" = "), line + len(lines) - 1)
    records = checker.run_all()
    if EXPECT_KEYS[head].check is None:
        assert records == []
        return
    (record,) = records
    assert record.check == e.key.replace("blowup_mult", "blowup_codisc")
    assert not record.actual.startswith("error:"), record


# root r (-3) pinned to 1 with a pinned neighbour o and a one-curve tail t:
# the implied tail start is 1 - (3 - 1 - o) = o - 1
TAIL = "graph g\nv r -3 label=tail-root\nv o -2\nv t -2\ne r o\ne r t\n"


@pytest.mark.parametrize(
    "o, start",
    [("1/2", Fraction(-1, 2)), ("1", None), ("2", None)],
)
def test_negative_tail_start_is_the_rejection_rule(o, start):
    checker = _checker(TAIL + f"cycle pinned: r=1, o={o}\nexpect rejected = true\n")
    assert checker.implied_start() == Fraction(o) - 1
    assert checker.negative_tail_start() == start
    (record,) = checker.run_all()
    assert record.actual == ("false" if start is None else "true")


# A pin of 0 is a pin, though the cycle that holds it drops the 0: a lone
# (-3)-curve solves to 1/3, so a pin at 0 is inconsistent; with r and o
# pinned at 0 the tail start on TAIL is 0 - (3 * 0 - 1 - 0) = 1.
@pytest.mark.parametrize(
    "text, pins",
    [
        ("graph g\nv a -3\ncycle pinned: a=0\nexpect pinned_consistent = false\n", {"a": 0}),
        (TAIL + "cycle pinned: r=0, o=0\nexpect implied_tail_start = 1\n", {"r": 0, "o": 0}),
    ],
)
def test_a_pin_of_zero_is_kept(text, pins):
    checker = _checker(text)
    assert checker.entry.cycles["pinned"].coefficients == {}
    assert checker.pins() == pins
    (record,) = checker.run_all()
    assert record.passed, record


def test_negative_tail_start_is_none_without_a_pinned_tail():
    assert _checker(TAIL).negative_tail_start() is None  # no pinned cycle
    assert _checker(TAIL.replace(" label=tail-root", "")).negative_tail_start() is None


def test_rejection_stated_reads_the_first_rejected_key():
    assert _checker(TAIL + "expect rejected = true\n").entry.rejection_stated
    assert _checker(TAIL + "expect rejected = True\n").entry.rejection_stated
    both = TAIL + "expect rejected = false\nexpect rejected = true\n"
    assert not _checker(both).entry.rejection_stated
    assert not _checker(TAIL).entry.rejection_stated


# no pinned cycle: a curve a, its neighbour o, a transversal germ s on o
LOAD_BASE = "graph g\nv a -2\nv o -2\nv s ~\ne a o\ne o s\ncycle z: s=1\n"


@pytest.mark.parametrize(
    "lines, message",
    [
        ("bogus = 1", "unknown expectation key 'bogus'"),
        ("codisc = 1", "expectation 'codisc' names no vertex"),
        ("trivial = true", "expectation 'trivial' names no cycle"),
        ("pullback = z", "expectation 'pullback' names no cycle"),
        ("outcome x = SmoothPoint", "expectation 'outcome x' takes no argument"),
        ("codisc a o = 1", "expectation 'codisc a o' takes one vertex"),
        ("trivial z z = true", "expectation 'trivial z z' takes one cycle"),
        ("codisc q = 1", "no vertex named 'q'"),
        ("codisc s = 1", "vertex 's' is not exceptional; codisc solves for exceptional curves"),
        ("blowup_disc = 1/2\nexpect blowup_mult s = 1",
         "vertex 's' is not exceptional; blowup_mult solves for exceptional curves"),
        ("trivial nope = true", "no cycle named 'nope'"),
        ("pullback z = nope", "no cycle named 'nope'"),
        ("fiber_cycle = nope", "no cycle named 'nope'"),
        ("codisc_nonneg = yes", "expected true/false, got 'yes'"),
        ("rejected = 1", "expected true/false, got '1'"),
        ("codisc o = x", "bad rational 'x'"),
        ("codisc o = 1/0", "bad rational '1/0'"),
        ("blowup_disc = 1.5", "bad rational '1.5'"),
        ("denominators_divide = x", "expected a positive integer, got 'x'"),
        ("denominators_divide = 0", "expected a positive integer, got '0'"),
        ("denominators_divide = -4", "expected a positive integer, got '-4'"),
        ("blowup_mult o = 1", "blowup_mult before blowup_disc"),
        ("blowup_disc = 1/2\nexpect blowup_mult o = 0", "expected a positive integer, got '0'"),
        ("pinned_consistent = true", "pinned_consistent needs a 'pinned' cycle"),
        ("implied_tail_start = -1/2", "implied_tail_start needs a 'pinned' cycle"),
    ],
)
def test_malformed_expectation_is_a_load_error(tmp_path, lines, message):
    line = LOAD_BASE.count("\n") + 1 + lines.count("\n")
    with pytest.raises(CatalogError) as err:
        parse_entry(f"{LOAD_BASE}expect {lines}\n", "probe")
    assert str(err.value) == f"probe: line {line}: {message}"
    path = tmp_path / "probe.dg"
    path.write_text(f"{LOAD_BASE}expect {lines}\n", encoding="utf-8")
    with pytest.raises(CatalogError) as err:
        resgraph.catalog.load_entry(path)
    assert str(err.value) == f"{path}: line {line}: {message}"


def test_values_are_parsed_once_at_load():
    text = (
        LOAD_BASE + "expect blowup_disc = 1/2\nexpect blowup_mult o = 2\n"
        "expect blowup_disc = 3/4\nexpect blowup_mult a = 3\nexpect codisc o = -6/4\n"
        "expect rejected = TRUE\nexpect pullback z = z\nexpect outcome = SmoothPoint\n"
    )
    entry = parse_entry(text, "probe")
    values = [(e.head, e.arg, e.value) for e in entry.expects]
    assert values == [
        ("blowup_disc", None, Fraction(1, 2)),
        ("blowup_mult", "o", (2, Fraction(1, 2))),
        ("blowup_disc", None, Fraction(3, 4)),
        ("blowup_mult", "a", (3, Fraction(3, 4))),
        ("codisc", "o", Fraction(-3, 2)),
        ("rejected", None, True),
        ("pullback", "z", entry.cycles["z"]),
        ("outcome", None, "SmoothPoint"),
    ]
    assert [e.check for e in entry.expects][:4] == [
        "blowup_disc", "blowup_codisc o", "blowup_disc", "blowup_codisc a"
    ]
    assert entry.rejection_stated
