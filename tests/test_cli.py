import ast
import json
import random
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import resgraph.catalog
import resgraph.cli
import resgraph.contract
import resgraph.discrepancy
from resgraph.catalog import data_root, load_catalog
from resgraph.cli import main
from resgraph.discrepancy import codiscrepancies
from resgraph.graph import serialize
from resgraph.linalg import SingularMatrix
from util import random_tree_graph


def fixture(name: str) -> str:
    return str(data_root() / f"{name}.dg")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_smooth_target(capsys):
    code, out, _ = run(capsys, "classify", fixture("classification/smooth-target"))
    assert code == 0
    assert "outcome: SmoothPoint" in out
    assert "definiteness: NegativeDefinite" in out


def test_classify_prints_fiber_cycle(capsys):
    code, out, _ = run(capsys, "classify", fixture("classification/index5-fiber"))
    assert code == 0
    assert "outcome: CurveFiber" in out
    assert "fiber cycle:" in out and "z=10" in out


def test_classify_one_vertex_file(tmp_path, capsys):
    path = tmp_path / "one.dg"
    path.write_text("graph one\nv a -1\n")
    code, out, _ = run(capsys, "classify", str(path))
    assert code == 0
    assert "SmoothPoint" in out


def test_classify_parse_error_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.dg"
    path.write_text("graph g\nv a -2\nnonsense\n")
    code, _, err = run(capsys, "classify", str(path))
    assert code == 2
    assert "parse error" in err


def test_repeated_cycle_coefficient_exits_2(tmp_path, capsys):
    path = tmp_path / "repeat.dg"
    path.write_text("graph g\nv a -2\nv t ~\ne a t\ncycle z: t=1, t=2\n")
    code, out, err = run(capsys, "pullback", str(path), "--attached", "z")
    assert code == 2 and not out
    assert "line 5" in err


def test_classify_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "classify", "no-such-file.dg")
    assert code == 2


def test_classify_failed_expectation_exits_1(tmp_path, capsys):
    path = tmp_path / "wrong.dg"
    path.write_text("graph g\nv a -1\nexpect outcome = CurveFiber\n")
    code, out, _ = run(capsys, "classify", str(path))
    assert code == 1
    assert "FAIL" in out


def test_classify_disconnected_file_names_each_component(tmp_path, capsys):
    path = tmp_path / "two.dg"
    path.write_text("graph g\nv b -2\nv c -2\ne b c\nv a -3\nv t ~\ne a t\n")
    code, out, err = run(capsys, "classify", str(path))
    assert code == 2 and not out
    assert err == (
        "error: complete part has 2 components, at 'a', 'b'; "
        "classify each one as its own graph\n"
    )


def test_codisc_d4_target(capsys):
    code, out, _ = run(capsys, "codisc", fixture("classification/d4-target"))
    assert code == 0
    assert "c = 3/2" in out
    assert "d = 5/4" in out
    assert "all_nonnegative: true" in out
    assert "max_denominator: 4" in out


def test_codisc_crepant_all_zero(capsys):
    code, out, _ = run(capsys, "codisc", fixture("duval/crepant-e8"))
    assert code == 0
    assert "v1 = 0" in out


def test_codisc_rejection_fixture_exits_1(capsys):
    code, out, _ = run(capsys, "codisc", fixture("rejected/chain-tail-1"))
    assert code == 1
    assert "rejection confirmed" in out
    assert "-3/4" in out


@pytest.mark.parametrize("o, code", [("1/2", 1), ("1", 0)])
def test_codisc_confirms_only_a_negative_tail_start(tmp_path, capsys, o, code):
    # implied tail start o - 1: -1/2 rejects, 0 does not
    path = tmp_path / "tail.dg"
    path.write_text(
        "graph g\nv r -3 label=tail-root\nv o -2\nv t -2\ne r o\ne r t\n"
        f"cycle pinned: r=1, o={o}\nexpect rejected = true\n"
    )
    got, out, _ = run(capsys, "codisc", str(path))
    assert got == code
    assert ("rejection confirmed: implied tail start -1/2 < 0" in out) == (code == 1)


@pytest.mark.parametrize(
    "text, check",
    [
        ("graph g\nv a -3\ncycle pinned: a=0\nexpect pinned_consistent = false\n",
         "pinned_consistent: expected false, got false"),
        ("graph g\nv r -3 label=tail-root\nv o -2\nv t -2\ne r o\ne r t\n"
         "cycle pinned: r=0, o=0\nexpect implied_tail_start = 1\n",
         "implied_tail_start: expected 1, got 1"),
    ],
)
def test_codisc_keeps_a_pin_of_zero(tmp_path, capsys, text, check):
    path = tmp_path / "zero-pin.dg"
    path.write_text(text)
    code, out, err = run(capsys, "codisc", str(path))
    assert (code, err) == (0, "")
    assert f"pass  {check}" in out


def test_codisc_include_central(capsys):
    code, out, _ = run(
        capsys, "codisc", fixture("classification/d4-target"), "--include-central"
    )
    assert code == 0  # stated expectations still refer to the default system
    assert "z =" in out


@pytest.mark.parametrize(
    "text, flags, curves",
    [
        ("graph g\nv t ~\n", [], "exceptional"),
        ("graph g\nv z -1 cen\nv t ~\ne z t\n", [], "exceptional"),
        ("graph g\nv t ~\n", ["--include-central"], "complete"),
    ],
)
def test_codisc_with_nothing_to_solve_exits_2(tmp_path, capsys, text, flags, curves):
    path = tmp_path / "empty.dg"
    path.write_text(text)
    code, out, err = run(capsys, "codisc", str(path), *flags)
    assert code == 2 and not out
    assert err == f"error: no {curves} curve to solve for\n"


def test_codisc_central_only_solves_with_include_central(tmp_path, capsys):
    path = tmp_path / "central.dg"
    path.write_text("graph g\nv z -1 cen\n")
    code, out, _ = run(capsys, "codisc", str(path), "--include-central")
    assert code == 0
    assert "z = -1" in out


def test_pullback_command(capsys):
    code, out, _ = run(
        capsys, "pullback", fixture("pullbacks/e6-section"), "--attached", "src"
    )
    assert code == 0
    assert "c=3" in out
    assert "pass" in out


def test_pullback_with_subset(capsys):
    code, out, _ = run(
        capsys,
        "pullback",
        fixture("pullbacks/e6-section"),
        "--attached",
        "src",
        "--subset",
        "t",
    )
    assert code == 0
    assert "t=1/2" in out


def test_pullback_unknown_cycle_exits_2(capsys):
    code, _, err = run(
        capsys, "pullback", fixture("pullbacks/e6-section"), "--attached", "nope"
    )
    assert code == 2


def test_triviality_command(capsys):
    code, out, _ = run(
        capsys,
        "triviality",
        fixture("classification/d5-target"),
        "--cycle",
        "base-pullback",
    )
    assert code == 0
    assert "numerically trivial: true" in out


def test_triviality_nontrivial_lists_pairings(tmp_path, capsys):
    path = tmp_path / "g.dg"
    path.write_text("graph g\nv a -2\nv b -2\ne a b\ncycle one: a=1\n")
    code, out, _ = run(capsys, "triviality", str(path), "--cycle", "one")
    assert code == 0
    assert "numerically trivial: false" in out
    assert "pairs with" in out


@pytest.mark.parametrize(
    "command, expect",
    [("triviality", "trivial = true"), ("pullback", "pullback = z")],
)
def test_expectation_without_cycle_exits_2(tmp_path, capsys, command, expect):
    path = tmp_path / "g.dg"
    path.write_text(f"graph g\nv a -2\nv t ~\ne a t\ncycle z: t=1\nexpect {expect}\n")
    flag = "--cycle" if command == "triviality" else "--attached"
    code, _, err = run(capsys, command, str(path), flag, "z")
    assert code == 2
    assert "names no cycle" in err


@pytest.mark.parametrize(
    "expect",
    [
        "codisc = 1",
        "denominators_divide = x",
        "denominators_divide = 0",
        "codisc a = 1/0",
        "pullback z = nope",
        "codisc q = 1",
        "codisc t = 1",
    ],
)
def test_malformed_expectation_exits_2_with_file_and_line(tmp_path, capsys, expect):
    (tmp_path / "mine").mkdir()
    path = tmp_path / "mine" / "g.dg"
    path.write_text(f"graph g\nv a -2\nv t ~\ne a t\ncycle z: t=1\nexpect {expect}\n")
    for argv in (
        ["classify", str(path)],
        ["codisc", str(path)],
        ["pullback", str(path), "--attached", "z"],
        ["triviality", str(path), "--cycle", "z"],
        ["catalog", "verify", "--root", str(tmp_path)],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and not out, argv
        assert err.startswith(f"error: {path}: line 6: ") and "FAIL" not in err, argv


@pytest.mark.parametrize("flag", ["true", "True", "TRUE"])
def test_codisc_confirms_a_rejection_however_true_is_spelled(tmp_path, capsys, flag):
    path = tmp_path / "tail.dg"
    path.write_text(
        "graph g\nv r -3 label=tail-root\nv o -2\nv t -2\ne r o\ne r t\n"
        f"cycle pinned: r=1, o=1/2\nexpect rejected = {flag}\n"
    )
    code, out, _ = run(capsys, "codisc", str(path))
    assert code == 1
    assert "rejection confirmed: implied tail start -1/2 < 0" in out


def test_catalog_verify_root_needs_an_entry(tmp_path, capsys):
    (tmp_path / "empty").mkdir()
    code, out, err = run(capsys, "catalog", "verify", "--root", str(tmp_path))
    assert code == 2 and not out
    assert err == f"error: no catalog entries under {tmp_path}\n"


def test_catalog_verify_one_entry_root_passes(tmp_path, capsys):
    (tmp_path / "mine").mkdir()
    (tmp_path / "mine" / "e8.dg").write_text(
        (data_root() / "duval" / "crepant-e8.dg").read_text(encoding="utf-8")
    )
    code, out, err = run(capsys, "catalog", "verify", "--root", str(tmp_path))
    assert code == 0 and not err
    assert "mine/e8" in out and "FAIL" not in out


def test_catalog_verify_table_names_a_failed_check(tmp_path, capsys):
    (tmp_path / "mine").mkdir()
    (tmp_path / "mine" / "a1.dg").write_text("graph g\nv a -2\nexpect outcome = SmoothPoint\n")
    code, out, err = run(capsys, "catalog", "verify", "--root", str(tmp_path))
    assert code == 1 and not err
    assert out == "FAIL  mine/a1  outcome  expected 'SmoothPoint' got 'DuValPoint(A1)'\n0/1 checks passed\n"


def test_a_linear_algebra_error_exits_2(capsys, monkeypatch):
    def singular(g, include_central=False):
        raise SingularMatrix("no solution: b is outside the column space")

    monkeypatch.setattr(resgraph.cli, "codiscrepancies", singular)
    code, out, err = run(capsys, "codisc", fixture("classification/d4-target"), "--include-central")
    assert code == 2 and not out
    assert err == "error: no solution: b is outside the column space\n"


def test_wdisc_without_weights_exits_2(capsys):
    code, out, err = run(capsys, "wdisc", "--index", "2", "--weights", ",")
    assert code == 2 and not out
    assert err == "error: a weighted blowup needs at least one weight\n"


def test_pair_command(capsys):
    code, out, _ = run(
        capsys, "pair", "--weights", "3,2,1,1", "--degrees", "1,1", "--k", "-4"
    )
    assert code == 0
    assert "pairing: -2/3" in out


def _int(text: str) -> int:
    """``int(text)`` past CPython's limit on str-to-int conversion, which is
    restored after."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return int(text)
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("flags", [(), ("--json",)])
def test_pair_prints_an_answer_past_the_digit_limit(capsys, flags):
    nines = "9" * 3000
    code, out, err = run(capsys, "pair", "--weights", "1,1,1", "--degrees", nines, "--k", nines, *flags)
    assert code == 0 and not err
    lines = json.loads(out)["output"] if flags else out.splitlines()
    assert lines == ["pairing: " + "9" * 2999 + "8" + "0" * 2999 + "1"]  # (10^3000 - 1)^2


@pytest.mark.parametrize("flags", [(), ("--json",)])
def test_codisc_prints_answers_past_the_digit_limit(tmp_path, capsys, flags):
    """A tree of 30 curves of self-intersection about -10^200: its
    codiscrepancies have about 5600-digit denominators, more digits than
    ``str`` converts, and each prints in full."""
    g = random_tree_graph(random.Random(10), 30, tuple(-(10**200) - k for k in (1, 2, 3)))
    path = tmp_path / "big.dg"
    path.write_text(serialize(g))
    code, out, err = run(capsys, "codisc", str(path), *flags)
    assert code == 0 and not err
    lines = json.loads(out)["output"] if flags else out.splitlines()
    result = codiscrepancies(g)
    printed = {}
    for line in lines[:-2]:
        vid, text = line.split(" = ")
        p, _, q = text.partition("/")
        printed[vid] = Fraction(_int(p), _int(q or "1"))
    assert printed == result.values
    assert lines[-2] == f"all_nonnegative: {str(result.all_nonnegative).lower()}"
    head, digits = lines[-1].split(": ")
    assert head == "max_denominator" and _int(digits) == result.max_denominator
    assert len(digits) > sys.get_int_max_str_digits()


def test_wdisc_command(capsys):
    code, out, _ = run(capsys, "wdisc", "--index", "4", "--weights", "3,2,1,1")
    assert code == 0
    assert "discrepancy: 3/4" in out


def test_genus_command(capsys):
    code, out, _ = run(
        capsys,
        "genus",
        "--weights",
        "2,1,1",
        "--degree",
        "5",
        "--correction",
        "1/2",
    )
    assert code == 0
    assert "arithmetic genus: 2" in out


def test_genus_bad_correction_exits_2(capsys):
    code, _, err = run(
        capsys, "genus", "--weights", "2,1,1", "--degree", "5", "--correction", "x"
    )
    assert code == 2


def test_classify_directory_exits_2(tmp_path, capsys):
    code, out, err = run(capsys, "classify", str(tmp_path))
    assert code == 2 and not out
    assert err.startswith(f"error: cannot read {tmp_path}")


def test_non_utf8_file_exits_2(tmp_path, capsys):
    path = tmp_path / "latin1.dg"
    path.write_bytes(b"graph g\nv caf\xe9 -2\n")
    for command in ("classify", "codisc"):
        code, out, err = run(capsys, command, str(path))
        assert code == 2 and not out
        assert "utf-8" in err


def test_catalog_root_with_non_utf8_entry_exits_2(tmp_path, capsys):
    (tmp_path / "mine").mkdir()
    (tmp_path / "mine" / "latin1.dg").write_bytes(b"graph g\nv caf\xe9 -2\n")
    code, out, err = run(capsys, "catalog", "verify", "--root", str(tmp_path))
    assert code == 2 and not out
    assert err.startswith("error: mine/latin1:")


def test_huge_exponent_coefficient_exits_2(tmp_path, capsys):
    path = tmp_path / "exp.dg"
    path.write_text("graph g\nv a -2\nv t ~ tra\ne a t\ncycle z: t=1e10000000\n")
    code, out, err = run(capsys, "triviality", str(path), "--cycle", "z")
    assert code == 2 and not out
    assert "bad rational '1e10000000'" in err


@pytest.mark.parametrize("correction", ["1.5", "1e3", "1_0"])
def test_genus_rejects_correction_outside_p_over_q(capsys, correction):
    argv = ["genus", "--weights", "1,2,3", "--degree", "6", "--correction", correction]
    code, out, err = run(capsys, *argv)
    assert code == 2 and not out
    assert err == f"error: bad correction: {correction!r}\n"


# int() alone reads "1_0" as 10 and the Arabic-Indic digit one as 1
NUMBER_ARGS = {
    "pair": ["--weights", "1,1,2", "--degrees", "4", "--k", "1"],
    "wdisc": ["--index", "5", "--weights", "1,2"],
    "genus": ["--weights", "1,2,3", "--degree", "6", "--correction", "0"],
}


@pytest.mark.parametrize(
    "command, option, what",
    [
        ("pair", "--weights", "weights"),
        ("pair", "--degrees", "degrees"),
        ("pair", "--k", "k"),
        ("wdisc", "--index", "index"),
        ("wdisc", "--weights", "weights"),
        ("genus", "--weights", "weights"),
        ("genus", "--degree", "degree"),
    ],
)
@pytest.mark.parametrize("digits", ["1_0", "\u0661", "2/1"])
def test_cli_integers_are_ascii_digits(capsys, command, option, what, digits):
    argv = list(NUMBER_ARGS[command])
    i = argv.index(option) + 1
    argv[i] = ",".join([digits] + argv[i].split(",")[1:])
    code, out, err = run(capsys, command, *argv)
    assert code == 2 and not out
    assert err == f"error: bad {what}: {argv[i]!r}\n"


def test_catalog_verify(capsys):
    code, out, _ = run(capsys, "catalog", "verify")
    assert code == 0
    assert "checks passed" in out


def test_catalog_verify_filter(capsys):
    code, out, _ = run(capsys, "catalog", "verify", "--filter", "classification/*")
    assert code == 0
    assert "classification/a2-target" in out
    assert "rejected/" not in out


def test_catalog_verify_filter_no_match_warns_exit_0(capsys):
    code, out, err = run(capsys, "catalog", "verify", "--filter", "zzz/*")
    assert code == 0
    assert "matched no entries" in err


def test_catalog_verify_json_is_byte_identical(capsys):
    code1, out1, _ = run(capsys, "catalog", "verify", "--json")
    code2, out2, _ = run(capsys, "catalog", "verify", "--json")
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["failed"] == 0


def test_command_json_mode(capsys):
    code, out, _ = run(
        capsys, "classify", fixture("classification/a2-target"), "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == 0
    assert payload["command"][0] == "classify"
    assert all(record["pass"] for record in payload["checks"])


SOLVERS = (
    "classify",
    "definiteness",
    "codiscrepancies",
    "mumford_pullback",
    "cycle_dot",
    "implied_tail_start",
)


def count_solves(monkeypatch) -> Counter:
    """Count the calls of each solver, and of ``cycle_dot``, through every
    module that binds it."""
    counts: Counter = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    modules = (resgraph.catalog, resgraph.cli, resgraph.contract, resgraph.discrepancy)
    for module in modules:
        for name in SOLVERS:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    return counts


@pytest.mark.parametrize("entry", load_catalog(), ids=lambda e: e.name)
def test_each_command_solves_once(entry, capsys, monkeypatch):
    counts = count_solves(monkeypatch)
    path = str(entry.path)
    run(capsys, "classify", path)
    assert counts["classify"] == 1
    assert counts["definiteness"] == 1
    counts.clear()
    run(capsys, "codisc", path)
    assert counts["codiscrepancies"] == 1
    assert counts["implied_tail_start"] <= 1
    for name in entry.cycles:
        counts.clear()
        run(capsys, "pullback", path, "--attached", name)
        assert counts["mumford_pullback"] == 1, name
        counts.clear()
        run(capsys, "triviality", path, "--cycle", name)
        assert counts["cycle_dot"] == len(entry.graph.complete_ids()), name


def test_only_main_turns_an_error_into_exit_2():
    """``EXIT_INPUT`` is read in one place, ``cli.main``'s one handler of
    the library's errors; no command returns it on its own."""
    module = ast.parse(Path(resgraph.cli.__file__).read_text(encoding="utf-8"))
    readers = [
        getattr(top, "name", None)
        for top in module.body
        for node in ast.walk(top)
        if isinstance(node, ast.Name) and node.id == "EXIT_INPUT" and isinstance(node.ctx, ast.Load)
    ]
    assert readers == ["main"]
