"""Replay the recorded CLI calls in ``data/cli_snapshot.json`` through
``cli.main`` in-process and compare exit code, stdout and stderr.

The snapshot covers every subcommand over every catalog fixture, plus the
bad-input fixtures under ``data/cli``. Paths are relative to the repository
root, which is the working directory during the replay. After an intended
change of output, re-record with

    PYTHONPATH=src python tests/test_cli_snapshot.py

which prints the argv of every record that changed, was added or was
dropped against the committed file; name each of them in the change log.
"""

import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from resgraph.catalog import load_entry
from resgraph.cli import main

ROOT = Path(__file__).resolve().parent.parent
SNAPSHOT = Path(__file__).resolve().parent / "data" / "cli_snapshot.json"
CATALOG = "src/resgraph/data/catalog"
INPUTS = "tests/data/cli"


def _cases() -> list[list[str]]:
    cases = []
    fixtures = sorted(p.relative_to(ROOT).as_posix() for p in (ROOT / CATALOG).glob("*/*.dg"))
    for path in fixtures:
        entry = load_entry(ROOT / path)
        for flags in ([], ["--json"]):
            cases.append(["classify", path, *flags])
            cases.append(["codisc", path, *flags])
            cases.append(["codisc", path, "--include-central", *flags])
            for name in entry.cycles:
                cases.append(["triviality", path, "--cycle", name, *flags])
                cases.append(["pullback", path, "--attached", name, *flags])
        exceptional = ",".join(entry.graph.exceptional_ids())
        for name in entry.cycles:
            cases.append(["pullback", path, "--attached", name, "--subset", exceptional])
        cases.append(["triviality", path, "--cycle", "no-such-cycle"])
        cases.append(["pullback", path, "--attached", "no-such-cycle"])
    cases += [
        ["pullback", f"{CATALOG}/pullbacks/dm-5.dg", "--attached", "src-x", "--subset", ","],
        ["pullback", f"{CATALOG}/pullbacks/dm-5.dg", "--attached", "src-x", "--subset", "c1,nope"],
        ["pullback", f"{CATALOG}/pullbacks/dm-5.dg", "--attached", "src-x", "--subset", "c1,dx"],
        ["classify", "no-such-file.dg"],
        ["codisc", "no-such-file.dg"],
        ["classify", INPUTS],
        ["classify", f"{INPUTS}/latin1/entries/latin1.dg"],
        ["codisc", f"{INPUTS}/latin1/entries/latin1.dg"],
        ["classify", f"{INPUTS}/inputs/bad-syntax.dg"],
        ["classify", f"{INPUTS}/inputs/transversal-only.dg"],
        ["codisc", f"{INPUTS}/inputs/transversal-only.dg"],
        ["triviality", f"{INPUTS}/inputs/bare-expect.dg", "--cycle", "z"],
        ["pullback", f"{INPUTS}/inputs/bare-expect.dg", "--attached", "z"],
        ["classify", f"{INPUTS}/inputs/bare-expect.dg"],
        ["triviality", f"{INPUTS}/inputs/decimal-rational.dg", "--cycle", "z"],
        ["triviality", f"{INPUTS}/inputs/exponent-rational.dg", "--cycle", "z"],
        ["pair", "--weights", "1,1,2", "--degrees", "4", "--k", "1"],
        ["pair", "--weights", "1,2,3,5", "--degrees", "6,10", "--k", "-1", "--json"],
        ["pair", "--weights", "1,x,2", "--degrees", "4", "--k", "1"],
        ["pair", "--weights", "1,1,2", "--degrees", "4,4", "--k", "1"],
        ["pair", "--weights", "0,1,2", "--degrees", "4", "--k", "1"],
        ["wdisc", "--index", "5", "--weights", "1,2"],
        ["wdisc", "--index", "5", "--weights", "1,2", "--json"],
        ["wdisc", "--index", "0", "--weights", "1,2"],
        ["wdisc", "--index", "5", "--weights", "1,,y"],
        ["genus", "--weights", "1,2,3", "--degree", "6", "--correction", "1/2"],
        ["genus", "--weights", "1,2,3", "--degree", "6", "--correction", "-3", "--json"],
        ["genus", "--weights", "1,2,3", "--degree", "6", "--correction", "x"],
        ["genus", "--weights", "1,2,3", "--degree", "6", "--correction", "1/0"],
        ["genus", "--weights", "1,2,3", "--degree", "6", "--correction", "1.5"],
        ["genus", "--weights", "1,2,3", "--degree", "6", "--correction", "1e3"],
        ["genus", "--weights", "1,2,3", "--degree", "6", "--correction", "1_0"],
        ["genus", "--weights", "1,2", "--degree", "6", "--correction", "1/2"],
        ["genus", "--weights", "1,2,3", "--degree", "0", "--correction", "1/2"],
        ["catalog", "verify"],
        ["catalog", "verify", "--json"],
        ["catalog", "verify", "--filter", "rejected/*"],
        ["catalog", "verify", "--filter", "pullbacks/*", "--json"],
        ["catalog", "verify", "--filter", "nothing/*"],
        ["catalog", "verify", "--root", INPUTS],
        ["catalog", "verify", "--root", f"{INPUTS}/latin1"],
        ["catalog", "verify", "--root", "no-such-dir"],
        ["catalog", "verify", "--root", f"{INPUTS}/inputs"],
        ["wdisc", "--index", "2", "--weights", ","],
        ["catalog", "verify", "--root", f"{INPUTS}/typo"],
        ["catalog", "verify", "--root", f"{INPUTS}/one-entry"],
    ]
    bad_expects = (ROOT / INPUTS).glob("inputs/expect-*.dg")
    for path in sorted(p.relative_to(ROOT).as_posix() for p in bad_expects):
        cases += [["classify", path], ["codisc", path]]
    return cases


def _call(argv: list[str], readouterr) -> dict:
    try:
        code = main(list(argv))
    except Exception as exc:  # recorded, so a traceback shows as a change
        code = f"raises {type(exc).__name__}"
    out, err = readouterr()
    return {"argv": argv, "exit": code, "stdout": out, "stderr": err}


def _load() -> list[dict]:
    return json.loads(SNAPSHOT.read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", _load() if SNAPSHOT.exists() else [], ids=lambda case: " ".join(case["argv"]))
def test_cli_matches_snapshot(case, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert _call(case["argv"], capsys.readouterr) == case


def test_snapshot_covers_every_case():
    assert [case["argv"] for case in _load()] == _cases()


def record() -> None:
    os.chdir(ROOT)
    old = {tuple(case["argv"]): case for case in (_load() if SNAPSHOT.exists() else [])}
    results = []
    for argv in _cases():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            results.append(_call(argv, lambda: (out.getvalue(), err.getvalue())))
    new = {tuple(case["argv"]): case for case in results}
    for argv, case in new.items():
        if argv not in old:
            print("added:", " ".join(argv))
        elif old[argv] != case:
            print("changed:", " ".join(argv))
    for argv in [argv for argv in old if argv not in new]:
        print("dropped:", " ".join(argv))
    SNAPSHOT.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    print(f"recorded {len(results)} calls in {SNAPSHOT}")


if __name__ == "__main__":
    record()
