"""The library exports no dead helper: every name in ``resgraph.__all__`` is
used by library code other than its own definition."""

import ast
from pathlib import Path

import resgraph

# Exported names that no library code calls, each with the reason it stays.
EXEMPT = {
    # bench/tracer.py wraps it by name and bench/test_bench.py counts its
    # calls; it goes only after ROADMAP item 1 replaces that count with a
    # check on behaviour.
    "blow_down_once",
    # The writer half of the text format: parse reads what it writes, and
    # parse(serialize(g)) == g is part of the format's contract.
    "serialize",
}


def used_names() -> set[str]:
    """Every name that code in ``src/resgraph/*.py`` (not ``__init__.py``)
    refers to outside the top-level definition that binds it. Imports,
    docstrings and comments do not count."""
    used = set()
    for path in Path(resgraph.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            own = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
            used.update(
                node.id for node in ast.walk(top) if isinstance(node, ast.Name) and node.id != own
            )
    return used


def test_every_export_is_used_by_the_library():
    used = used_names()
    assert [name for name in resgraph.__all__ if name not in used] == sorted(EXEMPT)


def test_the_moved_helpers_are_no_longer_exported():
    moved = {
        "ade_graph",
        "chain_codiscrepancy_check",
        "classify_components",
        "fork_codiscrepancy_check",
        "pinned_consistent",
    }
    assert not moved & set(resgraph.__all__)
