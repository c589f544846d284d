"""The library exports no dead helper and no option that only tests use:
every name in ``resgraph.__all__`` is used by library code other than its
own definition, every defaulted parameter of an exported function is passed
by some call in the library, and every public method or property of an
exported class is read as an attribute by library code. Nor does it keep a
dead private helper: every private module-level function, class and
constant, and every private method, is named by library code outside its
own definition."""

import ast
from pathlib import Path

import resgraph

# Exported names, ``function.parameter``s and ``Class.method``s that no
# library code uses, each with the reason it stays. An exempt function or
# class is exempt from the parameter and method rule too.
EXEMPT = {
    # The writer half of the text format: parse reads what it writes, and
    # parse(serialize(g)) == g is part of the format's contract.
    "serialize",
    # The public way to build a matrix from outside, with every check; the
    # library builds its own forms from rows that need none (``_of_rows``).
    "SymMatrix.from_sparse",
}


def library_modules() -> list[ast.Module]:
    """The syntax tree of each ``src/resgraph/*.py`` but ``__init__.py``."""
    return [
        ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(Path(resgraph.__file__).parent.glob("*.py"))
        if path.name != "__init__.py"
    ]


def used_names() -> set[str]:
    """Every name that library code refers to outside the top-level
    definition that binds it. Imports, docstrings and comments do not count."""
    used = set()
    for module in library_modules():
        for top in module.body:
            own = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
            used.update(
                node.id for node in ast.walk(top) if isinstance(node, ast.Name) and node.id != own
            )
    return used


def _walk(node: ast.AST, owners: tuple = ()):
    """Each node below ``node``, with the names of the definitions around it,
    outermost first."""
    for child in ast.iter_child_nodes(node):
        yield child, owners
        inner = (child.name,) if isinstance(child, (ast.FunctionDef, ast.ClassDef)) else ()
        yield from _walk(child, owners + inner)


def _defaulted(fn: ast.FunctionDef) -> list[tuple[int | None, str]]:
    """(position, name) of each parameter with a default, the position None
    for a keyword-only one."""
    positional = fn.args.posonlyargs + fn.args.args
    first = len(positional) - len(fn.args.defaults)
    keyword = zip(fn.args.kwonlyargs, fn.args.kw_defaults)
    return [(i, arg.arg) for i, arg in enumerate(positional) if i >= first] + [
        (None, arg.arg) for arg, default in keyword if default is not None
    ]


def _passes(call: ast.Call, position: int | None, name: str) -> bool:
    """Whether the call passes the parameter, by position, by keyword or
    through ``**``."""
    if position is not None and len(call.args) > position:
        return True
    return any(kw.arg in (name, None) for kw in call.keywords)


def unused_members() -> list[str]:
    """``function.parameter`` for each defaulted parameter of an exported
    function that no library call passes, and ``Class.member`` for each
    public method or property of an exported class that library code never
    reads as an attribute. A use inside the definition itself does not count."""
    modules, exported = library_modules(), set(resgraph.__all__) - EXEMPT
    calls, reads = [], []
    for module in modules:
        for node, owners in _walk(module):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.append((name, node, owners))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.append((node.attr, owners))
    unused = []
    for top in (top for module in modules for top in module.body):
        if getattr(top, "name", None) not in exported:
            continue
        if isinstance(top, ast.FunctionDef):
            theirs = [call for name, call, owners in calls
                      if name == top.name and owners[:1] != (top.name,)]
            unused += [
                f"{top.name}.{param}" for position, param in _defaulted(top)
                if not any(_passes(call, position, param) for call in theirs)
            ]
        elif isinstance(top, ast.ClassDef):
            unused += [
                f"{top.name}.{member.name}" for member in top.body
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("_")
                and not any(attr == member.name and owners[:2] != (top.name, member.name)
                            for attr, owners in reads)
            ]
    return sorted(unused)


def test_every_export_is_used_by_the_library():
    used = used_names()
    exempt = sorted(name for name in EXEMPT if "." not in name)
    assert [name for name in resgraph.__all__ if name not in used] == exempt


def test_every_parameter_and_method_of_an_export_is_used_by_the_library():
    assert unused_members() == sorted(name for name in EXEMPT if "." in name)


def test_the_moved_helpers_are_no_longer_exported():
    moved = {
        "ade_graph",
        "chain_codiscrepancy_check",
        "classify_components",
        "fork_codiscrepancy_check",
        "numerically_trivial",
        "pinned_consistent",
    }
    # and the wrappers that pair(weights, degrees, k) no longer takes
    removed = {"CICurve", "WeightedProjectiveSpace"}
    assert not (moved | removed) & set(resgraph.__all__)


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def private_definitions(module: ast.Module) -> list[tuple[str, tuple]]:
    """(name, the definitions around a use that does not count, None for a
    constant) of each private module-level function, class and constant of
    the module, and of each private method of its classes; a dunder name is
    the language's."""
    found = []
    for top in module.body:
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            found.append((top.name, (top.name,)))
        if isinstance(top, ast.ClassDef):
            found += [(member.name, (top.name, member.name)) for member in top.body
                      if isinstance(member, ast.FunctionDef)]
        elif isinstance(top, (ast.Assign, ast.AnnAssign)):
            targets = top.targets if isinstance(top, ast.Assign) else [top.target]
            found += [(node.id, None) for target in targets
                      for node in ast.walk(target) if isinstance(node, ast.Name)]
    return [(name, own) for name, own in found if _private(name)]


def unused_private_names() -> list[str]:
    """Each private definition of ``src/resgraph/*.py`` that no library code
    names, as a read of the name or of an attribute, outside the definition."""
    paths = sorted(Path(resgraph.__file__).parent.glob("*.py"))
    modules = [ast.parse(path.read_text(encoding="utf-8")) for path in paths]
    uses = [
        (node.id if isinstance(node, ast.Name) else node.attr, owners)
        for module in modules
        for node, owners in _walk(module)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    ]
    return sorted(
        f"{path.stem}.{name}"
        for path, module in zip(paths, modules)
        for name, own in private_definitions(module)
        if not any(used == name and (own is None or owners[:len(own)] != own)
                   for used, owners in uses)
    )


def test_every_private_helper_is_named_by_the_library():
    # a floor, so that a rule that finds no helper cannot pass: there are about 40
    assert sum(len(private_definitions(module)) for module in library_modules()) > 30
    assert unused_private_names() == []
