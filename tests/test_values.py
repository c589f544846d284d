"""Value semantics of the package's record and value classes: construction,
defaults, equality, hashing, immutability, repr and validation. Four are
``NamedTuple`` records, nine share the slotted ``linalg.Value`` base."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from resgraph.catalog import CatalogEntry, CheckRecord
from resgraph.contract import (
    ADEType,
    CurveFiber,
    DuValPoint,
    NotContractible,
    RationalPoint,
    SmoothPoint,
)
from resgraph.discrepancy import CodiscrepancyResult
from resgraph.graph import Cycle, DualGraph, ParseResult, Vertex, VertexKind
from resgraph.linalg import NEGATIVE_DEFINITE, NEGATIVE_SEMIDEFINITE, Definiteness
from resgraph.wps import pair

ROOT = Path(__file__).resolve().parent.parent
EXC = VertexKind.EXCEPTIONAL
G = DualGraph("g", [Vertex("a", EXC, -2)], [])

# (class, positional arguments, the same as keywords)
CONSTRUCTIONS = [
    (Vertex, ("a", EXC, -2, "x"), {"id": "a", "kind": EXC, "self_int": -2, "label": "x"}),
    (Cycle, ({"a": 1},), {"coefficients": {"a": 1}}),
    (ParseResult, (G, {}, []), {"graph": G, "cycles": {}, "expects": []}),
    (ADEType, ("D", 4), {"family": "D", "rank": 4}),
    (SmoothPoint, (), {}),
    (DuValPoint, (ADEType("E", 8),), {"ade": ADEType("E", 8)}),
    (RationalPoint, (G,), {"residual": G}),
    (CurveFiber, (Cycle({"a": 1}),), {"fiber": Cycle({"a": 1})}),
    (NotContractible, ("x",), {"reason": "x"}),
    (
        CodiscrepancyResult,
        ({"a": Fraction(1, 3)}, True, 3),
        {"values": {"a": Fraction(1, 3)}, "all_nonnegative": True, "max_denominator": 3},
    ),
    (
        CatalogEntry,
        ("x/y", G, {}, [], Path("x/y.dg")),
        {"name": "x/y", "graph": G, "cycles": {}, "expects": [], "path": Path("x/y.dg")},
    ),
    (
        CheckRecord,
        ("x/y", "outcome", "A", "B"),
        {"entry": "x/y", "check": "outcome", "expected": "A", "actual": "B"},
    ),
    (
        Definiteness,
        (NEGATIVE_SEMIDEFINITE, 1, [[1, 2]]),
        {"kind": NEGATIVE_SEMIDEFINITE, "corank": 1, "kernel": [[1, 2]]},
    ),
]

# The repr of each class, as the dataclass-generated one wrote it; a graph's
# writes its name, vertices and edges, as its constructor takes them.
G_REPR = (
    "DualGraph('g', [Vertex(id='a', kind=<VertexKind.EXCEPTIONAL: 'exc'>, self_int=-2, "
    "label=None)], {})"
)
REPRS = [
    (
        Vertex("a", EXC, -2, "x"),
        "Vertex(id='a', kind=<VertexKind.EXCEPTIONAL: 'exc'>, self_int=-2, label='x')",
    ),
    (
        Vertex("t", VertexKind.TRANSVERSAL, None),
        "Vertex(id='t', kind=<VertexKind.TRANSVERSAL: 'tra'>, self_int=None, label=None)",
    ),
    (
        Cycle({"a": 1, "b": Fraction(1, 2), "c": 0}),
        "Cycle(coefficients={'a': Fraction(1, 1), 'b': Fraction(1, 2)})",
    ),
    (Cycle(), "Cycle(coefficients={})"),
    (
        ParseResult(G, {"z": Cycle({"a": 2})}, [("rejected", "true", 3)]),
        f"ParseResult(graph={G_REPR}, "
        "cycles={'z': Cycle(coefficients={'a': Fraction(2, 1)})}, "
        "expects=[('rejected', 'true', 3)])",
    ),
    (ADEType("D", 4), "ADEType(family='D', rank=4)"),
    (SmoothPoint(), "SmoothPoint()"),
    (DuValPoint(ADEType("E", 8)), "DuValPoint(ade=ADEType(family='E', rank=8))"),
    (RationalPoint(G), f"RationalPoint(residual={G_REPR})"),
    # unequal residuals print unequal: a single (-3)-curve, a single (-4)-curve
    (
        tuple(RationalPoint(DualGraph("g", [Vertex("a", EXC, w)], [])) for w in (-3, -4)),
        "(RationalPoint(residual=DualGraph('g', [Vertex(id='a', kind=<VertexKind.EXCEPTIONAL: "
        "'exc'>, self_int=-3, label=None)], {})), "
        "RationalPoint(residual=DualGraph('g', [Vertex(id='a', kind=<VertexKind.EXCEPTIONAL: "
        "'exc'>, self_int=-4, label=None)], {})))",
    ),
    (
        DualGraph("h", [Vertex("a", EXC, -2), Vertex("b", EXC, -3, "x")], {("b", "a"): 2}),
        "DualGraph('h', [Vertex(id='a', kind=<VertexKind.EXCEPTIONAL: 'exc'>, self_int=-2, "
        "label=None), Vertex(id='b', kind=<VertexKind.EXCEPTIONAL: 'exc'>, self_int=-3, "
        "label='x')], {('a', 'b'): 2})",
    ),
    (CurveFiber(Cycle({"a": 1})), "CurveFiber(fiber=Cycle(coefficients={'a': Fraction(1, 1)}))"),
    (NotContractible("not negative definite"), "NotContractible(reason='not negative definite')"),
    (
        CodiscrepancyResult.from_values({"a": Fraction(-1, 2), "b": 1}),
        "CodiscrepancyResult(values={'a': Fraction(-1, 2), 'b': 1}, "
        "all_nonnegative=False, max_denominator=2)",
    ),
    (
        CatalogEntry("x/y", G, {}, []),
        f"CatalogEntry(name='x/y', graph={G_REPR}, "
        "cycles={}, expects=[], path=None)",
    ),
    (
        CheckRecord("x/y", "outcome", "SmoothPoint", "SmoothPoint"),
        "CheckRecord(entry='x/y', check='outcome', expected='SmoothPoint', actual='SmoothPoint')",
    ),
    (
        Definiteness(NEGATIVE_SEMIDEFINITE, 1, [[1, 2]]),
        "Definiteness(kind='NegativeSemidefiniteCorank', corank=1, kernel=[[1, 2]])",
    ),
]

# Each class that was frozen: one instance and its fields.
FROZEN = [
    (Vertex("a", EXC, -2), ("id", "kind", "self_int", "label")),
    (Cycle({"a": 1}), ("coefficients",)),
    (ADEType("A", 3), ("family", "rank")),
    (SmoothPoint(), ()),
    (DuValPoint(ADEType("A", 3)), ("ade",)),
    (RationalPoint(G), ("residual",)),
    (CurveFiber(Cycle({"a": 1})), ("fiber",)),
    (NotContractible("x"), ("reason",)),
    (Definiteness(NEGATIVE_DEFINITE), ("kind", "corank", "kernel")),
    (CodiscrepancyResult({}, True, 1), ("values", "all_nonnegative", "max_denominator")),
]


@pytest.mark.parametrize("cls, args, kwargs", CONSTRUCTIONS, ids=[c[0].__name__ for c in CONSTRUCTIONS])
def test_positional_and_keyword_construction_agree(cls, args, kwargs):
    by_position, by_keyword = cls(*args), cls(**kwargs)
    assert by_position == by_keyword
    assert repr(by_position) == repr(by_keyword)
    for name, value in kwargs.items():
        assert getattr(by_keyword, name) == value
    with pytest.raises(TypeError):
        cls(*args, None)


def test_defaults():
    assert Cycle() == Cycle({}) and Cycle().coefficients == {}
    assert Vertex("a", EXC, -2).label is None
    assert CatalogEntry("x/y", G, {}, []).path is None


def test_cycle_keeps_exact_nonzero_coefficients():
    z = Cycle({"a": 2, "b": "1/2", "c": 0, "d": Fraction(0)})
    assert z.coefficients == {"a": Fraction(2), "b": Fraction(1, 2)}
    assert all(type(q) is Fraction for q in z.coefficients.values())


def test_a_cycle_prints_its_value_whatever_order_it_was_given_in():
    assert repr(Cycle({"b": 2, "a": 1})) == repr(Cycle({"a": 1, "b": 2}))
    assert str(Cycle({"b": 2, "a": 1})) == str(Cycle({"a": 1, "b": 2}))
    assert list(Cycle({"b": 2, "c": 0, "a": 1}).coefficients) == ["a", "b"]
    assert Cycle({"b": 2, "c": 0, "a": 1})._named == ("b", "c", "a")  # the pins keep theirs


@pytest.mark.parametrize("value, text", REPRS, ids=[type(v).__name__ for v, _ in REPRS])
def test_repr(value, text):
    assert repr(value) == text


BIG = 10**5000 + 1
DIGITS = "1" + "0" * 4999 + "1"
BIG_REPRS = [
    (
        Cycle({"b": 1, "a": Fraction(BIG, 3)}),
        f"Cycle(coefficients={{'a': Fraction({DIGITS}, 3), 'b': Fraction(1, 1)}})",
    ),
    (
        CurveFiber(Cycle({"a": Fraction(-3, BIG)})),
        f"CurveFiber(fiber=Cycle(coefficients={{'a': Fraction(-3, {DIGITS})}}))",
    ),
    (
        Definiteness(NEGATIVE_SEMIDEFINITE, 1, [[1, -BIG]]),
        f"Definiteness(kind='{NEGATIVE_SEMIDEFINITE}', corank=1, kernel=[[1, -{DIGITS}]])",
    ),
    (
        CodiscrepancyResult.from_values({"a": Fraction(BIG, 3)}),
        f"CodiscrepancyResult(values={{'a': Fraction({DIGITS}, 3)}}, "
        "all_nonnegative=True, max_denominator=3)",
    ),
]


@pytest.mark.parametrize("value, text", BIG_REPRS, ids=[type(v).__name__ for v, _ in BIG_REPRS])
def test_a_value_past_the_digit_limit_prints_its_repr_in_full(value, text):
    """``str`` refuses an int of more than 4300 digits (CPython's default
    limit), so ``Fraction.__repr__`` does too; a value's repr writes such a
    number out all the same, as ``render`` does."""
    assert len(DIGITS) > sys.get_int_max_str_digits()
    assert repr(value) == text


@pytest.mark.parametrize("cls, args, kwargs", CONSTRUCTIONS, ids=[c[0].__name__ for c in CONSTRUCTIONS])
def test_equal_values_are_equal(cls, args, kwargs):
    a, b = cls(*args), cls(*args)
    assert a == b and not a != b


def test_a_differing_field_is_unequal():
    assert ADEType("D", 4) != ADEType("D", 5)
    assert ADEType("D", 4) != ADEType("A", 4)
    assert Cycle({"a": 1}) != Cycle({"a": 2})
    assert NotContractible("x") != NotContractible("y")
    assert DuValPoint(ADEType("A", 1)) != DuValPoint(ADEType("A", 2))
    assert Definiteness(NEGATIVE_SEMIDEFINITE, 1, [[1, 2]]) != Definiteness(
        NEGATIVE_SEMIDEFINITE, 1, [[2, 1]]
    )
    assert Vertex("a", EXC, -2) != Vertex("a", EXC, -2, "x")
    assert CheckRecord("e", "c", "A", "A") != CheckRecord("e", "c", "A", "B")


def test_no_equality_across_classes():
    assert SmoothPoint() != NotContractible("x")
    # the same field value in four outcome classes
    same = [DuValPoint("x"), RationalPoint("x"), CurveFiber("x"), NotContractible("x")]
    for i, a in enumerate(same):
        for j, b in enumerate(same):
            assert (a == b) == (i == j)
    assert ADEType("A", 1) != ("A", 1)
    assert Definiteness(NEGATIVE_DEFINITE) != NEGATIVE_DEFINITE
    assert Cycle({"a": 1}) != {"a": Fraction(1)}


def test_equal_hashable_values_hash_alike():
    pairs = [
        (Vertex("a", EXC, -2, "x"), Vertex(id="a", kind=EXC, self_int=-2, label="x")),
        (ADEType("E", 7), ADEType(family="E", rank=7)),
        (SmoothPoint(), SmoothPoint()),
        (DuValPoint(ADEType("A", 2)), DuValPoint(ade=ADEType("A", 2))),
        (NotContractible("x"), NotContractible(reason="x")),
    ]
    for a, b in pairs:
        assert a == b and hash(a) == hash(b)
    assert len({ADEType("A", 1), ADEType("A", 1), ADEType("D", 4)}) == 2
    assert {SmoothPoint(): 1}[SmoothPoint()] == 1


def test_values_holding_a_dict_or_a_graph_are_unhashable():
    for value in (Cycle({"a": 1}), Cycle(), CurveFiber(Cycle()), RationalPoint(G),
                  Definiteness(NEGATIVE_DEFINITE), CodiscrepancyResult({}, True, 1)):
        with pytest.raises(TypeError):
            hash(value)


@pytest.mark.parametrize("value, fields", FROZEN, ids=[type(v).__name__ for v, _ in FROZEN])
def test_frozen_values_refuse_assignment(value, fields):
    before = repr(value)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.other = 1
    assert repr(value) == before


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: ADEType("A", 0), "no type A0"),
        (lambda: ADEType("D", 3), "no type D3"),
        (lambda: ADEType("E", 9), "no type E9"),
        (lambda: ADEType("F", 4), "no type F4"),
        (lambda: pair((), (), 1), "weights must be positive integers"),
        (lambda: pair((1, 0), (), 1), "weights must be positive integers"),
        (lambda: pair((1, 1, 1), (1, 2), 1), "a curve needs exactly n-2 hypersurface degrees"),
        (lambda: pair((1, 1, 1), (0,), 1), "degrees must be positive integers"),
    ],
)
def test_validation_errors(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


def test_normalised_fields():
    assert Definiteness(NEGATIVE_SEMIDEFINITE, 1, [(1, 2)]).kernel == [[1, 2]]


def test_cli_import_needs_no_dataclasses():
    """``import resgraph.cli`` loads neither ``dataclasses`` (nor the
    ``inspect`` it pulls in) nor ``importlib.resources``; ``-S`` keeps
    whatever the site packages load out of the answer."""
    probe = (
        "import resgraph.cli, sys; "
        "print(sorted({'dataclasses', 'inspect', 'importlib.resources'} & set(sys.modules)))"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
