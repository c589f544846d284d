"""Acceptance suite: every release criterion as one test, each printing a
pass/fail line. All comparisons are exact (Fraction equality); nothing here
tolerates approximation. Run with ``pytest tests/test_acceptance.py -s`` to
see the per-criterion lines."""

import random
from fractions import Fraction

import pytest

from resgraph.catalog import load_catalog
from resgraph.contract import CurveFiber, classify
from resgraph.discrepancy import (
    codiscrepancies,
    denominator_filter,
    fundamental_cycle,
    implied_tail_start,
    mumford_pullback,
)
from resgraph.graph import Cycle, cycle_dot, parse, serialize
from resgraph.linalg import definiteness
from resgraph.wps import (
    cdisc_from_blowup,
    pair,
    subadjunction_genus,
    wblowup_discrepancy,
)
from util import (
    attach_chain,
    chain_codiscrepancy_check,
    numerically_trivial,
    random_tree_graph,
    relabel,
)

F = Fraction


@pytest.fixture(scope="module")
def catalog():
    return {e.name: e for e in load_catalog()}


def report(number: int, title: str, ok: bool):
    print(f"criterion {number} ({title}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} failed"


def test_criterion_1_codiscrepancy_reproduction(catalog):
    d4 = codiscrepancies(catalog["classification/d4-target"].graph).values
    want_d4 = {
        "a": F(1, 2), "b": F(1), "c": F(3, 2), "d": F(5, 4), "e": F(3, 2),
        "f": F(3, 4), "g": F(3, 4), "u": F(3, 4), "w": F(3, 4),
    }
    conic = codiscrepancies(catalog["classification/conic-fiber"].graph).values
    want_conic_chain = {
        "b": F(3, 2), "c": F(2), "d": F(5, 2), "e": F(3),
        "f": F(9, 4), "g": F(3, 2), "h": F(3, 4), "q": F(5, 4),
    }
    ok = d4 == want_d4 and all(conic[k] == v for k, v in want_conic_chain.items())
    report(1, "codiscrepancy reproduction", ok)


def test_criterion_2_blowup_cross_check(catalog):
    d4 = codiscrepancies(catalog["classification/d4-target"].graph).values
    conic = codiscrepancies(catalog["classification/conic-fiber"].graph).values
    ok = (
        cdisc_from_blowup(2, F(3, 4)) == d4["c"] == d4["e"]
        and cdisc_from_blowup(4, F(3, 4)) == F(3) == conic["e"]
        and cdisc_from_blowup(2, F(3, 4)) == conic["b"]
    )
    report(2, "blowup cross-check", ok)


def test_criterion_3_classification_table(catalog):
    expected = {
        "classification/a2-target": "DuValPoint(A2)",
        "classification/smooth-target": "SmoothPoint",
        "classification/d4-target": "DuValPoint(D4)",
        "classification/conic-fiber": "CurveFiber",
        "classification/index5-fiber": "CurveFiber",
        "rejected/double-minus3-bridge": "NotContractible",
    }
    ok = all(classify(catalog[k].graph).render() == v for k, v in expected.items())
    report(3, "classification table", ok)


def test_criterion_4_rejection_suite(catalog):
    ok = True
    for n in (1, 2, 3):
        for family in ("chain-tail", "fork-tail"):
            entry = catalog[f"rejected/{family}-{n}"]
            value = implied_tail_start(
                entry.graph, "r", entry.cycles["pinned"].coefficients
            )
            ok = ok and value == F(-3, 4) and value < 0
    for name in ("classification/d5-target", "classification/e6-target"):
        result = codiscrepancies(catalog[name].graph)
        ok = ok and denominator_filter(result, 4) and result.all_nonnegative
    d5 = codiscrepancies(catalog["classification/d5-target"].graph).values
    ok = ok and d5["c"] == F(3, 2) and d5["d"] == F(5, 4) and d5["e"] == F(3, 2)
    e6 = codiscrepancies(catalog["classification/e6-target"].graph).values
    ok = ok and e6["f"] == F(9, 4) and e6["s"] == F(3, 2) and e6["h"] == F(3, 4)
    report(4, "rejection suite", ok)


def test_criterion_5_pullback_multiplicities(catalog):
    entry = catalog["pullbacks/e6-section"]
    got = mumford_pullback(entry.graph, entry.cycles["src"])
    ok = got == entry.cycles["mult"]
    for m in (5, 7, 9, 11):
        dm = catalog[f"pullbacks/dm-{m}"]
        x = mumford_pullback(dm.graph, dm.cycles["src-x"])
        y = mumford_pullback(dm.graph, dm.cycles["src-y"])
        ok = ok and x == dm.cycles["mult-x"] and y == dm.cycles["mult-y"]
        half = F(m - 1, 2)
        ok = ok and y.coeff("z") == half and y.coeff(f"c{m-1}") == half
        ok = ok and x.coeff("z") == 1 and all(x.coeff(f"c{i}") == 2 for i in range(1, m - 1))
    report(5, "pullback multiplicities", ok)


def test_criterion_6_numerical_triviality(catalog):
    d5 = catalog["classification/d5-target"]
    conic = catalog["classification/conic-fiber"]
    ok = (
        numerically_trivial(d5.graph, d5.cycles["base-pullback"])
        and d5.cycles["base-pullback"].coeff("x") == 1
        and numerically_trivial(conic.graph, conic.cycles["fiber"])
    )
    ok = ok and all(
        cycle_dot(d5.graph, d5.cycles["base-pullback"], vid) == 0
        for vid in d5.graph.complete_ids()
    )
    report(6, "numerical triviality", ok)


def test_criterion_7_weighted_projective_pairings():
    w = (3, 2, 1, 1)
    ok = (
        pair(w, (1, 1), -4) == F(-2, 3)
        and pair(w, (1, 3), -4) == F(-2)
        and pair(w, (1, 2), -4) == F(-4, 3)
        and pair(w, (1, 6), 4) == F(4)
        and wblowup_discrepancy(4, (3, 2, 1, 1)) == F(3, 4)
        and subadjunction_genus((2, 1, 1), 5, F(1, 2)) == F(2)
    )
    report(7, "weighted projective pairings", ok)


def test_criterion_8a_contraction_order_independence(catalog):
    rng = random.Random(97531)
    ok = True
    for entry in catalog.values():
        g = entry.graph
        base = classify(g)
        for _ in range(100):
            renamed, names = relabel(g, rng)
            other = classify(renamed)
            ok = ok and other.render() == base.render()
            if isinstance(base, CurveFiber):
                fiber = Cycle({names[vid]: c for vid, c in base.fiber.coefficients.items()})
                ok = ok and other.fiber == fiber
    report(8, "order independence (a)", ok)


def test_criterion_8b_fundamental_cycle_rationality(catalog):
    ok = True
    for name, entry in catalog.items():
        if name.startswith("rejected/double-minus3"):
            continue  # indefinite by design
        for comp in entry.graph.components(entry.graph.exceptional_ids()):
            sub = sorted(comp)
            matrix, _ = entry.graph.intersection_matrix(sub)
            if not definiteness(matrix).is_negative_definite:
                ok = False
                continue
            _, pa = fundamental_cycle(entry.graph, sub)
            ok = ok and pa == 0
    report(8, "fundamental cycle rationality (b)", ok)


def test_criterion_8c_chain_rule_on_1000_random_graphs():
    rng = random.Random(86420)
    ok = True
    done = 0
    while done < 1000:
        base = random_tree_graph(rng, rng.randint(1, 5), weights=(-2, -3, -4, -5))
        anchor = rng.choice(base.ids())
        length = rng.randint(2, 4)
        g = attach_chain(base, anchor, length)
        matrix, _ = g.intersection_matrix()
        if not definiteness(matrix).is_negative_definite:
            continue
        result = codiscrepancies(g)
        chain = [f"c{i}" for i in range(length)]
        ok = ok and chain_codiscrepancy_check(g, result, chain)
        ok = ok and chain_codiscrepancy_check(g, result, chain + [anchor])
        done += 1
    report(8, "chain rule on 1000 random graphs (c)", ok)


def test_criterion_8d_roundtrip_on_catalog(catalog):
    ok = True
    for entry in catalog.values():
        expects = [(e.key, e.text) for e in entry.expects]
        text = serialize(entry.graph, entry.cycles, expects)
        again = parse(text)
        ok = (
            ok
            and again.graph == entry.graph
            and again.cycles == entry.cycles
            and [(key, value) for key, value, _ in again.expects] == expects
        )
    report(8, "parse/serialize round-trip (d)", ok)
