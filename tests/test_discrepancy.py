import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from resgraph import discrepancy, graph, linalg
from resgraph.catalog import load_catalog
from resgraph.discrepancy import (
    CodiscrepancyResult,
    DiscrepancyError,
    NotNegativeDefinite,
    SingularConfiguration,
    UnsupportedTail,
    all_components_rational,
    codiscrepancies,
    denominator_filter,
    fundamental_cycle,
    implied_tail_start,
    mumford_pullback,
    pinned_codiscrepancies,
)
from resgraph.graph import Cycle, DualGraph, Vertex, VertexKind, cycle_dot, parse
from resgraph.linalg import definiteness, rational, solve
from util import (
    NotAChain,
    ade_graph,
    assert_lowest_terms,
    attach_chain,
    attach_fork_tail,
    chain_codiscrepancy_check,
    cycle_dot_restricted,
    fork_codiscrepancy_check,
    laufer_oracle,
    numerically_trivial,
    pinned_consistent,
    point_blowups,
    random_cyclic_graph,
    random_tree_graph,
    relabel,
)


def entries_by_name():
    return {e.name: e for e in load_catalog()}


F = Fraction


def test_ade_graphs_are_crepant():
    for family, rank in [("A", 1), ("A", 4), ("D", 5), ("E", 6), ("E", 8)]:
        g = ade_graph(family, rank)
        result = codiscrepancies(g)
        assert all(v == 0 for v in result.values.values())
        assert result.all_nonnegative
        assert result.max_denominator == 1


def test_d4_target_codiscrepancies_match_frozen_values():
    entry = entries_by_name()["classification/d4-target"]
    result = codiscrepancies(entry.graph)
    assert result.values == {
        "a": F(1, 2),
        "b": F(1),
        "c": F(3, 2),
        "d": F(5, 4),
        "e": F(3, 2),
        "f": F(3, 4),
        "g": F(3, 4),
        "u": F(3, 4),
        "w": F(3, 4),
    }
    assert result.all_nonnegative
    assert result.max_denominator == 4


def test_conic_fiber_codiscrepancies_match_frozen_values():
    entry = entries_by_name()["classification/conic-fiber"]
    result = codiscrepancies(entry.graph)
    assert result.values == {
        "a": F(3, 4),
        "b": F(3, 2),
        "c": F(2),
        "d": F(5, 2),
        "e": F(3),
        "f": F(9, 4),
        "g": F(3, 2),
        "h": F(3, 4),
        "p": F(3, 4),
        "q": F(5, 4),
    }


def test_codiscrepancy_values_solve_the_defining_system():
    # independent of the solver path: plug the values back into the system
    for name in ("classification/d4-target", "classification/e6-target"):
        entry = entries_by_name()[name]
        g = entry.graph
        result = codiscrepancies(g)
        ids = set(result.values)
        for j in ids:
            vj = g.vertex(j)
            lhs = result.values[j] * vj.self_int
            for w, mult in g.neighbors(j):
                if w in ids:
                    lhs += mult * result.values[w]
            assert lhs == 2 + vj.self_int


def test_codiscrepancies_invariant_under_relabeling():
    g = entries_by_name()["classification/d4-target"].graph
    base = codiscrepancies(g).values
    for seed in range(5):
        renamed, names = relabel(g, random.Random(seed))
        again = codiscrepancies(renamed).values
        assert again[names["a"]] == base["a"] and again[names["b"]] == base["b"]
        assert again == {names[vid]: q for vid, q in base.items()}


def test_include_central_changes_the_system():
    entry = entries_by_name()["classification/d4-target"]
    with_central = codiscrepancies(entry.graph, include_central=True)
    assert "z" in with_central.values
    assert not with_central.all_nonnegative  # the extra blown-up curve goes negative


def test_chain_check_trivial_length_one():
    g = parse("graph g\nv a -2\nv b -3\ne a b\n").graph
    result = codiscrepancies(g)
    assert chain_codiscrepancy_check(g, result, ["a"])


def test_chain_check_on_random_negative_definite_graphs():
    rng = random.Random(31415)
    done = 0
    while done < 200:
        base = random_tree_graph(rng, rng.randint(1, 5), weights=(-2, -3, -4, -5))
        anchor = rng.choice(base.ids())
        length = rng.randint(2, 4)
        g = attach_chain(base, anchor, length)
        matrix, _ = g.intersection_matrix()
        if not definiteness(matrix).is_negative_definite:
            continue
        result = codiscrepancies(g)
        chain = [f"c{i}" for i in range(length)]
        assert chain_codiscrepancy_check(g, result, chain)
        # the anchor extends the progression one more step
        assert chain_codiscrepancy_check(g, result, chain + [anchor])
        done += 1


def test_chain_check_shape_validation():
    g = parse("graph g\nv a -2\nv b -2\nv c -3\ne a b\ne b c\n").graph
    result = codiscrepancies(g)
    with pytest.raises(NotAChain):
        chain_codiscrepancy_check(g, result, [])
    with pytest.raises(NotAChain):
        chain_codiscrepancy_check(g, result, ["b", "c"])  # b is not terminal
    with pytest.raises(NotAChain):
        chain_codiscrepancy_check(g, result, ["a", "c"])  # not adjacent


def test_fork_check_on_d4_tail_fixture():
    entry = entries_by_name()["classification/d4-target"]
    result = codiscrepancies(entry.graph)
    # legs u, w on the fork e: legs carry half the fork value
    assert fork_codiscrepancy_check(entry.graph, result, ["u", "w"], "e")
    assert result.values["u"] == result.values["e"] / 2


def test_fork_check_on_random_graphs():
    rng = random.Random(2718)
    done = 0
    while done < 100:
        base = random_tree_graph(rng, rng.randint(1, 4), weights=(-3, -4, -5))
        anchor = rng.choice(base.ids())
        chain_length = rng.randint(1, 3)
        g = attach_fork_tail(base, anchor, chain_length)
        matrix, _ = g.intersection_matrix()
        if not definiteness(matrix).is_negative_definite:
            continue
        result = codiscrepancies(g)
        chain = [f"fm{i}" for i in range(chain_length)]
        assert fork_codiscrepancy_check(g, result, ["fl1", "fl2"], "fk", chain)
        done += 1


def test_denominator_filter():
    zero = codiscrepancies(ade_graph("A", 3))
    assert denominator_filter(zero, 4)
    d4 = codiscrepancies(entries_by_name()["classification/d4-target"].graph)
    assert denominator_filter(d4, 4)
    assert not denominator_filter(d4, 2)
    with pytest.raises(ValueError):
        denominator_filter(zero, 0)


def test_fundamental_cycle_single_minus_two():
    g = parse("graph g\nv a -2\n").graph
    z, pa = fundamental_cycle(g)
    assert z == Cycle({"a": F(1)}) and pa == 0


def test_fundamental_cycle_rejects_cycle_of_minus_twos():
    g = parse("graph g\nv a -2\nv b -2\nv c -2\ne a b\ne b c\ne a c\n").graph
    with pytest.raises(NotNegativeDefinite):
        fundamental_cycle(g)


def test_fundamental_cycle_properties_on_catalog():
    for entry in load_catalog():
        ids = entry.graph.exceptional_ids()
        for comp in entry.graph.components(ids):
            sub = sorted(comp)
            matrix, _ = entry.graph.intersection_matrix(sub)
            if not definiteness(matrix).is_negative_definite:
                continue
            z, pa = fundamental_cycle(entry.graph, sub)
            assert pa == 0, entry.name
            idset = set(sub)
            for vid in sub:
                assert cycle_dot_restricted(entry.graph, z, vid, idset) <= 0
                assert z.coeff(vid) >= 1


def assert_matches_laufer_oracle(g, subset=None):
    """Same cycle, same genus (as a Fraction), or the same exception type."""
    try:
        expected = laufer_oracle(g, subset)
    except Exception as exc:
        with pytest.raises(type(exc)):
            fundamental_cycle(g, subset)
        return None
    z, pa = fundamental_cycle(g, subset)
    assert (z, pa) == expected and type(pa) is Fraction
    assert all(type(c) is Fraction for c in z.coefficients.values())
    return z, pa


BLOWUP_BASES = [DualGraph("smooth", [], {})] + [
    ade_graph(family, rank)
    for family, rank in [("A", 1), ("A", 4), ("D", 4), ("D", 6), ("E", 6), ("E", 7), ("E", 8)]
]


def test_fundamental_cycle_matches_oracle_on_point_blowups():
    rng = random.Random(3)
    for i in range(24):
        base = BLOWUP_BASES[i % len(BLOWUP_BASES)]
        g = point_blowups(rng, base, rng.randint(1, 40))
        z, pa = assert_matches_laufer_oracle(g)
        assert pa == 0, g
        # in lowest terms, and meeting no curve positively (Laufer 1972)
        assert_lowest_terms([*z.coefficients.values(), pa])
        assert all(cycle_dot(g, z, vid) <= 0 for vid in g.ids())


def test_fundamental_cycle_matches_oracle_on_ade_graphs():
    for family, ranks in [("A", range(1, 13)), ("D", range(4, 13)), ("E", (6, 7, 8))]:
        for rank in ranks:
            _, pa = assert_matches_laufer_oracle(ade_graph(family, rank))
            assert pa == 0


def test_fundamental_cycle_matches_oracle_on_random_trees():
    rng = random.Random(4)
    checked = 0
    while checked < 30:
        g = random_tree_graph(rng, rng.randint(2, 16), weights=(-1, -2, -2, -3, -4))
        matrix, _ = g.intersection_matrix()
        if not definiteness(matrix).is_negative_definite:
            continue
        assert_matches_laufer_oracle(g)
        checked += 1


def test_fundamental_cycle_matches_oracle_on_errors():
    text = "graph g\nv a -2\nv b -2\nv c -2\nv d -2\nv t ~\ne a b\ne b c\ne a c\ne a t\n"
    g = parse(text).graph
    for subset in ([], ["a", "d"], ["a", "b", "c"], ["a", "t"], ["a", "nope"]):
        assert assert_matches_laufer_oracle(g, subset) is None
    assert assert_matches_laufer_oracle(g, ["a", "b"]) == (Cycle({"a": F(1), "b": F(1)}), 0)


def test_fundamental_cycle_invariant_under_relabelling():
    rng = random.Random(5)
    for i in range(20):
        g = point_blowups(rng, BLOWUP_BASES[i % len(BLOWUP_BASES)], rng.randint(5, 60))
        relabelled, names = relabel(g, rng)
        z, pa = fundamental_cycle(g)
        rz, rpa = fundamental_cycle(relabelled)
        assert rpa == pa
        assert rz == Cycle({names[vid]: c for vid, c in z.coefficients.items()})


def test_fundamental_cycle_of_a_400_curve_blowup():
    g = point_blowups(random.Random(6), BLOWUP_BASES[0], 400)
    z, pa = fundamental_cycle(g)
    ids = g.exceptional_ids()
    assert len(ids) == 400 and pa == 0
    for vid in ids:
        assert z.coeff(vid) >= 1
        assert cycle_dot(g, z, vid) <= 0


def test_all_components_rational_on_accepted_targets():
    for name, entry in entries_by_name().items():
        if name.startswith(("classification/", "pullbacks/", "duval/")):
            assert all_components_rational(entry.graph), name


def test_mumford_pullback_disjoint_attachment_is_zero():
    g = parse("graph g\nv a -2\nv b -2\nv t ~\ne a b\n").graph
    z = mumford_pullback(g, Cycle({"t": F(1)}), ["a", "b"])
    assert not z.coefficients


def test_mumford_pullback_e6_section():
    entry = entries_by_name()["pullbacks/e6-section"]
    result = mumford_pullback(entry.graph, entry.cycles["src"])
    assert result == entry.cycles["mult"]


@pytest.mark.parametrize("m", [5, 7, 9, 11])
def test_mumford_pullback_double_cover_members(m):
    entry = entries_by_name()[f"pullbacks/dm-{m}"]
    g = entry.graph
    for src, mult in (("src-x", "mult-x"), ("src-y", "mult-y"), ("src-g", "mult-g")):
        result = mumford_pullback(g, entry.cycles[src])
        assert result == entry.cycles[mult], (m, src)
        # self-verifying postcondition, independently of the solve
        total = entry.cycles[src] + result
        for vid in g.complete_ids():
            assert cycle_dot(g, total, vid) == 0


def test_mumford_pullback_postcondition_on_random_graphs():
    rng = random.Random(1618)
    done = 0
    while done < 80:
        g = random_tree_graph(rng, rng.randint(2, 6), weights=(-2, -3, -4))
        matrix, _ = g.intersection_matrix()
        if not definiteness(matrix).is_negative_definite:
            continue
        from resgraph.graph import DualGraph, Vertex, VertexKind

        anchor = rng.choice(g.ids())
        extended = DualGraph(
            g.name,
            list(g.vertices) + [Vertex("t", VertexKind.TRANSVERSAL, None)],
            {**g.edges(), ("t", anchor) if "t" <= anchor else (anchor, "t"): 1},
        )
        attached = Cycle({"t": F(rng.randint(1, 3), rng.randint(1, 2))})
        result = mumford_pullback(extended, attached, g.ids())
        total = attached + result
        for vid in g.ids():
            assert cycle_dot(extended, total, vid) == 0
        done += 1


def test_numerically_trivial_examples():
    by_name = entries_by_name()
    g = by_name["classification/d5-target"].graph
    assert numerically_trivial(g, Cycle({}))
    assert numerically_trivial(g, by_name["classification/d5-target"].cycles["base-pullback"])
    conic = by_name["classification/conic-fiber"]
    assert numerically_trivial(conic.graph, conic.cycles["fiber"])
    assert not numerically_trivial(g, Cycle({"a": F(1)}))


def test_pinned_propagation_matches_printed_values():
    entry = entries_by_name()["rejected/chain-tail-1"]
    g = entry.graph
    pins = dict(entry.cycles["pinned"].coefficients)
    known_side = [v for v in g.exceptional_ids() if v != "t1"]
    result = pinned_codiscrepancies(g, pins, known_side)
    assert result.values["d"] == F(5, 4)
    assert result.values["b"] == F(1)
    assert result.values["a"] == F(1, 2)
    assert result.values["i"] == F(3, 4)


def test_free_solve_on_rejection_fixture_is_positive_but_inconsistent():
    """The unconstrained system on the rejected configurations has a unique
    all-positive solution whose denominators do not divide 4; the rejection
    only appears against the pinned blowup values."""
    entry = entries_by_name()["rejected/chain-tail-1"]
    free = codiscrepancies(entry.graph)
    assert free.values == {
        "t1": F(2, 5),
        "r": F(4, 5),
        "d": F(1),
        "c": F(6, 5),
        "b": F(4, 5),
        "a": F(2, 5),
        "i": F(3, 5),
    }
    assert free.all_nonnegative
    assert not denominator_filter(free, 4)
    assert not pinned_consistent(entry.graph, entry.cycles["pinned"].coefficients)


def test_pinned_values_consistent_on_accepted_targets():
    by_name = entries_by_name()
    for name in (
        "classification/a2-target",
        "classification/smooth-target",
        "classification/d4-target",
        "classification/conic-fiber",
        "classification/d5-target",
        "classification/e6-target",
    ):
        entry = by_name[name]
        assert pinned_consistent(entry.graph, entry.cycles["pinned"].coefficients), name


def test_implied_tail_start_values():
    by_name = entries_by_name()
    for n in (1, 2, 3):
        for family, want in (("chain-tail", F(-3, 4)), ("fork-tail", F(-3, 4))):
            entry = by_name[f"rejected/{family}-{n}"]
            pins = entry.cycles["pinned"].coefficients
            assert implied_tail_start(entry.graph, "r", pins) == want
    conic = by_name["rejected/conic-chain-tail"]
    assert implied_tail_start(conic.graph, "r", conic.cycles["pinned"].coefficients) == F(-1, 2)


def test_implied_tail_start_validation():
    entry = entries_by_name()["rejected/chain-tail-1"]
    pins = dict(entry.cycles["pinned"].coefficients)
    with pytest.raises(UnsupportedTail):
        implied_tail_start(entry.graph, "t1", pins)  # t1 carries no pin
    with pytest.raises(UnsupportedTail):
        # pinning every vertex leaves no tail at all
        everything = {vid: F(0) for vid in entry.graph.exceptional_ids()}
        implied_tail_start(entry.graph, "r", {**everything, "r": F(3, 2)})


def test_implied_tail_start_unsupported_shapes():
    # the root must lie in the subset, the exceptional curves
    g = parse("graph g\nv r -3 cen\nv t -2\nv p -2\ne r t\ne r p\n").graph
    with pytest.raises(UnsupportedTail, match="not in the subset"):
        implied_tail_start(g, "r", {"r": F(1), "p": F(1)})
    # the tail must hang off the root by one simple edge
    double = parse("graph g\nv r -3\nv t -2\ne r t m=2\n").graph
    with pytest.raises(UnsupportedTail, match="single simple edge"):
        implied_tail_start(double, "r", {"r": F(1)})
    # a pinned curve next to the would-be tail puts it in a pinned component,
    # so no unpinned tail is left
    touched = parse("graph g\nv r -3\nv t -2\nv p -2\ne r t\ne t p\n").graph
    with pytest.raises(UnsupportedTail, match="found 0"):
        implied_tail_start(touched, "r", {"r": F(1), "p": F(1)})


def test_d4_target_has_three_tails_so_no_single_tail_value():
    entry = entries_by_name()["classification/d4-target"]
    with pytest.raises(UnsupportedTail):
        implied_tail_start(entry.graph, "e", entry.cycles["pinned"].coefficients)


def _values_or_error(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs).values
    except DiscrepancyError as exc:
        return type(exc)


def _subset_cases():
    rng = random.Random(20261018)
    cases = [(f"tree-{n}", random_tree_graph(rng, n)) for n in (1, 2, 7, 15, 40, 80)]
    for entry in load_catalog():
        if any(v.kind is VertexKind.CENTRAL for v in entry.graph.vertices):
            cases.append((entry.name, entry.graph))
    return cases


SUBSET_CASES = _subset_cases()


@pytest.mark.parametrize("name,g", SUBSET_CASES, ids=[name for name, _ in SUBSET_CASES])
def test_free_pinned_and_central_solves_agree(name, g):
    rng = random.Random(name)
    for central, subset in ((False, g.exceptional_ids()), (True, g.complete_ids())):
        free = _values_or_error(codiscrepancies, g, include_central=central)
        assert free == _values_or_error(pinned_codiscrepancies, g, {}, subset)
        if not definiteness(g.intersection_matrix(subset)[0]).is_negative_definite:
            continue  # a pinned subsystem of an indefinite form may be singular
        for _ in range(6):
            pins = {vid: free[vid] for vid in subset if rng.random() < 0.4}
            assert pinned_codiscrepancies(g, pins, subset).values == free
        assert pinned_codiscrepancies(g, free, subset).values == free


def test_subset_solves_raise_singular_on_a_fiber():
    by_name = entries_by_name()
    for name in ("classification/index5-fiber", "classification/conic-fiber"):
        g = by_name[name].graph
        fiber = g.complete_ids()
        with pytest.raises(SingularConfiguration):
            codiscrepancies(g, include_central=True)
        with pytest.raises(SingularConfiguration):
            pinned_codiscrepancies(g, {}, fiber)
        with pytest.raises(SingularConfiguration):
            mumford_pullback(g, Cycle({}), fiber)


def test_an_integral_graph_is_solved_without_coercing_a_number(monkeypatch):
    calls = []

    def counting_rational(value):
        calls.append(value)
        return rational(value)

    for module in (linalg, graph, discrepancy):
        monkeypatch.setattr(module, "rational", counting_rational)
    g = point_blowups(random.Random(8), DualGraph("smooth", [], {}), 60)
    m, _ = g.intersection_matrix()
    result = codiscrepancies(g)
    assert calls == [] and len(result.values) == 60
    solve(m, [F(1, 2)] * m.dimension)  # the counter is live
    assert calls


def test_every_form_the_library_builds_holds_only_ints(monkeypatch):
    """``intersection_matrix``, ``_view_form`` and the subset solve, direct
    and after its blow-downs, free and pinned, hand the kernel int rows, on
    trees, graphs with cycles and blow-ups."""
    solved = []

    def recording(M, b):
        solved.append(M)
        return solve(M, b)

    monkeypatch.setattr(discrepancy, "solve", recording)
    rng = random.Random("int rows")
    fiber = DualGraph("fiber", [Vertex("f", VertexKind.EXCEPTIONAL, 0)], {})
    graphs = [random_tree_graph(rng, n, w) for n in (5, 40) for w in ((-2, -3, -4), (-1, -2, -3))]
    graphs += [random_cyclic_graph(rng, n) for n in (10, 40)]
    graphs += [point_blowups(rng, base, 20) for base in (DualGraph("s", [], {}), fiber, ade_graph("D", 5))]
    forms = []
    for g in graphs:
        forms.append(g.intersection_matrix()[0])
        weight, nbrs, _ = g._blow_down(g.ids())
        forms.append(graph._view_form(weight, nbrs)[0])
        leaf = g.ids()[-1]
        for solve_on in (lambda: codiscrepancies(g), lambda: pinned_codiscrepancies(g, {leaf: F(-1, 3)})):
            try:
                solve_on()
            except DiscrepancyError:
                pass
    assert len(solved) == 2 * len(graphs)  # each call reached its solve
    for M in forms + solved:
        assert all(type(v) is int for row in M._rows for v in row.values())


def counting(monkeypatch, cls, name: str) -> list:
    """Record the arguments of each call of ``cls.name``, which still runs."""
    calls = []
    method = getattr(cls, name)

    def wrapper(self, *args):
        calls.append(args)
        return method(self, *args)

    monkeypatch.setattr(cls, name, wrapper)
    return calls


def subset_solves(g: DualGraph) -> None:
    """The free, pinned and pull-back solves on g, each on a valid subset."""
    first, *rest = g.exceptional_ids()
    codiscrepancies(g)
    pinned_codiscrepancies(g, {first: F(1, 2)})
    mumford_pullback(g, Cycle({first: 1}), rest)


def test_a_subset_with_no_minus_one_curve_is_solved_as_it_stands(monkeypatch):
    """The subset solve blows down only when a (-1)-curve is among the
    unknowns: on an ADE graph none of the three solves runs ``_blow_down``,
    and on a blow-up of one each of them runs it once."""
    calls = counting(monkeypatch, DualGraph, "_blow_down")
    rng = random.Random("as it stands")
    for base in (ade_graph("A", 6), ade_graph("D", 9), ade_graph("E", 8)):
        subset_solves(base)
        assert calls == [], base.name
        subset_solves(point_blowups(rng, base, 4))
        assert len(calls) == 3, base.name
        calls.clear()


def test_a_valid_subset_is_checked_in_the_one_pass(monkeypatch):
    """The pass that builds the rows checks every id of a valid subset;
    ``intersection_matrix`` runs only to name a bad or repeated id."""
    calls = counting(monkeypatch, DualGraph, "intersection_matrix")
    rng = random.Random("one pass")
    for base in (ade_graph("A", 6), ade_graph("D", 9), ade_graph("E", 8)):
        for g in (base, point_blowups(rng, base, 4)):
            subset_solves(g)
            assert calls == [], g.name
    g = ade_graph("A", 3)
    # an empty subset is valid: its unique solution is empty
    assert pinned_codiscrepancies(g, {}, []) == CodiscrepancyResult({}, True, 1)
    for subset in (["v1", "nope"], ["v1", "v2", "v1"]):
        with pytest.raises(graph.GraphError):
            pinned_codiscrepancies(g, {}, subset)
    assert calls == [(["v1", "nope"],), (["v1", "v2", "v1"],)]


TREE_CORPUS = Path(__file__).resolve().parent / "data" / "tree_corpus.json"


def _tree_cases():
    """(graph, pinned leaves) for 100 random trees of n = 5 ... 80 curves,
    each with a transversal germ ``t`` on one curve; every fourth tree also
    draws (-1)-curves, so its solves blow down first."""
    rng = random.Random(1989)
    for i in range(100):
        n = 5 + 75 * i // 99
        weights = (-1, -2, -3, -4, -5) if i % 4 == 3 else (-2, -3, -4, -5)
        tree = random_tree_graph(rng, n, weights, name=f"tree{i}")
        edges = tree.edges()
        edges[(f"n{rng.randrange(n)}", "t")] = 1
        g = DualGraph(tree.name, [*tree.vertices, Vertex("t", VertexKind.TRANSVERSAL, None)], edges)
        leaves = [vid for vid in tree.ids() if len(tree.neighbors(vid)) == 1]
        yield g, sorted(rng.sample(leaves, min(3, len(leaves))))


def _repr_or_error(fn, *args):
    try:
        return repr(fn(*args))
    except DiscrepancyError as exc:
        return f"{type(exc).__name__}: {exc}"


def _tree_record(g: DualGraph, leaves: list[str]) -> list[str]:
    """The reprs (or errors) of the free solve, the solve with the leaves
    pinned at their free values, and the pull-back of ``t = 1``."""
    try:
        free = codiscrepancies(g)
    except DiscrepancyError as exc:
        free, pinned = f"{type(exc).__name__}: {exc}", None
    else:
        pins = {vid: free.values[vid] for vid in leaves}
        free, pinned = repr(free), _repr_or_error(pinned_codiscrepancies, g, pins)
    return [g.name, free, pinned, _repr_or_error(mumford_pullback, g, Cycle({"t": 1}))]


def test_tree_solves_replay_the_recorded_corpus():
    """Every tree solve gives the recorded result, repr for repr: values,
    their order and each error's message. After an intended change,
    re-record with

        PYTHONPATH=src python tests/test_discrepancy.py

    which prints each record that changed; name them in the change log."""
    recorded = json.loads(TREE_CORPUS.read_text(encoding="utf-8"))
    cases = list(_tree_cases())
    assert len(recorded) == len(cases) == 100
    for (g, leaves), want in zip(cases, recorded):
        assert _tree_record(g, leaves) == want, g.name


def record_tree_corpus() -> None:
    old = json.loads(TREE_CORPUS.read_text(encoding="utf-8")) if TREE_CORPUS.exists() else []
    new = [_tree_record(g, leaves) for g, leaves in _tree_cases()]
    for i, record in enumerate(new):
        if i >= len(old) or old[i] != record:
            print(f"changed: record {i}: {record[0]}")
    TREE_CORPUS.write_text("\n".join(["["] + [
        json.dumps(r) + ("," if i < len(new) - 1 else "") for i, r in enumerate(new)
    ] + ["]"]) + "\n", encoding="utf-8")


if __name__ == "__main__":
    record_tree_corpus()
