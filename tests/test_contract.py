import itertools
import random

import pytest

from resgraph.catalog import load_catalog
from resgraph.contract import (
    ADEType,
    CurveFiber,
    DisconnectedGraph,
    DuValPoint,
    NoCompleteVertices,
    NotContractible,
    NotMinusOne,
    SmoothPoint,
    blow_down_once,
    classify,
    contract_minus_ones,
    recognize_duval,
)
from resgraph.graph import Cycle, DualGraph, Vertex, VertexKind, cycle_dot, parse
from resgraph.linalg import NEGATIVE_DEFINITE, definiteness
from util import (
    ade_graph,
    arithmetic_genus,
    classify_components,
    complete_definiteness,
    contract_oracle,
    dense_definiteness,
    dense_rows,
    point_blowups,
    random_tree_graph,
    relabel,
)


def entries_by_name():
    return {e.name: e for e in load_catalog()}


def test_blow_down_isolated_minus_one_gives_empty_graph():
    g = parse("graph g\nv a -1\n").graph
    assert blow_down_once(g, "a").vertices == ()


def test_blow_down_chain_end():
    g = parse("graph g\nv a -1\nv b -2\ne a b\n").graph
    out = blow_down_once(g, "a")
    assert out.ids() == ["b"]
    assert out.vertex("b").self_int == -1


def test_blow_down_multiplicity_squares():
    g = parse("graph g\nv a -1\nv b -3\nv c -2\ne a b m=2\ne a c\n").graph
    out = blow_down_once(g, "a")
    assert out.vertex("b").self_int == -3 + 4
    assert out.vertex("c").self_int == -1
    assert out.multiplicity("b", "c") == 2


def test_blow_down_carries_transversals():
    g = parse("graph g\nv a -1\nv b -2\nv t ~\ne a b\ne a t\n").graph
    out = blow_down_once(g, "a")
    assert out.vertex("t").self_int is None
    assert out.multiplicity("b", "t") == 1


def test_blow_down_errors():
    g = parse("graph g\nv a -2\nv t ~\n").graph
    with pytest.raises(NotMinusOne):
        blow_down_once(g, "a")
    from resgraph.contract import NotComplete

    with pytest.raises(NotComplete):
        blow_down_once(g, "t")


def test_full_contraction_of_index5_graph_step_by_step():
    """Hand-checked contraction order for the ten-vertex fiber graph; each
    step contracts the stated vertex and the survivor's self-intersections
    follow the multiplicity-square rule down to a single zero-curve."""
    entry = entries_by_name()["classification/index5-fiber"]
    g = entry.graph
    steps = ["z", "a", "b", "c", "p", "d", "q", "e", "r"]
    for vid in steps:
        g = blow_down_once(g, vid)
    assert g.complete_ids() == ["f"]
    assert g.vertex("f").self_int == 0


def test_contract_minus_ones_is_deterministic():
    entry = entries_by_name()["classification/smooth-target"]
    residual = contract_minus_ones(entry.graph)
    assert residual.complete_ids() == []


def test_classify_catalog_targets():
    by_name = entries_by_name()
    expectations = {
        "classification/a2-target": "DuValPoint(A2)",
        "classification/smooth-target": "SmoothPoint",
        "classification/d4-target": "DuValPoint(D4)",
        "classification/conic-fiber": "CurveFiber",
        "classification/index5-fiber": "CurveFiber",
        "classification/d5-target": "DuValPoint(D5)",
        "classification/e6-target": "DuValPoint(E6)",
        "rejected/double-minus3-bridge": "NotContractible",
    }
    for name, want in expectations.items():
        assert classify(by_name[name].graph).render() == want, name


def test_classify_one_minus_one_vertex_is_smooth_point():
    g = parse("graph g\nv a -1\n").graph
    assert isinstance(classify(g), SmoothPoint)


def test_classify_requires_complete_vertices():
    g = parse("graph g\nv t ~\n").graph
    with pytest.raises(NoCompleteVertices):
        classify(g)
    with pytest.raises(NoCompleteVertices):
        classify_components(g)


def test_classify_disconnected_raises_and_components_work():
    g = parse("graph g\nv a -1\nv b -2\n").graph
    with pytest.raises(DisconnectedGraph):
        classify(g)
    outcomes = classify_components(g)
    assert outcomes["a"].render() == "SmoothPoint"
    assert outcomes["b"].render() == "DuValPoint(A1)"


def test_classify_affine_star_is_not_contractible():
    # four (-2)-legs on a (-2)-core: corank one, positive kernel, but no
    # (-1)-curve ever appears, so it is not a fiber
    g = parse(
        "graph g\nv k -2\nv a -2\nv b -2\nv c -2\nv d -2\n"
        "e k a\ne k b\ne k c\ne k d\n"
    ).graph
    out = classify(g)
    assert isinstance(out, NotContractible)
    assert "zero-curve" in out.reason


def test_fiber_cycle_matches_frozen_kernels():
    by_name = entries_by_name()
    for name in ("classification/conic-fiber", "classification/index5-fiber"):
        entry = by_name[name]
        out = classify(entry.graph)
        assert isinstance(out, CurveFiber)
        assert out.fiber == entry.cycles["fiber"]
        # independent check: the kernel cycle pairs to zero everywhere and
        # has arithmetic genus zero
        for vid in entry.graph.complete_ids():
            assert cycle_dot(entry.graph, out.fiber, vid) == 0
        assert arithmetic_genus(entry.graph, out.fiber) == 0


def test_recognize_duval_examples():
    single = parse("graph g\nv a -2\n").graph
    assert recognize_duval(single) == ADEType("A", 1)

    star = parse("graph g\nv k -2\nv a -2\nv b -2\nv c -2\ne k a\ne k b\ne k c\n").graph
    assert recognize_duval(star) == ADEType("D", 4)

    bad = parse("graph g\nv a -2\nv b -3\ne a b\n").graph
    assert recognize_duval(bad) is None


def test_recognize_duval_rejects_cycles_multiedges_disconnected():
    loop = parse("graph g\nv a -2\nv b -2\nv c -2\ne a b\ne b c\ne a c\n").graph
    assert recognize_duval(loop) is None
    double = parse("graph g\nv a -2\nv b -2\ne a b m=2\n").graph
    assert recognize_duval(double) is None
    disconnected = parse("graph g\nv a -2\nv b -2\n").graph
    assert recognize_duval(disconnected) is None


def test_recognize_duval_of_no_curve_is_none():
    g = parse("graph g\nv a -2\nv t ~\ne a t\n").graph
    assert recognize_duval(g, []) is None
    assert recognize_duval(parse("graph g\nv t ~\n").graph) is None


@pytest.mark.parametrize(
    "edges",
    [
        # two forks: a chain a-b-c-d with a leg on b and one on c
        "e a b\ne b c\ne c d\ne b x\ne c y\n",
        # one fork of degree four
        "e k a\ne k b\ne k c\ne k d\n",
        # one fork with legs (2, 2, 2)
        "e k a1\ne a1 a2\ne k b1\ne b1 b2\ne k c1\ne c1 c2\n",
        # one fork with arms (1, 2, 5), one curve past E8
        "e k a1\ne k b1\ne b1 b2\ne k c1\ne c1 c2\ne c2 c3\ne c3 c4\ne c4 c5\n",
        # one fork with arms (1, 3, 3)
        "e k a1\ne k b1\ne b1 b2\ne b2 b3\ne k c1\ne c1 c2\ne c2 c3\n",
    ],
)
def test_recognize_duval_rejects_trees_of_no_ade_shape(edges):
    names = sorted({vid for line in edges.split("\n") for vid in line.split()[1:]})
    text = "graph g\n" + "".join(f"v {vid} -2\n" for vid in names) + edges
    assert recognize_duval(parse(text).graph) is None


def test_classify_components_keeps_touching_transversals():
    g = parse(
        "graph g\nv a -3\nv b -3\nv s ~\nv t ~\nv u ~\ne a s\ne b t\n"
    ).graph
    outcomes = classify_components(g)
    assert sorted(outcomes) == ["a", "b"]
    # a lone (-3)-curve is a rational point; its residual is the component
    # plus the germ that meets it, and no other germ
    assert outcomes["a"].residual.ids() == ["a", "s"]
    assert outcomes["b"].residual.ids() == ["b", "t"]
    assert outcomes["b"].residual.edges() == {("b", "t"): 1}


def test_recognize_duval_all_builtin_shapes():
    for family, rank in [("A", 1), ("A", 5), ("D", 4), ("D", 7), ("E", 6), ("E", 7), ("E", 8)]:
        g = ade_graph(family, rank)
        assert recognize_duval(g) == ADEType(family, rank)


def test_blow_down_preserves_definiteness_on_catalog():
    for entry in load_catalog():
        g = entry.graph
        candidates = [v.id for v in g.vertices if v.complete and v.self_int == -1]
        if not candidates:
            continue
        before = complete_definiteness(g)
        after = complete_definiteness(blow_down_once(g, candidates[0]))
        assert before.render() == after.render()


def test_blow_down_preserves_definiteness_on_random_graphs():
    rng = random.Random(555)
    done = 0
    while done < 60:
        g = random_tree_graph(rng, rng.randint(2, 7), weights=(-1, -2, -3, -4))
        candidates = [v.id for v in g.vertices if v.self_int == -1]
        if not candidates:
            continue
        before = complete_definiteness(g)
        after = complete_definiteness(blow_down_once(g, rng.choice(candidates)))
        assert before.render() == after.render()
        done += 1


def test_classify_outcome_is_order_independent_on_catalog():
    rng = random.Random(2468)
    for entry in load_catalog():
        base = classify(entry.graph)
        for _ in range(5):
            renamed, names = relabel(entry.graph, rng)
            other = classify(renamed)
            assert other.render() == base.render()
            if isinstance(base, CurveFiber):
                assert other.fiber == Cycle({names[v]: c for v, c in base.fiber.coefficients.items()})
            if isinstance(base, DuValPoint):
                assert other.ade == base.ade


def test_classify_invariant_under_relabeling():
    rng = random.Random(13579)
    g = entries_by_name()["classification/d4-target"].graph
    base = classify(g).render()
    for _ in range(10):
        assert classify(relabel(g, rng)[0]).render() == base


def test_curve_fiber_graphs_are_corank_one_negative_semidefinite():
    by_name = entries_by_name()
    for name in ("classification/conic-fiber", "classification/index5-fiber"):
        res = complete_definiteness(by_name[name].graph)
        assert res.render() == "NegativeSemidefiniteCorank(1)"
        assert all(c > 0 for c in res.kernel[0])


def test_fiber_definiteness_against_brute_force_minor_oracle():
    """Independent oracle for the corank-one claim: every principal minor of
    the negated intersection matrix is nonnegative, the full determinant
    vanishes, and some maximal proper principal minor is positive."""
    from util import det, negated, psd_by_minors

    by_name = entries_by_name()
    for name in ("classification/conic-fiber", "classification/index5-fiber"):
        matrix, order = by_name[name].graph.intersection_matrix()
        neg = negated(matrix)
        assert psd_by_minors(neg)
        n = matrix.dimension
        assert det(dense_rows(neg)) == 0
        proper = [
            det([[neg[i, j] for j in range(n) if j != k] for i in range(n) if i != k])
            for k in range(n)
        ]
        assert any(m > 0 for m in proper)


def test_classify_other_rational_point():
    g = parse("graph g\nv a -3\n").graph
    out = classify(g)
    assert out.render() == "RationalPoint"
    assert out.residual.vertex("a").self_int == -3


def test_negative_definite_catalog_targets():
    by_name = entries_by_name()
    for name in (
        "classification/a2-target",
        "classification/smooth-target",
        "classification/d4-target",
        "classification/d5-target",
        "classification/e6-target",
    ):
        assert complete_definiteness(by_name[name].graph).kind == NEGATIVE_DEFINITE


def test_not_contractible_bridge_is_length_independent():
    # the same double -3 bridge with middle chains of other lengths
    for middles in range(1, 5):
        lines = [
            "graph bridge",
            "v a -3",
            "v b -3",
            "v p -3",
            "v e -3",
            "v f -2",
            "v g -2",
            "v h -2",
            "v i -2",
            "v z -1 cen",
            "e a b",
            "e b p",
            "e e f",
            "e f g",
            "e f i",
            "e g h",
            "e i z",
        ]
        prev = "b"
        for k in range(middles):
            lines.insert(9, f"v m{k} -2")
            lines.append(f"e {prev} m{k}")
            prev = f"m{k}"
        lines.append(f"e {prev} e")
        g = parse("\n".join(lines) + "\n").graph
        out = classify(g)
        assert isinstance(out, NotContractible)
        assert complete_definiteness(g).kind == "Indefinite"


# -- contract_minus_ones against the iterated blow_down_once oracle ---------


def assert_contracts_like_oracle(g: DualGraph, seed: int) -> None:
    """Same residual bit for bit (name, vertex tuple, edge items in order,
    every adjacency, the input object itself when nothing contracts), on g
    and on a copy relabelled with the seed, which contracts in another
    order."""
    for h in (g, relabel(g, random.Random(seed))[0]):
        got = contract_minus_ones(h)
        want = contract_oracle(h)
        assert (got is h) == (want is h)
        assert got.name == want.name
        assert got.vertices == want.vertices
        assert list(got.edges().items()) == list(want.edges().items())
        for vid in want.ids():
            assert got.neighbors(vid) == want.neighbors(vid)


CONTRACTION_BASES = [DualGraph("smooth", [], {})] + [
    ade_graph(family, rank)
    for family, rank in [("A", 1), ("A", 5), ("D", 4), ("D", 7), ("E", 6), ("E", 7), ("E", 8)]
]


def with_transversals(rng: random.Random, g: DualGraph, count: int) -> DualGraph:
    """g plus ``count`` transversal germs, each on a random curve with
    multiplicity 1 or 2."""
    ids = g.ids()
    vertices = list(g.vertices) + [
        Vertex(f"t{j}", VertexKind.TRANSVERSAL, None) for j in range(count)
    ]
    edges = dict(g.edges())
    for j in range(count):
        key = tuple(sorted((f"t{j}", rng.choice(ids))))
        edges[key] = edges.get(key, 0) + rng.choice((1, 2))
    return DualGraph(g.name, vertices, edges)


@pytest.mark.parametrize("base", CONTRACTION_BASES, ids=lambda b: b.name)
def test_contract_minus_ones_matches_oracle_on_point_blowups(base):
    rng = random.Random(f"contract:{base.name}")
    for i in range(30):
        g = point_blowups(rng, base, rng.randint(1, 60))
        if i % 2:
            g = with_transversals(rng, g, rng.randint(1, 3))
        assert_contracts_like_oracle(g, seed=i)


def test_contract_minus_ones_matches_oracle_on_catalog():
    entries = load_catalog()
    assert len(entries) == 22
    for i, entry in enumerate(entries):
        assert_contracts_like_oracle(entry.graph, seed=i)


HAND_BUILT = {
    # the transversal neighbour gains no weight but joins the other neighbour
    "transversal-neighbour": "v a -1\nv b -2 label=side\nv t ~\ne a b\ne a t\n",
    # two transversal germs on one (-1)-curve meet after the blow-down
    "transversal-pair": "v a -1\nv b -3 cen\nv s ~\nv t ~\ne a b\ne a s m=2\ne a t\n",
    # m = 2 squares into the weight and multiplies into the new edge
    "double-edge": "v a -1\nv b -5\nv c -2\ne a b m=2\ne a c\n",
    # three neighbours of one (-1)-curve become a triangle
    "cycle": "v a -1\nv b -3\nv c -3\nv d -3\ne a b\ne a c\ne a d\n",
    # after a goes, b is a 0-curve and must not be contracted
    "adjacent-minus-ones": "v a -1\nv b -1\nv c -2\ne a b\ne b c\n",
    "nothing-to-do": "v a -2\nv t ~\ne a t\n",
}


@pytest.mark.parametrize("name", sorted(HAND_BUILT))
def test_contract_minus_ones_matches_oracle_on_hand_built_cases(name):
    g = parse(f"graph {name}\n" + HAND_BUILT[name]).graph
    assert_contracts_like_oracle(g, seed=len(name))


def test_contract_minus_ones_hand_built_residuals():
    def residual(name):
        return contract_minus_ones(parse(f"graph {name}\n" + HAND_BUILT[name]).graph)

    out = residual("transversal-pair")
    assert out.ids() == ["b", "s", "t"] and out.vertex("b").self_int == -2
    assert out.edges() == {("b", "s"): 2, ("b", "t"): 1, ("s", "t"): 2}
    out = residual("cycle")
    assert [out.vertex(v).self_int for v in "bcd"] == [-2, -2, -2]
    assert out.edges() == {("b", "c"): 1, ("b", "d"): 1, ("c", "d"): 1}
    out = residual("adjacent-minus-ones")
    assert out.ids() == ["b", "c"] and out.vertex("b").self_int == 0
    assert residual("transversal-neighbour").ids() == ["t"]


def test_contract_minus_ones_builds_one_graph(monkeypatch):
    g = point_blowups(random.Random(6), DualGraph("smooth", [], {}), 400)
    builds = []
    fill = DualGraph._fill  # every build, checked or not, ends there

    def counting_fill(self, *args, **kwargs):
        builds.append(args[0])
        fill(self, *args, **kwargs)

    monkeypatch.setattr(DualGraph, "_fill", counting_fill)
    residual = contract_minus_ones(g)
    assert residual.vertices == ()
    assert builds == ["smooth"]


def _connected_configurations(n: int, weights, mults, choose=None):
    """Graphs on n complete curves with the given self-intersections and
    pairwise multiplicities (0 is no edge) whose curves are connected: all
    of them, or ``choose(candidates)`` per weight vector."""
    ids = [f"c{i}" for i in range(n)]
    pairs = list(itertools.combinations(ids, 2))
    edge_sets = []
    for ms in itertools.product(mults, repeat=len(pairs)):
        edges = {pair: m for pair, m in zip(pairs, ms) if m}
        graph = DualGraph("g", [Vertex(v, VertexKind.EXCEPTIONAL, -1) for v in ids], edges)
        if len(graph.components()) == 1:
            edge_sets.append(edges)
    for ws in itertools.product(weights, repeat=n):
        for edges in edge_sets if choose is None else choose(edge_sets):
            vertices = [Vertex(v, VertexKind.EXCEPTIONAL, w) for v, w in zip(ids, ws)]
            yield DualGraph("g", vertices, edges)


def _cyclic_fiber(n: int) -> DualGraph:
    """A cycle of n (-2)-curves (for n = 2, two curves meeting twice)."""
    ids = [f"a{i}" for i in range(n)]
    edges = {(ids[0], ids[1]): 2} if n == 2 else {
        tuple(sorted((ids[i], ids[(i + 1) % n]))): 1 for i in range(n)
    }
    return DualGraph("g", [Vertex(v, VertexKind.EXCEPTIONAL, -2) for v in ids], edges)


def test_connected_semidefinite_forms_have_corank_one_and_a_positive_kernel():
    """Zariski's lemma: a connected configuration whose form is negative
    semidefinite has corank 1 and a kernel vector with every coefficient
    positive, so classify needs no other semidefinite outcome. Checked
    against the dense oracle on every connected configuration of up to three
    curves (self-intersections -1..-4, multiplicities up to 2), a seeded
    sample of four-curve ones, and point blow-ups of cyclic fibers and of a
    0-curve."""
    rng = random.Random(7)
    weights, mults = (-1, -2, -3, -4), (0, 1, 2)
    graphs = [g for n in (1, 2, 3) for g in _connected_configurations(n, weights, mults)]
    graphs += _connected_configurations(4, weights, mults, lambda es: rng.sample(es, 3))
    for k in range(1, 61):
        base = _cyclic_fiber(rng.randint(2, 6))
        graphs.append(point_blowups(rng, base, k % 12, prefix="x"))
    zero_curve = DualGraph("g", [Vertex("f", VertexKind.EXCEPTIONAL, 0)], {})
    graphs += [point_blowups(rng, zero_curve, k) for k in range(1, 41)]
    semidefinite = 0
    for g in graphs:
        matrix, _ = g.intersection_matrix()
        res = definiteness(matrix)
        assert (res.kind, res.corank, res.kernel) == dense_definiteness(matrix)
        if res.is_negative_semidefinite:
            semidefinite += 1
            assert res.corank == 1 and all(c > 0 for c in res.kernel[0])
            out = classify(g)
            assert isinstance(out, CurveFiber) or out == NotContractible(
                "semidefinite with positive kernel but blow-down does not end in a zero-curve"
            )
    assert semidefinite >= 150
