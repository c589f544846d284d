"""``classify``, ``fundamental_cycle`` and the subset solve behind
``codiscrepancies``, ``pinned_codiscrepancies`` and ``mumford_pullback`` blow
down every (-1)-curve before any linear algebra, and work on the residual.
These tests hold them to the old whole-form computations
(``classify_oracle``, ``laufer_oracle``, a solve of the whole subset), count
the size of what they eliminate, and replay the blow-down record through the
one-step reference ``blow_down_once``."""

import random
import sys
from fractions import Fraction

import pytest

from resgraph import discrepancy, linalg
from resgraph import graph as graph_module
from resgraph.catalog import load_catalog
from resgraph.contract import (
    ContractionError,
    CurveFiber,
    DuValPoint,
    NotContractible,
    RationalPoint,
    blow_down_once,
    classify,
    contract_minus_ones,
    contracts_to_zero_curve,
)
from resgraph.discrepancy import (
    DiscrepancyError,
    SingularConfiguration,
    codiscrepancies,
    fundamental_cycle,
    mumford_pullback,
    pinned_codiscrepancies,
)
from resgraph.graph import Cycle, DualGraph, GraphError, Vertex, VertexKind, parse, serialize
from util import (
    ade_graph,
    classify_oracle,
    contract_oracle,
    laufer_oracle,
    point_blowups,
    random_cyclic_graph,
    random_tree_graph,
    relabel,
    subset_system,
)

SMOOTH = DualGraph("smooth", [], {})
FIBER = DualGraph("fiber", [Vertex("f", VertexKind.EXCEPTIONAL, 0)], {})
BASES = [SMOOTH, FIBER] + [
    ade_graph(family, rank)
    for family, rank in [("A", 1), ("A", 6), ("D", 4), ("D", 9), ("E", 6), ("E", 7), ("E", 8)]
]


def result_or_error(fn, *args):
    """The result, or the type and message of the library error raised."""
    try:
        return fn(*args)
    except (ContractionError, DiscrepancyError, GraphError) as exc:
        return type(exc), str(exc)


def blowups(seed: str, count: int, kmax: int = 80) -> list[DualGraph]:
    rng = random.Random(seed)
    return [point_blowups(rng, BASES[i % len(BASES)], rng.randint(1, kmax)) for i in range(count)]


def with_germ(rng: random.Random, g: DualGraph, germ: str = "t") -> DualGraph:
    """g plus one transversal germ on a random curve."""
    edges = dict(g.edges())
    edges[tuple(sorted((germ, rng.choice(g.ids()))))] = rng.choice((1, 2))
    return DualGraph(g.name, list(g.vertices) + [Vertex(germ, VertexKind.TRANSVERSAL, None)], edges)


# -- classify against the whole-form oracle ---------------------------------


def classify_cases() -> list[tuple[str, DualGraph]]:
    rng = random.Random("classify-oracle")
    cases = [(f"blowup-{i}", g) for i, g in enumerate(blowups("classify-blowups", 36))]
    cases += [(f"blowup-germ-{i}", with_germ(rng, g)) for i, g in enumerate(blowups("germs", 9, 40))]
    cases += [
        (f"tree-12-{n}", random_tree_graph(rng, n, weights=(-1, -2)))
        for n in (1, 2, 3, 5, 8, 13, 21, 34, 55, 80)
    ]
    # the affine D4 star: semidefinite, and no blow-down reaches a 0-curve
    star = parse("graph star\nv k -2\nv a -2\nv b -2\nv c -2\nv d -2\ne k a\ne k b\ne k c\ne k d\n")
    cases += [(f"affine-star-{k}", point_blowups(rng, star.graph, k)) for k in (0, 1, 7, 30)]
    cases += [(f"cyclic-{n}", random_cyclic_graph(rng, n)) for n in (10, 20, 40)]
    cases += [
        (f"cyclic-123-{n}", random_cyclic_graph(rng, n, weights=(-1, -2, -3)))
        for n in (10, 20, 30, 40)
    ]
    cases += [(entry.name, entry.graph) for entry in load_catalog()]
    return cases


CLASSIFY_CASES = classify_cases()


@pytest.mark.parametrize("name,g", CLASSIFY_CASES, ids=[name for name, _ in CLASSIFY_CASES])
def test_classify_equals_the_whole_form_oracle(name, g):
    assert result_or_error(classify, g) == result_or_error(classify_oracle, g)


def test_the_classify_cases_reach_every_outcome():
    kinds = {type(classify(g)).__name__ for _, g in CLASSIFY_CASES}
    assert kinds == {"SmoothPoint", "DuValPoint", "RationalPoint", "CurveFiber", "NotContractible"}
    reasons = {classify(g).reason for _, g in CLASSIFY_CASES if isinstance(classify(g), NotContractible)}
    assert any("indefinite" in r for r in reasons) and any("zero-curve" in r for r in reasons)


def test_an_indefinite_form_is_named_after_its_blow_downs():
    # [[-1, 2], [2, -1]] is indefinite; a goes first and leaves b at 3
    g = parse("graph g\nv a -1\nv b -1\ne a b m=2\n").graph
    assert classify(g) == NotContractible("intersection form is indefinite")
    assert contract_minus_ones(g).vertices == (Vertex("b", VertexKind.EXCEPTIONAL, 3),)


# -- fundamental_cycle against Laufer's loop on the whole subset ------------


def assert_laufer_oracle_holds(g, subset=None):
    """Same cycle and genus, or the same exception type and message."""
    got, want = result_or_error(fundamental_cycle, g, subset), result_or_error(laufer_oracle, g, subset)
    if isinstance(want, tuple) and isinstance(want[0], type):
        # the oracle raises the base class where the library names the case
        assert issubclass(got[0], want[0]) and got[1] == want[1]
    else:
        assert got == want
    return got


def test_fundamental_cycle_equals_the_oracle_on_subsets_whose_minus_ones_meet_outside():
    rng = random.Random("laufer-subsets")
    crossing = 0
    for g in blowups("laufer-subset-graphs", 30, 60):
        keep = {vid for vid in g.ids() if rng.random() < 0.7}
        for comp in g.components(keep):
            subset = sorted(comp)
            assert_laufer_oracle_holds(g, subset)
            crossing += any(
                g.vertex(vid).self_int == -1 and any(w not in comp for w, _ in g.neighbors(vid))
                for vid in subset
            )
    assert crossing >= 20


def test_fundamental_cycle_equals_the_oracle_on_every_error():
    exc = VertexKind.EXCEPTIONAL
    vertices = [Vertex(v, exc, w) for v, w in zip("abcde", (-2, -1, -2, -2, 0))]
    edges = [("a", "b"), ("b", "c"), ("a", "c"), ("a", "t"), ("d", "e")]
    g = DualGraph("g", vertices + [Vertex("t", VertexKind.TRANSVERSAL, None)], edges)
    cases = {
        "empty": [],
        "disconnected": ["a", "d"],
        "unknown": ["a", "nope"],
        "transversal": ["a", "t"],
        "transversal after a blow-down": ["b", "c", "t", "a"],
        "indefinite": ["d", "e"],
        "indefinite after a blow-down": ["a", "b", "c"],
    }
    for name, subset in cases.items():
        got = assert_laufer_oracle_holds(g, subset)
        assert isinstance(got[0], type), name
    assert assert_laufer_oracle_holds(g, ["a", "b"])[1] == 0
    rng = random.Random("laufer-fibers")
    for k in (1, 10, 80):
        got = assert_laufer_oracle_holds(point_blowups(rng, FIBER, k))
        assert got[0].__name__ == "NotNegativeDefinite"


# -- how much linear algebra runs -------------------------------------------


def test_no_elimination_is_larger_than_the_residual(monkeypatch):
    dims, kernels, raised, builds = [], [], [], []
    eliminate, kernel_basis = linalg._eliminate, linalg.kernel_basis
    solve, fill = discrepancy.solve, DualGraph._fill  # every build ends in _fill

    def counting_eliminate(M, *args, **kwargs):
        dims.append(M.dimension)
        return eliminate(M, *args, **kwargs)

    def counting_kernel_basis(M):
        kernels.append(M.dimension)
        return kernel_basis(M)

    def counting_solve(M, b):
        try:
            return solve(M, b)
        except linalg.LinAlgError:
            raised.append(M.dimension)
            raise

    def counting_fill(self, *args, **kwargs):
        builds.append(args[0])
        fill(self, *args, **kwargs)

    monkeypatch.setattr(linalg, "_eliminate", counting_eliminate)
    monkeypatch.setattr(linalg, "kernel_basis", counting_kernel_basis)
    monkeypatch.setattr(discrepancy, "solve", counting_solve)
    monkeypatch.setattr(DualGraph, "_fill", counting_fill)
    rng = random.Random("counting")
    for base in BASES:
        g = point_blowups(rng, base, 80)
        n = len(contract_minus_ones(g).complete_ids())
        assert n == len(base.ids()) and len(g.ids()) == n + 80
        dims.clear()
        kernels.clear()
        out = classify(g)
        builds.clear()
        if base is FIBER:
            assert isinstance(out, CurveFiber)
            assert kernels == [] and dims == [1]  # one elimination, of the 1x1 residual
            with pytest.raises(SingularConfiguration, match="no solution"):
                codiscrepancies(g)
            assert raised == [1]  # solve raised, on the residual 0-curve
            with pytest.raises(DiscrepancyError, match="not negative definite"):
                fundamental_cycle(g)
        else:
            codiscrepancies(g)
            fundamental_cycle(g)
            assert kernels == []
        # codiscrepancies and fundamental_cycle build no residual graph
        assert dims and max(dims) <= n and builds == [], base.name
    assert raised == [1]
    dims.clear()
    linalg.definiteness(g.intersection_matrix()[0])  # the counters are live
    DualGraph("live", [], {})
    assert dims == [len(g.ids())] and builds == ["live"]


LONE = DualGraph("lone", [Vertex("a", VertexKind.EXCEPTIONAL, -3)], {})
# the double (-3) bridge of tests/test_contract.py, with one middle curve:
# indefinite, with the central (-1)-curve z to blow down
BRIDGE = parse(
    "graph bridge\nv a -3\nv b -3\nv p -3\nv e -3\nv f -2\nv g -2\nv h -2\nv i -2\n"
    "v m0 -2\nv z -1 cen\ne a b\ne b p\ne e f\ne f g\ne f i\ne g h\ne i z\ne b m0\ne m0 e\n"
).graph


def test_classify_builds_only_what_it_returns(monkeypatch):
    """``classify`` reads the shared blown-down view: it builds a residual
    graph only for the outcomes that hold or inspect one, a rational double
    point and another rational point, and then only when a curve was blown
    down; it builds no intersection matrix, and eliminates once, the
    residual's form."""
    builds, matrices, dims = [], [], []
    fill, matrix, eliminate = DualGraph._fill, DualGraph.intersection_matrix, linalg._eliminate

    def counting_fill(self, *args):
        builds.append(args[0])
        fill(self, *args)

    def counting_matrix(self, subset=None):
        matrices.append(self.name)
        return matrix(self, subset)

    def counting_eliminate(M, *args, **kwargs):
        dims.append(M.dimension)
        return eliminate(M, *args, **kwargs)

    monkeypatch.setattr(DualGraph, "_fill", counting_fill)
    monkeypatch.setattr(DualGraph, "intersection_matrix", counting_matrix)
    monkeypatch.setattr(linalg, "_eliminate", counting_eliminate)
    rng = random.Random("builds")
    ade = ade_graph("E", 7)
    cases = [point_blowups(rng, base, k) for base in (SMOOTH, FIBER, ade, LONE) for k in (1, 10, 80)]
    cases += [FIBER, ade, LONE, BRIDGE]  # the bases blow nothing down; BRIDGE blows down z
    seen = set()
    for g in cases:
        weight, _, record = g._blow_down(g.ids())
        n = sum(w is not None for w in weight.values())
        builds.clear()
        dims.clear()
        out = classify(g)
        seen.add(type(out).__name__)
        reads_a_graph = isinstance(out, (DuValPoint, RationalPoint)) and record
        assert builds == ([g.name] if reads_a_graph else []), (g.name, out)
        assert matrices == [] and dims == [n], (g.name, out)
    assert seen == {"SmoothPoint", "DuValPoint", "RationalPoint", "CurveFiber", "NotContractible"}
    builds.clear()
    dims.clear()
    linalg.definiteness(DualGraph("live", [], {}).intersection_matrix()[0])  # the counters are live
    assert builds == ["live"] and matrices == ["live"] and dims == [0]


CLIQUE = "graph clique\nv c -1\n" + "".join(f"v n{i}\ne c n{i}\n" for i in range(400))
RAISED = "graph raised\nv a -2\nv c -1\ne a c m=2\n" + "".join(
    f"v n{i}\ne {'a' if i == 0 else f'n{i - 1}'} n{i}\n" for i in range(400)
)


@pytest.mark.parametrize(
    "text, dimension, steps", [(CLIQUE, 399, 2), (RAISED, 401, 1)], ids=["clique", "raised"]
)
def test_classify_stops_at_the_first_proof_of_indefiniteness(monkeypatch, text, dimension, steps):
    """``classify``'s one elimination stops at the first step that proves the
    residual's form indefinite. CLIQUE is one (-1)-curve meeting 400
    (-2)-curves: blowing it down and then one of them leaves 399 curves of
    self-intersection 0, every two joined with multiplicity 2, so the first
    pivot is a 2x2 block. In RAISED a (-1)-curve meets the (-2)-curve at the
    end of a chain twice and raises it to +2, the first pivot."""
    g = parse(text).graph
    runs, eliminate = [], linalg._eliminate

    def counting_eliminate(M, *args, **kwargs):
        rows, rhs, done, rest = eliminate(M, *args, **kwargs)
        runs.append((M.dimension, len(done)))
        return rows, rhs, done, rest

    monkeypatch.setattr(linalg, "_eliminate", counting_eliminate)
    assert classify(g) == NotContractible("intersection form is indefinite")
    assert runs == [(dimension, steps)]


def whole_subset_solve(g, unknowns, known, canonical):
    """The subset solve as it was before blow-down first: ``solve`` on the
    whole subset's form."""
    try:
        return dict(zip(unknowns, linalg.solve(*subset_system(g, unknowns, known, canonical))))
    except linalg.LinAlgError as exc:
        return SingularConfiguration, str(exc)


def test_subset_solves_on_blowups_equal_the_whole_subset_solve():
    rng = random.Random("whole-subset")
    graphs = blowups("whole-subset", 18) + [with_germ(rng, g) for g in blowups("whole-germs", 9)]
    for g in graphs:
        exc = g.exceptional_ids()
        pins = {vid: Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for vid in rng.sample(exc, 3)}
        attached = {"t": Fraction(1)} if "t" in g.ids() else {exc[0]: Fraction(3, 2)}
        subset = [vid for vid in g.complete_ids() if vid not in attached]
        free = whole_subset_solve(g, exc, {}, True)
        pinned = whole_subset_solve(g, [vid for vid in exc if vid not in pins], pins, True)
        pulled = whole_subset_solve(g, subset, attached, False)
        assert result_or_error(lambda: codiscrepancies(g).values) == free
        assert result_or_error(lambda: pinned_codiscrepancies(g, pins).values) == (
            {**pins, **pinned} if isinstance(pinned, dict) else pinned
        )
        assert result_or_error(mumford_pullback, g, Cycle(attached), subset) == (
            Cycle(pulled) if isinstance(pulled, dict) else pulled
        )


def test_a_bad_subset_raises_what_intersection_matrix_raises():
    # every subset below holds the (-1)-curve b, so it would be blown down;
    # d, outside them all, carries the pin and the attached cycle
    exc = VertexKind.EXCEPTIONAL
    vertices = [Vertex(vid, exc, w) for vid, w in zip("abcd", (-2, -1, -3, -2))]
    vertices.append(Vertex("t", VertexKind.TRANSVERSAL, None))
    g = DualGraph("g", vertices, [("a", "b"), ("b", "t"), ("b", "d")])
    subsets = [
        ["a", "b", "nope", "t"],
        ["a", "b", "t", "nope"],
        ["b", "t", "b"],
        ["b", "nope", "b"],
        ["b", "c", "a", "c"],
    ]
    for subset in subsets:
        want = result_or_error(g.intersection_matrix, subset)
        assert isinstance(want[0], type) and issubclass(want[0], GraphError)
        assert result_or_error(pinned_codiscrepancies, g, {}, subset) == want
        assert result_or_error(pinned_codiscrepancies, g, {"d": Fraction(1, 2)}, subset) == want
        assert result_or_error(mumford_pullback, g, Cycle({"d": 1}), subset) == want
        if len(set(subset)) < len(subset):
            assert result_or_error(fundamental_cycle, g, subset) == want

# -- the record, replayed ---------------------------------------------------


def test_the_blow_down_record_replays_through_blow_down_once():
    # the oracle rebuilds the graph and rescans every curve after each step,
    # so a stale heap entry or any order but smallest id first shows
    rng = random.Random("replay")
    graphs = blowups("replay", 18, 50) + [with_germ(rng, g) for g in blowups("replay-germs", 9, 30)]
    graphs += [entry.graph for entry in load_catalog()]
    for g in graphs:
        for h in (g, relabel(g, rng)[0], relabel(g, rng)[0]):
            weight, nbrs, record = h._blow_down(h.ids())
            residual = h._from_view(weight, nbrs)
            steps = iter(record)

            def follow(candidates):
                vid, _ = next(steps)
                assert vid == min(candidates)
                return vid

            assert contract_oracle(h, follow) == residual
            assert next(steps, None) is None
            current = h
            for vid, incident in record:
                assert dict(current.neighbors(vid)) == dict(incident)
                current = blow_down_once(current, vid)
            assert current == residual


def test_a_curve_raised_off_minus_one_is_skipped_and_none_enters_the_heap_twice(monkeypatch):
    # a goes first and raises b to 0, so b's entry is stale when it comes up;
    # d raises c to -1, which pushes c once
    g = parse("graph g\nv a -1\nv b -1\nv c -2\nv d -1\ne a b\ne c d\n").graph
    pushed = []
    real_push = graph_module.heappush
    monkeypatch.setattr(
        graph_module, "heappush", lambda heap, vid: pushed.append(vid) or real_push(heap, vid)
    )
    weight, nbrs, record = g._blow_down(g.ids())
    assert [vid for vid, _ in record] == ["a", "d", "c"]
    assert pushed == ["c"]
    assert g._from_view(weight, nbrs) == DualGraph("g", [Vertex("b", VertexKind.EXCEPTIONAL, 0)], {})
    rng = random.Random("pushed-once")
    graphs = blowups("pushed-once", 18, 60) + [with_germ(rng, g) for g in blowups("pushed-once-germs", 9, 30)]
    for g in graphs:
        pushed.clear()
        record = g._blow_down(g.ids())[2]
        entered = [v.id for v in g.vertices if v.self_int == -1] + pushed
        assert len(entered) == len(set(entered))
        assert {vid for vid, _ in record} <= set(entered)


def test_k_point_blow_ups_take_k_steps_back_to_their_base():
    """Each point blow-up adds one (-1)-curve, so blowing all of them down
    takes exactly k steps: to nothing over a smooth point, and to the base's
    own form over an ADE base, which holds no (-1)-curve. A curve raised to
    -1 on the way must be pushed, or it is never blown down."""
    rng = random.Random("k-steps")
    for base in [b for b in BASES if b is not FIBER]:
        for k in (1, 10, 80):
            g = point_blowups(rng, base, k)
            weight, nbrs, record = g._blow_down(g.ids())
            assert len(record) == k, (base.name, k)
            if base is SMOOTH:
                assert weight == nbrs == {}
            residual = g._from_view(weight, nbrs)
            assert residual.intersection_matrix() == base.intersection_matrix()


def laufer_steps(g: DualGraph) -> tuple[int, Cycle]:
    """The steps of Laufer's loop in ``fundamental_cycle(g)``, counted as the
    pops of its stack (one +1 on one curve each), and the cycle returned."""
    pops = 0

    def profile(frame, event, arg):
        nonlocal pops
        if event == "c_call" and frame.f_code is code and getattr(arg, "__name__", None) == "pop":
            pops += 1

    code = fundamental_cycle.__code__
    sys.setprofile(profile)
    try:
        z, _ = fundamental_cycle(g)
    finally:
        sys.setprofile(None)
    return pops, z


@pytest.mark.parametrize("n", [100, 400, 2000])
def test_laufers_loop_steps_only_on_the_residual(n):
    """Laufer's loop starts from the sum of the residual's curves and adds
    one curve a step, so it takes sum(Z) - |Z| steps over the curves the
    blow-down leaves, whatever the curves blown down add to Z."""
    rng = random.Random(f"laufer-{n}")
    base = ade_graph("D", n)
    for k in (0, n // 10):
        g = point_blowups(rng, base, k)
        steps, z = laufer_steps(g)
        left = g._blow_down(g.exceptional_ids())[0]
        assert steps == sum(z.coeff(vid) for vid in left) - len(left), (n, k)
        if not k:
            assert steps == n - 3  # D_n: Z is 1, 2, ..., 2, 1, 1


# -- one blow-down per id set, shared read-only ------------------------------


def shared_calls(g, rng):
    """The seven functions that blow down, with pins and an attached cycle
    drawn for g, and ``fundamental_cycle`` on every id, which shares the view
    ``classify`` builds: (name, call on a graph)."""
    exc = g.exceptional_ids()
    pins = {vid: Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for vid in rng.sample(exc, min(2, len(exc)))}
    germs = [vid for vid in g.ids() if not g.vertex(vid).complete]
    attached = Cycle({germs[0]: 1} if germs else {exc[0]: Fraction(3, 2)} if exc else {})
    subset = [vid for vid in g.complete_ids() if vid not in attached.coefficients]
    return [
        ("classify", classify),
        ("fundamental_cycle on every id", lambda h: fundamental_cycle(h, h.ids())),
        ("contract_minus_ones", contract_minus_ones),
        ("contracts_to_zero_curve", contracts_to_zero_curve),
        ("codiscrepancies", codiscrepancies),
        ("pinned_codiscrepancies", lambda h: pinned_codiscrepancies(h, pins)),
        ("mumford_pullback", lambda h: mumford_pullback(h, attached, subset)),
        ("fundamental_cycle", fundamental_cycle),
    ]


def fresh_copy(g):
    """g parsed anew from its text, or built anew where the format cannot
    hold it (a curve of self-intersection 0 or more)."""
    try:
        return parse(serialize(g)).graph
    except GraphError:
        return DualGraph(g.name, g.vertices, g.edges())


def test_every_caller_reads_the_one_blow_down_as_a_fresh_graph_would():
    # each call on one graph, in both orders, against the same call on a
    # graph no other call has blown down: a caller that changed the shared
    # view, or read it in the order another call built it, shows here
    rng = random.Random("shared")
    graphs = blowups("shared", 18, 60) + [with_germ(rng, g) for g in blowups("shared-germs", 9, 40)]
    # germs in an order that is not the id order, which names the first
    graphs += [with_germ(rng, with_germ(rng, g, "z")) for g in blowups("shared-two-germs", 6, 20)]
    graphs += [entry.graph for entry in load_catalog()]
    for g in graphs:
        for h in (g, relabel(g, rng)[0]):
            calls = shared_calls(h, rng)
            for order in (calls, calls[::-1]):
                one = fresh_copy(h)
                for name, call in order:
                    got, want = result_or_error(call, one), result_or_error(call, fresh_copy(h))
                    assert got == want and repr(got) == repr(want), (h.name, name)


def test_a_graph_blows_each_id_set_down_once(monkeypatch):
    # every blow-down starts from a view of its own, and only one does
    runs = []
    int_view = DualGraph._int_view

    def counting_int_view(self, ids):
        runs.append(len(ids))
        return int_view(self, ids)

    monkeypatch.setattr(DualGraph, "_int_view", counting_int_view)
    rng = random.Random("blown-once")
    for g in blowups("blown-once", 18, 60):  # no germ and no central curve
        runs.clear()
        calls = dict(shared_calls(g, rng))
        calls["pinned_codiscrepancies"] = lambda h: pinned_codiscrepancies(h, {})
        calls["mumford_pullback"] = lambda h: mumford_pullback(h, Cycle())
        for call in [*calls.values(), *reversed(calls.values())]:
            result_or_error(call, g)
        assert runs == [len(g.ids())], g.name
        # the graph keeps one blow-down: another id set replaces it
        n = len(g.ids())
        if n > 1:
            for call in (lambda h: fundamental_cycle(h, h.ids()[1:]), classify, classify):
                result_or_error(call, g)
            assert runs == [n, n - 1, n], g.name
