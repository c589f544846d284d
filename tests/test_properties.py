"""Property tests. Each runs a fixed sequence of examples (derandomize=True,
no example database), so the suite stays deterministic."""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from resgraph.contract import (
    ADEType,
    ContractionError,
    CurveFiber,
    DisconnectedGraph,
    RationalPoint,
    classify,
    recognize_duval,
)
from resgraph.discrepancy import (
    DiscrepancyError,
    SingularConfiguration,
    codiscrepancies,
    fundamental_cycle,
    implied_tail_start,
    mumford_pullback,
    pinned_codiscrepancies,
)
from resgraph.graph import (
    Cycle,
    DualGraph,
    GraphError,
    Vertex,
    VertexKind,
    _pull_back,
    _view_parts,
    parse,
    serialize,
)
from resgraph.linalg import (
    NEGATIVE_DEFINITE,
    SingularMatrix,
    UnderdeterminedSystem,
    definiteness,
    rational,
    solve,
)
from util import (
    ade_graph,
    apply,
    assert_lowest_terms,
    attach_chain,
    attach_fork_tail,
    built_parts,
    chain_codiscrepancy_check,
    dense_definiteness,
    dense_kernel_basis,
    dense_rank,
    dense_rows,
    dense_solve,
    dense_subset_solve,
    det,
    fork_codiscrepancy_check,
    inertia,
    multiplicity,
    permuted,
    point_blowups,
    random_tree_graph,
    relabel,
    sym_matrix,
)

PROPERTY = settings(derandomize=True, database=None, max_examples=200, deadline=None)


@st.composite
def integral_graphs(draw, weights=st.integers(-6, 0)) -> DualGraph:
    """Up to 9 complete curves of self-intersection -6..0 (or as drawn from
    ``weights``), any edges among them with multiplicity 1..3, and maybe a
    transversal germ."""
    n = draw(st.integers(1, 9))
    ids = [f"v{i}" for i in range(n)]
    vertices = [Vertex(vid, VertexKind.EXCEPTIONAL, draw(weights)) for vid in ids]
    pairs = [(a, b) for i, a in enumerate(ids) for b in ids[i + 1:]]
    edges = draw(st.dictionaries(st.sampled_from(pairs), st.integers(1, 3))) if pairs else {}
    if draw(st.booleans()):
        vertices.append(Vertex("t", VertexKind.TRANSVERSAL, None))
        edges[(draw(st.sampled_from(ids)), "t")] = draw(st.integers(1, 3))
    return DualGraph("g", vertices, edges)


@PROPERTY
@given(integral_graphs(), st.data())
def test_intersection_rows_match_the_dense_form_and_solve_reproduces_b(g, data):
    m, order = g.intersection_matrix()
    dense = [
        [g.vertex(a).self_int if a == b else multiplicity(g, a, b) for b in order]
        for a in order
    ]
    assert dense_rows(m) == dense
    b = data.draw(st.lists(st.integers(-9, 9), min_size=len(order), max_size=len(order)))
    if det(dense_rows(m)) == 0:
        with pytest.raises((SingularMatrix, UnderdeterminedSystem)) as info:
            solve(m, b)
        if info.type is UnderdeterminedSystem:
            assert info.value.rank == dense_rank(m)
    else:
        assert apply(m, solve(m, b)) == b


@PROPERTY
@given(integral_graphs(st.sampled_from((-1, -1, -1, -2, -2, -3, 0, 1))), st.data())
def test_blowing_down_keeps_the_inertia_and_pulls_back_the_kernel(g, data):
    """Each blow-down is the Schur complement of a -1 pivot (Artin 1962): the
    residual's complete form has g's kind and corank, one negative square
    fewer per step, and g's kernel is the pull-back of the residual's. The
    ids are permuted by a seeded ``random.Random``, so the blow-downs run in
    a drawn order: the samples of a Hypothesis-drawn one keep most ids in
    their order."""
    g = relabel(g, data.draw(st.randoms(use_true_random=True)))[0]
    weight, nbrs, record = g._blow_down(g.ids())
    residual = g._from_view(weight, nbrs)
    form, ids = g.intersection_matrix()
    rest, rest_ids = residual.intersection_matrix()
    negative, zero, positive = inertia(rest)
    assert inertia(form) == (negative + len(record), zero, positive)
    assert dense_definiteness(form)[:2] == dense_definiteness(rest)[:2]
    kernel = dense_kernel_basis(rest)
    assert len(kernel) == zero
    for v in kernel:
        z = _pull_back(record, dict(zip(rest_ids, v)))
        assert apply(form, [z.get(vid, 0) for vid in ids]) == [0] * len(ids)


def span_rank(vectors: list[list[int]]) -> int:
    """The dimension of the span of integer vectors: the rank of their Gram
    matrix."""
    gram = [[sum(a * b for a, b in zip(u, v)) for v in vectors] for u in vectors]
    return dense_rank(sym_matrix(gram)) if vectors else 0


@settings(PROPERTY, max_examples=100)
@given(integral_graphs(), st.data())
def test_kind_corank_and_kernel_survive_a_relabelling(g, data):
    """Relabelling the curves permutes the rows and columns of the form
    alike: the kind and corank stay, and the kernel of the permuted form is
    the permuted kernel."""
    m = g.intersection_matrix()[0]
    perm = data.draw(st.permutations(range(m.dimension)))
    form = permuted(m, perm)
    before, after = definiteness(m), definiteness(form)
    assert (after.kind, after.corank) == (before.kind, before.corank)
    moved = [[v[i] for i in perm] for v in before.kernel]
    assert span_rank(moved) == span_rank(after.kernel) == before.corank
    assert span_rank(moved + after.kernel) == before.corank
    for v in after.kernel:
        assert apply(form, v) == [0] * form.dimension


@PROPERTY
@given(st.dictionaries(st.text("abc", min_size=1, max_size=2), st.integers() | st.booleans()))
def test_a_cycle_of_ints_holds_fractions_in_lowest_terms(ints):
    z = Cycle(ints)
    assert_lowest_terms(z.coefficients.values())
    assert z.coefficients == {vid: Fraction(v) for vid, v in ints.items() if v}


class _Count(int):
    """An int subclass other than bool: like a bool, it goes through ``rational``."""


@PROPERTY
@given(
    st.dictionaries(
        st.text("abc", min_size=1, max_size=2),
        st.just(0)
        | st.integers()
        | st.booleans()
        | st.integers().map(_Count)
        | st.fractions()
        | st.just("3/4"),
    )
)
def test_a_cycle_reads_each_value_as_rational_does(given_values):
    z = Cycle(given_values)
    via = {k: rational(v) for k, v in given_values.items()}
    expected = {k: via[k] for k in sorted(via) if via[k]}
    # repr shows a numerator that is a bool or another int subclass
    assert repr(z.coefficients) == repr(expected)
    assert z._named == tuple(given_values) == Cycle(via)._named
    assert repr(z) == repr(Cycle(via))
    assert_lowest_terms(z.coefficients.values())


@PROPERTY
@given(integral_graphs(), st.data())
def test_the_adjacency_of_a_graph_never_leaks(g, data):
    edges = g.edges()
    for vid in g.ids():
        # in the order of edges(), the other end of each edge at vid
        want = tuple((b if a == vid else a, m) for (a, b), m in edges.items() if vid in (a, b))
        assert type(g.neighbors(vid)) is tuple and g.neighbors(vid) == want
    whole = data.draw(st.booleans())
    ids = g.ids() if whole else data.draw(st.lists(st.sampled_from(g.ids()), unique=True))

    def state():
        rows = dense_rows(g.intersection_matrix()[0])
        return [g.neighbors(vid) for vid in g.ids()], g.edges(), rows, g._int_view(ids)

    before = state()
    weight, nbrs = g._int_view(ids)
    for vid, row in nbrs.items():
        for w in row:
            row[w] += 5
        row["new"] = 1
        weight[vid] = 7
    assert state() == before


EXC = VertexKind.EXCEPTIONAL
PIECE_BASES = [DualGraph("smooth", [], {})] + [ade_graph(f, r) for f, r in (("A", 2), ("D", 4), ("E", 6))]
# pieces that blow down to nothing: an isolated (-1)-curve, a (-1)-(-2) chain
VANISHING = [
    DualGraph("e", [Vertex("e", EXC, -1)], {}),
    DualGraph("c", [Vertex("e", EXC, -1), Vertex("f", EXC, -2)], [("e", "f")]),
]


@st.composite
def unions_of_pieces(draw) -> DualGraph:
    """A disjoint union of 1..4 pieces, each a point blow-up of a small base,
    one of ``VANISHING``, or an ``integral_graphs`` draw; maybe with one more
    transversal germ that meets a curve of each of two pieces, so that the
    two are joined through it only."""
    vertices, edges, anchors = [], {}, []
    for i in range(draw(st.integers(1, 4))):
        piece = draw(st.one_of(
            st.builds(point_blowups, st.randoms(use_true_random=False), st.sampled_from(PIECE_BASES),
                      st.integers(0, 12)).filter(lambda g: g.vertices),
            st.sampled_from(VANISHING),
            integral_graphs(st.sampled_from((-1, -1, -2, -3))),
        ))
        vertices += [Vertex(f"p{i}{v.id}", v.kind, v.self_int) for v in piece.vertices]
        edges.update({(f"p{i}{a}", f"p{i}{b}"): m for (a, b), m in piece.edges().items()})
        anchors.append(f"p{i}{draw(st.sampled_from(piece.complete_ids()))}")
    if len(anchors) > 1 and draw(st.booleans()):
        vertices.append(Vertex("germ", VertexKind.TRANSVERSAL, None))
        for a in draw(st.lists(st.sampled_from(anchors), min_size=2, max_size=2, unique=True)):
            edges[(a, "germ")] = draw(st.integers(1, 2))
    return DualGraph("u", vertices, edges)


@PROPERTY
@given(unions_of_pieces())
def test_the_blown_down_view_counts_the_components_it_came_from(g):
    """A step closes a component when its curve has no neighbour left (no
    complete one, for the complete part), and the view holds the rest:
    the count equals ``components`` of the ids blown down, and ``classify``
    and ``fundamental_cycle`` name a disconnected configuration as that
    walk would."""
    complete, exceptional = g.complete_ids(), g.exceptional_ids()
    for ids in (g.ids(), sorted(exceptional)):
        view = g._blow_down(ids)
        assert _view_parts(*view) == len(g.components(ids))
        if ids == g.ids():
            assert _view_parts(*view, complete=True) == len(g.components(complete))
    comps = g.components(complete)
    try:
        got = classify(g)
    except ContractionError as exc:
        got = exc
    if len(comps) > 1:
        named = ", ".join(repr(min(comp)) for comp in comps)
        assert type(got) is DisconnectedGraph and str(got) == (
            f"complete part has {len(comps)} components, at {named}; "
            "classify each one as its own graph"
        )
    else:
        assert not isinstance(got, DisconnectedGraph)
    for ids in (exceptional, g.ids()):
        try:
            fundamental_cycle(g, ids)
        except (DiscrepancyError, GraphError) as exc:
            disconnected = str(exc) == "fundamental cycle needs a connected configuration"
            assert disconnected == (type(exc) is DiscrepancyError)
            assert disconnected == (len(g.components(ids)) > 1)
        else:
            assert len(g.components(ids)) == 1


# ints, Fractions of denominator 1, and others, as a pinned solve mixes them
MIXED_RATIONALS = st.one_of(
    st.integers(-9, 9),
    st.integers(-9, 9).map(Fraction),
    st.fractions(-9, 9, max_denominator=12),
)


@PROPERTY
@given(integral_graphs(), st.data())
def test_solve_with_a_mixed_rational_rhs_matches_the_dense_oracle(g, data):
    m, order = g.intersection_matrix()
    b = data.draw(st.lists(MIXED_RATIONALS, min_size=len(order), max_size=len(order)))
    try:
        want = dense_solve(m, b)
    except (SingularMatrix, UnderdeterminedSystem) as exc:
        with pytest.raises(type(exc)) as info:
            solve(m, b)
        if info.type is UnderdeterminedSystem:
            assert info.value.rank == dense_rank(m)
    else:
        got = solve(m, b)
        assert_lowest_terms(got)
        assert got == want


@PROPERTY
@given(integral_graphs(st.sampled_from((-1, -1, -1, -2, -2, -3, 0, 1))), st.data())
def test_subset_solves_that_blow_down_first_match_the_dense_whole_subset(g, data):
    """Free, pinned and pull-back solves blow the (-1)-curves of their
    unknowns down first; their values, or their error and its message, are
    those of the whole subset's system."""
    values = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12))
    exceptional = g.exceptional_ids()

    def drawn(ids):
        support = sorted(data.draw(st.sets(st.sampled_from(ids), min_size=1)))
        return {vid: data.draw(values) for vid in support}

    pins, attached = drawn(exceptional), Cycle(drawn(g.ids()))
    subset = [vid for vid in g.complete_ids() if vid not in attached.coefficients]
    free = dense_subset_solve(g, exceptional, {}, True)
    pinned = dense_subset_solve(g, [vid for vid in exceptional if vid not in pins], pins, True)
    pulled = dense_subset_solve(g, subset, attached.coefficients, False)
    cases = [
        (lambda: codiscrepancies(g).values, free),
        (
            lambda: pinned_codiscrepancies(g, pins).values,
            {**pins, **pinned} if isinstance(pinned, dict) else pinned,
        ),
        (
            lambda: mumford_pullback(g, attached, subset),
            Cycle(pulled) if isinstance(pulled, dict) else pulled,
        ),
    ]
    for call, want in cases:
        try:
            got = call()
        except SingularConfiguration as exc:
            got = type(exc), str(exc)
        if isinstance(got, Cycle):
            assert_lowest_terms(got.coefficients.values())
        elif isinstance(got, dict):
            assert_lowest_terms(got.values())
            assert list(got) == list(want)
        assert got == want


# Tokens the text format holds: no whitespace or "#", and in an id no "," or "="
ID_TOKENS = st.text("ab~:-+.019", min_size=1, max_size=3)
NAME_TOKENS = st.text("ab~:-+.019=,", min_size=1, max_size=3)


@st.composite
def text_graphs(draw) -> tuple[DualGraph, dict[str, Cycle]]:
    """Up to 8 curves, complete (``exc`` or ``cen``, self-intersection -1 or
    less) or transversal, some labelled; any edges, of multiplicity 1..3,
    among them; and up to 3 named cycles of rational coefficients, some 0."""
    ids = draw(st.lists(ID_TOKENS, min_size=1, max_size=8, unique=True))
    kinds = st.sampled_from(list(VertexKind))
    vertices = []
    for vid in ids:
        kind = draw(kinds)
        weight = None if kind is VertexKind.TRANSVERSAL else draw(st.integers(-6, -1))
        vertices.append(Vertex(vid, kind, weight, draw(st.none() | NAME_TOKENS)))
    pairs = [(a, b) if a <= b else (b, a) for i, a in enumerate(ids) for b in ids[i + 1:]]
    edges = draw(st.dictionaries(st.sampled_from(pairs), st.integers(1, 3))) if pairs else {}
    values = st.just(Fraction(0)) | st.fractions(-9, 9, max_denominator=6)
    coefficients = st.dictionaries(st.sampled_from(ids), values)
    cycles = draw(st.dictionaries(st.text("xyz", min_size=1, max_size=2), coefficients, max_size=3))
    graph = DualGraph(draw(NAME_TOKENS), vertices, edges)
    return graph, {name: Cycle(z) for name, z in cycles.items()}


@PROPERTY
@given(text_graphs())
def test_parse_reads_back_what_serialize_writes(case):
    g, cycles = case
    again = parse(serialize(g, cycles))
    assert again.graph == g and again.cycles == cycles
    # parse builds its graph unchecked, from parts it has checked line by
    # line: the very graph the checked constructor builds
    assert built_parts(again.graph) == built_parts(g)
    # == does not see the ids written with 0, which a cycle keeps as pins
    assert {n: set(z._named) for n, z in again.cycles.items()} == {
        n: set(z._named) for n, z in cycles.items()
    }



@st.composite
def minus_two_configurations(draw) -> DualGraph:
    """A connected configuration of 1..10 (-2)-curves: a tree, grown curve
    by curve or, more often, drawn as a star of up to four chains (mostly
    three, short), then maybe with one extra edge, which closes a cycle, or
    one edge doubled."""
    if draw(st.sampled_from(("grown", "star", "star"))) == "grown":
        n = draw(st.integers(1, 10))
        edges = {(f"v{draw(st.integers(0, i - 1))}", f"v{i}"): 1 for i in range(1, n)}
    else:
        n, edges = 1, {}
        for _ in range(draw(st.sampled_from((3, 3, 3, 4, 2, 1, 0)))):
            if n == 10:
                break
            length = min(draw(st.sampled_from((1, 2, 3, 4, 5, 1, 2))), 10 - n)
            chain = ["v0"] + [f"v{n + k}" for k in range(length)]
            edges.update({(a, b): 1 for a, b in zip(chain, chain[1:])})
            n += length
    ids = [f"v{i}" for i in range(n)]
    change = draw(st.sampled_from(("none", "none", "none", "extra", "double")))
    apart = [(a, b) for i, a in enumerate(ids) for b in ids[i + 1:]
             if (a, b) not in edges and (b, a) not in edges]
    if change == "extra" and apart:
        edges[draw(st.sampled_from(apart))] = 1
    elif change == "double" and edges:
        edges[draw(st.sampled_from(sorted(edges)))] = 2
    return DualGraph("g", [Vertex(vid, VertexKind.EXCEPTIONAL, -2) for vid in ids], edges)


@settings(PROPERTY, max_examples=300)  # 200 draw no E8
@given(minus_two_configurations())
def test_recognize_duval_names_exactly_the_negative_definite_configurations(g):
    """Artin's criterion (Artin 1966; Du Val 1934): a connected configuration
    of (-2)-curves is a rational double point exactly when its form is
    negative definite. Then the forks and |det| fix the type: with no fork
    it is A_n, and with one, |det| 4, 3, 2 and 1 give D_n, E6, E7 and E8."""
    m, ids = g.intersection_matrix()
    kind = definiteness(m).kind
    assert kind == dense_definiteness(m)[0]
    ade = recognize_duval(g)
    assert (ade is not None) == (kind == NEGATIVE_DEFINITE)
    if ade is None:
        return
    degree = Counter(vid for edge in g.edges() for vid in edge)
    forks = [vid for vid in ids if degree[vid] >= 3]
    if not forks:
        assert ade == ADEType("A", len(ids))
        return
    assert len(forks) == 1
    by_det = {4: ("D", len(ids)), 3: ("E", 6), 2: ("E", 7), 1: ("E", 8)}
    assert ade == ADEType(*by_det[abs(det(dense_rows(m)))])


# every outcome: a fiber, and a lone (-3)-curve for another rational point
ORDER_BASES = PIECE_BASES + [
    DualGraph("fiber", [Vertex("f", EXC, 0)], {}),
    DualGraph("lone", [Vertex("a", EXC, -3)], {}),
    ade_graph("E", 8),
]


def renamed(outcome, names: dict[str, str]):
    """The outcome that ``outcome`` names once every id is renamed by
    ``names``."""
    if isinstance(outcome, CurveFiber):
        return CurveFiber(Cycle({names[v]: c for v, c in outcome.fiber.coefficients.items()}))
    if isinstance(outcome, RationalPoint):
        r = outcome.residual
        vertices = [v._replace(id=names[v.id]) for v in r.vertices]
        edges = {(names[a], names[b]): m for (a, b), m in r.edges().items()}
        return RationalPoint(DualGraph(r.name, vertices, edges))
    return outcome


@settings(PROPERTY, max_examples=100)
@given(
    st.randoms(use_true_random=False),
    st.randoms(use_true_random=True),
    st.sampled_from(ORDER_BASES) | minus_two_configurations(),
    st.integers(0, 20),
)
def test_classify_ignores_the_contraction_order(rng, shuffle, base, k):
    """The (-1)-curves go smallest id first, so relabelling the curves
    changes the order they are blown down in; the outcome, renamed, stays.
    The relabelling takes a seeded ``random.Random``: the samples of a
    Hypothesis-drawn one keep most ids in their order."""
    g = point_blowups(rng, base, k)
    assume(g.vertices)
    h, names = relabel(g, shuffle)
    assert classify(h) == renamed(classify(g), names)


@st.composite
def pinned_tails(draw):
    """A tree of 1..5 curves of self-intersection -2..-5, with a terminal
    (-2)-chain or a D-shaped (-2)-tail on a drawn root, and negative
    definite: the graph, the root, the chain of the tail from its far end
    (from the fork, for a D-shaped tail) and the tail's legs (none for a
    chain), the free codiscrepancies, and pins of them on the root and on a
    drawn curve of each component of the tree without the root, with a
    drawn few more."""
    rng = draw(st.randoms(use_true_random=False))
    base = random_tree_graph(rng, draw(st.integers(1, 5)))
    root = draw(st.sampled_from(base.ids()))
    if draw(st.booleans()):
        length, legs = draw(st.integers(1, 4)), []
        g, chain = attach_chain(base, root, length), [f"c{i}" for i in range(length)]
    else:
        length, legs = draw(st.integers(0, 3)), ["fl1", "fl2"]
        g, chain = attach_fork_tail(base, root, length), [f"fm{i}" for i in range(length)]
    assume(definiteness(g.intersection_matrix()[0]).is_negative_definite)
    result = codiscrepancies(g)
    pinned = {root} | set(draw(st.lists(st.sampled_from(base.ids()))))
    for comp in g.components(set(base.ids()) - {root}):
        pinned.add(draw(st.sampled_from(sorted(comp))))
    return g, root, chain, legs, result, {vid: result.values[vid] for vid in sorted(pinned)}


@settings(PROPERTY, max_examples=100)
@given(pinned_tails())
def test_implied_tail_start_follows_the_terminal_chain_rule(case):
    """Pinned at the free codiscrepancies, the root's equation gives the tail
    curve next to the root its free value, and the rule of the tail turns
    that into the step across the root's edge: the chain's first value, as
    ``chain_codiscrepancy_check`` confirms the progression through the root,
    or 0 past a fork, as ``fork_codiscrepancy_check`` confirms the values
    constant through the root."""
    g, root, chain, legs, result, pins = case
    start = implied_tail_start(g, root, pins)
    if legs:
        assert fork_codiscrepancy_check(g, result, legs, "fk", chain + [root])
        assert start == 0
    else:
        assert chain_codiscrepancy_check(g, result, chain + [root])
        assert start == result.values[chain[0]]
