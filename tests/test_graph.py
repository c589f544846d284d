import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from resgraph.catalog import data_root, load_catalog
from resgraph.contract import contract_minus_ones
from resgraph.graph import (
    BadToken,
    Cycle,
    DslSyntaxError,
    DuplicateId,
    DualGraph,
    GraphError,
    SelfIntOnTransversal,
    TransversalInSubset,
    UnknownVertex,
    Vertex,
    VertexKind,
    cycle_dot,
    parse,
    serialize,
)
from resgraph.linalg import SymMatrix
from util import (
    ade_graph,
    built_parts,
    cycle_pairing,
    dense_rows,
    point_blowups,
    random_cyclic_graph,
    random_tree_graph,
    scaled,
)


def test_parse_single_central_vertex():
    result = parse("graph g\nv a -1 cen\n")
    g = result.graph
    assert len(g.vertices) == 1
    v = g.vertex("a")
    assert v.kind is VertexKind.CENTRAL
    assert v.self_int == -1


def test_parse_omitted_weight_means_minus_two():
    g = parse("graph g\nv a\nv b cen\n").graph
    assert g.vertex("a").self_int == -2
    assert g.vertex("b").self_int == -2
    assert g.vertex("b").kind is VertexKind.CENTRAL


def test_parse_transversal_has_no_self_int():
    g = parse("graph g\nv a ~\nv b ~ tra label=section\n").graph
    assert g.vertex("a").kind is VertexKind.TRANSVERSAL
    assert g.vertex("a").self_int is None
    assert g.vertex("b").label == "section"


def test_parse_errors_carry_line_numbers():
    with pytest.raises(DslSyntaxError) as err:
        parse("graph g\nv a -2\nbogus line\n")
    assert err.value.line == 3

    with pytest.raises(DuplicateId):
        parse("graph g\nv a -2\nv a -3\n")

    with pytest.raises(UnknownVertex):
        parse("graph g\nv a -2\ne a b\n")

    with pytest.raises(SelfIntOnTransversal):
        parse("graph g\nv a -3 tra\n")

    with pytest.raises(DslSyntaxError):
        parse("v a -2\n")  # missing graph directive


HEAD = "graph g\nv a -2\nv b -2\n"  # lines 1-3


@pytest.mark.parametrize(
    "text, error, line",
    [
        ("graph g\ngraph h\n", DslSyntaxError, 2),
        ("graph\n", DslSyntaxError, 1),
        ("graph g h\n", DslSyntaxError, 1),
        ("graph g\nv\n", DslSyntaxError, 2),
        ("graph g\nv a -2 exc label=x extra\n", DslSyntaxError, 2),
        ("graph g\nv a ~ exc\n", DslSyntaxError, 2),
        ("graph g\nv a ~ cen\n", DslSyntaxError, 2),
        (HEAD + "e a\n", DslSyntaxError, 4),
        (HEAD + "e a b m=1 m=1\n", DslSyntaxError, 4),
        (HEAD + "e a b x=1\n", DslSyntaxError, 4),
        (HEAD + "e a b m=x\n", DslSyntaxError, 4),
        (HEAD + "e a b m=0\n", DslSyntaxError, 4),
        (HEAD + "e a z\n", UnknownVertex, 4),
        (HEAD + "e z a\n", UnknownVertex, 4),
        (HEAD + "e a a\n", DslSyntaxError, 4),
        (HEAD + "cycle z a=1\n", DslSyntaxError, 4),
        (HEAD + "cycle : a=1\n", DslSyntaxError, 4),
        (HEAD + "cycle z: a=1\ncycle z: b=1\n", DslSyntaxError, 5),
        (HEAD + "cycle z: a\n", DslSyntaxError, 4),
        (HEAD + "cycle z: q=1\n", UnknownVertex, 4),
        (HEAD + "cycle z: a=x\n", DslSyntaxError, 4),
        (HEAD + "cycle z: a=1/0\n", DslSyntaxError, 4),
        (HEAD + "expect outcome\n", DslSyntaxError, 4),
        (HEAD + "expect = SmoothPoint\n", DslSyntaxError, 4),
        (HEAD + "v b,c -2\n", BadToken, 4),
        ("graph g\nv a=b ~\n", BadToken, 2),
        (HEAD + "v c -2 label=\n", BadToken, 4),
        # the format's integers are ASCII digits: int alone reads all three
        (HEAD + "e a b m=1_0\n", DslSyntaxError, 4),
        (HEAD + "e a b m=\u0663\n", DslSyntaxError, 4),
        (HEAD + "v c -\u0663\n", DslSyntaxError, 4),
    ],
)
def test_parse_error_class_and_line(text, error, line):
    with pytest.raises(GraphError) as err:
        parse(text)
    assert type(err.value) is error
    assert str(err.value).startswith(f"line {line}: ")
    if error is DslSyntaxError:
        assert err.value.line == line


def _mutate(text: str, rng: random.Random) -> str:
    """Drop, duplicate or swap tokens, one to three times, on one line."""
    lines = text.splitlines()
    i = rng.choice([k for k, line in enumerate(lines) if line.split()])
    tokens = lines[i].split()
    for _ in range(rng.randint(1, 3)):
        if not tokens:
            break
        j, k = rng.randrange(len(tokens)), rng.randrange(len(tokens))
        op = rng.choice(("drop", "duplicate", "swap"))
        if op == "drop":
            del tokens[j]
        elif op == "duplicate":
            tokens.insert(j, tokens[j])
        else:
            tokens[j], tokens[k] = tokens[k], tokens[j]
    lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


def _mutants():
    """(fixture name, mutant) for the 60 mutants of each catalog fixture
    that seed 2011 draws, 1320 in all, in one fixed order."""
    rng = random.Random(2011)
    paths = sorted(data_root().glob("*/*.dg"))
    assert len(paths) == 22
    for path in paths:
        text = path.read_text(encoding="utf-8")
        for _ in range(60):
            yield path.name, _mutate(text, rng)


def test_parse_of_mutated_fixtures_raises_only_graph_errors():
    """A mangled fixture either parses or raises a GraphError, never some
    other exception."""
    outcomes = {"parsed": 0, "rejected": 0}
    for name, mutated in _mutants():
        try:
            parse(mutated)
        except GraphError:
            outcomes["rejected"] += 1
        except Exception as exc:  # report the input that broke parse
            pytest.fail(f"{name}: {type(exc).__name__}: {exc}\n{mutated}")
        else:
            outcomes["parsed"] += 1
    assert min(outcomes.values()) > 100


PARSE_CORPUS = Path(__file__).resolve().parent / "data" / "parse_corpus.json"


def _parse_record(text: str) -> list:
    """What ``parse`` makes of a text, as JSON: the error's type and full
    message, or every part of the graph (``util.built_parts``, with each
    vertex as [id, kind, self-intersection, label] and each adjacency as
    (neighbour, multiplicity) pairs, whatever holds them; the id table
    holds the vertices themselves), the cycles with
    their coefficients as [id, numerator, denominator] and their named ids,
    and the expectations."""
    try:
        graph, cycles, expects = parse(text)
    except GraphError as exc:
        return [type(exc).__name__, str(exc)]
    name, vertices, by_id, edges, adjacency = built_parts(graph)
    assert [v for _, v in by_id] == list(vertices)

    def vertex(v):
        return [v.id, v.kind.value, v.self_int, v.label]

    return [
        name,
        [vertex(v) for v in vertices],
        [vid for vid, _ in by_id],
        [[a, b, m] for (a, b), m in edges],
        [[vid, [[w, m] for w, m in dict(nbrs).items()]] for vid, nbrs in adjacency],
        [
            [cname, [[k, q.numerator, q.denominator] for k, q in z.coefficients.items()], list(z._named)]
            for cname, z in cycles.items()
        ],
        [list(e) for e in expects],
    ]


def test_parse_replays_the_recorded_corpus():
    """Each mutant parses to the recorded parts or raises the recorded
    error, word for word: a reworded message or a reordered check shows
    here. After an intended change of ``parse``, re-record with

        PYTHONPATH=src python tests/test_graph.py

    which prints each record that changed; name them in the change log."""
    recorded = json.loads(PARSE_CORPUS.read_text(encoding="utf-8"))
    mutants = list(_mutants())
    assert len(recorded) == len(mutants) == 1320
    for i, ((name, mutated), want) in enumerate(zip(mutants, recorded)):
        assert _parse_record(mutated) == want, f"record {i}, a mutant of {name}:\n{mutated}"


def record_parse_corpus() -> None:
    old = json.loads(PARSE_CORPUS.read_text(encoding="utf-8")) if PARSE_CORPUS.exists() else []
    new = [_parse_record(mutated) for _, mutated in _mutants()]
    for i, record in enumerate(new):
        if i >= len(old) or old[i] != record:
            print(f"changed: record {i}: {record}")
    PARSE_CORPUS.write_text("\n".join(["["] + [
        json.dumps(r, ensure_ascii=False) + ("," if i < len(new) - 1 else "")
        for i, r in enumerate(new)
    ] + ["]"]) + "\n", encoding="utf-8")
    print(f"recorded {len(new)} parses in {PARSE_CORPUS}")


def test_parse_rejects_repeated_vertex_in_cycle():
    with pytest.raises(DslSyntaxError) as err:
        parse("graph g\nv a -2\nv b -2\ncycle z: a=1, b=1, a=2\n")
    assert err.value.line == 4
    assert "'a'" in str(err.value)


def test_parse_rejects_coefficients_outside_p_over_q():
    # Fraction("1e10000000") alone takes seconds; the grammar is p or p/q
    for value in ("1e10000000", "1.5", "1_000"):
        with pytest.raises(DslSyntaxError) as err:
            parse(f"graph g\nv a -2\nv t ~ tra\ne a t\ncycle z: t={value}\n")
        assert err.value.line == 5


@pytest.mark.parametrize(
    "line, message",
    [
        ("e a b m=1_0", "bad edge multiplicity: '1_0'"),
        ("e a b m=\u0663", "bad edge multiplicity: '\u0663'"),
        ("v c -\u0663", "bad self-intersection: '-\u0663'"),
        ("v c -\u00b2", "bad self-intersection: '-\u00b2'"),
    ],
)
def test_parse_reads_integers_of_ascii_digits_only(line, message):
    with pytest.raises(DslSyntaxError) as err:
        parse(HEAD + line + "\n")
    assert err.value.message == message


def test_parse_rejects_nonnegative_self_int():
    with pytest.raises(DslSyntaxError):
        parse("graph g\nv a 0\n")


def test_serialize_refuses_a_complete_curve_parse_would_reject():
    residual = contract_minus_ones(parse("graph g\nv a -1\nv b -1\ne a b\n").graph)
    assert residual.vertex("b").self_int == 0
    with pytest.raises(GraphError, match="'b' has self-intersection 0"):
        serialize(residual)


# each was accepted before the check: "-1" then failed in classify with a
# TypeError, -3/2 classified as a rational point and serialized to a line
# parse rejects, and True counted as 1
@pytest.mark.parametrize("self_int", ["-1", Fraction(-3, 2), Fraction(-2), True, -2.0])
def test_dual_graph_rejects_a_self_intersection_that_is_not_an_int(self_int):
    with pytest.raises(GraphError, match="needs an int self-intersection"):
        DualGraph("g", [Vertex("a", VertexKind.EXCEPTIONAL, self_int)], {})


@pytest.mark.parametrize("mult", [Fraction(3, 2), Fraction(1), True, 1.0, "1", 0, -1])
def test_dual_graph_rejects_an_edge_multiplicity_that_is_not_a_positive_int(mult):
    vertices = [Vertex(v, VertexKind.EXCEPTIONAL, -2) for v in "ab"]
    with pytest.raises(GraphError, match="edge multiplicity must be a positive int"):
        DualGraph("g", vertices, {("a", "b"): mult})


A, B, T = (Vertex("a", VertexKind.EXCEPTIONAL, -2), Vertex("b", VertexKind.EXCEPTIONAL, -2),
           Vertex("t", VertexKind.TRANSVERSAL, None))


# parse checks its lines before it builds a graph, so it never reaches these
@pytest.mark.parametrize(
    "vertices, edges, error, message",
    [
        ([A, A], {}, DuplicateId, "duplicate vertex id 'a'"),
        ([A, T._replace(self_int=-1)], {}, SelfIntOnTransversal,
         "transversal vertex 't' cannot carry a self-intersection"),
        ([A, B], {("a", "a"): 1}, GraphError, "self-loop at 'a'"),
        ([A, B], {("z", "a"): 1}, UnknownVertex, "edge endpoint 'z' is not a vertex"),
        ([A, B], {("a", "z"): 1}, UnknownVertex, "edge endpoint 'z' is not a vertex"),
    ],
)
def test_dual_graph_rejects_what_parse_rejects_first(vertices, edges, error, message):
    with pytest.raises(GraphError) as err:
        DualGraph("g", vertices, edges)
    assert type(err.value) is error and str(err.value) == message


def test_parse_carries_the_line_of_each_expectation():
    text = "# probe\ngraph g\nv a -2\n\nexpect outcome = SmoothPoint\n"
    text += "expect codisc a = 1/2  # half\nexpect outcome = A=B\n"
    assert parse(text).expects == [
        ("outcome", "SmoothPoint", 5),
        ("codisc a", "1/2", 6),
        ("outcome", "A=B", 7),
    ]


def test_edge_multiplicity_accumulates():
    g = parse("graph g\nv a -2\nv b -2\ne a b\ne a b m=2\n").graph
    assert g.multiplicity("a", "b") == 3


def test_intersection_matrix_a2_chain():
    g = parse("graph g\nv a -2\nv b -2\ne a b\n").graph
    m, order = g.intersection_matrix()
    assert order == ["a", "b"]
    assert dense_rows(m) == [[-2, 1], [1, -2]]


def test_intersection_matrix_single_minus_three():
    g = parse("graph g\nv a -3\n").graph
    m, _ = g.intersection_matrix()
    assert dense_rows(m) == [[-3]]


def test_intersection_matrix_rejects_transversal():
    g = parse("graph g\nv a -2\nv t ~\ne a t\n").graph
    with pytest.raises(TransversalInSubset):
        g.intersection_matrix(["a", "t"])
    m, _ = g.intersection_matrix()
    assert m.dimension == 1  # transversal excluded from the default subset


def _decorated(g: DualGraph, rng: random.Random) -> DualGraph:
    """g plus a transversal germ t (m=2), a 0-curve z (m=3) and one of its
    edges doubled."""
    ids = g.ids()
    vertices = list(g.vertices) + [
        Vertex("t", VertexKind.TRANSVERSAL, None),
        Vertex("z", VertexKind.EXCEPTIONAL, 0),
    ]
    edges = dict(g.edges())
    edges[rng.choice(list(edges))] += 1
    edges[(rng.choice(ids), "t")] = 2
    edges[(rng.choice(ids), "z")] = 3
    return DualGraph(g.name, vertices, edges)


@pytest.mark.parametrize("seed", range(4))
def test_intersection_matrix_equals_the_checked_constructor(seed):
    rng = random.Random(seed)
    bases = [
        random_tree_graph(rng, 30),
        random_cyclic_graph(rng, 30),
        point_blowups(rng, ade_graph("D", 5), 20),
    ]
    for g in (_decorated(base, rng) for base in bases):
        complete = g.complete_ids()
        assert "t" not in complete and "z" in complete
        for subset in (None, rng.sample(complete, len(complete)), rng.sample(complete, 12)):
            m, order = g.intersection_matrix(subset)
            assert order == (complete if subset is None else subset)
            expected = SymMatrix.from_sparse([
                {j: g.vertex(a).self_int if a == b else g.multiplicity(a, b)
                 for j, b in enumerate(order)}
                for a in order
            ])
            assert m == expected and m._integral and expected._integral
            assert dense_rows(m) == dense_rows(expected)
            assert all(type(x) is int for row in m._rows for x in row.values())
            if "z" in order:
                z = order.index("z")
                assert z not in m._rows[z] and m[z, z] == 0
        with pytest.raises(TransversalInSubset):
            g.intersection_matrix(complete[:3] + ["t"])


def test_intersection_matrix_rejects_unknown_and_repeated_ids():
    g = parse("graph g\nv a -2\nv b -2\ne a b\n").graph
    with pytest.raises(UnknownVertex, match="no vertex 'q'"):
        g.intersection_matrix(["a", "q"])
    with pytest.raises(UnknownVertex):
        g.intersection_matrix(["a", "a", "q"])  # an unknown id is named first
    with pytest.raises(GraphError, match="repeated"):
        g.intersection_matrix(["a", "b", "a"])


def test_intersection_matrix_offdiagonal_nonnegative_on_catalog():
    for entry in load_catalog():
        m, order = entry.graph.intersection_matrix()
        for i in range(len(order)):
            for j in range(len(order)):
                if i != j:
                    assert m[i, j] >= 0


def test_cycle_dot_zero_cycle():
    g = parse("graph g\nv a -2\nv b -3\ne a b\n").graph
    assert cycle_dot(g, Cycle({}), "a") == 0


def test_cycle_dot_counts_multiplicity_and_weight():
    g = parse("graph g\nv a -2\nv b -3\ne a b m=2\n").graph
    z = Cycle({"a": Fraction(1), "b": Fraction(1, 2)})
    # a: 1*(-2) + 2*(1/2) = -1
    assert cycle_dot(g, z, "a") == Fraction(-1)
    with pytest.raises(UnknownVertex):
        cycle_dot(g, z, "missing")


def test_cycle_dot_rejects_a_transversal_vertex():
    g = DualGraph("g", [A, T], {("a", "t"): 1})
    with pytest.raises(TransversalInSubset, match="^'t' is transversal$"):
        cycle_dot(g, Cycle({"a": Fraction(1)}), "t")


def test_cycle_dot_is_bilinear():
    rng = random.Random(4321)
    g = parse(
        "graph g\nv a -2\nv b -3\nv c -2\nv d -4\ne a b\ne b c\ne c d\ne b d m=2\n"
    ).graph
    ids = g.ids()
    for _ in range(40):
        y = Cycle({vid: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for vid in ids})
        z = Cycle({vid: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for vid in ids})
        s = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        for vid in ids:
            assert cycle_dot(g, y + z, vid) == cycle_dot(g, y, vid) + cycle_dot(g, z, vid)
            assert cycle_dot(g, scaled(y, s), vid) == s * cycle_dot(g, y, vid)


def test_cycle_pairing_is_symmetric():
    g = parse("graph g\nv a -2\nv b -3\ne a b\n").graph
    y = Cycle({"a": Fraction(2), "b": Fraction(1, 3)})
    z = Cycle({"a": Fraction(-1), "b": Fraction(5)})
    assert cycle_pairing(g, y, z) == cycle_pairing(g, z, y)


def test_roundtrip_on_full_catalog():
    for entry in load_catalog():
        expects = [(e.key, e.text) for e in entry.expects]
        text = serialize(entry.graph, entry.cycles, expects)
        again = parse(text)
        assert again.graph == entry.graph
        assert again.cycles == entry.cycles
        assert [(key, value) for key, value, _ in again.expects] == expects
        # serialization is a fixed point
        assert serialize(again.graph, again.cycles, expects) == text


def test_unchecked_builds_equal_the_checked_constructor():
    """``parse`` and ``_from_view`` build their graphs without the checks of
    ``DualGraph.__init__``, from parts they have checked: what they build is
    what the checked constructor builds from the same vertices and edges."""
    for path in sorted(data_root().glob("*/*.dg")):
        g = parse(path.read_text(encoding="utf-8")).graph
        assert built_parts(g) == built_parts(DualGraph(g.name, g.vertices, g.edges())), path.name
    rng = random.Random("unchecked-builds")
    fiber = DualGraph("fiber", [Vertex("f", VertexKind.EXCEPTIONAL, 0)], {})
    bases = [DualGraph("smooth", [], {}), fiber] + [
        ade_graph(family, rank)
        for family, rank in [("A", 1), ("A", 6), ("D", 4), ("D", 9), ("E", 6), ("E", 7), ("E", 8)]
    ]
    for base in bases:
        g = point_blowups(rng, base, 80)
        for ids in (g.ids(), [vid for vid in g.ids() if rng.random() < 0.7]):
            weight, nbrs, record = g._blow_down(ids)
            residual = g._from_view(weight, nbrs)
            checked = DualGraph(g.name, residual.vertices, residual.edges())
            assert built_parts(residual) == built_parts(checked), base.name
            assert record and residual.ids() == [vid for vid in ids if vid in weight]


def _one_curve(name="g", vid="a", label=None) -> DualGraph:
    return DualGraph(name, [Vertex(vid, VertexKind.EXCEPTIONAL, -2, label)], {})


# every case here either raised on serialize/parse or re-parsed as a
# different graph or cycle before the rule existed
@pytest.mark.parametrize(
    "field, token",
    [
        ("vid", ""),
        ("vid", "a b"),
        ("vid", "a\tb"),
        ("vid", "a\x1cb"),
        ("vid", "a#b"),
        ("vid", "#"),
        ("vid", "a,b"),
        ("vid", "a=b"),
        ("label", "x y"),
        ("label", "x#y"),
        ("label", "\n"),
        ("name", ""),
        ("name", "g h"),
        ("name", "g#1"),
    ],
)
def test_tokens_the_text_format_cannot_hold_are_rejected(field, token):
    with pytest.raises(BadToken):
        _one_curve(**{field: token})


@pytest.mark.parametrize(
    "field, token",
    [("vid", "-2"), ("vid", "~"), ("vid", "exc"), ("vid", "a:b"), ("label", "x=y,z"),
     ("name", "a,b=c")],
)
def test_unusual_tokens_round_trip(field, token):
    g = _one_curve(**{field: token})
    cycles = {"z": Cycle({g.ids()[0]: Fraction(1, 2)})}
    again = parse(serialize(g, cycles))
    assert again.graph == g and again.cycles == cycles


def test_parse_rejects_an_empty_label():
    with pytest.raises(BadToken):
        parse("graph g\nv a -2 label=\n")


def test_serialize_orders_edges_lexicographically():
    g = DualGraph(
        "g",
        [Vertex("b", VertexKind.EXCEPTIONAL, -2), Vertex("a", VertexKind.EXCEPTIONAL, -2)],
        [("b", "a")],
    )
    text = serialize(g)
    assert "e a b" in text


def test_ade_graph_shapes():
    a3 = ade_graph("A", 3)
    assert len(a3.vertices) == 3 and len(a3.edges()) == 2
    d4 = ade_graph("D", 4)
    assert max(len(d4.neighbors(v)) for v in d4.ids()) == 3
    e8 = ade_graph("E", 8)
    assert len(e8.vertices) == 8
    with pytest.raises(ValueError):
        ade_graph("E", 9)
    with pytest.raises(ValueError):
        ade_graph("D", 3)


def test_components():
    g = parse("graph g\nv a -2\nv b -2\nv c -2\ne a b\n").graph
    comps = g.components()
    assert comps == [{"a", "b"}, {"c"}]
    assert g.components(["c", "b"]) == [{"b"}, {"c"}]
    assert g.components([]) == []
    with pytest.raises(UnknownVertex, match="no vertex 'q'"):
        g.components(["c", "q", "a"])


if __name__ == "__main__":
    record_parse_corpus()
