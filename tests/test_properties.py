"""Property tests. Each runs a fixed sequence of examples (derandomize=True,
no example database), so the suite stays deterministic."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resgraph.graph import DualGraph, Vertex, VertexKind
from resgraph.linalg import SingularMatrix, UnderdeterminedSystem, solve
from util import apply, dense_rows, det

PROPERTY = settings(derandomize=True, database=None, max_examples=200, deadline=None)


@st.composite
def integral_graphs(draw) -> DualGraph:
    """Up to 9 complete curves of self-intersection -6..0, any edges among
    them with multiplicity 1..3, and maybe a transversal germ."""
    n = draw(st.integers(1, 9))
    ids = [f"v{i}" for i in range(n)]
    vertices = [Vertex(vid, VertexKind.EXCEPTIONAL, draw(st.integers(-6, 0))) for vid in ids]
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
        [g.vertex(a).self_int if a == b else g.multiplicity(a, b) for b in order]
        for a in order
    ]
    assert dense_rows(m) == dense
    b = data.draw(st.lists(st.integers(-9, 9), min_size=len(order), max_size=len(order)))
    if det(dense_rows(m)) == 0:
        with pytest.raises((SingularMatrix, UnderdeterminedSystem)):
            solve(m, b)
    else:
        assert apply(m, solve(m, b)) == b
