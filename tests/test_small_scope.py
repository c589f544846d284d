"""Every small configuration, recorded once and replayed against the oracles.

The scope is every connected configuration of up to 4 complete curves, of
self-intersection -1, -2 or -3, joined with multiplicity 1 or 2, up to
isomorphism: 2744 of them. Enumerating them takes seconds, so the list is
recorded with each answer the library gave, as the parse and tree corpora
are. What holds for all of these holds for the small cases a random draw
can miss (the small-scope hypothesis: Jackson, "Software Abstractions",
2006; Andoni, Daniliuc, Khurshid and Marinov 2002)."""

import json
import re
from itertools import combinations, permutations, product
from pathlib import Path

from resgraph.contract import ContractionError, classify, contracts_to_zero_curve
from resgraph.discrepancy import DiscrepancyError, codiscrepancies, fundamental_cycle
from resgraph.graph import DualGraph, Vertex, VertexKind
from resgraph.linalg import Definiteness, definiteness, format_rational
from util import (
    classify_oracle,
    contract_oracle,
    dense_definiteness,
    dense_subset_solve,
    laufer_oracle,
)

SMALL_SCOPE_CORPUS = Path(__file__).resolve().parent / "data" / "small_scope_corpus.json"
IDS = "abcd"


def _configurations():
    """[weights, [[i, j, multiplicity], ...]] for each configuration, one
    per isomorphism class: the least of its relabellings, by (weights, the
    multiplicities of the pairs in order). Ordered by size, then by that."""
    found = []
    for n in range(1, 5):
        pairs = list(combinations(range(n), 2))
        perms = list(permutations(range(n)))
        classes = set()
        for weights in product((-3, -2, -1), repeat=n):
            for mults in product((0, 1, 2), repeat=len(pairs)):
                m = dict(zip(pairs, mults))
                m.update({(j, i): v for (i, j), v in m.items()})
                reach, frontier = {0}, [0]
                while frontier:
                    i = frontier.pop()
                    for j in range(n):
                        if j not in reach and m.get((i, j)):
                            reach.add(j)
                            frontier.append(j)
                if len(reach) < n:
                    continue
                classes.add(min(
                    (tuple(weights[p[i]] for i in range(n)), tuple(m[p[i], p[j]] for i, j in pairs))
                    for p in perms
                ))
        for weights, mults in sorted(classes):
            found.append([list(weights), [[i, j, v] for (i, j), v in zip(pairs, mults) if v]])
    return found


def _graph(weights: list[int], edges: list[list[int]]) -> DualGraph:
    vertices = [Vertex(IDS[i], VertexKind.EXCEPTIONAL, w) for i, w in enumerate(weights)]
    return DualGraph("g", vertices, {(IDS[i], IDS[j]): m for i, j, m in edges})


def _error(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _outcome(classify_fn, g: DualGraph) -> str:
    """The outcome's repr, which writes a residual graph out; or the error."""
    try:
        return repr(classify_fn(g))
    except ContractionError as exc:
        return _error(exc)


def _values(values) -> str:
    """A solve's values, or the (error type, message) the dense oracle gives."""
    if isinstance(values, tuple):
        return f"{values[0].__name__}: {values[1]}"
    return ", ".join(f"{vid}={format_rational(q)}" for vid, q in values.items())


def _codisc(g: DualGraph) -> str:
    try:
        return _values(codiscrepancies(g).values)
    except DiscrepancyError as exc:
        return _error(exc)


def _cycle(cycle_fn, g: DualGraph) -> str:
    try:
        z, genus = cycle_fn(g)
    except DiscrepancyError as exc:
        return _error(exc)
    return f"{z.render()}; genus {format_rational(genus)}"


def _record(weights: list[int], edges: list[list[int]]) -> list:
    """The configuration and what the library makes of it: the ``classify``
    outcome, the render of the whole form's definiteness, the
    codiscrepancies, the fundamental cycle with its genus, and whether the
    blow-downs leave one 0-curve."""
    g = _graph(weights, edges)
    return [
        weights,
        edges,
        _outcome(classify, g),
        definiteness(g.intersection_matrix()[0]).render(),
        _codisc(g),
        _cycle(fundamental_cycle, g),
        contracts_to_zero_curve(g),
    ]


def _oracle_record(weights: list[int], edges: list[list[int]]) -> list:
    """The same record from the oracles alone: ``classify_oracle``, the
    dense definiteness, the dense solve of the whole system, the plain
    Laufer loop, and the residual of the one-step blow-downs."""
    g = _graph(weights, edges)
    kind, corank, _ = dense_definiteness(g.intersection_matrix()[0])
    residual = contract_oracle(g)
    return [
        weights,
        edges,
        _outcome(classify_oracle, g),
        Definiteness(kind, corank).render(),
        _values(dense_subset_solve(g, g.exceptional_ids(), {}, True)),
        _cycle(laufer_oracle, g),
        [v.self_int for v in residual.vertices] == [0],
    ]


def test_small_configurations_replay_the_record_and_agree_with_the_oracles():
    """Each of the 2744 configurations gives its recorded answers, word for
    word, and so does every oracle; the record holds every outcome and
    every kind of form. After an intended change, re-record with

        PYTHONPATH=src python tests/test_small_scope.py

    which prints each record that changed; name them in the change log."""
    recorded = json.loads(SMALL_SCOPE_CORPUS.read_text(encoding="utf-8"))
    assert len(recorded) == 2744
    for want in recorded:
        assert _record(*want[:2]) == want
        assert _oracle_record(*want[:2]) == want
    outcomes = {re.match(r"\w+", r[2])[0] for r in recorded}
    assert outcomes == {"SmoothPoint", "DuValPoint", "RationalPoint", "CurveFiber", "NotContractible"}
    assert {re.match(r"\w+", r[3])[0] for r in recorded} == {
        "NegativeDefinite", "NegativeSemidefiniteCorank", "Indefinite"
    }
    assert any(r[6] for r in recorded)


def record_small_scope_corpus() -> None:
    old = (
        json.loads(SMALL_SCOPE_CORPUS.read_text(encoding="utf-8"))
        if SMALL_SCOPE_CORPUS.exists() else []
    )
    new = [_record(weights, edges) for weights, edges in _configurations()]
    for i, record in enumerate(new):
        if i >= len(old) or old[i] != record:
            print(f"changed: record {i}: {record}")
    SMALL_SCOPE_CORPUS.write_text("\n".join(["["] + [
        json.dumps(r) + ("," if i < len(new) - 1 else "") for i, r in enumerate(new)
    ] + ["]"]) + "\n", encoding="utf-8")
    print(f"recorded {len(new)} configurations in {SMALL_SCOPE_CORPUS}")


if __name__ == "__main__":
    record_small_scope_corpus()
