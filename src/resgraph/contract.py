"""Blow-down calculus and classification of curve configurations.

A configuration of complete curves contracts to a point exactly when its
intersection form is negative definite; repeatedly contracting (-1)-curves
then exposes what the target is (a smooth point, a rational double point, or
some other rational point). A connected negative semidefinite form always
has corank one and a strictly positive kernel vector (Zariski's lemma); it
is a fiber of a rational curve fibration when the blow-down sequence ends
in a single self-intersection-zero curve.
"""

from __future__ import annotations

from .graph import Cycle, DualGraph, _pull_back, _view_form, _view_parts
from .linalg import Value, definiteness


class ContractionError(Exception):
    pass


class NotMinusOne(ContractionError):
    pass


class NotComplete(ContractionError):
    pass


class NoCompleteVertices(ContractionError):
    pass


class DisconnectedGraph(ContractionError):
    pass


class ADEType(Value):
    """A rational-double-point type: family A (n>=1), D (n>=4) or E (6,7,8)."""

    __slots__ = ("family", "rank")

    def __init__(self, family: str, rank: int):
        ok = (
            (family == "A" and rank >= 1)
            or (family == "D" and rank >= 4)
            or (family == "E" and rank in (6, 7, 8))
        )
        if not ok:
            raise ValueError(f"no type {family}{rank}")
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "rank", rank)

    def render(self) -> str:
        return f"{self.family}{self.rank}"


class ContractionOutcome(Value):
    """Base class; concrete outcomes below. An outcome renders as its class
    name, except a rational double point, which adds its type."""

    __slots__ = ("_form",)  # private: the Definiteness that classify read

    def render(self) -> str:
        return type(self).__name__


class SmoothPoint(ContractionOutcome):
    __slots__ = ()


class DuValPoint(ContractionOutcome):
    __slots__ = ("ade",)

    def __init__(self, ade: ADEType):
        object.__setattr__(self, "ade", ade)

    def render(self) -> str:
        return f"DuValPoint({self.ade.render()})"


class RationalPoint(ContractionOutcome):
    __slots__ = ("residual",)

    def __init__(self, residual: DualGraph):
        object.__setattr__(self, "residual", residual)


class CurveFiber(ContractionOutcome):
    __slots__ = ("fiber",)

    def __init__(self, fiber: Cycle):
        object.__setattr__(self, "fiber", fiber)


class NotContractible(ContractionOutcome):
    __slots__ = ("reason",)

    def __init__(self, reason: str):
        object.__setattr__(self, "reason", reason)


def blow_down_once(g: DualGraph, vid: str) -> DualGraph:
    """Contract one complete (-1)-curve.

    Each neighbor with edge multiplicity m gains m^2 on its
    self-intersection (transversal neighbors have none to gain), and every
    pair of neighbors with multiplicities m_a, m_b gains an edge of
    multiplicity m_a * m_b.
    """
    v = g.vertex(vid)
    if not v.complete:
        raise NotComplete(f"{vid!r} is transversal")
    if v.self_int != -1:
        raise NotMinusOne(f"{vid!r} has self-intersection {v.self_int}, not -1")

    incident = g.neighbors(vid)
    bumps = {other: mult * mult for other, mult in incident}
    vertices = [
        w._replace(self_int=w.self_int + bumps[w.id]) if w.id in bumps and w.complete else w
        for w in g.vertices
        if w.id != vid
    ]
    edges = {pair: mult for pair, mult in g.edges().items() if vid not in pair}
    for i, (a, ma) in enumerate(incident):
        for b, mb in incident[i + 1:]:
            key = (a, b) if a <= b else (b, a)
            edges[key] = edges.get(key, 0) + ma * mb
    return DualGraph(g.name, vertices, edges)


def contract_minus_ones(g: DualGraph) -> DualGraph:
    """Contract complete (-1)-curves, smallest id first, until none remain.
    The fixed order makes reports reproducible; classification does not
    depend on it.

    The steps run on the integer copy the graph shares (``DualGraph._blow_down``),
    and one ``DualGraph`` is built at the end (``g`` itself if none contracts).
    """
    weight, nbrs, record = g._blow_down(g.ids())
    return g._from_view(weight, nbrs) if record else g


def contracts_to_zero_curve(g: DualGraph) -> bool:
    """Whether blowing down every complete (-1)-curve leaves one complete
    curve, of self-intersection 0. It reads the shared view and builds no graph."""
    return [w for w in g._blow_down(g.ids())[0].values() if w is not None] == [0]


def recognize_duval(g: DualGraph) -> ADEType | None:
    """Match a configuration against the rational-double-point shapes.

    Requires a connected graph of complete curves, all of self-intersection
    -2, with simple edges and no cycles; a plain chain is A_n, a chain with a
    fork one step from an end is D_n, and the three exceptional fork shapes
    are E_6, E_7, E_8. Returns None otherwise (total, never raises).
    """
    ids = g.complete_ids()
    by_id, degree = g._by_id, {}
    for vid in ids:  # each curve's weight and its edges to complete curves
        mults = [m for w, m in g._adjacency[vid].items() if by_id[w].self_int is not None]
        if by_id[vid].self_int != -2 or any(m != 1 for m in mults):
            return None
        degree[vid] = len(mults)
    # connected, with one edge fewer than curves: a tree, as no cycle of curves is ADE
    if sum(degree.values()) != 2 * len(ids) - 2 or len(g.components(ids)) != 1:
        return None
    forks = [vid for vid in ids if degree[vid] >= 3]
    if not forks:
        return ADEType("A", len(ids))
    if len(forks) > 1 or degree[forks[0]] > 3:
        return None
    fork = forks[0]
    # a tree less its one fork of degree three: three chains, the fork's arms
    arms = sorted(len(arm) for arm in g.components(set(ids) - {fork}))
    if arms[:2] == [1, 1]:
        return ADEType("D", len(ids))
    if arms[:2] == [1, 2] and arms[2] <= 4:
        return ADEType("E", len(ids))
    return None


def classify(g: DualGraph) -> ContractionOutcome:
    """Decide what the configuration of complete curves contracts to.

    First contract every (-1)-curve, then classify the residual's form,
    whose kind and corank are the configuration's; the outcome, or the
    error raised, carries it in ``_form``. Negative definite: an empty residual
    is a smooth point, an ADE residual a rational double point, anything
    else some other rational point (returned with the residual graph).
    Negative semidefinite (then of corank one, with a strictly positive
    primitive kernel) with a single self-intersection-zero curve left: a
    fiber of a rational curve fibration, returned with the kernel cycle.
    Everything else: not contractible, with the failed criterion named.
    """
    complete = g.complete_ids()
    weight, nbrs, record = g._blow_down(g.ids())
    # the complete curves left, in vertex order: the view may be in another
    rest = {vid: weight[vid] for vid in complete if vid in weight}
    form = definiteness(_view_form(rest, nbrs)[0])
    if not complete:
        result = NoCompleteVertices("no complete vertices to contract")
    elif _view_parts(weight, nbrs, record, complete=True) > 1:
        comps = g.components(complete)
        named = ", ".join(repr(min(comp)) for comp in comps)
        result = DisconnectedGraph(
            f"complete part has {len(comps)} components, at {named}; "
            "classify each one as its own graph"
        )
    elif form.is_negative_definite and not rest:
        result = SmoothPoint()
    elif form.is_negative_definite:
        residual = contract_minus_ones(g)  # the only outcomes that read a graph
        ade = recognize_duval(residual)
        result = RationalPoint(residual) if ade is None else DuValPoint(ade)
    elif form.is_negative_semidefinite and len(rest) == 1:
        # The form is connected with nonnegative off-diagonal entries, so by
        # Zariski's lemma (Perron-Frobenius) it has corank 1 and a positive
        # kernel vector: here the pull-back of the one curve left, a 0-curve.
        result = CurveFiber(Cycle(_pull_back(record, dict.fromkeys(rest, 1))))
    else:
        result = NotContractible(
            "semidefinite with positive kernel but blow-down does not end in a zero-curve"
            if form.is_negative_semidefinite else "intersection form is indefinite"
        )
    object.__setattr__(result, "_form", form)
    if isinstance(result, ContractionError):
        raise result
    return result
