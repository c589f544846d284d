"""Codiscrepancies, fundamental cycles, numerical pullbacks and the
rejection arithmetic built on them.

The codiscrepancy divisor of a resolution of a rational surface singularity
is the unique rational combination Theta of exceptional curves with
mu* K = K + Theta; its coefficients solve the linear system

    sum_i theta_i (E_i . E_j) = 2 + E_j^2        for every exceptional j.

The free, pinned and pull-back solves share one subset solve, which blows
down the (-1)-curves among its unknowns first and eliminates only the
residual: on a blow-up K_X = pi* K_Y + E (Artin 1962), so the values of the
curves blown down follow from the ones left. Everything here is exact; a
solved system either reproduces a printed value bit-for-bit or the
configuration is wrong.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Sequence

from .graph import Cycle, DualGraph, _pull_back, _view_form, _view_parts
from .linalg import (
    LinAlgError,
    SymMatrix,
    UnderdeterminedSystem,
    Value,
    _fraction,
    definiteness,
    rational,
    solve,
)


class DiscrepancyError(Exception):
    pass


class SingularConfiguration(DiscrepancyError):
    """The intersection form on the chosen subset is not invertible."""


class EmptySubset(DiscrepancyError):
    """There is no curve to solve for."""


class NotNegativeDefinite(DiscrepancyError):
    pass


class UnsupportedTail(DiscrepancyError):
    pass


class CodiscrepancyResult(Value):
    """Solved codiscrepancies plus the two flags every filter needs."""

    __slots__ = ("values", "all_nonnegative", "max_denominator")

    def __init__(self, values: dict[str, Fraction], all_nonnegative: bool, max_denominator: int):
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "all_nonnegative", all_nonnegative)
        object.__setattr__(self, "max_denominator", max_denominator)

    @classmethod
    def from_values(cls, values: Mapping[str, Fraction]) -> "CodiscrepancyResult":
        vals, nonnegative, den = dict(values), True, 1
        for v in vals.values():  # .numerator, as a caller may pass ints
            nonnegative &= v.numerator >= 0
            if (d := v.denominator) > den:
                den = d
        return cls(vals, nonnegative, den)


def _solve_subset(
    g: DualGraph, unknowns: Sequence[str], known: Mapping[str, Fraction], canonical: bool
) -> dict[str, Fraction]:
    """The unique D on ``unknowns`` with (D + B) . E_j = -K . E_j (when
    ``canonical``; else 0) for every unknown j, where B is the known cycle.

    With K . E_j = -2 - E_j^2 for a smooth rational curve, the system is

        sum_i d_i (E_i . E_j) = (2 + E_j^2 if canonical else 0) - B . E_j,

    and B . E_j only sees the known neighbours of j. Only edges inside
    ``unknowns`` enter the matrix.

    One pass over the unknowns checks each id, sets b_j and, until a
    (-1)-curve turns up, builds row j of the form, so a subset with none is
    solved as it stands. Otherwise its (-1)-curves are blown down first
    (``DualGraph._blow_down``), the right-hand side is carried through the
    record, and only the residual is eliminated; each d_E is then pulled
    back in integers over one common denominator.
    """
    by_id, adjacency = g._by_id, g._adjacency
    index = {vid: i for i, vid in enumerate(unknowns)}
    rows, b = [], []
    for vid in unknowns:
        v = by_id.get(vid)
        if v is None or (w := v.self_int) is None:
            break
        c = 2 + w if canonical else 0
        if rows is None or w == -1:
            rows = None
            if known:
                for other, mult in adjacency[vid].items():
                    if other in known:
                        c -= mult * known[other]
        else:
            row = {}
            for other, mult in adjacency[vid].items():
                if other in index:
                    row[index[other]] = mult
                elif other in known:
                    c -= mult * known[other]
            if w:
                row[len(rows)] = w
            rows.append(row)
        b.append(c)
    if len(b) != len(unknowns) or len(index) != len(b):
        g.intersection_matrix(unknowns)  # raises, naming the bad id or the repeated one
    if rows is not None:
        matrix, order, record = SymMatrix._of_rows(tuple(rows)), unknowns, ()
    else:
        rhs = dict(zip(unknowns, b))
        weight, nbrs, record = g._blow_down(unknowns)
        for vid, incident in record:  # a step on E adds m_a b_E to each b_a
            if c := rhs[vid]:
                for a, m in incident:
                    rhs[a] += m * c
        matrix, order = _view_form(weight, nbrs)
        b = [rhs[vid] for vid in order]
    try:
        theta = dict(zip(order, solve(matrix, b)))
    except LinAlgError as exc:
        message = str(exc)
        if record and isinstance(exc, UnderdeterminedSystem):
            # each blow-down is a -1 pivot, so the whole system's rank is the
            # residual's plus one per step; solve words it so
            rank = exc.rank + len(record)
            message = f"rank {rank} < {len(unknowns)}: solutions exist but are not unique"
        raise SingularConfiguration(message) from exc
    if not record:
        return theta
    # d_E = sum m_a d_a - b_E, last step first, on numerators over one denominator
    carried = {vid: rhs[vid] for vid, _ in record}
    den = lcm(*(q.denominator for q in theta.values()), *(q.denominator for q in carried.values()))
    nums = _pull_back(
        record,
        {vid: q.numerator * (den // q.denominator) for vid, q in theta.items()},
        {vid: q.numerator * (den // q.denominator) for vid, q in carried.items()},
    )
    for vid, _ in record:
        common = gcd(nums[vid], den)
        theta[vid] = _fraction(nums[vid] // common, den // common)
    return {vid: theta[vid] for vid in unknowns}


def codiscrepancies(g: DualGraph, include_central: bool = False) -> CodiscrepancyResult:
    """Solve the codiscrepancy system on every exceptional vertex, or every
    complete vertex (exceptional and central) with ``include_central``; only
    edges inside it count. This is the pinned solve with no pins."""
    ids = g.complete_ids() if include_central else g.exceptional_ids()
    return CodiscrepancyResult.from_values(_solve_subset(g, ids, {}, True))


def pinned_codiscrepancies(
    g: DualGraph,
    pinned: Mapping[str, Fraction],
    subset: Sequence[str] | None = None,
) -> CodiscrepancyResult:
    """Solve for the subset vertices *not* pinned, imposing the equations at
    those unknowns only and substituting the pinned values as constants.

    This is the computation that propagates externally known codiscrepancies
    (e.g. coefficients read off a weighted blowup) through the rest of a
    graph; the equations at the pinned vertices themselves are not imposed.
    Every pinned vertex must exist.
    """
    pins = {k: rational(v) for k, v in pinned.items()}
    ids = list(subset) if subset is not None else g.exceptional_ids()
    for p in pins:
        g.vertex(p)
    unknowns = [vid for vid in ids if vid not in pins]
    return CodiscrepancyResult.from_values({**pins, **_solve_subset(g, unknowns, pins, True)})


def implied_tail_start(g: DualGraph, root: str, pinned: Mapping[str, Fraction]) -> Fraction:
    """The rejection value for a configuration with a pinned root carrying a
    single attached tail of unknown curves.

    The subset is the exceptional curves. Its components without the root
    that contain no pinned vertex form the tail; there must be exactly one,
    attached by one simple edge. All other values are propagated from the
    pins, the root's own equation then dictates the codiscrepancy the tail
    vertex next to the root must have, and the chain rule for terminal
    (-2)-tails (consecutive values differ by the first one; constant past a
    fork) turns that into the value the far end of the tail must start with:

        pinned(root) - (a * pinned(root) - (a - 2) - sum of other neighbors)

    with a the minus self-intersection of the root. A negative result means
    no effective codiscrepancy divisor exists, so the configuration cannot be
    the minimal resolution the pinned data describes.
    """
    pins = {k: rational(v) for k, v in pinned.items()}
    if root not in pins:
        raise UnsupportedTail(f"root {root!r} must carry a pinned value")
    ids = g.exceptional_ids()
    idset = set(ids)
    if root not in idset:
        raise UnsupportedTail(f"root {root!r} is not in the subset")
    comps = g.components(idset - {root})
    tails = [c for c in comps if not (c & pins.keys())]
    if len(tails) != 1:
        raise UnsupportedTail(f"expected exactly one unpinned tail, found {len(tails)}")
    tail = tails[0]
    attach = [(w, m) for w, m in g.neighbors(root) if w in tail]
    if len(attach) != 1 or attach[0][1] != 1:
        raise UnsupportedTail("tail must attach to the root by a single simple edge")

    # a curve of the subset next to the tail lies in the tail's component,
    # so the tail meets the rest of the subset only at the root
    known_side = [vid for vid in ids if vid not in tail]
    propagated = pinned_codiscrepancies(g, pins, known_side)

    a = -g.vertex(root).self_int
    other_sum = Fraction(0)
    for w, mult in g.neighbors(root):
        # the tail holds no pin, and neighbors outside the system do not enter
        if w in propagated.values:
            other_sum += mult * propagated.values[w]
    required_next = a * pins[root] - (a - 2) - other_sum
    return pins[root] - required_next


def denominator_filter(result: CodiscrepancyResult, index: int) -> bool:
    """True when every value's reduced denominator divides the index."""
    if index <= 0:
        raise ValueError("index must be positive")
    return all(index % v.denominator == 0 for v in result.values.values())


def fundamental_cycle(
    g: DualGraph, subset: Sequence[str] | None = None
) -> tuple[Cycle, Fraction]:
    """Artin's fundamental cycle of a connected negative-definite
    configuration, with its arithmetic genus.

    The configuration's own (-1)-curves are blown down first, and Z is the
    pull-back of the residual's fundamental cycle (Laufer 1972). There,
    Laufer's loop adds to the sum of the curves any curve that meets the
    cycle positively until Z . E_j <= 0 everywhere, with each Z . E_j an
    integer and a stack of the positive ones: O(degree) a step. Z is the
    least such cycle, so no order matters. The contracted point is a
    rational singularity exactly when p_a(Z) = 0.
    """
    ids = sorted(g.exceptional_ids() if subset is None else subset)
    if len(set(ids)) != len(ids):
        g.intersection_matrix(subset)  # raises, naming the bad id or the repeated one
    if not ids:
        raise EmptySubset("empty subset")
    weight, nbrs, record = g._blow_down(ids)  # raises on the smallest unknown id
    if _view_parts(weight, nbrs, record) != 1:
        raise DiscrepancyError("fundamental cycle needs a connected configuration")
    # a transversal germ is never blown down, so this names the smallest one
    if not definiteness(_view_form(weight, nbrs)[0]).is_negative_definite:
        raise NotNegativeDefinite("configuration is not negative definite")
    if not weight:  # the last curve blown down is the residual then
        vid, record = record[-1][0], record[:-1]
        weight, nbrs = {vid: -1}, {vid: {}}
    coeffs = dict.fromkeys(weight, 1)
    dots = {vid: w + sum(nbrs[vid].values()) for vid, w in weight.items()}
    # a curve is pushed when its Z . E turns positive, and only a step on it
    # lowers Z . E again, so each positive curve is on the stack exactly once
    stack = [vid for vid in weight if dots[vid] > 0]
    while stack:
        vid = stack.pop()
        coeffs[vid] += 1
        dots[vid] += weight[vid]
        for w, m in nbrs[vid].items():
            if dots[w] <= 0 < dots[w] + m:
                stack.append(w)
            dots[w] += m
        if dots[vid] > 0:
            stack.append(vid)
    _pull_back(record, coeffs)
    # 2 p_a - 2 = Z.Z + Z.K, with Z.Z = sum c * (Z.E), K.E = -2 - E^2, and
    # Z.E = 0 on each curve blown down, as a pull-back meets it so
    zz_zk = sum(c * (dots.get(vid, 0) - 2 - g._by_id[vid].self_int) for vid, c in coeffs.items())
    return Cycle(coeffs), 1 + Fraction(zz_zk, 2)


def all_components_rational(g: DualGraph) -> bool:
    """Whether every connected component of the exceptional configuration
    has fundamental cycle of arithmetic genus zero."""
    comps = g.components(g.exceptional_ids())
    return all(fundamental_cycle(g, sorted(comp))[1] == 0 for comp in comps)


def mumford_pullback(
    g: DualGraph, attached: Cycle, subset: Sequence[str] | None = None
) -> Cycle:
    """Exceptional multiplicities of the numerical pullback.

    Given a cycle supported off the subset, find the unique coefficients m on
    the subset with (attached + sum m_i E_i) . E_j = 0 for every j in the
    subset, the subset solve with the attached cycle as known part and no
    canonical term. The subset defaults to every complete vertex.
    """
    ids = list(g.complete_ids() if subset is None else subset)
    known = attached.coefficients  # the nonzero coefficients only
    for vid in ids:
        if vid in known:
            raise DiscrepancyError(f"attached cycle meets the subset at {vid!r}")
    return Cycle(_solve_subset(g, ids, known, False))
