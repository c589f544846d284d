"""Shared test helpers: independent brute-force oracles and random graph
generators. Oracles here deliberately avoid the library's elimination code
so they can check it: the dense solver, kernel and definiteness below
eliminate in plain column order, with none of the library's sparse pivoting.

It also holds the reference checks that left the library because only tests
called them (the free-versus-pinned consistency test, the chain and fork
codiscrepancy rules, per-component classification, the definiteness of a
graph's whole complete form, numerical triviality and the multiplicity
between two curves) and the ``ade_graph`` generator of the
rational-double-point graphs."""

from __future__ import annotations

import random
from fractions import Fraction
from heapq import heappop, heappush
from itertools import combinations
from math import gcd, lcm
from typing import Mapping, Sequence

from resgraph.contract import (
    ContractionOutcome,
    CurveFiber,
    DisconnectedGraph,
    DuValPoint,
    NoCompleteVertices,
    NotContractible,
    RationalPoint,
    SmoothPoint,
    blow_down_once,
    classify,
    recognize_duval,
)
from resgraph.discrepancy import (
    CodiscrepancyResult,
    DiscrepancyError,
    NotNegativeDefinite,
    SingularConfiguration,
    pinned_codiscrepancies,
)
from resgraph.graph import Cycle, DualGraph, TransversalInSubset, Vertex, VertexKind, cycle_dot
from resgraph.linalg import (
    INDEFINITE,
    NEGATIVE_DEFINITE,
    NEGATIVE_SEMIDEFINITE,
    Definiteness,
    SingularMatrix,
    SymMatrix,
    UnderdeterminedSystem,
    definiteness,
    primitive_integer_vector,
    rational,
)


def det(rows: list[list[Fraction]]) -> Fraction:
    """Determinant by fraction-exact Gaussian elimination with row swaps."""
    m = [row[:] for row in rows]
    n = len(m)
    sign = 1
    result = Fraction(1)
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if m[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            sign = -sign
        result *= m[col][col]
        for r in range(col + 1, n):
            if m[r][col] == 0:
                continue
            f = m[r][col] / m[col][col]
            for c in range(col, n):
                m[r][c] -= f * m[col][c]
    return sign * result


def psd_by_minors(M: SymMatrix) -> bool:
    """Positive semidefiniteness by checking every principal minor >= 0.
    Exponential; only for small oracle checks."""
    n = M.dimension
    for size in range(1, n + 1):
        for idx in combinations(range(n), size):
            sub = [[M[i, j] for j in idx] for i in idx]
            if det(sub) < 0:
                return False
    return True


def pd_by_leading_minors(M: SymMatrix) -> bool:
    """Positive definiteness via leading principal minors (Sylvester)."""
    n = M.dimension
    for size in range(1, n + 1):
        sub = [[M[i, j] for j in range(size)] for i in range(size)]
        if det(sub) <= 0:
            return False
    return True


def sym_matrix(rows: list[list]) -> SymMatrix:
    """A SymMatrix from dense rows, which must be square and symmetric."""
    if any(len(row) != len(rows) for row in rows):
        raise ValueError("matrix is not square")
    return SymMatrix.from_sparse([dict(enumerate(row)) for row in rows])


def integral_rows(rows: list[list]) -> list[list[int]]:
    """Dense rational rows times the lcm of all their denominators: an
    integer matrix with the same kernel and definiteness, whose solution for
    a right-hand side scaled alike is the same."""
    scale = lcm(*(Fraction(x).denominator for row in rows for x in row))
    return [[int(x * scale) for x in row] for row in rows]


def dense_rows(M: SymMatrix) -> list[list[Fraction]]:
    """A mutable dense copy of the entries."""
    return [list(M.row(i)) for i in range(M.dimension)]


def apply(M: SymMatrix, x: list[Fraction]) -> list[Fraction]:
    """M x, over the stored nonzero entries of each row."""
    if len(x) != M.dimension:
        raise ValueError("dimension mismatch")
    return [sum((v * x[j] for j, v in row.items()), Fraction(0)) for row in M._rows]


def scaled(z: Cycle, factor) -> Cycle:
    return Cycle({vid: c * Fraction(factor) for vid, c in z.coefficients.items()})


def multiplicity(g: DualGraph, a: str, b: str) -> int:
    """The total multiplicity of the edges between two vertices of g."""
    return dict(g.neighbors(a)).get(b, 0)


def special_vertices(entry) -> dict[str, str]:
    """Role -> vertex id of a catalog entry, read off vertex labels."""
    return {v.label: v.id for v in entry.graph.vertices if v.label}


def negated(M: SymMatrix) -> SymMatrix:
    return sym_matrix([[-M[i, j] for j in range(M.dimension)] for i in range(M.dimension)])


def permuted(M: SymMatrix, perm: list[int]) -> SymMatrix:
    """Simultaneous row/column permutation: entry (i,j) of the result is
    entry (perm[i], perm[j]) of M."""
    if sorted(perm) != list(range(M.dimension)):
        raise ValueError("not a permutation")
    return sym_matrix([[M[pi, pj] for pj in perm] for pi in perm])


def quadratic_form(M: SymMatrix, x: list[Fraction]) -> Fraction:
    return sum((xi * yi for xi, yi in zip(x, apply(M, x))), Fraction(0))


def _dense_eliminate(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """In-place forward elimination to row echelon form. Pivot: the first
    row with a nonzero entry in the current column. Returns the echelon rows
    and the pivot column list."""
    n_rows = len(rows)
    n_cols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(n_cols):
        pivot_row = None
        for i in range(r, n_rows):
            if rows[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pv = rows[r][c]
        for i in range(r + 1, n_rows):
            if rows[i][c] == 0:
                continue
            f = rows[i][c] / pv
            for j in range(c, n_cols):
                rows[i][j] -= f * rows[r][j]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return rows, pivots


def dense_solve(M: SymMatrix, b: list[Fraction]) -> list[Fraction]:
    """M x = b by dense elimination of the augmented matrix, raising the
    library's SingularMatrix / UnderdeterminedSystem."""
    n = M.dimension
    aug = [list(M.row(i)) + [Fraction(b[i])] for i in range(n)]
    aug, pivots = _dense_eliminate(aug)
    if n in pivots:
        raise SingularMatrix("no solution")
    if len(pivots) < n:
        raise UnderdeterminedSystem("not unique")
    x = [Fraction(0)] * n
    for r in range(n - 1, -1, -1):
        c = pivots[r]
        s = aug[r][n]
        for j in range(c + 1, n):
            s -= aug[r][j] * x[j]
        x[c] = s / aug[r][c]
    return x


def dense_rank(M: SymMatrix) -> int:
    """The rank of M: the pivot count of its column-order echelon form."""
    return len(_dense_eliminate(dense_rows(M))[1])


def subset_system(
    g: DualGraph, unknowns: list[str], known: Mapping[str, Fraction], canonical: bool
) -> tuple[SymMatrix, list[Fraction]]:
    """The subset solve's system on the whole subset, with no blow-down:
    the form on ``unknowns`` and b_j = (2 + E_j^2 if canonical else 0) minus
    the known cycle's intersection with E_j."""
    matrix, order = g.intersection_matrix(unknowns)
    b = [
        (2 + g.vertex(vid).self_int if canonical else 0)
        - sum(m * known[w] for w, m in g.neighbors(vid) if w in known)
        for vid in order
    ]
    return matrix, b


def dense_subset_solve(g: DualGraph, unknowns: list[str], known: dict, canonical: bool):
    """The subset solve on the whole subset, by dense elimination: the values
    in the order of ``unknowns``, or the error type and message the library
    gives, with the rank of the whole system."""
    m, b = subset_system(g, unknowns, known, canonical)
    try:
        return dict(zip(unknowns, dense_solve(m, b)))
    except SingularMatrix:
        return SingularConfiguration, "no solution: b is outside the column space"
    except UnderdeterminedSystem:
        return SingularConfiguration, (
            f"rank {dense_rank(m)} < {len(unknowns)}: solutions exist but are not unique"
        )


def lcm_rows(M: SymMatrix, b: Sequence) -> tuple[SymMatrix, list[int]]:
    """The integer rows and right-hand side the elimination kernel starts
    from, set up apart from it: row i of M and b_i times the lcm of all
    their denominators. The rows come wrapped as a matrix, unchecked: scaled
    rows are no longer symmetric, but their zero pattern is, and that is the
    only symmetry the kernel needs."""
    rows, rhs = [], []
    for i in range(M.dimension):
        entries = {j: Fraction(v) for j, v in M._rows[i].items()}
        q = Fraction(b[i])
        scale = lcm(q.denominator, *(v.denominator for v in entries.values()))
        rows.append({j: int(v * scale) for j, v in entries.items()})
        rhs.append(int(q * scale))
    return SymMatrix._of_rows(tuple(rows)), rhs


def eliminate_oracle(
    M: SymMatrix, b: Sequence | None = None
) -> tuple[list[dict[int, int]], list[int], list[tuple[int, int]], list[int]]:
    """The library's elimination kernel as it was before its leaf step:
    the same integer rows, minimum-degree pivot order and 2x2 block pivots,
    with every step, a leaf's too, taken by the one general row update."""
    n = M.dimension
    b = [Fraction(0)] * n if b is None else [Fraction(q) for q in b]
    rows, rhs = [], []
    for row, q in zip(M._rows, b):
        entries = {j: Fraction(v) for j, v in row.items()}
        scale = lcm(q.denominator, *(v.denominator for v in entries.values()))
        rows.append({j: v.numerator * (scale // v.denominator) for j, v in entries.items()})
        rhs.append(q.numerator * (scale // q.denominator))
    active = [True] * n
    steps: list[tuple[int, int]] = []
    heap = sorted((len(row), i) for i, row in enumerate(rows) if i in row)

    def step(r: int, c: int) -> None:
        pivot_row = rows[r]
        p = pivot_row[c]
        active[r] = False
        steps.append((r, c))
        others = [(j, v) for j, v in pivot_row.items() if j != c]
        negative, size, b_r = p < 0, abs(p), rhs[r]
        for i in rows[c]:
            if i == r:
                continue
            row = rows[i]
            f = -row.pop(c) if negative else row.pop(c)
            g = gcd(f, size)
            scale, f = size // g, f // g
            if scale != 1:
                for j in row:
                    row[j] *= scale
                rhs[i] *= scale
            for j, v in others:
                x = row.get(j, 0) - f * v
                if x:
                    row[j] = x
                else:
                    del row[j]
            rhs[i] -= f * b_r
            if scale != 1 and (g := gcd(*row.values(), rhs[i])) > 1:
                for j in row:
                    row[j] //= g
                rhs[i] //= g
            if i in row:
                heappush(heap, (len(row), i))

    scan = 0
    while True:
        while heap:
            length, i = heappop(heap)
            if active[i] and i in rows[i] and len(rows[i]) == length:
                step(i, i)
                break
        else:
            while scan < n and not (active[scan] and rows[scan]):
                scan += 1
            if scan == n:
                break
            c = min(rows[scan])
            step(scan, c)
            step(c, scan)
    return rows, rhs, steps, [i for i in range(n) if active[i]]


def back_substitute_oracle(rows, steps, rhs, x: list[Fraction]) -> list[Fraction]:
    """Replay the steps last first in Fraction arithmetic: x[c] = (B_r -
    sum of R_r[j] x[j] over j != c) / R_r[c]. Other entries are given."""
    x = list(x)
    for r, c in reversed(steps):
        row = rows[r]
        s = Fraction(rhs[r]) - sum(v * x[j] for j, v in row.items() if j != c)
        x[c] = s / row[c]
    return x


def dense_kernel_basis(M: SymMatrix) -> list[list[int]]:
    """Kernel basis from the free columns of the column-order echelon form,
    in column order, each vector made primitive."""
    n = M.dimension
    rows, pivots = _dense_eliminate(dense_rows(M))
    basis = []
    for fc in [c for c in range(n) if c not in pivots]:
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for r in range(len(pivots) - 1, -1, -1):
            c = pivots[r]
            s = Fraction(0)
            for j in range(c + 1, n):
                s -= rows[r][j] * v[j]
            v[c] = s / rows[r][c]
        basis.append(primitive_integer_vector(v))
    return basis


def dense_definiteness(M: SymMatrix) -> tuple[str, int, list[list[int]]]:
    """(kind, corank, kernel) by symmetric pivoting on -M in index order: a
    positive pivot is eliminated through its Schur complement; a negative
    one, or a zero diagonal with a nonzero residual block, is indefinite."""
    n = M.dimension
    p = [[-x for x in M.row(i)] for i in range(n)]
    active = list(range(n))
    while active:
        pivot = next((idx for idx, a in enumerate(active) if p[a][a] != 0), None)
        if pivot is None:
            if any(p[a][b] != 0 for a in active for b in active):
                return INDEFINITE, 0, []
            break
        a = active.pop(pivot)
        if p[a][a] < 0:
            return INDEFINITE, 0, []
        for i in active:
            if p[i][a] != 0:
                f = p[i][a] / p[a][a]
                for j in active:
                    p[i][j] -= f * p[a][j]
    if not active:
        return NEGATIVE_DEFINITE, 0, []
    return NEGATIVE_SEMIDEFINITE, len(active), dense_kernel_basis(M)


def cycle_dot_restricted(g: DualGraph, z: Cycle, vid: str, idset: set[str]) -> Fraction:
    """Z . E_vid counting only edges inside idset."""
    total = z.coeff(vid) * g.vertex(vid).self_int
    for other, mult in g.neighbors(vid):
        if other in idset:
            total += mult * z.coeff(other)
    return total


def laufer_oracle(g: DualGraph, subset=None) -> tuple[Cycle, Fraction]:
    """Fundamental cycle and its arithmetic genus by the plain Laufer loop:
    rebuild Z as a Cycle after every +1 step and bump the smallest id with
    Z . E > 0. Checks and exceptions as in the library; definiteness comes
    from the dense oracle."""
    ids = sorted(set(g.exceptional_ids() if subset is None else subset))
    if not ids:
        raise DiscrepancyError("empty subset")
    if len(g.components(ids)) != 1:
        raise DiscrepancyError("fundamental cycle needs a connected configuration")
    matrix, _ = g.intersection_matrix(ids)
    if dense_definiteness(matrix)[0] != NEGATIVE_DEFINITE:
        raise NotNegativeDefinite("configuration is not negative definite")
    coeffs = {vid: Fraction(1) for vid in ids}
    idset = set(ids)
    while True:
        z = Cycle(coeffs)
        bump = next((vid for vid in ids if cycle_dot_restricted(g, z, vid, idset) > 0), None)
        if bump is None:
            break
        coeffs[bump] += 1
    zz = sum((coeffs[vid] * cycle_dot_restricted(g, z, vid, idset) for vid in ids), Fraction(0))
    zk = sum((coeffs[vid] * (-2 - g.vertex(vid).self_int) for vid in ids), Fraction(0))
    return z, 1 + (zz + zk) / 2


def cycle_pairing(g: DualGraph, a: Cycle, b: Cycle) -> Fraction:
    """Bilinear extension of cycle_dot; both supports must be complete."""
    total = Fraction(0)
    for vid, coeff in a.coefficients.items():
        total += coeff * cycle_dot(g, b, vid)
    return total


def canonical_dot(g: DualGraph, z: Cycle) -> Fraction:
    """Pairing with the canonical class under adjunction for rational
    curves: K . E = -2 - E^2 for every complete E."""
    total = Fraction(0)
    for vid, coeff in z.coefficients.items():
        v = g.vertex(vid)
        if not v.complete:
            raise TransversalInSubset(f"{vid!r} is transversal")
        total += coeff * (-2 - v.self_int)
    return total


def numerically_trivial(g: DualGraph, z: Cycle) -> bool:
    """True when the cycle pairs to zero with every complete vertex."""
    return all(cycle_dot(g, z, vid) == 0 for vid in g.complete_ids())


def arithmetic_genus(g: DualGraph, z: Cycle) -> Fraction:
    """p_a(Z) = 1 + (Z.Z + Z.K)/2, from the two pairings above; independent
    of the genus that fundamental_cycle computes from its own loop."""
    zz = cycle_pairing(g, z, z)
    zk = canonical_dot(g, z)
    return 1 + (zz + zk) / 2


# -- reference checks over solved results, and the ADE generator ---------


class NotAChain(DiscrepancyError):
    pass


def pinned_consistent(
    g: DualGraph,
    pinned: Mapping[str, Fraction],
    subset: Sequence[str] | None = None,
) -> bool:
    """Whether the free solve agrees exactly with every pinned value.

    Because the free solution is unique once the form is invertible, this is
    equivalent to consistency of the overdetermined pinned system.
    """
    free = pinned_codiscrepancies(g, {}, subset)
    return all(free.values.get(k) == rational(v) for k, v in pinned.items())


def chain_codiscrepancy_check(
    g: DualGraph, result: CodiscrepancyResult, chain: Sequence[str]
) -> bool:
    """Check the arithmetic-progression rule on a terminal (-2)-chain.

    ``chain`` lists the vertices from the free end inward; every vertex
    except possibly the last must be a (-2)-curve, the first must have no
    other neighbor inside the solved set, and consecutive entries must be
    joined by simple edges. True exactly when value(chain[k]) equals
    (k+1) * value(chain[0]) for all k, the last entry included.
    """
    ids = list(chain)
    if not ids:
        raise NotAChain("empty chain")
    solved = set(result.values)
    for vid in ids:
        if vid not in solved:
            raise NotAChain(f"{vid!r} has no solved codiscrepancy")
    for vid in ids[:-1]:
        if g.vertex(vid).self_int != -2:
            raise NotAChain(f"{vid!r} is not a (-2)-curve")
    for prev, cur in zip(ids, ids[1:]):
        if multiplicity(g, prev, cur) != 1:
            raise NotAChain(f"{prev!r} and {cur!r} are not joined by a simple edge")
    # the free end has one solved neighbor: the next chain vertex, or the
    # attachment itself when the chain has length one
    first_nbrs = [w for w, _ in g.neighbors(ids[0]) if w in solved]
    if len(ids) > 1 and first_nbrs != [ids[1]]:
        raise NotAChain(f"{ids[0]!r} is not a terminal chain end")
    if len(ids) == 1 and len(first_nbrs) > 1:
        raise NotAChain(f"{ids[0]!r} is not a terminal chain end")
    for mid_index in range(1, len(ids) - 1):
        vid = ids[mid_index]
        inside = [w for w, _ in g.neighbors(vid) if w in solved]
        if sorted(inside) != sorted([ids[mid_index - 1], ids[mid_index + 1]]):
            raise NotAChain(f"{vid!r} has neighbors off the chain")
    start = result.values[ids[0]]
    return all(result.values[vid] == (k + 1) * start for k, vid in enumerate(ids))


def fork_codiscrepancy_check(
    g: DualGraph,
    result: CodiscrepancyResult,
    legs: Sequence[str],
    fork: str,
    chain: Sequence[str] = (),
) -> bool:
    """Check the rule for a terminal D-shaped (-2)-tail: the two legs carry
    equal values, each half the fork's, and the chain continuing from the
    fork stays constant at the fork's value."""
    if len(legs) != 2:
        raise NotAChain("a D-shaped tail has exactly two legs")
    for vid in (*legs, fork, *chain):
        if vid not in result.values:
            raise NotAChain(f"{vid!r} has no solved codiscrepancy")
    for leg in legs:
        if g.vertex(leg).self_int != -2 or multiplicity(g, leg, fork) != 1:
            raise NotAChain(f"{leg!r} is not a simple (-2)-leg of {fork!r}")
    f = result.values[fork]
    if not all(result.values[leg] * 2 == f for leg in legs):
        return False
    return all(result.values[vid] == f for vid in chain)


def classify_components(g: DualGraph) -> dict[str, ContractionOutcome]:
    """Classify each connected component of the complete part separately,
    with the transversal germs that meet it; keys are the smallest vertex id
    of each component."""
    complete = g.complete_ids()
    if not complete:
        raise NoCompleteVertices("no complete vertices to contract")
    outcomes: dict[str, ContractionOutcome] = {}
    for comp in g.components(complete):
        # a complete neighbour of the component is in it, so the rest are germs
        keep = comp | {w for vid in comp for w, _ in g.neighbors(vid)}
        vertices = [v for v in g.vertices if v.id in keep]
        edges = {(a, b): m for (a, b), m in g.edges().items() if a in keep and b in keep}
        outcomes[min(comp)] = classify(DualGraph(g.name, vertices, edges))
    return outcomes


def assert_lowest_terms(values) -> None:
    """Each value is a Fraction with a positive denominator coprime to its
    numerator, so it equals and hashes like the one the constructor makes."""
    for q in values:
        n, d = q.numerator, q.denominator
        assert type(q) is Fraction and d > 0 and gcd(n, d) == 1, (n, d)
        assert q == Fraction(n, d) and hash(q) == hash(Fraction(n, d))


def built_parts(g: DualGraph) -> tuple:
    """Everything a graph holds, in its order: name, vertices, and the id,
    edge and adjacency tables."""
    return g.name, g.vertices, list(g._by_id.items()), list(g._edges.items()), list(
        g._adjacency.items()
    )


def ade_graph(family: str, rank: int, name: str | None = None) -> DualGraph:
    """The all-(-2) dual graph of a rational double point of the given type:
    a chain for A, a chain with two short prongs for D, the three E shapes."""
    family = family.upper()
    if family == "A":
        if rank < 1:
            raise ValueError("A rank must be >= 1")
        legs: list[tuple[str, str]] = [(f"v{i}", f"v{i+1}") for i in range(1, rank)]
        ids = [f"v{i}" for i in range(1, rank + 1)]
    elif family == "D":
        if rank < 4:
            raise ValueError("D rank must be >= 4")
        ids = [f"v{i}" for i in range(1, rank + 1)]
        legs = [(f"v{i}", f"v{i+1}") for i in range(1, rank - 1)]
        legs.append((f"v{rank - 2}", f"v{rank}"))
    elif family == "E":
        if rank not in (6, 7, 8):
            raise ValueError("E rank must be 6, 7 or 8")
        ids = [f"v{i}" for i in range(1, rank + 1)]
        legs = [(f"v{i}", f"v{i+1}") for i in range(1, rank - 1)] + [("v3", f"v{rank}")]
    else:
        raise ValueError(f"unknown family {family!r}")
    vertices = [Vertex(vid, VertexKind.EXCEPTIONAL, -2) for vid in ids]
    return DualGraph(name or f"{family}{rank}", vertices, legs)


def contract_oracle(g: DualGraph, choose=min) -> DualGraph:
    """Contract complete (-1)-curves until none remain by iterating the
    one-step reference blow_down_once, with a new DualGraph and a full rescan
    for the sorted candidate list after every blow-down."""
    current = g
    while True:
        candidates = sorted(
            v.id for v in current.vertices if v.complete and v.self_int == -1
        )
        if not candidates:
            return current
        current = blow_down_once(current, choose(candidates))


def complete_definiteness(g: DualGraph) -> Definiteness:
    """Definiteness of the intersection form on all complete vertices
    (``classify`` reads it off the blown-down residual instead)."""
    matrix, _ = g.intersection_matrix()
    return definiteness(matrix)


def classify_oracle(g: DualGraph, choose=min) -> ContractionOutcome:
    """``classify`` as it was before it blew down first: the dense
    definiteness of the whole complete form decides the branch, the one-step
    blow-downs of contract_oracle give the residual, and a fiber's cycle is
    the dense kernel vector. Checks and messages as in the library."""
    complete = g.complete_ids()
    if not complete:
        raise NoCompleteVertices("no complete vertices to contract")
    comps = g.components(complete)
    if len(comps) > 1:
        named = ", ".join(repr(min(comp)) for comp in comps)
        raise DisconnectedGraph(
            f"complete part has {len(comps)} components, at {named}; "
            "classify each one as its own graph"
        )
    matrix, order = g.intersection_matrix()
    kind, _, kernel = dense_definiteness(matrix)
    if kind == INDEFINITE:
        return NotContractible("intersection form is indefinite")
    residual = contract_oracle(g, choose)
    rest = residual.complete_ids()
    if kind == NEGATIVE_DEFINITE:
        if not rest:
            return SmoothPoint()
        ade = recognize_duval(residual)
        return RationalPoint(residual) if ade is None else DuValPoint(ade)
    if len(rest) == 1 and residual.vertex(rest[0]).self_int == 0:
        return CurveFiber(Cycle(dict(zip(order, kernel[0]))))
    return NotContractible(
        "semidefinite with positive kernel but blow-down does not end in a zero-curve"
    )


def inertia(M: SymMatrix) -> tuple[int, int, int]:
    """(negative, zero, positive) eigenvalue counts of a symmetric integer
    matrix, from its characteristic polynomial (Faddeev-LeVerrier, exact)
    by Descartes' rule of signs, which is exact when every root is real."""
    a = [[int(x) for x in row] for row in dense_rows(M)]
    n = len(a)
    coeffs = [1]  # det(xI - A), highest power first
    mk = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        mk = [[sum(a[i][t] * mk[t][j] for t in range(n)) + (coeffs[-1] if i == j else 0)
               for j in range(n)] for i in range(n)]
        trace = sum(a[i][t] * mk[t][i] for i in range(n) for t in range(n))
        if trace % k:
            raise ArithmeticError("Faddeev-LeVerrier trace not divisible")
        coeffs.append(-trace // k)

    def sign_changes(cs):
        signs = [c > 0 for c in cs if c]
        return sum(x != y for x, y in zip(signs, signs[1:]))

    zero = next((k for k, c in enumerate(reversed(coeffs)) if c), n)
    positive = sign_changes(coeffs)
    negative = sign_changes([c if (n - k) % 2 == 0 else -c for k, c in enumerate(coeffs)])
    assert negative + zero + positive == n
    return negative, zero, positive


def relabel(g: DualGraph, rng: random.Random) -> tuple[DualGraph, dict[str, str]]:
    """g with its ids permuted by a seeded bijection, in the same vertex
    order, and the map from each old id to its new one. The library blows
    down smallest id first, so a test changes the order it contracts in by
    renaming the curves."""
    ids = g.ids()
    names = dict(zip(ids, rng.sample(ids, len(ids))))
    vertices = [Vertex(names[v.id], v.kind, v.self_int, v.label) for v in g.vertices]
    edges = {(names[a], names[b]): m for (a, b), m in g.edges().items()}
    return DualGraph(g.name, vertices, edges), names


def point_blowups(rng: random.Random, base: DualGraph, k: int, prefix: str = "x") -> DualGraph:
    """k random point blow-ups over a base of complete exceptional curves
    (an empty base is a smooth point). Each new (-1)-curve goes on a free
    point of one curve or on the crossing point of an edge; every curve it
    meets drops one in self-intersection, and a blown-up crossing loses one
    from its multiplicity."""
    weights = {v.id: v.self_int for v in base.vertices}
    edges = dict(base.edges())
    for i in range(k):
        new = f"{prefix}{i}"
        if edges and rng.random() < 0.5:
            hit = rng.choice(list(edges))
            edges[hit] -= 1
            if not edges[hit]:
                del edges[hit]
        else:
            hit = (rng.choice(list(weights)),) if weights else ()
        for vid in hit:
            weights[vid] -= 1
            edges[(vid, new) if vid <= new else (new, vid)] = 1
        weights[new] = -1
    vertices = [Vertex(vid, VertexKind.EXCEPTIONAL, w) for vid, w in weights.items()]
    return DualGraph(base.name, vertices, edges)


def random_tree_graph(
    rng: random.Random,
    size: int,
    weights=(-2, -3, -4, -5),
    name: str = "random",
) -> DualGraph:
    """A random tree of complete exceptional curves with random weights."""
    ids = [f"n{i}" for i in range(size)]
    vertices = [Vertex(vid, VertexKind.EXCEPTIONAL, rng.choice(weights)) for vid in ids]
    edges = []
    for i in range(1, size):
        edges.append((ids[rng.randrange(i)], ids[i]))
    return DualGraph(name, vertices, edges)


def random_cyclic_graph(
    rng: random.Random, size: int, weights=(-5, -6, -7, -8), name: str = "cyclic"
) -> DualGraph:
    """A random tree plus size // 10 random extra edges, each between two
    curves not yet adjacent: a graph with that many independent cycles."""
    tree = random_tree_graph(rng, size, weights, name)
    edges = dict(tree.edges())
    while len(edges) < size - 1 + size // 10:
        a, b = sorted(f"n{i}" for i in rng.sample(range(size), 2))
        edges.setdefault((a, b), 1)
    return DualGraph(name, tree.vertices, edges)


def attach_chain(g: DualGraph, anchor: str, length: int, prefix: str = "c") -> DualGraph:
    """Attach a terminal (-2)-chain to a vertex; chain ids prefix0..prefixN
    run from the free end toward the anchor."""
    ids = [f"{prefix}{i}" for i in range(length)]
    vertices = list(g.vertices) + [Vertex(vid, VertexKind.EXCEPTIONAL, -2) for vid in ids]
    edges = dict(g.edges())
    chain_edges = list(zip(ids, ids[1:])) + [(ids[-1], anchor)]
    for a, b in chain_edges:
        key = (a, b) if a <= b else (b, a)
        edges[key] = edges.get(key, 0) + 1
    return DualGraph(g.name, vertices, edges)


def attach_fork_tail(
    g: DualGraph, anchor: str, chain_length: int, prefix: str = "f"
) -> DualGraph:
    """Attach a D-shaped (-2)-tail: two legs on a fork, then a chain of the
    given length down to the anchor."""
    legs = [f"{prefix}l1", f"{prefix}l2"]
    fork = f"{prefix}k"
    chain = [f"{prefix}m{i}" for i in range(chain_length)]
    new_ids = legs + [fork] + chain
    vertices = list(g.vertices) + [
        Vertex(vid, VertexKind.EXCEPTIONAL, -2) for vid in new_ids
    ]
    path = [fork] + chain + [anchor]
    edges = dict(g.edges())
    for a, b in [(legs[0], fork), (legs[1], fork)] + list(zip(path, path[1:])):
        key = (a, b) if a <= b else (b, a)
        edges[key] = edges.get(key, 0) + 1
    return DualGraph(g.name, vertices, edges)
