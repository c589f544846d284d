"""Exact rational linear algebra: sparse symmetric matrices, solving,
definiteness and kernels.

Every scalar is a ``fractions.Fraction`` (arbitrary precision, always in
lowest terms, positive denominator); nothing in this module ever rounds.
Matrices are immutable, safe to share, and stored sparsely. ``solve``,
``definiteness`` and ``kernel_basis`` share one elimination kernel whose
minimum-degree pivot order peels leaves on a forest (which resolution graphs
almost always are): no fill-in, short rationals, time linear in the size.
"""

from __future__ import annotations

import re
from fractions import Fraction
from heapq import heappop, heappush
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence

_ZERO = Fraction(0)
_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


class LinAlgError(Exception):
    """Base class for exact linear algebra errors."""


class SingularMatrix(LinAlgError):
    """The system M x = b has no solution (b outside the column space)."""


class UnderdeterminedSystem(LinAlgError):
    """The system M x = b is solvable but the solution is not unique."""


def rational(value) -> Fraction:
    """Coerce ints, strings like ``"3/4"`` or ``"-2"``, and Fractions.

    A string must be ``[+-]p`` or ``[+-]p/q`` in ASCII digits; decimals,
    exponents and underscores are a ValueError, so a short string cannot
    ask for a huge number (``Fraction("1e10000000")`` builds 10^10^7).
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        if not _RATIONAL.fullmatch(text):
            raise ValueError(f"Invalid literal for Fraction: {text!r}")
        return Fraction(text)
    raise TypeError(f"not an exact rational: {value!r}")


def format_rational(value: Fraction) -> str:
    """Render as ``p/q``, or plain ``p`` when the denominator is 1."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


class SymMatrix:
    """An immutable symmetric matrix of Fractions, stored as one dict of
    nonzero entries per row; ``from_sparse`` builds one."""

    __slots__ = ("dimension", "_rows")

    @classmethod
    def from_sparse(cls, rows: Sequence[Mapping[int, Fraction | int]]) -> "SymMatrix":
        """Build from one ``{column: value}`` mapping per row, in time linear
        in the number of entries."""
        n = len(rows)
        # One Fraction per distinct value: few conversions, and the symmetry
        # check mostly compares an object with itself.
        fraction = {x: rational(x) for x in {x for row in rows for x in row.values()}}
        table = tuple({j: q for j, x in row.items() if (q := fraction[x])} for row in rows)
        for i, row in enumerate(table):
            for j, x in row.items():
                if not 0 <= j < n:
                    raise ValueError(f"column {j} out of range in row {i}")
                if (y := table[j].get(i)) is not x and y != x:
                    raise ValueError(f"matrix is not symmetric at ({i},{j})")
        matrix = cls.__new__(cls)
        matrix.dimension, matrix._rows = n, table
        return matrix

    def __getitem__(self, key) -> Fraction:
        i, j = key
        return self._rows[i].get(range(self.dimension)[j], _ZERO)

    def row(self, i: int) -> tuple[Fraction, ...]:
        entries = self._rows[i]
        return tuple(entries.get(j, _ZERO) for j in range(self.dimension))

    def __eq__(self, other) -> bool:
        return isinstance(other, SymMatrix) and self._rows == other._rows

    def __hash__(self):
        return hash(tuple(frozenset(row.items()) for row in self._rows))

    def __repr__(self) -> str:
        body = "; ".join(
            " ".join(format_rational(x) for x in self.row(i))
            for i in range(self.dimension)
        )
        return f"SymMatrix[{body}]"


def _eliminate(
    M: SymMatrix, rhs: list[Fraction] | None = None
) -> tuple[list[dict[int, Fraction]], list[tuple[int, int]], list[int]]:
    """Sparse Gaussian elimination of M, doing the same row operations on
    rhs, when given, in place.

    A step (r, c) uses row r to clear column c from the other rows. Pivots
    are nonzero diagonal entries of minimum current row length (ties to the
    smaller index); on a forest that peels leaves, a perfect elimination
    order. With no nonzero diagonal left, an entry (r, c) is cleared by the
    steps (r, c), (c, r): a 2x2 block pivot, after which the remaining rows
    are symmetric again. Returns the rows, the steps, and the rows left
    over, which are zero. A pivot row and its rhs entry never change after
    their step, so back-substitution can replay the steps.
    """
    n = M.dimension
    rows = [dict(row) for row in M._rows]
    active = [True] * n
    steps: list[tuple[int, int]] = []
    heap = sorted((len(row), i) for i, row in enumerate(rows) if i in row)  # a heap

    def step(r: int, c: int) -> None:
        pivot_row = rows[r]
        p = pivot_row[c]
        active[r] = False
        steps.append((r, c))
        # The remaining rows with an entry in column c: by symmetry these
        # are the keys of row c, or of row r for the second half of a pair.
        for i in [i for i in rows[c] if i != r]:
            row = rows[i]
            f = row.pop(c) / p
            for j, v in pivot_row.items():
                if j != c:
                    x = row.get(j, _ZERO) - f * v
                    if x:
                        row[j] = x
                    else:
                        del row[j]
            if rhs is not None:
                rhs[i] -= f * rhs[r]
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
            # A row that is empty stays empty, so the scan never goes back.
            while scan < n and not (active[scan] and rows[scan]):
                scan += 1
            if scan == n:
                break
            c = min(rows[scan])
            step(scan, c)
            step(c, scan)
    return rows, steps, [i for i in range(n) if active[i]]


def _back_substitute(rows, steps, rhs: list[Fraction], x: list[Fraction]) -> list[Fraction]:
    """Set x[c] for each step (r, c), last first; other entries are given."""
    for r, c in reversed(steps):
        s = rhs[r]
        for j, v in rows[r].items():
            if j != c:
                s -= v * x[j]
        x[c] = s / rows[r][c]
    return x


def solve(M: SymMatrix, b: Sequence[Fraction | int]) -> list[Fraction]:
    """Solve M x = b exactly.

    Raises SingularMatrix when no solution exists and UnderdeterminedSystem
    when the solution is not unique; the returned x satisfies M x = b
    bit-exactly.
    """
    n = M.dimension
    rhs = [rational(v) for v in b]
    if len(rhs) != n:
        raise ValueError("right-hand side has wrong length")
    rows, steps, rest = _eliminate(M, rhs)
    # The rows left over are zero; a nonzero rhs there marks inconsistency.
    if any(rhs[i] for i in rest):
        raise SingularMatrix("no solution: b is outside the column space")
    if rest:
        raise UnderdeterminedSystem(
            f"rank {len(steps)} < {n}: solutions exist but are not unique"
        )
    return _back_substitute(rows, steps, rhs, [_ZERO] * n)


def primitive_integer_vector(v: Sequence[Fraction]) -> list[int]:
    """Scale a nonzero rational vector to a primitive integer vector whose
    first nonzero entry is positive."""
    scale = lcm(*(x.denominator for x in v))
    ints = [int(x * scale) for x in v]
    g = gcd(*ints)
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    if next(x for x in ints if x) < 0:
        g = -g
    return [x // g for x in ints]


def _echelon_from_last_column(vectors: list[list[Fraction]], n: int) -> list[list[Fraction]]:
    """Reduced echelon form, up to scaling, of a kernel basis: pivots taken
    from the last column back, returned in column order. The pivots are the
    columns of M that depend on the ones before them."""
    pending = [list(v) for v in vectors]
    done: list[list[Fraction]] = []
    for col in reversed(range(n)):
        k = next((k for k, v in enumerate(pending) if v[col]), None)
        if k is None:
            continue
        pick = pending.pop(k)
        for v in pending + done:
            if v[col]:
                f = v[col] / pick[col]
                for j, x in enumerate(pick):
                    v[j] -= f * x
        done.append(pick)
    return done[::-1]


def kernel_basis(M: SymMatrix) -> list[list[int]]:
    """A basis of the kernel of M, as primitive integer vectors.

    The basis is the one column-order elimination gives: for each column
    that depends on the columns before it, in column order, the kernel
    vector that is 1 there and 0 on the other such columns. So the result is
    deterministic and independent of the pivot order.
    """
    n = M.dimension
    zeros = [_ZERO] * n
    rows, steps, free = _eliminate(M)
    basis = []
    for f in free:
        x = list(zeros)
        x[f] = Fraction(1)
        basis.append(_back_substitute(rows, steps, zeros, x))
    return [primitive_integer_vector(v) for v in _echelon_from_last_column(basis, n)]


NEGATIVE_DEFINITE = "NegativeDefinite"
NEGATIVE_SEMIDEFINITE = "NegativeSemidefiniteCorank"
INDEFINITE = "Indefinite"


class Definiteness:
    """Exact classification of a symmetric matrix as a quadratic form.

    kind is one of NEGATIVE_DEFINITE, NEGATIVE_SEMIDEFINITE, INDEFINITE;
    corank and kernel (primitive integer vectors) are filled for the
    semidefinite case.
    """

    __slots__ = ("kind", "corank", "kernel")

    def __init__(self, kind: str, corank: int = 0, kernel: Iterable[Sequence[int]] = ()):
        self.kind = kind
        self.corank = corank
        self.kernel = [list(v) for v in kernel]

    @property
    def is_negative_definite(self) -> bool:
        return self.kind == NEGATIVE_DEFINITE

    @property
    def is_negative_semidefinite(self) -> bool:
        return self.kind == NEGATIVE_SEMIDEFINITE

    def render(self) -> str:
        if self.kind == NEGATIVE_SEMIDEFINITE:
            return f"NegativeSemidefiniteCorank({self.corank})"
        return self.kind

    def __repr__(self) -> str:
        return f"Definiteness({self.render()})"


def definiteness(M: SymMatrix) -> Definiteness:
    """Classify M as negative definite, negative semidefinite (with corank
    and kernel basis), or indefinite. It raises LinAlgError only if the
    elimination and ``kernel_basis`` disagree on the corank, a defect.

    By Sylvester's law of inertia M is negative semidefinite exactly when
    every pivot is a negative diagonal entry; a 2x2 block pivot has one
    eigenvalue of each sign. The corank is the number of rows left over.
    """
    rows, steps, rest = _eliminate(M)
    if any(r != c or rows[r][r] > 0 for r, c in steps):
        return Definiteness(INDEFINITE)
    corank = len(rest)
    if corank == 0:
        return Definiteness(NEGATIVE_DEFINITE)
    kernel = kernel_basis(M)
    if len(kernel) != corank:
        raise LinAlgError(
            f"elimination found corank {corank} but the kernel has dimension {len(kernel)}"
        )
    return Definiteness(NEGATIVE_SEMIDEFINITE, corank, kernel)
