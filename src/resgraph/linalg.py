"""Exact linear algebra on integer forms: sparse symmetric int matrices,
solving with rational right-hand sides, definiteness and kernels.

Every result is an exact rational: a ``fractions.Fraction`` in lowest terms
with a positive denominator; nothing in this module ever rounds. Matrices
hold ints only, are immutable, safe to share, and stored sparsely.
``solve``, ``definiteness`` (its kernel too) and ``kernel_basis`` each
answer from one run of a fraction-free elimination kernel on integer rows,
whose minimum-degree pivot order peels leaves on a forest (which resolution
graphs almost always are): no fill-in, short integers, time linear in the
size, with each leaf's one-entry update taken inline.

``Value``, the base of the package's immutable value classes, lives here
because this is the module every other one imports.
"""

from __future__ import annotations

import re
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence

_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _fraction(numerator: int, denominator: int) -> Fraction:
    """The Fraction of a coprime pair with ``denominator > 0``, built by
    setting its two slots, as CPython 3.12's private classmethod
    ``Fraction._from_coprime_ints`` does. It skips the type checks and the
    gcd of the constructor: about 0.2 us a value on CPython 3.11 against
    0.6-0.8 us for ``Fraction(n, d)``, whose ``_normalize=False`` saves
    nothing there (``timeit``). ``tests/test_linalg.py`` fails if a CPython
    renames the slots."""
    value = object.__new__(Fraction)
    value._numerator, value._denominator = numerator, denominator
    return value


class LinAlgError(Exception):
    """Base class for exact linear algebra errors."""


class SingularMatrix(LinAlgError):
    """The system M x = b has no solution (b outside the column space)."""


class UnderdeterminedSystem(LinAlgError):
    """M x = b is solvable but not uniquely; ``rank`` is M's, if given."""

    def __init__(self, message: str, rank: int | None = None):
        super().__init__(message)
        self.rank = rank


class Value:
    """Base of resgraph's immutable value classes.

    A subclass names its fields, in order, as its own ``__slots__`` and sets
    them in ``__init__`` with ``object.__setattr__``; a slot whose name
    starts with ``_`` is private, not a field. It then compares equal
    only to an instance of the same class with equal fields, hashes its
    fields (a TypeError when one is unhashable), has the repr
    ``Name(field=value, ...)``, and raises AttributeError on any assignment.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__ if name[0] != "_")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        body = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__slots__ if name[0] != "_"
        )
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def rational(value) -> Fraction:
    """Coerce ints, strings like ``"3/4"`` or ``"-2"``, and Fractions.

    A string must be ``[+-]p`` or ``[+-]p/q`` in ASCII digits; decimals,
    exponents and underscores are a ValueError, so a short string cannot
    ask for a huge number (``Fraction("1e10000000")`` builds 10^10^7).
    """
    if type(value) is int:
        return _fraction(value, 1)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):  # a bool, or another subclass of int
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        if not _RATIONAL.fullmatch(text):
            raise ValueError(f"Invalid literal for Fraction: {text!r}")
        return Fraction(text)
    raise TypeError(f"not an exact rational: {value!r}")


def format_rational(value: Fraction | int) -> str:
    """Render as ``p/q``, or plain ``p`` when the denominator is 1, in full:
    a part past CPython's limit on ``str`` of an int (4300 digits by default)
    is written through ``decimal``, which the limit does not cover."""
    n, d = value.numerator, value.denominator
    try:
        return str(n) if d == 1 else f"{n}/{d}"
    except ValueError:
        from decimal import Decimal  # only a number past the limit needs it

        return str(Decimal(n)) if d == 1 else f"{Decimal(n)}/{Decimal(d)}"


class SymMatrix:
    """An immutable symmetric matrix of integers, stored as one dict of
    nonzero ``int`` entries per row; ``from_sparse`` builds one. Indexing,
    ``row`` and ``repr`` give Fractions, as every answer of this module is
    one."""

    __slots__ = ("dimension", "_rows")

    @classmethod
    def from_sparse(cls, rows: Sequence[Mapping[int, Fraction | int | str]]) -> "SymMatrix":
        """Build from one ``{column: integer}`` mapping per row, any value
        ``rational`` reads, in time linear in the number of entries."""
        n = len(rows)
        # One conversion per distinct value: few conversions, and the
        # symmetry check mostly compares an object with itself.
        exact = {
            x: q.numerator if (q := rational(x)).denominator == 1 else q
            for x in {x for row in rows for x in row.values()}
        }
        table = tuple({j: q for j, x in row.items() if (q := exact[x])} for row in rows)
        for i, row in enumerate(table):
            for j, x in row.items():
                if not 0 <= j < n:
                    raise ValueError(f"column {j} out of range in row {i}")
                if type(x) is not int:
                    raise ValueError(f"entry ({i},{j}) is {format_rational(x)}, not an integer")
                if (y := table[j].get(i)) is not x and y != x:
                    raise ValueError(f"matrix is not symmetric at ({i},{j})")
        return cls._of_rows(table)

    @classmethod
    def _of_rows(cls, rows: tuple[dict[int, int], ...]) -> "SymMatrix":
        """Wrap rows already in storage form, unchecked and uncopied: the
        caller guarantees they are symmetric, in range and hold only nonzero
        ints."""
        matrix = cls.__new__(cls)
        matrix.dimension, matrix._rows = len(rows), rows
        return matrix

    def __getitem__(self, key) -> Fraction:
        i, j = key
        return Fraction(self._rows[i].get(range(self.dimension)[j], 0))

    def row(self, i: int) -> tuple[Fraction, ...]:
        entries = self._rows[i]
        return tuple(Fraction(entries.get(j, 0)) for j in range(self.dimension))

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
    M: SymMatrix, b: Sequence[Fraction | int] | None = None, stop: bool = False
) -> tuple[list[dict[int, int]], list[int], list[tuple[int, int]], list[int]]:
    """Fraction-free sparse Gaussian elimination of M, doing the same row
    operations on the right-hand side b (zero when not given).

    Each row i is held as integers, R_i and its right-hand side B_i: row i
    of M and b_i times the denominator of b_i, so a row whose b_i is an
    integer (every row of a canonical right-hand side, and of a pinned one
    all but the rows next to a pin) is copied as it is. A step (r, c) uses
    row r, pivot p = R_r[c], to clear column c from each other row i as
    R_i := (|p|/g) R_i - sgn(p) (R_i[c]/g) R_r with g = gcd(p, R_i[c]); a
    row so scaled by more than 1 is then divided, with B_i, by its content
    gcd (fraction-free elimination, Bareiss 1968, with gcds in place of the
    exact division). Every R_i stays a positive multiple of the row
    rational elimination would hold, so the zero pattern, the pivot order
    and the pivot signs are the same.

    Pivots are nonzero diagonal entries of minimum current row length (ties
    to the smaller index); on a forest that peels leaves, a perfect
    elimination order. A leaf step, on a pivot row with at most one other
    entry (i, v), is that update inline: after the scaling it changes only
    R_i[i] and B_i, and it takes the content gcd only when gcd(R_i[i], B_i),
    which the content divides, is not 1. With no nonzero diagonal left, an
    entry (r, c) is cleared by the steps (r, c), (c, r): a 2x2 block pivot,
    after which the remaining rows are symmetric again up to positive
    scaling. Returns the rows, the right-hand sides, the steps, and the rows
    left over, which are zero. A pivot row and its right-hand side never
    change after their step, so back-substitution can replay the steps.

    With ``stop``, it returns right after a positive pivot or a 2x2 block
    pivot, either of which proves M indefinite (Sylvester's law of inertia;
    Bunch and Kaufman 1977); its last list is then the rows still active.
    """
    n = M.dimension
    if b is None:
        b = [0] * n
    rows = [
        dict(row) if (d := q.denominator) == 1 else {j: v * d for j, v in row.items()}
        for row, q in zip(M._rows, b)
    ]
    rhs = [q.numerator for q in b]
    active = [True] * n
    steps: list[tuple[int, int]] = []
    heap = [(len(row), i) for i, row in enumerate(rows) if i in row]
    heapify(heap)

    def step(r: int, c: int) -> None:
        pivot_row = rows[r]
        p = pivot_row[c]
        active[r] = False
        steps.append((r, c))
        others = [(j, v) for j, v in pivot_row.items() if j != c]
        negative, size, b_r = p < 0, abs(p), rhs[r]
        # The remaining rows with an entry in column c: by symmetry these
        # are the keys of row c, or of row r for the second half of a pair.
        # No step changes row c while it runs: row c has no entry in
        # column c unless c is r, the pivot row.
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
            # An unscaled update costs the length of the pivot row, not of
            # row i: at a vertex of high degree the scale is soon 1 for
            # every leaf, as it would be for a common denominator.
            if scale != 1 and (g := gcd(*row.values(), rhs[i])) > 1:
                for j in row:
                    row[j] //= g
                rhs[i] //= g
            if i in row:
                heappush(heap, (len(row), i))

    scan = 0
    while True:
        while heap:
            length, r = heappop(heap)
            pivot_row = rows[r]
            if len(pivot_row) != length or not active[r] or r not in pivot_row:
                # stale: the row changed or stepped since; after the last step, all are
                if len(steps) == n:
                    heap.clear()
                continue
            if stop and pivot_row[r] > 0:
                step(r, r)
                break
            if length > 2:
                step(r, r)
                continue
            active[r] = False  # a leaf step, step(r, r) inline
            steps.append((r, r))
            if length == 1:
                continue
            i, j = pivot_row
            i = j if i == r else i
            p, v, row = pivot_row[r], pivot_row[i], rows[i]
            f = -row.pop(r) if p < 0 else row.pop(r)
            size = -p if p < 0 else p
            g = gcd(f, size)
            scale, f = size // g, f // g
            if scale != 1:
                for j in row:
                    row[j] *= scale
                rhs[i] *= scale
            x = row.get(i, 0) - f * v
            rhs[i] = b_i = rhs[i] - f * rhs[r]
            if x:
                row[i] = x
                heappush(heap, (len(row), i))  # a division below keeps the length
            else:  # f v is not 0, so the diagonal was there and cancelled
                del row[i]
            if scale != 1 and gcd(x, b_i) != 1 and (g := gcd(*row.values(), b_i)) > 1:
                for j in row:
                    row[j] //= g
                rhs[i] = b_i // g
        else:
            # A row that is empty stays empty, so the scan never goes back.
            while scan < n and not (active[scan] and rows[scan]):
                scan += 1
            if scan == n:
                break
            c = min(rows[scan])
            step(scan, c)
            step(c, scan)
            if not stop:
                continue
        break  # stopped: M is indefinite
    return rows, rhs, steps, [i for i in range(n) if active[i]]


def _back_substitute(
    rows: list[dict[int, int]], steps, rhs: list[int], x: list[tuple[int, int]]
) -> list[Fraction]:
    """Set x[c] for each step (r, c), last first; other entries are given.

    Each x[j] is a (numerator, denominator) pair in lowest terms with a
    positive denominator, a zero being (0, 1). The sums keep that form with
    the gcd steps of ``Fraction`` addition, so each Fraction is built once,
    at the end, without another gcd. While a sum is still an integer, its
    first fractional term sets it directly, with no gcd at all.
    """
    for r, c in reversed(steps):
        row = rows[r]
        sn, sd = rhs[r], 1
        for j, v in row.items():
            xn, xd = x[j]
            if j == c or not xn:
                continue
            if xd == 1:
                sn -= v * xn * sd
                continue
            # s -= v x[j]: v x[j] = tn / td in lowest terms, then the
            # subtraction as Fraction._add does it.
            g = gcd(v, xd)
            tn, td = v // g * xn, xd // g
            if sd == 1:  # sn td - tn is prime to td, as tn is
                sn, sd = sn * td - tn, td
                continue
            g = gcd(sd, td)
            s = sd // g
            t = sn * (td // g) - tn * s
            g2 = gcd(t, g)
            sn, sd = t // g2, s * (td // g2)
        p = row[c]
        if p < 0:
            sn, p = -sn, -p
        g = gcd(sn, p)
        x[c] = (sn // g, sd * (p // g))
    values = []
    for num, den in x:  # _fraction, inline
        value = object.__new__(Fraction)
        value._numerator, value._denominator = num, den
        values.append(value)
    return values


def solve(M: SymMatrix, b: Sequence[Fraction | int]) -> list[Fraction]:
    """Solve M x = b exactly, for a rational right-hand side b.

    Raises SingularMatrix when no solution exists and UnderdeterminedSystem,
    with the rank of M, when the solution is not unique; the returned x
    satisfies M x = b bit-exactly.
    """
    n = M.dimension
    b = [v if isinstance(v, int) else rational(v) for v in b]
    if len(b) != n:
        raise ValueError("right-hand side has wrong length")
    rows, rhs, steps, rest = _eliminate(M, b)
    # The rows left over are zero; a nonzero rhs there marks inconsistency.
    if any(rhs[i] for i in rest):
        raise SingularMatrix("no solution: b is outside the column space")
    if rest:
        rank = len(steps)
        raise UnderdeterminedSystem(f"rank {rank} < {n}: solutions exist but are not unique", rank)
    return _back_substitute(rows, steps, rhs, [(0, 1)] * n)


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
    return _kernel(M.dimension, *_eliminate(M))


def _kernel(n: int, rows, zeros: list[int], steps, free: list[int]) -> list[list[int]]:
    """``kernel_basis`` read off ``_eliminate(M)``, with no right-hand side."""
    basis = []
    for f in free:
        x = [(0, 1)] * n
        x[f] = (1, 1)
        basis.append(_back_substitute(rows, steps, zeros, x))
    return [primitive_integer_vector(v) for v in _echelon_from_last_column(basis, n)]


NEGATIVE_DEFINITE = "NegativeDefinite"
NEGATIVE_SEMIDEFINITE = "NegativeSemidefiniteCorank"
INDEFINITE = "Indefinite"


class Definiteness(Value):
    """Exact classification of a symmetric matrix as a quadratic form.

    kind is one of NEGATIVE_DEFINITE, NEGATIVE_SEMIDEFINITE, INDEFINITE;
    corank and kernel (primitive integer vectors) are filled for the
    semidefinite case. The kernel is a list of lists, so, like a ``Cycle``,
    a Definiteness is unhashable.
    """

    __slots__ = ("kind", "corank", "kernel")

    def __init__(self, kind: str, corank: int = 0, kernel: Iterable[Sequence[int]] = ()):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "corank", corank)
        object.__setattr__(self, "kernel", [list(v) for v in kernel])

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


def definiteness(M: SymMatrix) -> Definiteness:
    """Classify M as negative definite, negative semidefinite (with corank
    and kernel basis), or indefinite, from one elimination.

    By Sylvester's law of inertia M is negative semidefinite exactly when
    every pivot is a negative diagonal entry; a 2x2 block pivot has one
    eigenvalue of each sign. The corank is the number of rows left over,
    and the kernel, ``kernel_basis``'s, is read off the same elimination.
    """
    rows, zeros, steps, rest = _eliminate(M, stop=True)
    if any(r != c or rows[r][r] > 0 for r, c in steps):
        return Definiteness(INDEFINITE)
    if not rest:
        return Definiteness(NEGATIVE_DEFINITE)
    kernel = _kernel(M.dimension, rows, zeros, steps, rest)
    return Definiteness(NEGATIVE_SEMIDEFINITE, len(rest), kernel)
