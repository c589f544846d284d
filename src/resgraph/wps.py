"""Degree pairings in weighted projective spaces and the weighted-blowup
bookkeeping that feeds codiscrepancy cross-checks.

A curve cut out in P(w_1,...,w_n) by hypersurfaces of degrees d_1,...,d_{n-2}
pairs with O(k) to k * (prod d_i) / (prod w_j); a weighted blowup of a cyclic
quotient of index m with weights w has discrepancy (sum w_i)/m - 1. Both are
one-line exact formulas, kept as named operations so the catalog can
cross-check them against solved codiscrepancies.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod
from typing import Sequence

from .linalg import Value, rational


class WeightedProjectiveSpace(Value):
    __slots__ = ("weights",)

    def __init__(self, weights: tuple[int, ...]):
        if not weights or any(w < 1 for w in weights):
            raise ValueError("weights must be positive integers")
        object.__setattr__(self, "weights", tuple(int(w) for w in weights))

    @property
    def weight_product(self) -> int:
        return prod(self.weights)

    @property
    def weight_sum(self) -> int:
        return sum(self.weights)


class CICurve(Value):
    """A complete-intersection curve class: n-2 hypersurface degrees in an
    n-weight space."""

    __slots__ = ("ambient", "degrees")

    def __init__(self, ambient: WeightedProjectiveSpace, degrees: tuple[int, ...]):
        degrees = tuple(int(d) for d in degrees)
        if len(degrees) != len(ambient.weights) - 2:
            raise ValueError("a curve needs exactly n-2 hypersurface degrees")
        if any(d < 1 for d in degrees):
            raise ValueError("degrees must be positive integers")
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "degrees", degrees)


def pair(curve: CICurve, k: int) -> Fraction:
    """(O(k) . curve) = k * (product of degrees) / (product of weights)."""
    return Fraction(k * prod(curve.degrees), curve.ambient.weight_product)


def wblowup_discrepancy(index: int, weights: Sequence[int]) -> Fraction:
    """Discrepancy of the exceptional divisor of the weighted blowup with
    the given weights over a cyclic quotient of the given index:
    (sum of weights)/index - 1."""
    if not weights:
        raise ValueError("a weighted blowup needs at least one weight")
    if index < 1 or any(w < 1 for w in weights):
        raise ValueError("index and weights must be positive")
    return Fraction(sum(weights), index) - 1


def cdisc_from_blowup(mult: int, disc) -> Fraction:
    """Codiscrepancy of an exceptional component appearing with the given
    multiplicity in a blowup divisor of the given discrepancy."""
    if mult < 1:
        raise ValueError("multiplicity must be positive")
    return mult * rational(disc)


def subadjunction_genus(weights: Sequence[int], degree: int, correction) -> Fraction:
    """Arithmetic genus of a degree-d curve in the space of three weights via
    subadjunction with a caller-supplied orbifold correction:

        p_a = 1 + ((d - sum w) * d / prod w - correction) / 2
    """
    space = WeightedProjectiveSpace(tuple(weights))
    if len(space.weights) != 3:
        raise ValueError("subadjunction genus needs exactly three weights")
    if degree < 1:
        raise ValueError("degree must be positive")
    pairing = Fraction((degree - space.weight_sum) * degree, space.weight_product)
    return 1 + (pairing - rational(correction)) / 2
