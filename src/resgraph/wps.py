"""Degree pairings in weighted projective spaces and the weighted-blowup
bookkeeping that feeds codiscrepancy cross-checks.

A curve cut out in P(w_1,...,w_n) by hypersurfaces of degrees d_1,...,d_{n-2}
pairs with O(k) to k * (prod d_i) / (prod w_j); a weighted blowup of a cyclic
quotient of index m with weights w has discrepancy (sum w_i)/m - 1. Both are
one-line exact formulas on integer sequences, kept as named operations so the
catalog can cross-check them against solved codiscrepancies. A bad input is a
WpsError.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod
from typing import Sequence

from .linalg import rational


class WpsError(ValueError):
    """An input that the weighted-projective formulas reject."""


def _check_weights(weights: Sequence[int]) -> None:
    if not weights or any(w < 1 for w in weights):
        raise WpsError("weights must be positive integers")


def pair(weights: Sequence[int], degrees: Sequence[int], k: int) -> Fraction:
    """(O(k) . C) = k * (product of degrees) / (product of weights), for the
    curve C cut out in P(weights) by n-2 hypersurfaces of the given degrees."""
    _check_weights(weights)
    if len(degrees) != len(weights) - 2:
        raise WpsError("a curve needs exactly n-2 hypersurface degrees")
    if any(d < 1 for d in degrees):
        raise WpsError("degrees must be positive integers")
    return Fraction(k * prod(degrees), prod(weights))


def wblowup_discrepancy(index: int, weights: Sequence[int]) -> Fraction:
    """Discrepancy of the exceptional divisor of the weighted blowup with
    the given weights over a cyclic quotient of the given index:
    (sum of weights)/index - 1."""
    if not weights:
        raise WpsError("a weighted blowup needs at least one weight")
    if index < 1 or any(w < 1 for w in weights):
        raise WpsError("index and weights must be positive")
    return Fraction(sum(weights), index) - 1


def cdisc_from_blowup(mult: int, disc) -> Fraction:
    """Codiscrepancy of an exceptional component appearing with the given
    multiplicity in a blowup divisor of the given discrepancy."""
    if mult < 1:
        raise WpsError("multiplicity must be positive")
    return mult * rational(disc)


def subadjunction_genus(weights: Sequence[int], degree: int, correction) -> Fraction:
    """Arithmetic genus of a degree-d curve in the space of three weights via
    subadjunction with a caller-supplied orbifold correction:

        p_a = 1 + ((d - sum w) * d / prod w - correction) / 2
    """
    _check_weights(weights)
    if len(weights) != 3:
        raise WpsError("subadjunction genus needs exactly three weights")
    if degree < 1:
        raise WpsError("degree must be positive")
    pairing = Fraction((degree - sum(weights)) * degree, prod(weights))
    return 1 + (pairing - rational(correction)) / 2
