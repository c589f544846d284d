import random
from fractions import Fraction

import pytest

from resgraph.wps import (
    CICurve,
    WeightedProjectiveSpace,
    cdisc_from_blowup,
    pair,
    subadjunction_genus,
    wblowup_discrepancy,
)

F = Fraction
P3211 = WeightedProjectiveSpace((3, 2, 1, 1))


def test_pair_core_curve():
    assert pair(CICurve(P3211, (1, 1)), -4) == F(-2, 3)


def test_pair_side_curves():
    assert pair(CICurve(P3211, (1, 3)), -4) == F(-2)
    assert pair(CICurve(P3211, (1, 2)), -4) == F(-4, 3)


def test_pair_singular_locus_curve():
    assert pair(CICurve(P3211, (1, 6)), 4) == F(4)


def test_pair_linearity_and_multiplicativity():
    rng = random.Random(11)
    for _ in range(50):
        weights = tuple(rng.randint(1, 5) for _ in range(rng.randint(3, 5)))
        space = WeightedProjectiveSpace(weights)
        degrees = tuple(rng.randint(1, 6) for _ in range(len(weights) - 2))
        curve = CICurve(space, degrees)
        k1, k2 = rng.randint(-5, 5), rng.randint(-5, 5)
        assert pair(curve, k1 + k2) == pair(curve, k1) + pair(curve, k2)
        scaled = CICurve(space, (degrees[0] * 3,) + degrees[1:])
        assert pair(scaled, k1) == 3 * pair(curve, k1)


def test_curve_needs_n_minus_two_degrees():
    with pytest.raises(ValueError):
        CICurve(P3211, (1,))
    with pytest.raises(ValueError):
        CICurve(WeightedProjectiveSpace((2, 1, 1)), (1, 1))


def test_wblowup_discrepancy_values():
    assert wblowup_discrepancy(4, (3, 2, 1, 1)) == F(3, 4)
    assert wblowup_discrepancy(1, (1, 1)) == F(1)
    assert wblowup_discrepancy(5, (4, 1, 2)) == F(2, 5)


def test_wblowup_discrepancy_smooth_point_identity():
    for n in range(2, 7):
        assert wblowup_discrepancy(1, (1,) * n) == n - 1


def test_wblowup_rejects_bad_input():
    with pytest.raises(ValueError):
        wblowup_discrepancy(0, (1, 1))
    with pytest.raises(ValueError):
        wblowup_discrepancy(2, (0, 1))


def test_wblowup_needs_a_weight():
    with pytest.raises(ValueError, match="at least one weight"):
        wblowup_discrepancy(2, ())


def test_cdisc_from_blowup():
    assert cdisc_from_blowup(2, F(3, 4)) == F(3, 2)
    assert cdisc_from_blowup(4, F(3, 4)) == F(3)
    assert cdisc_from_blowup(1, F(7, 5)) == F(7, 5)
    with pytest.raises(ValueError):
        cdisc_from_blowup(0, F(1, 2))


def test_subadjunction_genus_values():
    assert subadjunction_genus((2, 1, 1), 5, F(1, 2)) == F(2)
    assert subadjunction_genus((1, 1, 1), 1, 0) == F(0)
    assert subadjunction_genus((1, 1, 1), 3, 0) == F(1)


def test_subadjunction_genus_validation():
    with pytest.raises(ValueError):
        subadjunction_genus((1, 1), 2, 0)
    with pytest.raises(ValueError):
        subadjunction_genus((1, 1, 1), 0, 0)
