import random
from fractions import Fraction

import pytest

from resgraph.wps import (
    WpsError,
    cdisc_from_blowup,
    pair,
    subadjunction_genus,
    wblowup_discrepancy,
)

F = Fraction
P3211 = (3, 2, 1, 1)


def test_pair_core_curve():
    assert pair(P3211, (1, 1), -4) == F(-2, 3)


def test_pair_side_curves():
    assert pair(P3211, (1, 3), -4) == F(-2)
    assert pair(P3211, (1, 2), -4) == F(-4, 3)


def test_pair_singular_locus_curve():
    assert pair(P3211, (1, 6), 4) == F(4)


def test_pair_linearity_and_multiplicativity():
    rng = random.Random(11)
    for _ in range(50):
        weights = tuple(rng.randint(1, 5) for _ in range(rng.randint(3, 5)))
        degrees = tuple(rng.randint(1, 6) for _ in range(len(weights) - 2))
        k1, k2 = rng.randint(-5, 5), rng.randint(-5, 5)
        total = pair(weights, degrees, k1 + k2)
        assert total == pair(weights, degrees, k1) + pair(weights, degrees, k2)
        scaled = (degrees[0] * 3,) + degrees[1:]
        assert pair(weights, scaled, k1) == 3 * pair(weights, degrees, k1)


def test_curve_needs_n_minus_two_degrees():
    with pytest.raises(ValueError):
        pair(P3211, (1,), 1)
    with pytest.raises(ValueError):
        pair((2, 1, 1), (1, 1), 1)


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


@pytest.mark.parametrize(
    "call",
    [
        lambda: pair((), (), 1),
        lambda: pair((1, 1, 1), (1, 2), 1),
        lambda: pair((1, 1, 1), (0,), 1),
        lambda: wblowup_discrepancy(2, ()),
        lambda: wblowup_discrepancy(0, (1, 1)),
        lambda: cdisc_from_blowup(0, F(1, 2)),
        lambda: subadjunction_genus((1, 1), 2, 0),
        lambda: subadjunction_genus((1, 1, 1), 0, 0),
    ],
)
def test_every_bad_input_is_a_wps_error(call):
    with pytest.raises(WpsError):
        call()
