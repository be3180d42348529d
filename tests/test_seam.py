"""Continuity across w = 1e-4, where a former cubic-limit path switched on.

Each quantity is compared at w = T(1 - 1e-9) and w = T(1 + 1e-9), T =
1e-4.  Every quantity is one smooth function of w, so over this step it
moves by O(T^2 1e-9), about 1e-17, and the jump is rounding alone: a few
eps of the quantity's size.  (The cubic-limit path returned the w = 0 limit
below T, so the jump was the O(T^2) difference between the two families,
up to 1e-9 for endpoint_slope.)  Each bound is twice the measured jump, and
at least 2 eps of the quantity's size where the measured jump is 0.
"""

import math

import numpy as np
import pytest

import exact
from exphermite import (
    Frequency,
    bspline,
    conversion_ratio,
    endpoint_slope,
    gram_entries,
    masks,
    phi,
    phi_deriv,
)

T = 1e-4
BELOW = Frequency(T * (1 - 1e-9))
ABOVE = Frequency(T * (1 + 1e-9))
X = np.linspace(-1.0, 1.0, 201)
EPS = np.finfo(float).eps


def jump(quantity) -> float:
    below = np.asarray(quantity(BELOW), dtype=float)
    above = np.asarray(quantity(ABOVE), dtype=float)
    return float(np.abs(above - below).max())


def test_both_sides_within_a_few_ulp_of_the_oracle():
    # k = 8 eps for the generator values (measured 4.9) and 16 eps for their
    # derivatives (measured 7.9), on both sides; 4 ulp for the Bezier ratios
    # (measured 1.2 and 1.8)
    for side in (BELOW, ABOVE):
        w = side.omega0
        for which in (1, 2):
            values, slopes = phi(side, which, X), phi_deriv(side, which, X)
            for x, value, slope in zip(X, values, slopes):
                assert abs(value - exact.phi(w, which, x)) <= 8 * EPS
                assert abs(slope - exact.phi(w, which, x, True)) <= 16 * EPS
        lam, kappa = exact.conversion_ratio(w), exact.endpoint_slope(w)
        assert abs(conversion_ratio(side) - lam) <= 4 * math.ulp(float(lam))
        assert abs(endpoint_slope(side) - kappa) <= 4 * math.ulp(float(kappa))


# (quantity, bound): twice the measured jump, at least 2 eps of the size
SEAMS = {
    "phi1": (lambda f: phi(f, 1, X), 2 * 8.9e-16),
    "phi2": (lambda f: phi(f, 2, X), 2 * 8.9e-16),
    "phi1'": (lambda f: phi_deriv(f, 1, X), 2 * 1.8e-15),
    "phi2'": (lambda f: phi_deriv(f, 2, X), 2 * 1.8e-15),
    # entries up to 1.5 * 2^3 at level 3; measured 0
    "masks": (lambda f: [masks(f, j) for j in range(4)], 2 * 12 * EPS),
    "conversion_ratio": (conversion_ratio, 2 * EPS),    # measured 0
    "endpoint_slope": (endpoint_slope, 2 * 3 * EPS),    # measured 0
    # one Chebyshev series on all of [0, pi]; both sides map to the same
    # series argument, so the jump is exactly 0
    "gram_entries": (lambda f: [getattr(gram_entries(f), k) for k in "abcde"],
                     0.0),
}


@pytest.mark.parametrize("name", SEAMS)
def test_jump_across_the_seam(name):
    quantity, bound = SEAMS[name]
    assert jump(quantity) <= bound


@pytest.mark.parametrize("method, measured", [("superfunction", 1.4e-15),
                                              ("green", 1.8e-15)])
def test_bspline_jump_across_the_seam(method, measured):
    worst = 0.0
    for order in (3, 4):
        xs = np.linspace(0.0, order, 40 * order + 1)
        worst = max(worst, jump(
            lambda f: [bspline(f, order, float(x), method) for x in xs]))
    assert worst <= 2.0 * measured


def test_seam_jump_is_the_genuine_second_order_term():
    # what the cubic-limit path dropped below the seam, lam(w) - 1/3 =
    # w^2/90 + O(w^4), is now there on both sides: a decade above it is
    # 100x larger, as an O(w^2) term should be
    near = abs(conversion_ratio(ABOVE) - 1.0 / 3.0)
    far = abs(conversion_ratio(Frequency(10 * T)) - 1.0 / 3.0)
    assert far / near == pytest.approx(100.0, rel=0.05)
    for side in (BELOW, ABOVE):
        drop = abs(conversion_ratio(side) - 1.0 / 3.0)
        assert math.isclose(drop, T**2 / 90.0, rel_tol=0.05)
