"""The jump across SMALL_FREQ_THRESHOLD, where the generators, masks,
Bezier ratios and Green's functions switch from the trigonometric closed
forms to the exact cubic limit.

Each quantity is compared at w = T(1 - 1e-9) (cubic path) and w = T(1 +
1e-9) (trigonometric path), T = SMALL_FREQ_THRESHOLD.  The jump is the
genuine O(T^2) = 1e-8 difference between the two families, not roundoff;
each bound is twice the measured jump.  The Gram entries are one Chebyshev
series on all of [0, pi] with no switch; both sides map to the same
series argument, so their jump is exactly 0.
"""

import math

import numpy as np
import pytest

from exphermite import (
    SMALL_FREQ_THRESHOLD,
    Frequency,
    bspline,
    conversion_ratio,
    endpoint_slope,
    gram_entries,
    masks,
    phi,
    phi_deriv,
)

BELOW = Frequency(SMALL_FREQ_THRESHOLD * (1 - 1e-9))
ABOVE = Frequency(SMALL_FREQ_THRESHOLD * (1 + 1e-9))
X = np.linspace(-1.0, 1.0, 201)


def jump(quantity) -> float:
    below = np.asarray(quantity(BELOW), dtype=float)
    above = np.asarray(quantity(ABOVE), dtype=float)
    return float(np.abs(above - below).max())


def test_the_two_sides_take_different_paths():
    assert BELOW.is_small and not ABOVE.is_small


# (quantity, measured jump); the bound is twice the measurement
SEAMS = {
    "phi1": (lambda f: phi(f, 1, X), 8.9e-12),
    "phi2": (lambda f: phi(f, 2, X), 2.7e-11),
    "phi1'": (lambda f: phi_deriv(f, 1, X), 6.3e-11),
    "phi2'": (lambda f: phi_deriv(f, 2, X), 9.8e-11),
    "masks": (lambda f: [masks(f, j).hm1 for j in range(4)], 6.3e-11),
    "conversion_ratio": (conversion_ratio, 1.1e-10),
    "endpoint_slope": (endpoint_slope, 1.0e-9),
    "gram_entries": (lambda f: [getattr(gram_entries(f), k) for k in "abcde"],
                     0.0),
}


@pytest.mark.parametrize("name", SEAMS)
def test_jump_across_the_seam(name):
    quantity, measured = SEAMS[name]
    assert jump(quantity) <= 2.0 * measured


@pytest.mark.parametrize("method, measured", [("superfunction", 1.6e-10),
                                              ("green", 1.6e-10)])
def test_bspline_jump_across_the_seam(method, measured):
    worst = 0.0
    for order in (3, 4):
        xs = np.linspace(0.0, order, 40 * order + 1)
        worst = max(worst, jump(
            lambda f: [bspline(f, order, float(x), method) for x in xs]))
    assert worst <= 2.0 * measured


def test_seam_jump_is_the_genuine_second_order_term():
    # the same quantity sampled a decade above the seam moves by about
    # 100x the seam jump, as an O(w^2) difference should
    near = abs(conversion_ratio(ABOVE) - 1.0 / 3.0)
    far = abs(conversion_ratio(Frequency(10 * SMALL_FREQ_THRESHOLD)) - 1.0 / 3.0)
    assert far / near == pytest.approx(100.0, rel=0.05)
    assert math.isclose(near, SMALL_FREQ_THRESHOLD**2 / 90.0, rel_tol=0.05)
