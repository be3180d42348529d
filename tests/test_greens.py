"""Green's functions, the real annihilation filters, exponential B-splines,
and the reproduction/localization identities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import exact
from exphermite import (
    Frequency,
    annihilation_weights,
    bspline,
    phi,
    phi_from_rho,
    rho,
    rho_from_phi,
)
from exphermite.frequency import sin_minus_x_cos_scaled, sinc, x_minus_sin_scaled
from exphermite.greens import _constants


def filtered(weights, f, x: float) -> float:
    """The filter with these taps applied to f at x: sum_k weights[k] f(x - k)."""
    return sum(wk * f(x - k) for k, wk in enumerate(weights))


def classical_cubic_bspline(x: float) -> float:
    """Uniform cubic B-spline on [0, 4], the oracle for the w -> 0 limit."""
    if x <= 0.0 or x >= 4.0:
        return 0.0
    if x <= 1.0:
        return x**3 / 6.0
    if x <= 2.0:
        t = x - 1.0
        return (1.0 + 3.0 * t + 3.0 * t * t - 3.0 * t**3) / 6.0
    return classical_cubic_bspline(4.0 - x)


def test_rho_point_values():
    f = Frequency(1.0)
    assert rho(f, 1, 0.0) == 0.0
    assert rho(f, 2, 0.0) == 0.0
    assert rho(f, 1, -2.5) == rho(f, 1, 2.5)
    w = math.pi / 2
    expected = (1.0 - math.cos(1.3 * w)) / (2.0 * w * w)
    assert rho(Frequency(w), 2, 1.3) == pytest.approx(expected, rel=1e-14)


@settings(max_examples=150, deadline=None)
@given(x=st.floats(-6.0, 6.0), w0=st.floats(0.0, math.pi))
def test_rho_parity(x, w0):
    f = Frequency(w0)
    assert rho(f, 1, -x) == pytest.approx(rho(f, 1, x), abs=1e-14)
    assert rho(f, 2, -x) == pytest.approx(-rho(f, 2, x), abs=1e-14)


def test_rho2_is_derivative_of_rho1():
    rng = np.random.default_rng(3)
    f = Frequency(1.7)
    step = 1e-6
    for _ in range(200):
        x = float(rng.uniform(-4.0, 4.0))
        if abs(x) < 1e-2:
            continue
        fd = (rho(f, 1, x + step) - rho(f, 1, x - step)) / (2 * step)
        assert rho(f, 2, x) == pytest.approx(fd, abs=1e-7)


def test_rho_small_frequency_limits():
    f = Frequency(1e-6)
    assert rho(f, 1, 2.0) == pytest.approx(8.0 / 12.0, rel=1e-9)
    assert rho(f, 2, -2.0) == pytest.approx(-1.0, rel=1e-9)


def test_annihilation_weights_expand_the_filter():
    w = 0.9
    weights = annihilation_weights(Frequency(w), 3)
    # (1 - z)(1 - 2 cos(w) z + z^2)
    expected = np.array([1.0, -1.0 - 2 * math.cos(w), 1.0 + 2 * math.cos(w), -1.0])
    assert np.abs(weights - expected).max() < 1e-14
    # (1 - z)^2 (1 - 2 cos(w) z + z^2)
    assert np.abs(annihilation_weights(Frequency(w), 4)
                  - np.convolve(expected, [1.0, -1.0])).max() < 1e-14
    # at w = 0 the plain third and fourth differences
    zero = Frequency(0.0)
    assert annihilation_weights(zero, 3).tolist() == [1.0, -3.0, 3.0, -1.0]
    assert annihilation_weights(zero, 4).tolist() == [1.0, -4.0, 6.0, -4.0, 1.0]
    # just above it the filter of the frequency itself, not its w = 0 limit
    small = 0.5 * 1e-4
    expected = [1.0, -1.0 - 2 * math.cos(small), 1.0 + 2 * math.cos(small), -1.0]
    assert annihilation_weights(Frequency(small), 3).tolist() == expected
    with pytest.raises(ValueError):
        annihilation_weights(Frequency(w), 2)


def test_annihilate_kills_constants():
    val = filtered(annihilation_weights(Frequency(0.9), 3), lambda x: 5.0, 3.7)
    assert abs(val) < 1e-14


@settings(max_examples=50, deadline=None)
@given(x=st.floats(-5.0, 5.0))
def test_annihilate_exact_on_exponentials(x):
    # e^{iwt} = cos(wt) + i sin(wt): the real filter kills both parts
    w = 1.3
    weights = annihilation_weights(Frequency(w), 4)
    assert abs(filtered(weights, lambda t: math.cos(w * t), x)) < 1e-12
    assert abs(filtered(weights, lambda t: math.sin(w * t), x)) < 1e-12


def test_annihilate_exact_on_family():
    rng = np.random.default_rng(11)
    w = 3 * math.pi / 4
    four = annihilation_weights(Frequency(w), 4)
    three = annihilation_weights(Frequency(w), 3)
    members = [
        lambda t: 1.0,
        lambda t: t,
        lambda t: math.cos(w * t),
        lambda t: math.sin(w * t),
    ]
    for x in rng.uniform(-10, 10, size=50):
        for f in members:
            assert abs(filtered(four, f, float(x))) < 1e-12
        for f in (members[0], members[2], members[3]):
            assert abs(filtered(three, f, float(x))) < 1e-12
    assert abs(filtered(three, lambda t: math.cos(w * t), 2.1)) < 1e-12


@pytest.mark.parametrize("w0", [0.7, 1.0, 3 * math.pi / 4, math.pi])
@pytest.mark.parametrize("order,method", [(4, "green"), (4, "superfunction"),
                                          (3, "green"), (3, "superfunction")])
def test_bspline_support(w0, order, method):
    f = Frequency(w0)
    assert bspline(f, order, -0.5, method) == 0.0
    assert bspline(f, order, order + 0.5, method) == 0.0
    assert bspline(f, order, 0.0, method) == 0.0
    assert bspline(f, order, float(order), method) == 0.0


@pytest.mark.parametrize("method", ["green", "superfunction"])
@pytest.mark.parametrize("order", [2, 5])
def test_bspline_refuses_other_orders(order, method):
    with pytest.raises(ValueError, match="order must be 3 or 4"):
        bspline(Frequency(1.0), order, 1.5, method)


@pytest.mark.parametrize("w0", [0.7, 1.0, 3 * math.pi / 4, math.pi])
def test_bspline_methods_agree(w0):
    f = Frequency(w0)
    for order in (3, 4):
        for x in np.linspace(-0.25, order + 0.25, 173):
            g = bspline(f, order, float(x), "green")
            s = bspline(f, order, float(x), "superfunction")
            assert abs(g - s) < 1e-10


@pytest.mark.parametrize("w0", [0.7, 3 * math.pi / 4, math.pi])
def test_bspline_partition_of_unity(w0):
    f = Frequency(w0)
    for x in np.linspace(0.0, 1.0, 101, endpoint=False):
        total4 = sum(bspline(f, 4, float(x) + k) for k in range(4))
        total3 = sum(bspline(f, 3, float(x) + k) for k in range(3))
        assert abs(total4 - 1.0) < 1e-10
        assert abs(total3 - 1.0) < 1e-10


def test_bspline_tiny_frequency_matches_cubic():
    # at w = 0 both routes meet the classical cubic B-spline to rounding
    # (measured 3.1e-16); at w = 1e-6 the exponential B-spline differs from
    # the cubic by up to 1.1e-14, an O(w^2) term, and both routes meet the
    # exact one to the same rounding (measured 2.1e-16).  Bound twice 3.1e-16.
    for w0, oracle in ((0.0, classical_cubic_bspline),
                       (1e-6, lambda x: float(exact.bspline(1e-6, 4, x)))):
        f = Frequency(w0)
        for x in (1.0, 2.0, 3.0):
            expected = oracle(x)
            assert abs(bspline(f, 4, x, "green") - expected) <= 2 * 3.1e-16
            assert abs(bspline(f, 4, x, "superfunction") - expected) <= 2 * 3.1e-16
    assert abs(exact.bspline(1e-6, 4, 2.0) - classical_cubic_bspline(2.0)) > 1e-14


def test_green_combination_vanishes_outside_support():
    # localization: the raw annihilated Green's function must cancel to zero
    # beyond the support, without any clamping involved
    f = Frequency(2.0)
    r1 = lambda y: rho(f, 1, y)
    r2 = lambda y: rho(f, 2, y)
    for x in (-2.0, -0.5, 4.5, 7.25):
        assert abs(filtered(annihilation_weights(f, 4), r1, x)) < 1e-12
    for x in (-1.5, -0.25, 3.5, 6.0):
        assert abs(filtered(annihilation_weights(f, 3), r2, x)) < 1e-12


def test_superfunction_coefficient_sums():
    f = Frequency(1.9)
    terms3, terms4 = _constants(f).terms
    assert sum(t[0] for t in terms4) == 1.0
    assert sum(t[1] for t in terms4) == 0.0
    assert sum(t[0] for t in terms3) == 1.0
    assert sum(t[1] for t in terms3) == 0.0


def closed_form_coefficients(freq: Frequency):
    """The closed forms that the localization coefficients (c, c3) and the
    order-4 superfunction end weight were once computed from, kept as the
    oracle that reading them from g1 and the handle ratio changes no bit:
    c = 2 sinc(u) / S3(u), c3 = 4 cos(u) / S3(u) with u = w/2, and the
    weight S2(w) / sinc^2(u)."""
    w = freq.omega0
    u = 0.5 * w
    half_sinc, half_s3 = sinc(u), sin_minus_x_cos_scaled(u)
    return (2.0 * half_sinc / half_s3, 4.0 * math.cos(u) / half_s3,
            x_minus_sin_scaled(w) / (half_sinc * half_sinc))


def test_shared_coefficients_equal_their_closed_forms_bitwise():
    grid = [0.0, 5e-324, 1e-300, 1e-7, 0.99e-4, 1.01e-4, math.pi,
            *np.linspace(0.0, math.pi, 4001).tolist()]
    got, want = [], []
    for w in grid:
        f = Frequency(w)
        constants = _constants(f)
        got.append((constants.g1.C, -constants.g1.D, constants.terms[1][0][0]))
        want.append(closed_form_coefficients(f))
    assert np.array_equal(np.array(got).view(np.uint64), np.array(want).view(np.uint64))


@pytest.mark.parametrize("w0", [0.8, 1.0, 3 * math.pi / 4, 2.9])
def test_rho_from_phi_matches_closed_forms(w0):
    f = Frequency(w0)
    assert rho_from_phi(f, 1, 0.0) == 0.0
    for x in np.linspace(-5.0, 5.0, 201):
        assert abs(rho_from_phi(f, 1, float(x)) - rho(f, 1, float(x))) < 1e-10
        assert abs(rho_from_phi(f, 2, float(x)) - rho(f, 2, float(x))) < 1e-10
    assert rho_from_phi(f, 1, 3.6) == pytest.approx(rho(f, 1, 3.6), abs=1e-10)
    assert rho_from_phi(f, 2, -2.2) == pytest.approx(rho(f, 2, -2.2), abs=1e-10)


@pytest.mark.parametrize("w0", [0.8, 1.0, 3 * math.pi / 4, 2.9])
def test_phi_from_rho_matches_generators(w0):
    f = Frequency(w0)
    assert abs(phi_from_rho(f, 1, 2.5)) < 1e-10
    assert phi_from_rho(f, 1, 0.0) == pytest.approx(1.0, abs=1e-10)
    assert phi_from_rho(f, 2, 0.7) == pytest.approx(phi(f, 2, 0.7), abs=1e-10)
    for x in np.linspace(-5.0, 5.0, 201):
        assert abs(phi_from_rho(f, 1, float(x)) - phi(f, 1, float(x))) < 1e-10
        assert abs(phi_from_rho(f, 2, float(x)) - phi(f, 2, float(x))) < 1e-10


# The x grids of the verify benchmark workload.  The frequencies are w = 0,
# the two sides of the small-frequency seam and a log grid of [1e-7, pi].
VERIFY_GRID = np.linspace(-5.0, 5.0, 41).tolist()
VERIFY_BSPLINE_GRID = {order: np.linspace(-0.25, order + 0.25, 23).tolist()
                       for order in (3, 4)}
SWEEP = [0.0, 1e-7, 0.99e-4, 1.01e-4] + np.geomspace(1e-7, math.pi, 40).tolist()


@pytest.mark.parametrize("w0", SWEEP)
def test_identities_hold_down_to_zero_frequency(w0):
    f = Frequency(w0)
    for which in (1, 2):
        for x in VERIFY_GRID:
            assert abs(phi_from_rho(f, which, x) - phi(f, which, x)) <= 1e-12
            assert abs(rho_from_phi(f, which, x) - rho(f, which, x)) <= 1e-12
    for order, xs in VERIFY_BSPLINE_GRID.items():
        for x in xs:
            green = bspline(f, order, x, "green")
            assert abs(green - bspline(f, order, x, "superfunction")) <= 1e-12


GREEN_FUNCTIONS = {
    "rho": rho,
    "rho_from_phi": rho_from_phi,
    "phi_from_rho": phi_from_rho,
    "bspline_green": lambda f, k, x: bspline(f, k + 2, x, "green"),
    "bspline_superfunction": lambda f, k, x: bspline(f, k + 2, x, "superfunction"),
}


@pytest.mark.parametrize("name", GREEN_FUNCTIONS)
def test_array_calls_match_float_calls(name):
    fn = GREEN_FUNCTIONS[name]
    xs = np.linspace(-5.5, 5.5, 89)
    for w0 in (0.0, 0.5 * 1e-4, 0.7, math.pi):
        f = Frequency(w0)
        for k in (1, 2):
            values = fn(f, k, xs)
            assert values.shape == xs.shape
            for x, value in zip(xs.tolist(), values):
                assert fn(f, k, x) == value
            grid = fn(f, k, xs[:88].reshape(11, 8))
            assert np.array_equal(grid, values[:88].reshape(11, 8))
