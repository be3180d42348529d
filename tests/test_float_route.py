"""A float argument runs in plain float arithmetic from end to end.

The kernels take libm's sin and cos for a float and numpy's for an array,
and a float runs only the branch of the series cutoff that |t| selects.
These tests pin three things: a float in gives a Python float out, never a
numpy scalar; a float gives bitwise the entry of the array call, which
also fails if a platform's np.sin or np.cos differs from libm; and
non-finite floats give nan, as the array lane does, instead of libm's
domain error.
"""

import math

import numpy as np
import pytest

from exphermite import (
    Frequency,
    bernstein_basis,
    bspline,
    conversion_ratio,
    endpoint_slope,
    make_generators,
    phi,
    phi_deriv,
    phi_from_rho,
    rho,
    rho_from_phi,
)
from exphermite.frequency import (
    one_minus_cos,
    sin_minus_x_cos,
    sin_minus_x_cos_scaled,
    sin_over,
    sinc,
    x_minus_sin,
    x_minus_sin_scaled,
)

CUTOFF = 0.9
OMEGAS = [0.0, 1e-7, 0.99e-4, 1.01e-4, 0.7, 2.0, math.pi]
POINTS = [-5.5, -1.0, -0.3, -0.0, 0.0, 0.25, 1.0, 1.7, 2.5, 3.999]

KERNELS = {
    "x_minus_sin": x_minus_sin,
    "one_minus_cos": one_minus_cos,
    "sin_minus_x_cos": sin_minus_x_cos,
    "x_minus_sin_scaled": x_minus_sin_scaled,
    "sin_minus_x_cos_scaled": sin_minus_x_cos_scaled,
    "sin_over(0.5, .)": lambda t: sin_over(0.5, t),
    "sin_over(pi / 2, .)": lambda t: sin_over(0.5 * math.pi, t),
    "sin_over(0, .)": lambda t: sin_over(0.0, t),
}

POINT_FUNCTIONS = {
    "phi": phi,
    "phi_deriv": phi_deriv,
    "rho": rho,
    "rho_from_phi": rho_from_phi,
    "phi_from_rho": phi_from_rho,
    "bspline_green": lambda f, k, x: bspline(f, k + 2, x, "green"),
    "bspline_superfunction": lambda f, k, x: bspline(f, k + 2, x, "superfunction"),
}


def sweep_arguments() -> np.ndarray:
    """Both sides of the cutoff ulp by ulp, signed zeros, subnormals, and
    a dense and a random cover of |t| <= 1e3."""
    near_cutoff = []
    for edge in (CUTOFF, -CUTOFF):
        below = above = edge
        for _ in range(16):
            below, above = math.nextafter(below, 0.0), math.nextafter(above, 2 * edge)
            near_cutoff += [below, above]
        near_cutoff.append(edge)
    tiny = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310,
            math.nextafter(2.2250738585072014e-308, 0.0), 2.2250738585072014e-308]
    magnitudes = np.geomspace(1e-320, 1e3, 2000)
    rng = np.random.default_rng(13)
    return np.concatenate([
        near_cutoff, tiny, magnitudes, -magnitudes,
        np.linspace(-4.0, 4.0, 4001), np.linspace(-1e3, 1e3, 4001),
        rng.uniform(-1e3, 1e3, 2000),
    ])


def bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.uint64)


@pytest.mark.parametrize("name", KERNELS)
def test_float_kernels_match_the_array_lane_bitwise(name):
    kernel = KERNELS[name]
    t = sweep_arguments()
    floats = [kernel(ti) for ti in t.tolist()]
    assert all(type(value) is float for value in floats)
    mismatch = np.flatnonzero(bits(floats) != bits(kernel(t)))
    assert mismatch.size == 0, f"float and array lanes differ at t={t[mismatch[:5]]}"


def test_sinc_returns_python_floats():
    for t in (0.0, 5e-324, 0.3, CUTOFF, 1.0, math.pi):
        assert type(sinc(t)) is float


@pytest.mark.parametrize("name", POINT_FUNCTIONS)
def test_point_functions_return_python_floats(name):
    fn = POINT_FUNCTIONS[name]
    for w0 in OMEGAS:
        f = Frequency(w0)
        for k in (1, 2):
            for x in POINTS:
                assert type(fn(f, k, x)) is float, (w0, k, x)


def test_coefficients_are_python_floats():
    for w0 in OMEGAS:
        f = Frequency(w0)
        pair = make_generators(f)
        pieces = (pair.g1, pair.g2, pair.dg1, pair.dg2,
                  *bernstein_basis(f))
        for piece in pieces:
            for coeff in (piece.value0, piece.slope0, piece.C, piece.D):
                assert type(coeff) is float, (w0, piece)
        assert type(conversion_ratio(f)) is float
        assert type(endpoint_slope(f)) is float


@pytest.mark.parametrize("name", POINT_FUNCTIONS)
def test_point_functions_match_the_array_lane_bitwise(name):
    fn = POINT_FUNCTIONS[name]
    xs = np.array(POINTS)
    for w0 in OMEGAS:
        f = Frequency(w0)
        for k in (1, 2):
            floats = [fn(f, k, x) for x in POINTS]
            assert np.array_equal(bits(floats), bits(fn(f, k, xs))), (w0, k)


NON_FINITE = [math.inf, -math.inf, math.nan]

NON_FINITE_CALLS = {
    "x_minus_sin_scaled": x_minus_sin_scaled,
    "sin_minus_x_cos_scaled": sin_minus_x_cos_scaled,
    "x_minus_sin": x_minus_sin,
    "sin_minus_x_cos": sin_minus_x_cos,
    "one_minus_cos": one_minus_cos,
    "sin_over": lambda t: sin_over(0.3, t),
    "rho1": lambda t: rho(Frequency(1.0), 1, t),
    "rho2": lambda t: rho(Frequency(1.0), 2, t),
    "rho1 at w = 0": lambda t: rho(Frequency(0.0), 1, t),
    "phi1": lambda t: phi(Frequency(1.0), 1, t),
    "phi2": lambda t: phi(Frequency(1.0), 2, t),
}


@pytest.mark.parametrize("name", NON_FINITE_CALLS)
def test_non_finite_floats_give_what_the_array_lane_gives(name):
    fn = NON_FINITE_CALLS[name]
    with np.errstate(invalid="ignore"):
        lane = fn(np.array(NON_FINITE))
    for t, expected in zip(NON_FINITE, lane.tolist()):
        got = fn(t)
        assert type(got) is float
        assert got == expected or (math.isnan(got) and math.isnan(expected)), t
