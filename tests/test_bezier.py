"""Bernstein basis properties and exact Hermite <-> Bezier conversion."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exphermite import (
    BezierSegment,
    DomainError,
    Frequency,
    annihilation_weights,
    bernstein,
    bernstein_basis,
    bezier_to_hermite,
    conversion_ratio,
    endpoint_slope,
    hermite_to_bezier,
)
from exphermite.frequency import sin_over, x_minus_sin_scaled
from rescaled import phi_rescaled, phi_rescaled_deriv

OMEGA_GRID = [0.05, 0.5, 1.0, 2.0, 3 * math.pi / 4, math.pi]


def complex_ratio_oracle(w: float) -> complex:
    """r / (r - p) straight from the complex definitions."""
    r = 1 + 2j * w * cmath.exp(1j * w) - cmath.exp(2j * w)
    p = cmath.exp(2j * w) * (1j * w - 1) + 1j * w + 1
    return r / (r - p)


def complex_ratio_oracle_mp(w0: float) -> float:
    """Same ratio in 50-digit arithmetic; r cancels like w^3, so the float
    version is unusable as an oracle for small w."""
    import mpmath as mp

    with mp.workdps(50):
        w = mp.mpf(w0)
        r = 1 + 2j * w * mp.e ** (1j * w) - mp.e ** (2j * w)
        p = mp.e ** (2j * w) * (1j * w - 1) + 1j * w + 1
        val = r / (r - p)
        assert abs(mp.im(val)) < mp.mpf("1e-40")
        return float(mp.re(val))


def test_endpoint_values():
    f = Frequency(3 * math.pi / 4)
    assert bernstein(f, 0, 0.0) == pytest.approx(1.0, abs=1e-14)
    for ell in (1, 2, 3):
        assert bernstein(f, ell, 0.0) == pytest.approx(0.0, abs=1e-14)
    assert bernstein(f, 3, 1.0) == pytest.approx(1.0, abs=1e-14)


def expanded_b0_closed_form(w: float, x: float) -> float:
    return (w * (1 - x) - math.sin(w * (1 - x))) / (w - math.sin(w))


def expanded_b1_closed_form(w: float, x: float) -> float:
    s = 2 * math.sin(w / 2) - w * math.cos(w / 2)
    d1 = w - math.sin(w)
    return (
        math.sin(w / 2) / s
        - 2 * w * math.sin(w / 2) ** 3 / (s * d1) * (1 - x)
        + (1 / d1 + math.cos(w / 2) / s) * math.sin(w * (1 - x))
        - math.sin(w / 2) / s * math.cos(w * (1 - x))
    )


@pytest.mark.parametrize("w0", [0.9, 1.5, 3 * math.pi / 4, 2.9])
def test_pieces_match_expanded_closed_forms(w0):
    f = Frequency(w0)
    for x in np.linspace(0.0, 1.0, 17):
        x = float(x)
        assert bernstein(f, 0, x) == pytest.approx(
            expanded_b0_closed_form(w0, x), abs=1e-12
        )
        assert bernstein(f, 1, x) == pytest.approx(
            expanded_b1_closed_form(w0, x), abs=1e-12
        )


@pytest.mark.parametrize("w0", OMEGA_GRID)
def test_partition_of_unity(w0):
    f = Frequency(w0)
    assert sum(bernstein(f, ell, 0.3) for ell in range(4)) == pytest.approx(
        1.0, abs=1e-12
    )
    for x in np.linspace(0.0, 1.0, 201):
        total = sum(bernstein(f, ell, float(x)) for ell in range(4))
        assert abs(total - 1.0) < 1e-12


def test_symmetry_spot():
    f = Frequency(3 * math.pi / 4)
    assert bernstein(f, 1, 0.4) == pytest.approx(bernstein(f, 2, 0.6), abs=1e-13)


@settings(max_examples=150, deadline=None)
@given(x=st.floats(0.0, 1.0), ell=st.integers(0, 3))
def test_symmetry_property(x, ell):
    f = Frequency(2.2)
    assert bernstein(f, ell, x) == pytest.approx(
        bernstein(f, 3 - ell, 1.0 - x), abs=1e-13
    )


@pytest.mark.parametrize("w0", OMEGA_GRID)
def test_nonnegative_on_dense_grid(w0):
    f = Frequency(w0)
    for x in np.linspace(0.0, 1.0, 401):
        for ell in range(4):
            assert bernstein(f, ell, float(x)) >= -1e-12


@pytest.mark.parametrize("w0", [0.5, 1.0, 2.0, 3.0])
def test_endpoint_derivative_identity(w0):
    f = Frequency(w0)
    kappa = endpoint_slope(f)
    expected = w0 * (math.cos(w0) - 1.0) / (w0 - math.sin(w0))
    assert kappa == pytest.approx(expected, rel=1e-12)
    # the piece continues analytically below 0, so a centered Richardson
    # stencil resolves the endpoint slope to the 1e-10 scale
    piece = bernstein_basis(f)[0]
    central = lambda h: (piece.value(h) - piece.value(-h)) / (2 * h)
    fd = (4.0 * central(5e-4) - central(1e-3)) / 3.0
    assert fd == pytest.approx(kappa, abs=1e-10)
    assert piece.derivative().value(0.0) == pytest.approx(kappa, abs=1e-10)


@pytest.mark.parametrize("w0", OMEGA_GRID)
def test_conversion_ratio_matches_complex_form(w0):
    assert conversion_ratio(Frequency(w0)) == pytest.approx(
        complex_ratio_oracle_mp(w0), rel=1e-13
    )
    assert conversion_ratio(Frequency(w0)) * endpoint_slope(Frequency(w0)) == (
        pytest.approx(-1.0, rel=1e-12)
    )


def test_conversion_ratio_complex_float_path():
    # at moderate frequencies the plain complex-double route is healthy and
    # its imaginary residue stays at roundoff level
    for w0 in (1.0, 2.0, 3 * math.pi / 4, math.pi):
        oracle = complex_ratio_oracle(w0)
        assert abs(oracle.imag) < 1e-13 * max(1.0, abs(oracle.real))
        assert conversion_ratio(Frequency(w0)) == pytest.approx(
            oracle.real, rel=1e-9
        )


def test_conversion_ratio_limit():
    assert abs(conversion_ratio(Frequency(1e-3)) - 1.0 / 3.0) < 1e-4
    assert abs(conversion_ratio(Frequency(1e-2)) - 1.0 / 3.0) < 1e-3
    assert conversion_ratio(Frequency(0.0)) == 1.0 / 3.0


def test_constant_data_gives_constant_controls():
    seg = hermite_to_bezier(Frequency(2.0), 1.0, 4.5, 0.0, 4.5, 0.0)
    assert seg.p0 == seg.p1 == seg.p2 == seg.p3 == 4.5


def test_reconstruction_matches_hermite_form():
    rng = np.random.default_rng(9)
    w0 = 2.0
    f = Frequency(w0)
    from exphermite import HermiteData, spline_eval

    f0, d0, f1, d1 = rng.normal(size=4)
    seg = hermite_to_bezier(f, 1.0, f0, d0, f1, d1)
    data = HermiteData(np.array([f0, f1]), np.array([d0, d1]))
    for t in np.linspace(0.0, 1.0, 19)[1:-1]:
        direct, _ = spline_eval(f, data, float(t))
        assert abs(seg.value(float(t)) - direct) < 1e-11


def test_reconstruction_respects_span_length():
    # on a span of length h the segment matches the h-grid Hermite form
    rng = np.random.default_rng(19)
    w0, h = 2.0, 0.25
    f = Frequency(w0)
    f0, d0, f1, d1 = rng.normal(size=4)
    seg = hermite_to_bezier(f, h, f0, d0, f1, d1)
    for t in np.linspace(0.0, 1.0, 9):
        x = t * h
        direct = (
            f0 * phi_rescaled(f, h, 1, x) + d0 * phi_rescaled(f, h, 2, x)
            + f1 * phi_rescaled(f, h, 1, x - h) + d1 * phi_rescaled(f, h, 2, x - h)
        )
        assert abs(seg.value(float(t)) - direct) < 1e-12
    deriv0 = (
        f0 * phi_rescaled_deriv(f, h, 1, 0.0) + d0 * phi_rescaled_deriv(f, h, 2, 0.0)
    )
    assert deriv0 == pytest.approx(d0, abs=1e-12)


def test_round_trip_identity():
    rng = np.random.default_rng(4)
    f = Frequency(3 * math.pi / 4)
    for _ in range(100):
        f0, d0, f1, d1 = rng.normal(size=4)
        seg = hermite_to_bezier(f, 1.0, f0, d0, f1, d1)
        back = bezier_to_hermite(seg, 1.0)
        assert back == pytest.approx((f0, d0, f1, d1), abs=1e-13)


def test_constant_controls_invert_to_flat_data():
    from exphermite.bezier import BezierSegment

    seg = BezierSegment(2.0, 2.0, 2.0, 2.0, Frequency(1.0))
    f0, d0, f1, d1 = bezier_to_hermite(seg, 1.0)
    assert (f0, d0, f1, d1) == pytest.approx((2.0, 0.0, 2.0, 0.0), abs=1e-14)


def test_segment_endpoint_derivative():
    # the pieces continue analytically below 0, so a centered Richardson
    # stencil reaches the 1e-11 scale at the endpoint
    f = Frequency(1.5)
    seg = hermite_to_bezier(f, 1.0, 0.3, -1.2, 0.9, 0.4)
    central = lambda h: (seg.value(h) - seg.value(-h)) / (2 * h)
    fd = (4.0 * central(5e-4) - central(1e-3)) / 3.0
    assert fd == pytest.approx(-1.2, abs=1e-11)


def test_pieces_belong_to_the_exponential_family():
    # the order-4 annihilation filter (1 - z)^2 (1 - 2 cos(w) z + z^2) kills
    # the analytic continuation of every Bernstein piece
    w0 = 2.4
    f = Frequency(w0)
    weights = annihilation_weights(f, 4)
    for piece in bernstein_basis(f):
        for x in (0.3, 1.7, -2.2):
            val = sum(wk * piece.value(x - k) for k, wk in enumerate(weights))
            assert abs(val) < 1e-12


def test_domain_errors():
    f = Frequency(2.0)
    with pytest.raises(DomainError):
        bernstein(f, 0, 1.2)
    with pytest.raises(DomainError):
        bernstein(f, 0, -0.2)
    with pytest.raises(DomainError):
        hermite_to_bezier(f, 2.0, 0.0, 0.0, 0.0, 0.0)  # h * w0 > pi


@pytest.mark.parametrize("h", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_span_length_must_be_positive_and_finite(h):
    # nan once gave nan tangents and inf zero tangents, with no error
    f = Frequency(1.0)
    seg = hermite_to_bezier(f, 1.0, 0.0, 1.0, 1.0, 0.0)
    with pytest.raises(DomainError, match="span length h must be positive and finite"):
        bezier_to_hermite(seg, h)
    with pytest.raises(DomainError, match="grid step h must be positive and finite"):
        hermite_to_bezier(f, h, 0.0, 1.0, 1.0, 0.0)


def per_piece_value(piece, x):
    """One piece on its own, with its own kernel pair: the evaluation the
    shared-kernel path replaced, written out independently of E4Piece."""
    w = piece.freq.omega0
    half = sin_over(0.5 * w, x)
    k1, k2 = 0.5 * half * half, x * x * x * x_minus_sin_scaled(w * x)
    return piece.value0 + piece.slope0 * x - piece.C * k1 - piece.D * k2


# 0, both sides of 1e-4 (the switch point of a former cubic-limit path), and
# two regular frequencies
@pytest.mark.parametrize("w0", [0.0, 0.99 * 1e-4, 1.01 * 1e-4, 0.5, math.pi])
def test_segment_value_matches_per_piece_sum_bitwise(w0):
    # sum_l b_l(t) (x) p_l, one kernel pair per piece
    freq = Frequency(w0)
    pieces = bernstein_basis(freq)
    rng = np.random.default_rng(7)
    controls = [rng.normal(size=4).tolist(), list(rng.normal(size=(4, 2))),
                list(rng.normal(size=(4, 3)))]
    params = [0.0, 0.3, 1.0, rng.random(9), rng.random((3, 4))]
    for ctrl in controls:
        segment = BezierSegment(*ctrl, freq=freq)
        for t in params:
            b0, b1, b2, b3 = (per_piece_value(piece, t) for piece in pieces)
            assert all(np.array_equal(piece.value(t), per_piece_value(piece, t))
                       for piece in pieces)
            expected = (
                np.multiply.outer(b0, ctrl[0]) + np.multiply.outer(b1, ctrl[1])
                + np.multiply.outer(b2, ctrl[2]) + np.multiply.outer(b3, ctrl[3])
            )
            got = segment.value(t)
            assert np.shape(got) == np.shape(t) + np.shape(ctrl[0])
            assert np.array_equal(got, expected)
