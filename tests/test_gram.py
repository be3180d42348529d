"""Gram entries against quadrature, determinant identities, Riesz bounds,
and the closed-form determinant lower bound."""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from exphermite import (
    DomainError,
    Frequency,
    det_scan_min,
    gram_entries,
    lower_bound_G,
    lower_bound_G_zero_limit,
    phi,
    riesz_bounds,
)
from exphermite.gram import _mp_lower_bound_parts, _scan

REPRESENTATIVE = [0.5, 1.0, 3 * math.pi / 4, math.pi]


def quadrature_entries(freq: Frequency):
    """Adaptive-quadrature oracle for the five inner products."""
    a = quad(lambda x: phi(freq, 1, x) * phi(freq, 1, x - 1), 0, 1)[0]
    b = 2.0 * quad(lambda x: phi(freq, 1, x) ** 2, 0, 1)[0]
    c = quad(lambda x: phi(freq, 1, x) * phi(freq, 2, x - 1), 0, 1)[0]
    d = quad(lambda x: phi(freq, 2, x) * phi(freq, 2, x - 1), 0, 1)[0]
    e = 2.0 * quad(lambda x: phi(freq, 2, x) ** 2, 0, 1)[0]
    return a, b, c, d, e


@pytest.mark.parametrize("w0", REPRESENTATIVE)
def test_entries_match_quadrature(w0):
    f = Frequency(w0)
    g = gram_entries(f)
    qa, qb, qc, qd, qe = quadrature_entries(f)
    assert abs(g.a - qa) < 1e-8
    assert abs(g.b - qb) < 1e-8
    assert abs(g.c - qc) < 1e-8
    assert abs(g.d - qd) < 1e-8
    assert abs(g.e - qe) < 1e-8


def test_offdiagonal_sign_convention():
    # the closed-form c equals <phi1, phi2(.-1)> with no conjugation twist,
    # fixing the sign of the -2 c i sin(omega) placement
    f = Frequency(1.0)
    g = gram_entries(f)
    oracle = quad(lambda x: phi(f, 1, x) * phi(f, 2, x - 1), 0, 1)[0]
    assert abs(g.c - oracle) < 1e-8
    # the scan's eigenvalues are those of the symbol with -2 c i sin(om)
    # above the diagonal
    om, _, lmin, lmax = _scan(f, 64)
    for k in range(len(om)):
        m12 = -2j * g.c * math.sin(om[k])
        symbol = np.array([[2 * g.a * math.cos(om[k]) + g.b, m12],
                           [np.conj(m12), 2 * g.d * math.cos(om[k]) + g.e]])
        eig = np.linalg.eigvalsh(symbol)
        assert eig == pytest.approx([lmin[k], lmax[k]], abs=1e-15)


def test_trace_bound_quantities_positive():
    for w0 in np.linspace(1e-3, math.pi, 100):
        g = gram_entries(Frequency(float(w0)))
        assert g.b - 2.0 * g.a > 0.0
        assert g.e - 2.0 * g.d > 0.0


def test_gram_matrix_offdiagonal_vanishes_at_zero():
    # at om = 0 the determinant is exactly the product of the diagonal
    g = gram_entries(Frequency(2.0))
    om, det, _, _ = _scan(Frequency(2.0), 64)
    assert om[0] == 0.0
    assert det[0] == (2.0 * g.a + g.b) * (2.0 * g.d + g.e)


def test_det_two_paths_agree():
    f = Frequency(2.0)
    om, direct, _, _ = _scan(f, 64)
    A, B, C = gram_entries(f).det_coeffs()
    closed = A * np.cos(2 * om) + B * np.cos(om) + C
    assert np.abs(direct - closed).max() < 1e-12


def test_trace_positive_at_pi():
    f = Frequency(1.0)
    g = gram_entries(f)
    om, _, lmin, lmax = _scan(f, 64)
    assert om[-1] == math.pi
    trace = lmin[-1] + lmax[-1]
    assert trace == pytest.approx(-2 * (g.a + g.d) + g.b + g.e, abs=1e-13)
    assert trace > 0.0


def test_hermitian_on_random_pairs():
    # a Hermitian symbol has real eigenvalues: the scan's pair multiplies to
    # its determinant and never needs the clamped square root
    rng = np.random.default_rng(5)
    for _ in range(500):
        f = Frequency(float(rng.uniform(1e-3, math.pi)))
        _, det, lmin, lmax = _scan(f, 64)
        assert np.all(lmin <= lmax)
        assert np.abs(lmin * lmax - det).max() < 1e-14


@pytest.mark.parametrize("w0", [0.01, 1.0, 3 * math.pi / 4, math.pi])
def test_riesz_bounds_ordered_and_finite(w0):
    alpha, beta = riesz_bounds(Frequency(w0))
    assert 0.0 < alpha <= beta < math.inf


@pytest.mark.parametrize("w0", [0.1, 1.0, 2.0, 3.0, math.pi])
def test_eigenvalue_positivity_on_scan(w0):
    alpha, _ = riesz_bounds(Frequency(w0), grid_size=2048)
    assert alpha > 0.0


def test_lower_riesz_bound_positive_across_sweep():
    # dense frequency sweep including the cubic-limit path at 0
    freqs = [0.0, 1e-3] + [k * math.pi / 50 for k in range(1, 51)]
    for w0 in freqs:
        alpha, beta = riesz_bounds(Frequency(w0), grid_size=256)
        assert 0.0 < alpha <= beta < math.inf


@pytest.mark.parametrize("w0", [0.5, 1.0, 2.5, math.pi])
def test_beta_squared_below_max_trace(w0):
    f = Frequency(w0)
    _, beta = riesz_bounds(f)
    g = gram_entries(f)
    om = np.linspace(0, math.pi, 512)
    max_trace = (2.0 * (g.a + g.d) * np.cos(om) + g.b + g.e).max()
    assert beta**2 <= max_trace + 1e-12


@pytest.mark.parametrize("w0", [0.5, 1.0, 2.5, math.pi])
def test_det_dominates_lower_bound(w0):
    f = Frequency(w0)
    bound = lower_bound_G(f)
    assert det_scan_min(f) >= bound - 1e-12
    assert bound > 0.0


@pytest.mark.parametrize("w0", [0.5, 2.5])
def test_lower_bound_tight_against_scan(w0):
    f = Frequency(w0)
    assert lower_bound_G(f) <= det_scan_min(f) + 1e-10


def test_lower_bound_monotone_positive():
    values = [lower_bound_G(Frequency(k * math.pi / 200)) for k in range(1, 201)]
    assert all(v > 0.0 for v in values)
    assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))


def test_zero_limit_from_above():
    g0 = lower_bound_G_zero_limit()
    assert g0 > 0.0
    assert lower_bound_G(Frequency(0.01)) >= g0 - 1e-12


def test_zero_limit_is_the_series_limit():
    # numerator and denominator of lower_bound_G both start at w^12; the
    # ratio of those Taylor coefficients is the limit, 29/6300
    with mp.workdps(60):
        num = mp.taylor(lambda w: _mp_lower_bound_parts(w)[0], 0, 12)
        den = mp.taylor(lambda w: _mp_lower_bound_parts(w)[1], 0, 12)
        assert all(abs(c) < 1e-40 for c in num[:12] + den[:12])
        limit = float(num[12] / den[12])
    assert abs(lower_bound_G_zero_limit() - limit) <= math.ulp(limit)


def test_small_frequency_entries_match_rationals():
    g = gram_entries(Frequency(0.0))
    exact = {
        "a": Fraction(9, 70),
        "b": Fraction(26, 35),
        "c": Fraction(-13, 420),
        "d": Fraction(-1, 140),
        "e": Fraction(2, 105),
    }
    for name, frac in exact.items():
        assert getattr(g, name) == pytest.approx(float(frac), abs=1e-13)


def test_entries_domain():
    with pytest.raises(DomainError):
        gram_entries(Frequency(4.0))
    with pytest.raises(DomainError):
        riesz_bounds(Frequency(1.0), grid_size=32)
