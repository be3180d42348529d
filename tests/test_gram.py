"""Gram entries against quadrature and the 80-digit closed forms,
determinant identities, Riesz bounds against an explicit-symbol oracle,
and the closed-form determinant lower bound."""

import importlib.util
import math
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

import exphermite.gram as gram
from exphermite import (
    DomainError,
    Frequency,
    GramEntries,
    det_scan_min,
    gram_entries,
    lower_bound_G,
    phi,
    riesz_bounds,
)

# the 80-digit closed forms live once, in the script that fits the table
_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "fit_gram_table.py"
_spec = importlib.util.spec_from_file_location("fit_gram_table", _SCRIPT)
oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracle)

REPRESENTATIVE = [0.5, 1.0, 3 * math.pi / 4, math.pi]


def quadrature_entries(freq: Frequency):
    """Adaptive-quadrature oracle for the five inner products."""
    a = quad(lambda x: phi(freq, 1, x) * phi(freq, 1, x - 1), 0, 1)[0]
    b = 2.0 * quad(lambda x: phi(freq, 1, x) ** 2, 0, 1)[0]
    c = quad(lambda x: phi(freq, 1, x) * phi(freq, 2, x - 1), 0, 1)[0]
    d = quad(lambda x: phi(freq, 2, x) * phi(freq, 2, x - 1), 0, 1)[0]
    e = 2.0 * quad(lambda x: phi(freq, 2, x) ** 2, 0, 1)[0]
    return a, b, c, d, e


def symbol_scan(g: GramEntries, grid_size: int):
    """Explicit-symbol oracle: the Hermitian Fourier symbol
    [[2a cos om + b, -2 c i sin om], [2 c i sin om, 2d cos om + e]] built
    entry by entry on a uniform grid of om over [0, pi].  Returns om, the
    determinant from the entries and the two eigenvalues from eigvalsh."""
    om = np.linspace(0.0, math.pi, grid_size)
    m = np.zeros((grid_size, 2, 2), dtype=complex)
    m[:, 0, 0] = 2 * g.a * np.cos(om) + g.b
    m[:, 1, 1] = 2 * g.d * np.cos(om) + g.e
    m[:, 0, 1] = -2j * g.c * np.sin(om)
    m[:, 1, 0] = np.conj(m[:, 0, 1])
    det = (m[:, 0, 0] * m[:, 1, 1] - m[:, 0, 1] * m[:, 1, 0]).real
    eig = np.linalg.eigvalsh(m)
    return om, det, eig[:, 0], eig[:, 1]


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


def test_table_is_the_generator_output():
    assert np.array_equal(gram._TABLE, np.array(oracle.fit_table()))


# 402 frequencies: a uniform grid, a log grid towards 0, both sides of the
# old seam at 1e-4 and the two ends
TABLE_CHECK = sorted({0.0, 1e-7, 0.99e-4, 1.01e-4, math.pi,
                      *np.linspace(0.0, math.pi, 360).tolist(),
                      *np.geomspace(1e-7, 1.0, 40).tolist()})


def test_table_matches_the_80_digit_closed_forms():
    assert len(TABLE_CHECK) >= 400
    worst = [0.0] * 7
    for w0 in TABLE_CHECK:
        f = Frequency(w0)
        g = gram_entries(f)
        got = [g.a, g.b, g.c, g.d, g.e, lower_bound_G(f), 2 * g.d + g.e]
        exact = oracle.closed_forms(w0)
        exact = [*exact, 2 * exact[3] + exact[4]]
        for k, (x, y) in enumerate(zip(got, exact)):
            worst[k] = max(worst[k], float(abs((mp.mpf(x) - y) / y)))
    assert max(worst[:6]) <= 4e-15
    assert worst[6] <= 1e-14


@pytest.mark.parametrize("w0", [0.0, 1e-7, 0.99e-4, 1.01e-4,
                                *np.linspace(1e-3, math.pi, 24).tolist()])
def test_riesz_constants_match_the_symbol_oracle(w0):
    f = Frequency(w0)
    tol = 1e-13
    _, det, lmin, lmax = symbol_scan(gram_entries(f), 4097)
    alpha, beta = riesz_bounds(f)
    low, high, dmin = lmin.min(), lmax.max(), det.min()
    assert abs(alpha**2 - low) <= tol * low and alpha**2 <= low * (1 + tol)
    assert abs(beta**2 - high) <= tol * high and beta**2 >= high * (1 - tol)
    closed = det_scan_min(f)
    assert abs(closed - dmin) <= tol * dmin and closed <= dmin * (1 + tol)


def test_riesz_certificate_rejects_a_failing_symbol(monkeypatch):
    # an off-diagonal entry this large makes det(M - alpha^2 I) negative
    bad = GramEntries(9 / 70, 26 / 35, -0.2, -1 / 140, 2 / 105)
    monkeypatch.setattr(gram, "gram_entries", lambda freq: bad)
    with pytest.raises(ArithmeticError):
        riesz_bounds(Frequency(1.0))


def test_det_min_takes_an_interior_vertex(monkeypatch):
    # entries whose determinant has its minimum inside (0, pi); the live
    # entries keep the vertex outside, where om = 0 wins
    inner = GramEntries(0.1, 0.8, -0.1, 0.01, 0.2)
    A, B, _ = inner.det_coeffs()
    assert abs(B) < 4 * A
    monkeypatch.setattr(gram, "gram_entries", lambda freq: inner)
    _, det, _, _ = symbol_scan(inner, 4097)
    closed = det_scan_min(Frequency(1.0))
    assert closed <= det.min() and det.min() - closed < 1e-6 * det.min()


def test_offdiagonal_sign_convention():
    # the closed-form c equals <phi1, phi2(.-1)> with no conjugation twist,
    # fixing the sign of the -2 c i sin(omega) placement
    f = Frequency(1.0)
    g = gram_entries(f)
    oracle_c = quad(lambda x: phi(f, 1, x) * phi(f, 2, x - 1), 0, 1)[0]
    assert abs(g.c - oracle_c) < 1e-8
    # the Riesz constants are the eigenvalue extrema of the symbol with
    # -2 c i sin(om) above the diagonal
    _, _, lmin, lmax = symbol_scan(g, 64)
    alpha, beta = riesz_bounds(f)
    assert alpha**2 == pytest.approx(lmin.min(), abs=1e-15)
    assert beta**2 == pytest.approx(lmax.max(), abs=1e-15)


def test_trace_bound_quantities_positive():
    for w0 in np.linspace(1e-3, math.pi, 100):
        g = gram_entries(Frequency(float(w0)))
        assert g.b - 2.0 * g.a > 0.0
        assert g.e - 2.0 * g.d > 0.0


def test_gram_matrix_offdiagonal_vanishes_at_zero():
    # at om = 0 the determinant is exactly the product of the diagonal, and
    # the Riesz constants are exactly the roots of its two entries
    f = Frequency(2.0)
    g = gram_entries(f)
    om, det, _, _ = symbol_scan(g, 64)
    assert om[0] == 0.0
    assert det[0] == (2.0 * g.a + g.b) * (2.0 * g.d + g.e)
    assert riesz_bounds(f) == (math.sqrt(2.0 * g.d + g.e),
                               math.sqrt(2.0 * g.a + g.b))


def test_det_two_paths_agree():
    f = Frequency(2.0)
    om, direct, _, _ = symbol_scan(gram_entries(f), 64)
    A, B, C = gram_entries(f).det_coeffs()
    closed = A * np.cos(2 * om) + B * np.cos(om) + C
    assert np.abs(direct - closed).max() < 1e-12
    assert abs(det_scan_min(f) - direct.min()) < 1e-12


def test_trace_positive_at_pi():
    f = Frequency(1.0)
    g = gram_entries(f)
    om, _, lmin, lmax = symbol_scan(g, 64)
    assert om[-1] == math.pi
    trace = lmin[-1] + lmax[-1]
    assert trace == pytest.approx(-2 * (g.a + g.d) + g.b + g.e, abs=1e-13)
    assert trace > 0.0
    alpha, beta = riesz_bounds(f)
    assert alpha**2 <= lmin[-1] <= lmax[-1] <= beta**2


def test_hermitian_on_random_pairs():
    # a Hermitian symbol has real eigenvalues: the pair multiplies to its
    # determinant, and the Riesz constants bracket every one of them
    rng = np.random.default_rng(5)
    for _ in range(500):
        f = Frequency(float(rng.uniform(1e-3, math.pi)))
        _, det, lmin, lmax = symbol_scan(gram_entries(f), 64)
        assert np.all(lmin <= lmax)
        assert np.abs(lmin * lmax - det).max() < 1e-14
        alpha, beta = riesz_bounds(f)
        assert alpha**2 <= lmin.min() + 1e-14
        assert lmax.max() <= beta**2 + 1e-14


@pytest.mark.parametrize("w0", [0.01, 1.0, 3 * math.pi / 4, math.pi])
def test_riesz_bounds_ordered_and_finite(w0):
    alpha, beta = riesz_bounds(Frequency(w0))
    assert 0.0 < alpha <= beta < math.inf


@pytest.mark.parametrize("w0", [0.1, 1.0, 2.0, 3.0, math.pi])
def test_eigenvalue_positivity_on_scan(w0):
    alpha, _ = riesz_bounds(Frequency(w0))
    assert alpha > 0.0


def test_lower_riesz_bound_positive_across_sweep():
    # dense frequency sweep down to w = 0
    freqs = [0.0, 1e-3] + [k * math.pi / 50 for k in range(1, 51)]
    for w0 in freqs:
        alpha, beta = riesz_bounds(Frequency(w0))
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
    # the table at w = 0 is the limit, the exact rational 29/6300
    g0 = lower_bound_G(Frequency(0.0))
    assert g0 > 0.0
    assert lower_bound_G(Frequency(0.01)) >= g0 - 1e-12
    assert abs(g0 - 29 / 6300) <= 4 * math.ulp(g0)


def test_zero_limit_is_the_series_limit():
    # numerator and denominator of lower_bound_G both start at w^12; the
    # ratio of those Taylor coefficients is the limit, 29/6300
    with mp.workdps(60):
        num = mp.taylor(lambda w: oracle.lower_bound_parts(w)[0], 0, 12)
        den = mp.taylor(lambda w: oracle.lower_bound_parts(w)[1], 0, 12)
        assert all(abs(c) < 1e-40 for c in num[:12] + den[:12])
        limit = float(num[12] / den[12])
    assert abs(lower_bound_G(Frequency(0.0)) - limit) <= math.ulp(limit)


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
        assert abs(getattr(g, name) - float(frac)) <= 4 * math.ulp(float(frac))


def test_entries_domain():
    with pytest.raises(DomainError):
        gram_entries(Frequency(4.0))
