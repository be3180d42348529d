"""The stable kernels and the array-native evaluator against test-only
oracles and 50-digit mpmath.

Against a 50-digit mpmath reference every kernel is within 4 ulp on its
series branch (measured 2.6 for t - sin t, 2.5 for sin t - t cos t, 0.9
for both scaled forms and 1.3 for sin(a x) / a) and within 6 ulp on its
direct branch, whose differences lose digits to cancellation just above
the 0.9 cutoff (measured 4.0, 5.5, 3.5 and 4.2).  A float argument gives
bitwise the entry of the array call.

The oracle spline_eval evaluates one point at a time on the two bracketing
samples, v0 g1(t) + d0 g2(t) + v1 g1(1 - t) - d1 g2(1 - t), with its own
piece evaluation (the half-angle form and the loop series below) and its
own piece coefficients, rounded from 80-digit arithmetic, so it shares no
code with the package.  Both it and spline_eval are within ``ORACLE_EPS``
eps of the data size of a 50-digit evaluation (measured 2.5 for both), and
they agree within ``EVAL_EPS`` (measured 15) on random data.  A float x
gives bitwise the entry of the array call.  The span grid of spline_grid
meets the same ``ORACLE_EPS`` bound at fractions k/S that are not dyadic
(measured 6.3, as for spline_eval at the same parameters).
"""

import math
from functools import lru_cache

import mpmath as mp
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import exact
from exphermite import Frequency, HermiteData, spline_eval
from exphermite.basis import spline_grid
from exphermite.frequency import (
    sin_minus_x_cos,
    sin_minus_x_cos_scaled,
    sin_over,
    x_minus_sin,
    x_minus_sin_scaled,
)

CUTOFF = 0.9
SERIES_ULPS = 4
DIRECT_ULPS = 6
EVAL_EPS = 32
ORACLE_EPS = 8
EPS = np.finfo(float).eps


def oracle_x_minus_sin(t: float) -> float:
    if abs(t) >= CUTOFF:
        return t - math.sin(t)
    t2 = t * t
    term = t * t2 / 6.0
    total = term
    k = 1
    while True:
        term *= -t2 / ((2 * k + 2) * (2 * k + 3))
        total += term
        k += 1
        if abs(term) <= 1e-18 * abs(total):
            return total


@lru_cache(maxsize=None)
def oracle_pieces(w: float):
    """(value0, slope0, C, D) of g1, g2, g1' and g2', each rounded once from
    the 80-digit coefficients a + b x + c cos(w x) + d sin(w x) of the
    Hermite generators (a + b x + c x^2 + d x^3 at w = 0): value0 = a + c,
    slope0 = b + d w, C = c w^2 and D = d w^3."""
    *_, c1, c2 = exact.generator_coefficients(w)
    with mp.workdps(exact.DIGITS):
        W = mp.mpf(w)
        pieces = []
        for a, b, c, d in (c1, c2):
            if w == 0.0:
                # a + b x + c x^2 + d x^3 = a + b x - C x^2/2 - D x^3/6
                pieces.append(((a, b, -2 * c, -6 * d), (b, 2 * c, -6 * d, 0)))
            else:
                pieces.append(((a + c, b + d * W, c * W**2, d * W**3),
                               (b + d * W, -c * W**2, d * W**3, -c * W**4)))
        (g1, dg1), (g2, dg2) = pieces
        return tuple(tuple(float(v) for v in p) for p in (g1, g2, dg1, dg2))


def oracle_piece_value(w: float, piece, x: float) -> float:
    """value0 + slope0 x - C (1 - cos(w x))/w^2 - D (w x - sin(w x))/w^3,
    the kernels from the half-angle form and the loop series."""
    value0, slope0, c, d = piece
    if w == 0.0:
        k1, k2 = x * x / 2.0, x**3 / 6.0
    else:
        k1 = 2.0 * (math.sin(0.5 * w * x) / w) ** 2
        k2 = oracle_x_minus_sin(w * x) / w**3
    return value0 + slope0 * x - c * k1 - d * k2


def oracle_spline_eval(freq: Frequency, data: HermiteData, x: float):
    def sample(n: int):
        if data.periodic:
            n %= len(data)
        elif not 0 <= n < len(data):
            raise IndexError(n)
        return data.values[n], data.derivs[n]

    n0 = math.floor(x)
    t = x - n0
    if t == 0.0:
        return sample(n0)
    w = freq.omega0
    g1, g2, dg1, dg2 = (lambda y, p=p: oracle_piece_value(w, p, y)
                        for p in oracle_pieces(w))
    (v0, d0), (v1, d1) = sample(n0), sample(n0 + 1)
    t1 = 1.0 - t
    value = v0 * g1(t) + d0 * g2(t) + v1 * g1(t1) - d1 * g2(t1)
    deriv = v0 * dg1(t) + d0 * dg2(t) - v1 * dg1(t1) + d1 * dg2(t1)
    return value, deriv


def ulps(value: float, t: float, exact) -> float:
    """Error of value in ulps of exact(t), evaluated with 50 digits beyond
    the t^2 relative size of the cancelling terms."""
    with mp.workdps(50 + int(2 * max(0.0, -math.log10(abs(t))))):
        reference = exact(mp.mpf(t))
        return float(abs(mp.mpf(value) - reference)
                     / float(np.spacing(abs(float(reference)))))


# both sides of 1e-4, the switch point of a former cubic-limit path
frequencies = st.one_of(
    st.floats(1e-7, 0.99 * 1e-4),
    st.floats(1.01 * 1e-4, math.pi),
)

# (kernel, exact value)
KERNELS = [
    (x_minus_sin, lambda u: u - mp.sin(u)),
    (sin_minus_x_cos, lambda u: mp.sin(u) - u * mp.cos(u)),
    (x_minus_sin_scaled, lambda u: (u - mp.sin(u)) / u**3),
    (sin_minus_x_cos_scaled, lambda u: (mp.sin(u) - u * mp.cos(u)) / u**3),
]


def check_kernels(t):
    for kernel, exact in KERNELS:
        got = kernel(t)
        assert got.shape == t.shape
        for ti, gi in zip(t.tolist(), got.tolist()):
            assert gi == kernel(ti)
            if ti != 0.0:
                bound = SERIES_ULPS if abs(ti) < CUTOFF else DIRECT_ULPS
                assert ulps(gi, ti, exact) <= bound


@settings(max_examples=150, deadline=None)
@given(w=frequencies, xs=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=12))
def test_kernels_match_oracle_and_mpmath(w, xs):
    # arguments w x over the generator support, plus the w/2 the masks use
    check_kernels(np.array([w * x for x in xs] + [0.5 * w]))
    # sin(a x) / a with a = w / 2, the half-angle factor of the first kernel;
    # the ulp bound holds where a x is a normal float (below, the kernel
    # it feeds underflows anyway)
    a = 0.5 * w
    for xi, gi in zip(xs, sin_over(a, np.array(xs)).tolist()):
        assert gi == sin_over(a, xi)
        if abs(a * xi) >= np.finfo(float).tiny:
            with mp.workdps(50):
                exact = mp.sin(mp.mpf(a) * xi) / a
            assert abs(gi - exact) <= SERIES_ULPS * np.spacing(abs(float(exact)))


def test_kernels_at_the_cutoff():
    below, above = math.nextafter(CUTOFF, 0.0), CUTOFF
    check_kernels(np.array([-above, -below, below, above]))


def test_sin_over_at_zero_and_below_the_floor():
    x = np.array([-2.5, 0.0, 0.3, 1.0])
    for a in (0.0, 5e-324, 1e-200):
        assert np.array_equal(sin_over(a, x), x)


@settings(max_examples=120, deadline=None)
@given(
    w=frequencies,
    n=st.integers(2, 9),
    dim=st.sampled_from([None, 2]),
    periodic=st.booleans(),
    seed=st.integers(0, 2**16),
    fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=24),
)
def test_spline_eval_matches_per_point_oracle(w, n, dim, periodic, seed, fractions):
    rng = np.random.default_rng(seed)
    shape = (n,) if dim is None else (n, dim)
    scale = 10.0 ** rng.uniform(-3, 3)
    data = HermiteData(scale * rng.normal(size=shape), scale * rng.normal(size=shape),
                       periodic=periodic)
    # open data is supported on [0, n-1]; periodic data anywhere, here
    # over two periods and one before the origin
    lo, hi = (-n, 2 * n) if periodic else (0, n - 1)
    x = np.array([lo + f * (hi - lo) for f in fractions] + [float(lo), float(hi)])
    freq = Frequency(w)
    values, derivs = spline_eval(freq, data, x)
    assert values.shape == x.shape + shape[1:] == derivs.shape
    size = np.abs(data.values).max() + np.abs(data.derivs).max()
    for k, xk in enumerate(x.tolist()):
        value, deriv = oracle_spline_eval(freq, data, xk)
        assert np.abs(values[k] - value).max() <= EVAL_EPS * EPS * size
        assert np.abs(derivs[k] - deriv).max() <= EVAL_EPS * EPS * size
        one_value, one_deriv = spline_eval(freq, data, xk)
        assert np.shape(one_value) == np.shape(value)
        assert np.array_equal(one_value, values[k])
        assert np.array_equal(one_deriv, derivs[k])



def exact_spline(w: float, data: HermiteData, x: float):
    """The spline and its derivative at x from the 80-digit generators."""
    n0 = math.floor(x)
    t = mp.mpf(x) - n0
    v0, d0, v1, d1 = (float(a) for a in (data.values[n0], data.derivs[n0],
                                          data.values[n0 + 1], data.derivs[n0 + 1]))
    value, deriv = (
        v0 * exact.phi(w, 1, t, slope) + d0 * exact.phi(w, 2, t, slope)
        + v1 * exact.phi(w, 1, t - 1, slope) + d1 * exact.phi(w, 2, t - 1, slope)
        for slope in (False, True))
    return value, deriv


def test_per_point_oracle_against_mpmath():
    rng = np.random.default_rng(11)
    data = HermiteData(rng.normal(size=6), rng.normal(size=6))
    size = np.abs(data.values).max() + np.abs(data.derivs).max()
    xs = [0.5, 1.25, 2.999, 3.0001, 4.7]
    worst = 0.0
    for w in (0.0, 1e-7, 0.99e-4, 1.01e-4, 0.5, 1.0, math.pi):
        freq = Frequency(w)
        for x in xs:
            exact_value, exact_deriv = exact_spline(w, data, x)
            for got in (oracle_spline_eval(freq, data, x),
                        tuple(np.asarray(spline_eval(freq, data, x)).tolist())):
                worst = max(worst, float(abs(got[0] - exact_value)),
                            float(abs(got[1] - exact_deriv)))
    assert worst <= ORACLE_EPS * EPS * size


def test_spline_grid_against_mpmath():
    # fractions k/S that are not dyadic, where the grid's parameter
    # n + fl(k/S) is not spline_eval's fl((nS + k)/S)
    rng = np.random.default_rng(13)
    data = HermiteData(rng.normal(size=4), rng.normal(size=4))
    size = np.abs(data.values).max() + np.abs(data.derivs).max()
    worst = 0.0
    for w in (0.0, 1e-7, 0.5, math.pi):
        freq = Frequency(w)
        for samples in (3, 7, 100):
            got = spline_grid(freq, data, samples)
            fractions = (np.arange(samples) / samples).tolist()
            for n in range(3):
                v0, d0, v1, d1 = (float(a) for a in (
                    data.values[n], data.derivs[n],
                    data.values[n + 1], data.derivs[n + 1]))
                for k, t in enumerate(fractions):
                    with mp.workdps(50):
                        t = mp.mpf(t)
                        exact_value = (v0 * exact.phi(w, 1, t) + d0 * exact.phi(w, 2, t)
                                       + v1 * exact.phi(w, 1, t - 1)
                                       + d1 * exact.phi(w, 2, t - 1))
                        error = abs(got[n * samples + k] - exact_value)
                    worst = max(worst, float(error))
    assert worst <= ORACLE_EPS * EPS * size
