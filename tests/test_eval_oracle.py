"""The array-native evaluator against the per-point code it replaced, kept
here as a test-only oracle.

The oracle kernels sum their series until the terms fall below 1e-18 of
the total; the package sums a fixed number of terms in the same order, so
the two agree bitwise, which keeps subdivision output byte-stable.  The
oracle spline_eval evaluates one point at a time on the two bracketing
samples; the array form does the same arithmetic per point, so it too must
agree bitwise.  Against a 50-digit mpmath reference the series branch is within
4 ulp (measured 3.4 for t - sin t and 3.7 for sin t - t cos t); just above
the 0.9 cutoff the direct differences lose up to 4.8 ulp to cancellation,
exactly as the oracle does.
"""

import math

import mpmath as mp
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from exphermite import (
    SMALL_FREQ_THRESHOLD,
    Frequency,
    HermiteData,
    make_generators,
    spline_eval,
)
from exphermite.frequency import sin_minus_x_cos, x_minus_sin

CUTOFF = 0.9
SERIES_ULPS = 4
DIRECT_ULPS = 6


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


def oracle_sin_minus_x_cos(t: float) -> float:
    if abs(t) >= CUTOFF:
        return math.sin(t) - t * math.cos(t)
    t2 = t * t
    term = t * t2 / 3.0
    total = term
    k = 1
    while True:
        term *= -t2 * (k + 1) / (k * (2 * k + 2) * (2 * k + 3))
        total += term
        k += 1
        if abs(term) <= 1e-18 * abs(total):
            return total


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
    pair = make_generators(freq)
    (v0, d0), (v1, d1) = sample(n0), sample(n0 + 1)
    t1 = 1.0 - t
    value = (
        v0 * pair.g1.value(t) + d0 * pair.g2.value(t)
        + v1 * pair.g1.value(t1) - d1 * pair.g2.value(t1)
    )
    deriv = (
        v0 * pair.dg1.value(t) + d0 * pair.dg2.value(t)
        - v1 * pair.dg1.value(t1) + d1 * pair.dg2.value(t1)
    )
    return value, deriv


def ulps(value: float, t: float, exact) -> float:
    """Error of value in ulps of exact(t), evaluated with 50 digits beyond
    the t^2 relative size of the cancelling terms."""
    with mp.workdps(50 + int(2 * max(0.0, -math.log10(abs(t))))):
        reference = exact(mp.mpf(t))
        return float(abs(mp.mpf(value) - reference)
                     / float(np.spacing(abs(float(reference)))))


# both sides of the cubic-limit seam
frequencies = st.one_of(
    st.floats(1e-7, 0.99 * SMALL_FREQ_THRESHOLD),
    st.floats(1.01 * SMALL_FREQ_THRESHOLD, math.pi),
)

KERNELS = [
    (x_minus_sin, oracle_x_minus_sin, lambda u: u - mp.sin(u)),
    (sin_minus_x_cos, oracle_sin_minus_x_cos, lambda u: mp.sin(u) - u * mp.cos(u)),
]


@settings(max_examples=150, deadline=None)
@given(w=frequencies, xs=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=12))
def test_kernels_match_oracle_and_mpmath(w, xs):
    # arguments w x over the generator support, plus the w/2 the masks use
    t = np.array([w * x for x in xs] + [0.5 * w])
    for kernel, oracle, exact in KERNELS:
        got = kernel(t)
        assert got.shape == t.shape
        for ti, gi in zip(t.tolist(), got.tolist()):
            assert gi == oracle(ti) == kernel(ti)
            if ti != 0.0:
                bound = SERIES_ULPS if abs(ti) < CUTOFF else DIRECT_ULPS
                assert ulps(gi, ti, exact) <= bound


def test_kernels_at_the_cutoff():
    below, above = math.nextafter(CUTOFF, 0.0), CUTOFF
    t = np.array([-above, -below, below, above])
    for kernel, oracle, exact in KERNELS:
        for ti, gi in zip(t.tolist(), kernel(t).tolist()):
            assert gi == oracle(ti)
            bound = SERIES_ULPS if abs(ti) < CUTOFF else DIRECT_ULPS
            assert ulps(gi, ti, exact) <= bound


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
    for k, xk in enumerate(x.tolist()):
        value, deriv = oracle_spline_eval(freq, data, xk)
        assert np.array_equal(values[k], value)
        assert np.array_equal(derivs[k], deriv)
        one_value, one_deriv = spline_eval(freq, data, xk)
        assert np.shape(one_value) == np.shape(value)
        assert np.array_equal(one_value, value)
        assert np.array_equal(one_deriv, deriv)
