"""Green's functions, the discrete annihilation operator, and exponential
B-splines of orders three and four.

rho1 and rho2 = rho1' are the fundamental solutions of the fourth- and
third-order operators behind the spline family.  Discretizing those
operators gives the annihilation filter; applying it to the Green's
functions produces compactly supported B-splines, and short combinations
of the Hermite generators reproduce the same B-splines (the superfunction
route).  Both routes are implemented and must agree.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .basis import phi
from .frequency import DomainError, Frequency, FrequencyList, one_minus_cos, s_factor, x_minus_sin

_IMAG_TOL = 1e-12


def rho(freq: Frequency, which: int, x: float) -> float:
    """Green's functions: rho1(x) = (w x - sin(w x)) sgn(x) / (2 w^3) and
    rho2(x) = (1 - cos(w x)) sgn(x) / (2 w^2), with the w -> 0 limits
    |x|^3/12 and x|x|/4.  sgn(0) = 0 makes parity exact."""
    if which not in (1, 2):
        raise ValueError(f"which must be 1 or 2, got {which!r}")
    if x == 0.0:
        return 0.0
    sign = 1.0 if x > 0.0 else -1.0
    ax = abs(x)
    if freq.is_small:
        return ax**3 / 12.0 if which == 1 else sign * ax * ax / 4.0
    w = freq.omega0
    if which == 1:
        return x_minus_sin(w * ax) / (2.0 * w**3)
    return sign * one_minus_cos(w * ax) / (2.0 * w * w)


def annihilation_weights(freqs: FrequencyList | Sequence[float]) -> np.ndarray:
    """Taps of the composite filter prod_k (1 - e^{i w_k} z); weight[k]
    multiplies f(x - k)."""
    if not isinstance(freqs, FrequencyList):
        freqs = FrequencyList(tuple(freqs))
    weights = np.array([1.0 + 0.0j])
    for w in freqs.freqs:
        weights = np.convolve(weights, [1.0, -np.exp(1j * w)])
    return weights


def annihilate(
    freqs: FrequencyList | Sequence[float],
    f: Callable[[float], float | complex],
    x: float,
) -> complex:
    """Apply the discrete annihilation operator for the given frequencies:
    one step maps f to f(.) - e^{i w} f(. - 1), steps compose recursively.
    The filter kills exactly the exponentials e^{i w_k x}."""
    weights = annihilation_weights(freqs)
    return complex(sum(wk * f(x - k) for k, wk in enumerate(weights)))


def _annihilate_real(
    freqs: Sequence[float], f: Callable[[float], float], x: float
) -> float:
    """Real-valued annihilation; the frequency list must be symmetric under
    negation so the filter taps are real up to roundoff."""
    val = annihilate(freqs, f, x)
    scale = max(1.0, abs(val.real))
    if abs(val.imag) > _IMAG_TOL * scale:
        raise ArithmeticError(
            f"annihilation expected a real result, imag={val.imag:.3e}"
        )
    return val.real


def _normalization(freq: Frequency) -> float:
    """(w / (2 sin(w/2)))^2, the partition-of-unity normalizer; 1 at w = 0."""
    if freq.is_small:
        return 1.0
    w = freq.omega0
    r = 0.5 * w / math.sin(0.5 * w)
    return r * r


def _superfunction_terms(freq: Frequency, order: int) -> list[tuple[int, float, float]]:
    """(shift, phi1 weight, phi2 weight) triples expressing B_order as a
    short combination of generator shifts."""
    if order == 4:
        if freq.is_small:
            g1 = 1.0 / 6.0
        else:
            w = freq.omega0
            g1 = x_minus_sin(w) / (4.0 * w * math.sin(0.5 * w) ** 2)
        return [(1, g1, 0.5), (2, 1.0 - 2.0 * g1, 0.0), (3, g1, -0.5)]
    if order == 3:
        if freq.is_small:
            mu = 1.0
        else:
            w = freq.omega0
            mu = 0.5 * w / math.tan(0.5 * w)
        return [(1, 0.5, mu), (2, 0.5, -mu)]
    raise ValueError(f"order must be 3 or 4, got {order!r}")


def bspline(freq: Frequency, order: int, x: float, method: str = "green") -> float:
    """Normalized exponential B-spline of order 4 (support [0, 4]) or 3
    (support [0, 3]).

    method="green": normalization times the annihilation filter applied to
    the matching Green's function.  method="superfunction": the short
    combination of shifted generators.  The two agree pointwise.
    """
    if order not in (3, 4):
        raise ValueError(f"order must be 3 or 4, got {order!r}")
    if x <= 0.0 or x >= order:
        return 0.0
    if method == "green":
        w = freq.omega0
        if order == 4:
            freqs = (0.0, 0.0, w, -w)
            g = lambda y: rho(freq, 1, y)
        else:
            freqs = (0.0, w, -w)
            g = lambda y: rho(freq, 2, y)
        return _normalization(freq) * _annihilate_real(freqs, g, x)
    if method == "superfunction":
        return sum(
            w1 * phi(freq, 1, x - n) + w2 * phi(freq, 2, x - n)
            for n, w1, w2 in _superfunction_terms(freq, order)
        )
    raise ValueError(f"method must be 'green' or 'superfunction', got {method!r}")


def rho_from_phi(freq: Frequency, which: int, x: float) -> float:
    """Reproduce rho1 or rho2 through the Hermite expansion: the expansion
    coefficients are the integer samples (rho(n), rho'(n)), and only the two
    shifts bracketing x contribute."""
    if which not in (1, 2):
        raise ValueError(f"which must be 1 or 2, got {which!r}")
    n0 = math.floor(x)
    total = 0.0
    for n in (n0, n0 + 1):
        if which == 1:
            cv, cd = rho(freq, 1, float(n)), rho(freq, 2, float(n))
        else:
            cv, cd = rho(freq, 2, float(n)), _rho2_deriv(freq, float(n))
        total += cv * phi(freq, 1, x - n) + cd * phi(freq, 2, x - n)
    return total


def _rho2_deriv(freq: Frequency, x: float) -> float:
    """rho2'(x) = sin(w x) sgn(x) / (2 w) away from 0 (limit x|x| -> |x|/2)."""
    if x == 0.0:
        return 0.0
    if freq.is_small:
        return abs(x) / 2.0
    w = freq.omega0
    return math.sin(w * abs(x)) / (2.0 * w)


def phi_from_rho(freq: Frequency, which: int, x: float) -> float:
    """Rebuild the generators from finitely many annihilated Green's-function
    shifts (the localization identities, centered form):

        phi1(x) = (w^2/s) [ sin(w/2) (rho2(x+1) - rho2(x-1))
                            - w cos(w/2) D2 rho1 (x+1) ]
        phi2(x) = (w/s)   [ w sin(w/2) (rho1(x+1) - rho1(x-1))
                            - (w / (2 sin(w/2))) Dpm rho2 (x+1)
                            + cos(w/2) D2 rho2 (x+1) ]

    where D2 f(y) = f(y) - 2 f(y-1) + f(y-2) is the double zero-frequency
    difference and Dpm f(y) = f(y) - 2 cos(w) f(y-1) + f(y-2) annihilates
    the pair (w, -w).  All residual tails cancel, so the result vanishes
    for |x| >= 1.
    """
    if which not in (1, 2):
        raise ValueError(f"which must be 1 or 2, got {which!r}")
    if freq.omega0 <= 0.0:
        raise DomainError("phi_from_rho needs omega0 in (0, pi]")
    w = freq.omega0
    s = s_factor(w)
    half_sin, half_cos = math.sin(0.5 * w), math.cos(0.5 * w)
    r1 = lambda y: rho(freq, 1, y)
    r2 = lambda y: rho(freq, 2, y)
    if which == 1:
        centered = _annihilate_real((0.0,), r2, x + 1.0) + _annihilate_real(
            (0.0,), r2, x
        )
        double = _annihilate_real((0.0, 0.0), r1, x + 1.0)
        return (w * w / s) * (half_sin * centered - w * half_cos * double)
    centered = _annihilate_real((0.0,), r1, x + 1.0) + _annihilate_real((0.0,), r1, x)
    pair_diff = _annihilate_real((w, -w), r2, x + 1.0)
    double = _annihilate_real((0.0, 0.0), r2, x + 1.0)
    return (w / s) * (
        w * half_sin * centered
        - (0.5 * w / half_sin) * pair_diff
        + half_cos * double
    )
