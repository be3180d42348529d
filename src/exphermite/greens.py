"""Green's functions, their real annihilation filters, and exponential
B-splines of orders three and four.

rho1 and rho2 = rho1' are the fundamental solutions of the fourth- and
third-order operators behind the spline family.  Discretizing those
operators gives short real filters: powers of the zero-frequency
difference 1 - z times the pair filter 1 - 2 cos(w) z + z^2, which kills
cos(w x) and sin(w x).  Applying them to the Green's functions produces
compactly supported B-splines, and short combinations of the Hermite
generators reproduce the same B-splines (the superfunction route).  Both
routes are implemented and must agree, as must the localization identities
that rebuild the generators from Green's-function shifts and back.

Every function takes a float or an array of x through one code path, and
each uses the filter and coefficients of the frequency it evaluates, so
the identities hold down to w = 0.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .basis import _check_which, _k1, _k2, make_generators, phi_pair
from .bezier import conversion_ratio
from .frequency import (
    Frequency,
    sin_minus_x_cos_scaled,
    sin_over,
    sinc,
    x_minus_sin_scaled,
)


def rho(freq: Frequency, which: int, x):
    """Green's functions: rho1(x) = (w |x| - sin(w |x|)) / (2 w^3) and
    rho2(x) = (1 - cos(w x)) sgn(x) / (2 w^2), half the piece kernels K2 and
    K1 at |x|; |x|^3/12 and x|x|/4 at w = 0.  Both vanish at 0, which makes
    parity exact."""
    _check_which(which)
    ax = abs(x)
    if which == 1:
        return 0.5 * _k2(freq, ax)
    return (1 - 2 * (x < 0.0)) * 0.5 * _k1(freq, ax)


def _rho2_deriv(freq: Frequency, x):
    """rho2'(x) = sin(w |x|) / (2 w); |x| / 2 at w = 0."""
    return 0.5 * sin_over(freq.omega0, abs(x))


def _taps(cos_w: float, order: int) -> tuple[float, ...]:
    """The filter taps of ``annihilation_weights`` from cos(w)."""
    if order == 3:
        return (1.0, -1.0 - 2.0 * cos_w, 1.0 + 2.0 * cos_w, -1.0)
    if order == 4:
        return (1.0, -2.0 - 2.0 * cos_w, 2.0 + 4.0 * cos_w, -2.0 - 2.0 * cos_w, 1.0)
    raise ValueError(f"order must be 3 or 4, got {order!r}")


def annihilation_weights(freq: Frequency, order: int) -> np.ndarray:
    """Real taps of (1 - z)^(order - 2) (1 - 2 cos(w) z + z^2) for order 3
    or 4; weight k multiplies f(x - k).  The filter kills 1, cos(w x) and
    sin(w x), and for order 4 also x."""
    return np.array(_taps(math.cos(freq.omega0), order))


class _Constants(NamedTuple):
    """The per-frequency constants of the float routes, each a float."""

    normalization: float  # (w / (2 sin(w/2)))^2 = 1 / sinc^2(w/2); 1 at w = 0
    cos_w: float          # builds the filter taps
    handle: float         # (w - sin w) / (4 w sin^2(w/2)), half the handle
                          # ratio; 1/6 at w = 0
    mu: float             # (w/2) / tan(w/2) = cos(w/2) / sinc(w/2); 1 at w = 0
    c: float              # the localization coefficients
    c3: float
    c4: float


@lru_cache(maxsize=1024)
def _constants(freq: Frequency) -> _Constants:
    """The constants that ``bspline`` and ``phi_from_rho`` combine, computed
    once per frequency: those routes take one float at a time, and most of
    a call would otherwise go to rebuilding them."""
    w = freq.omega0
    u = 0.5 * w
    half_sinc = sinc(u)
    r = 1.0 / half_sinc
    g1 = make_generators(freq).g1
    return _Constants(
        r * r, math.cos(w), 0.5 * conversion_ratio(freq),
        math.cos(u) / half_sinc, g1.C, -g1.D,
        4.0 * x_minus_sin_scaled(w) / (half_sinc * sin_minus_x_cos_scaled(u)),
    )


def _superfunction_terms(freq: Frequency, order: int) -> list[tuple[int, float, float]]:
    """(shift, phi1 weight, phi2 weight) triples expressing B_order as a
    short combination of generator shifts."""
    if order == 4:
        g1 = _constants(freq).handle
        return [(1, g1, 0.5), (2, 1.0 - 2.0 * g1, 0.0), (3, g1, -0.5)]
    if order == 3:
        mu = _constants(freq).mu
        return [(1, 0.5, mu), (2, 0.5, -mu)]
    raise ValueError(f"order must be 3 or 4, got {order!r}")


def bspline(freq: Frequency, order: int, x, method: str = "green"):
    """Normalized exponential B-spline of order 4 (support [0, 4]) or 3
    (support [0, 3]).

    method="green": normalization times the annihilation filter applied to
    the matching Green's function (rho1 for order 4, rho2 for order 3).
    method="superfunction": the short combination of shifted generators.
    The two agree pointwise.  An order other than 3 or 4 is refused by the
    filter or the superfunction terms before any point is evaluated.
    """
    if method == "green":
        which = 5 - order  # rho1 for order 4, rho2 for order 3
        constants = _constants(freq)
        val = constants.normalization * sum(
            tap * rho(freq, which, x - k)
            for k, tap in enumerate(_taps(constants.cos_w, order))
        )
    elif method == "superfunction":
        val = 0.0
        for n, w1, w2 in _superfunction_terms(freq, order):
            p1, p2 = phi_pair(freq, x - n)
            val = val + (w1 * p1 + w2 * p2)
    else:
        raise ValueError(f"method must be 'green' or 'superfunction', got {method!r}")
    return val * ((x > 0.0) & (x < order))


def rho_from_phi(freq: Frequency, which: int, x):
    """Reproduce rho1 or rho2 through the Hermite expansion: the expansion
    coefficients are the integer samples (rho(n), rho'(n)), and only the two
    shifts n = floor(x), floor(x) + 1 bracketing x contribute."""
    n0 = x // 1.0  # floor(x); a float stays a float
    t = x - n0
    total = 0.0
    for n, offset in ((n0, t), (n0 + 1.0, t - 1.0)):
        slope = rho(freq, 2, n) if which == 1 else _rho2_deriv(freq, n)
        p1, p2 = phi_pair(freq, offset)
        total = total + (rho(freq, which, n) * p1 + slope * p2)
    return total


def _localization_coefficients(freq: Frequency) -> tuple[float, float, float]:
    """(c, c3, c4) = (w^2 sin(u) / s, w^3 cos(u) / s, w (w - sin w) / (2 s sin u))
    with u = w/2 and s = 2 sin(u) - w cos(u) = w^3 S3(u) / 4.  c and c3 are
    the scaled coefficients C and -D of the generator g1, and c4 is taken
    as 4 S2(w) / (sinc(u) S3(u)) with S3(u) = (sin u - u cos u) / u^3 and
    S2(w) = (w - sin w) / w^3; (6, 12, 2) at w = 0."""
    constants = _constants(freq)
    return constants.c, constants.c3, constants.c4


def phi_from_rho(freq: Frequency, which: int, x):
    """Rebuild the generators from finitely many Green's-function shifts
    (the localization identities, centered form):

        phi1(x) = c (rho2(x+1) - rho2(x-1)) - c3 D2 rho1 (x+1)
        phi2(x) = c (rho1(x+1) - rho1(x-1) - 2 rho2(x)) - c4 D2 rho2 (x+1)

    with the coefficients of ``_localization_coefficients`` and the double
    zero-frequency difference D2 f(y) = f(y) - 2 f(y-1) + f(y-2).  The pair
    filter D+- f(y) = D2 f(y) + 4 sin^2(w/2) f(y-1) has been split off
    algebraically, so every coefficient stays bounded as w -> 0 and no sum
    cancels at relative scale w^2.  The tails cancel, so the result
    vanishes for |x| >= 1.
    """
    _check_which(which)
    c, c3, c4 = _localization_coefficients(freq)
    shifts = (x + 1.0, x, x - 1.0)
    p1, q1, m1 = (rho(freq, 1, y) for y in shifts)
    p2, q2, m2 = (rho(freq, 2, y) for y in shifts)
    if which == 1:
        return c * (p2 - m2) - c3 * (p1 - 2.0 * q1 + m1)
    return c * (p1 - m1 - 2.0 * q2) - c4 * (p2 - 2.0 * q2 + m2)
