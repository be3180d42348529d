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
the identities hold down to w = 0.  One check refuses an order other than
the int 3 or 4, one shifted-generator sum serves ``rho_from_phi`` and the
superfunction route, and one cached record per frequency holds both orders.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .basis import _check_which, _extend, _k1, _k2, make_generators
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


def _check_order(order) -> None:
    """ValueError unless a B-spline order is the int 3 or 4."""
    if type(order) is not int or order not in (3, 4):
        raise ValueError(f"order must be 3 or 4, got {order!r}")


def annihilation_weights(freq: Frequency, order: int) -> np.ndarray:
    """Real taps of (1 - z)^(order - 2) (1 - 2 cos(w) z + z^2) for order 3
    or 4; weight k multiplies f(x - k).  The filter kills 1, cos(w x) and
    sin(w x), and for order 4 also x."""
    _check_order(order)
    return np.array(_constants(freq).taps[order - 3])


class _Constants(NamedTuple):
    """Per-frequency constants; taps and terms are indexed by order - 3."""

    normalization: float  # (w / (2 sin(w/2)))^2 = 1 / sinc^2(w/2); 1 at w = 0
    taps: tuple           # the filter taps of annihilation_weights
    terms: tuple          # the superfunction weights
    g1: object            # the generator piece; c = g1.C and c3 = -g1.D
    c4: float


@lru_cache(maxsize=1024)
def _constants(freq: Frequency) -> _Constants:
    """The constants of ``annihilation_weights``, ``bspline`` and
    ``phi_from_rho``, computed once per frequency: a float call would
    otherwise spend most of its time rebuilding them.

    The superfunction terms are the (phi1, phi2) weights of the generator
    shifts 1, 2, ... that sum to B_order, built from half the handle ratio,
    (w - sin w) / (4 w sin^2(w/2)) (1/6 at w = 0), and mu = (w/2) / tan(w/2)
    = cos(w/2) / sinc(w/2) (1 at w = 0).

    The localization coefficients of ``phi_from_rho`` are (c, c3, c4) =
    (w^2 sin(u) / s, w^3 cos(u) / s, w (w - sin w) / (2 s sin u)) with
    u = w/2 and s = 2 sin(u) - w cos(u) = w^3 S3(u) / 4.  c and c3 are the
    scaled coefficients C and -D of the generator g1, and c4 is taken as
    4 S2(w) / (sinc(u) S3(u)) with S3(u) = (sin u - u cos u) / u^3 and
    S2(w) = (w - sin w) / w^3; (6, 12, 2) at w = 0.
    """
    w = freq.omega0
    u = 0.5 * w
    half_sinc = sinc(u)
    r = 1.0 / half_sinc
    handle = 0.5 * conversion_ratio(freq)
    mu = math.cos(u) / half_sinc
    cos_w = math.cos(w)
    side = -2.0 - 2.0 * cos_w  # the order-4 taps are symmetric
    return _Constants(
        r * r,
        ((1.0, -1.0 - 2.0 * cos_w, 1.0 + 2.0 * cos_w, -1.0),
         (1.0, side, 2.0 + 4.0 * cos_w, side, 1.0)),
        (((0.5, mu), (0.5, -mu)),
         ((handle, 0.5), (1.0 - 2.0 * handle, 0.0), (handle, -0.5))),
        make_generators(freq).g1,
        4.0 * x_minus_sin_scaled(w) / (half_sinc * sin_minus_x_cos_scaled(u)),
    )


def _shift_sum(freq: Frequency, x, first: int, weights):
    """sum a phi1(x - n) + b phi2(x - n) over the pairs (a, b) of weights,
    at the shifts n = first, first + 1, ..."""
    pair = make_generators(freq)
    total = 0.0
    for n, (a, b) in enumerate(weights, first):
        p1, p2 = _extend(pair.g1, pair.g2, x - n)
        total = total + (a * p1 + b * p2)
    return total


def bspline(freq: Frequency, order: int, x, method: str = "green"):
    """Normalized exponential B-spline of order 4 (support [0, 4]) or 3
    (support [0, 3]).

    method="green": normalization times the annihilation filter applied to
    the matching Green's function (rho1 for order 4, rho2 for order 3).
    method="superfunction": the short combination of shifted generators.
    The two agree pointwise.  An order other than the int 3 or 4 is refused
    before any point is evaluated.
    """
    if method not in ("green", "superfunction"):
        raise ValueError(f"method must be 'green' or 'superfunction', got {method!r}")
    _check_order(order)
    constants = _constants(freq)
    if method == "green":
        which = 5 - order  # rho1 for order 4, rho2 for order 3
        total = 0.0
        for k, tap in enumerate(constants.taps[order - 3]):
            total = total + tap * rho(freq, which, x - k)
        val = constants.normalization * total
    else:
        val = _shift_sum(freq, x, 1, constants.terms[order - 3])
    return val * ((x > 0.0) & (x < order))


def rho_from_phi(freq: Frequency, which: int, x):
    """Reproduce rho1 or rho2 through the Hermite expansion: the expansion
    coefficients are the integer samples (rho(n), rho'(n)), and only the two
    shifts n = floor(x), floor(x) + 1 bracketing x contribute."""
    _check_which(which)
    n0 = x // 1.0  # floor(x); a float stays a float
    n1 = n0 + 1.0
    if which == 1:  # rho1' = rho2
        slope0, slope1 = rho(freq, 2, n0), rho(freq, 2, n1)
    else:  # rho2'(n) = sin(w |n|) / (2 w); |n| / 2 at w = 0
        w = freq.omega0
        slope0, slope1 = 0.5 * sin_over(w, abs(n0)), 0.5 * sin_over(w, abs(n1))
    # shifts 0 and 1 from t = x - n0: the offsets t and t - 1
    return _shift_sum(freq, x - n0, 0, ((rho(freq, which, n0), slope0),
                                        (rho(freq, which, n1), slope1)))


def phi_from_rho(freq: Frequency, which: int, x):
    """Rebuild the generators from finitely many Green's-function shifts
    (the localization identities, centered form):

        phi1(x) = c (rho2(x+1) - rho2(x-1)) - c3 D2 rho1 (x+1)
        phi2(x) = c (rho1(x+1) - rho1(x-1) - 2 rho2(x)) - c4 D2 rho2 (x+1)

    with (c, c3, c4) of ``_constants`` (c3 = -D enters as + D) and the
    double difference D2 f(y) = f(y) - 2 f(y-1) + f(y-2).  The pair filter
    D+- f(y) = D2 f(y) + 4 sin^2(w/2) f(y-1) has been split off, so every
    coefficient stays bounded as w -> 0 and no sum cancels at relative scale
    w^2.  The tails cancel, so the result vanishes for |x| >= 1.
    """
    _check_which(which)
    _, _, _, g1, c4 = _constants(freq)
    # both identities use rho1 and rho2 at x +- 1, and only rho_which at x
    p1, m1 = rho(freq, 1, x + 1.0), rho(freq, 1, x - 1.0)
    p2, m2 = rho(freq, 2, x + 1.0), rho(freq, 2, x - 1.0)
    if which == 1:
        return g1.C * (p2 - m2) + g1.D * (p1 - 2.0 * rho(freq, 1, x) + m1)
    q2 = rho(freq, 2, x)
    return g1.C * (p1 - m1 - 2.0 * q2) - c4 * (p2 - 2.0 * q2 + m2)
