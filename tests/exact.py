"""Reference values in 80-digit arithmetic for the tests: the generators,
their derivatives, the Green's functions, the B-splines, the Bezier ratios,
the subdivision masks and the localization coefficients, each from its
closed form (or, for the generators, from the Hermite conditions solved in
the basis {1, x, cos(w x), sin(w x)}) and its exact w = 0 limit.

At 80 digits the closed forms keep more than 50 correct digits down to
w = 1e-7, where they cancel to about 1e-21 relative.
"""

import math
from functools import lru_cache

import mpmath as mp

DIGITS = 80


@lru_cache(maxsize=None)
def generator_coefficients(w: float):
    """(basis, slope basis, g1 coefficients, g2 coefficients) on [0, 1]."""
    with mp.workdps(DIGITS):
        W = mp.mpf(w)
        if w == 0.0:
            basis = lambda x: [1, x, x**2, x**3]
            slope = lambda x: [0, 1, 2 * x, 3 * x**2]
        else:
            basis = lambda x: [1, x, mp.cos(W * x), mp.sin(W * x)]
            slope = lambda x: [0, 1, -W * mp.sin(W * x), W * mp.cos(W * x)]
        zero, one = mp.mpf(0), mp.mpf(1)
        rows = mp.matrix([basis(zero), slope(zero), basis(one), slope(one)])
        return (basis, slope, mp.lu_solve(rows, mp.matrix([1, 0, 0, 0])),
                mp.lu_solve(rows, mp.matrix([0, 1, 0, 0])))


def phi(w: float, which: int, x: float, deriv: bool = False):
    """phi1 or phi2 (or the derivative) at x, zero outside (-1, 1)."""
    basis, slope, c1, c2 = generator_coefficients(w)
    with mp.workdps(DIGITS):
        x = mp.mpf(x)
        if abs(x) >= 1:
            return mp.mpf(0)
        terms = (slope if deriv else basis)(abs(x))
        value = sum(c * t for c, t in zip(c1 if which == 1 else c2, terms))
        odd = (which == 2) != deriv
        return -value if odd and x < 0 else value


def rho(w: float, which: int, x: float):
    with mp.workdps(DIGITS):
        W, x = mp.mpf(w), mp.mpf(x)
        ax = abs(x)
        if w == 0.0:
            return ax**3 / 12 if which == 1 else x * ax / 4
        if which == 1:
            return (W * ax - mp.sin(W * ax)) / (2 * W**3)
        return mp.sign(x) * (1 - mp.cos(W * x)) / (2 * W * W)


def bspline(w: float, order: int, x: float):
    """The normalized B-spline of order 3 or 4: the annihilation filter of
    the frequency applied to rho2 or rho1."""
    if not 0.0 < x < order:
        return mp.mpf(0)
    with mp.workdps(DIGITS):
        W = mp.mpf(w)
        c = mp.cos(W)
        taps = ([1, -1 - 2 * c, 1 + 2 * c, -1] if order == 3
                else [1, -2 - 2 * c, 2 + 4 * c, -2 - 2 * c, 1])
        norm = 1 if w == 0.0 else (W / (2 * mp.sin(W / 2))) ** 2
        return norm * sum(tap * rho(w, 5 - order, mp.mpf(x) - k)
                          for k, tap in enumerate(taps))


def conversion_ratio(w: float):
    with mp.workdps(DIGITS):
        if w == 0.0:
            return mp.mpf(1) / 3
        W = mp.mpf(w)
        return (W - mp.sin(W)) / (W * (1 - mp.cos(W)))


def endpoint_slope(w: float):
    with mp.workdps(DIGITS):
        return -1 / conversion_ratio(w)


def localization_coefficients(w: float):
    """(c, c3, c4) of the localization identities; (6, 12, 2) at w = 0."""
    with mp.workdps(DIGITS):
        if w == 0.0:
            return mp.mpf(6), mp.mpf(12), mp.mpf(2)
        W = mp.mpf(w)
        u = W / 2
        s = 2 * mp.sin(u) - W * mp.cos(u)
        return (W**2 * mp.sin(u) / s, W**3 * mp.cos(u) / s,
                W * (W - mp.sin(W)) / (2 * s * mp.sin(u)))


def mask_entries(w: float, j: int):
    """(top, bot, diag) of the level-j insertion rule: the midpoint value
    and slope of the generators at the level frequency w / 2^j, on the grid
    of step h = 2^-j (top = h g2(1/2), bot = -g1'(1/2) / h, diag = g2'(1/2))."""
    h = math.ldexp(1.0, -j)
    level = w * h
    with mp.workdps(DIGITS):
        half = mp.mpf(1) / 2
        return (h * phi(level, 2, half), -phi(level, 1, half, True) / h,
                phi(level, 2, half, True))
