"""Frequency parameter and numerically stable trigonometric kernels.

Every quantity in this package is an entire function of the design
frequency w: as w approaches 0 the basis tends to the cubic Hermite one,
and the closed forms become ratios of differences like w - sin(w) that
vanish to high order.  The kernels below compute those differences, and the
same differences divided by their leading power of t (sin(t)/t and the
like, finite at t = 0), with small relative error for every argument.
Written through the scaled kernels, each coefficient is a ratio with a
finite limit, so one formula holds on all of [0, pi], w = 0 included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import factorial

import numpy as np

# The old switch point of a cubic-limit evaluation path, which no code here
# uses any more; kept only for the benchmark harness that still imports it.
SMALL_FREQ_THRESHOLD = 1e-4

_SERIES_CUTOFF = 0.9
_SERIES_TERMS = 10
_FLOOR = 2.0 ** -500


class DomainError(ValueError):
    """A numeric argument lies outside the range an operation supports."""


@dataclass(frozen=True)
class Frequency:
    """Design frequency w in radians, restricted to [0, pi]."""

    omega0: float

    def __post_init__(self) -> None:
        w = self.omega0
        if not math.isfinite(w) or w < 0.0 or w > math.pi:
            raise DomainError(f"omega0 must lie in [0, pi], got {w!r}")

    def scaled(self, h: float) -> "Frequency":
        """Frequency h*w of the representation on the grid h*Z."""
        if h <= 0.0:
            raise DomainError(f"grid step h must be positive, got {h!r}")
        w = h * self.omega0
        if w > math.pi:
            raise DomainError(
                f"h*omega0 = {w!r} exceeds pi; refine h or lower omega0"
            )
        return Frequency(w)


def _stable(t, coeffs, direct, scaled=False):
    """Series below the cutoff, ``direct`` at or above it, elementwise.

    The series is sum_k c_k t^(2k) = direct(t) / t^3, in Horner form over
    ``coeffs`` = (c_n, ..., c_0): two operations per term.  It is
    multiplied by t^3, or with ``scaled`` the direct form divided by t^3
    instead.  Below the cutoff every term after the tenth is under 4e-19 of
    the sum, far below half an ulp.  Every lane runs both branches and the
    mask keeps one: the series sees 0 on the direct lanes, and ``direct``
    sees t + 1, inside (0.1, 1.9), on the series lanes, so no lane divides
    by zero.  A float or an ndarray.
    """
    size = abs(t)
    near, far = size < _SERIES_CUTOFF, size >= _SERIES_CUTOFF
    small = t * near
    t2 = small * small
    total = coeffs[0]
    for coeff in coeffs[1:]:
        total = total * t2 + coeff
    u = t + near
    closed = direct(u)
    if scaled:
        closed = closed / (u * u * u)
    else:
        total = total * (small * t2)
    return total * near + closed * far


def _series(numerator):
    """Horner coefficients (c_n, ..., c_0) of sum_k (-1)^k numerator(k) /
    (2k + 3)! t^(2k), each rounded once."""
    return tuple((-1) ** k * numerator(k) / factorial(2 * k + 3)
                 for k in reversed(range(_SERIES_TERMS)))


# (t - sin t) / t^3 = 1/3! - t^2/5! + t^4/7! - ...
_X_MINUS_SIN = _series(lambda k: 1)
# (sin t - t cos t) / t^3 = 2/3! - 4 t^2/5! + 6 t^4/7! - ...
_SIN_MINUS_X_COS = _series(lambda k: 2 * k + 2)


def _x_minus_sin_direct(u):
    return u - np.sin(u)


def _sin_minus_x_cos_direct(u):
    return np.sin(u) - u * np.cos(u)


def x_minus_sin(t):
    """t - sin(t) with eps-level relative accuracy; float or ndarray."""
    return _stable(t, _X_MINUS_SIN, _x_minus_sin_direct)


def x_minus_sin_scaled(t):
    """(t - sin(t)) / t^3, 1/6 at t = 0; float or ndarray."""
    return _stable(t, _X_MINUS_SIN, _x_minus_sin_direct, scaled=True)


def one_minus_cos(t):
    """1 - cos(t), evaluated as 2 sin^2(t/2) to avoid cancellation."""
    s = np.sin(0.5 * t)
    return 2.0 * s * s


def sin_minus_x_cos(t):
    """sin(t) - t*cos(t) with eps-level relative accuracy; float or ndarray."""
    return _stable(t, _SIN_MINUS_X_COS, _sin_minus_x_cos_direct)


def sin_minus_x_cos_scaled(t):
    """(sin(t) - t*cos(t)) / t^3, 1/3 at t = 0; float or ndarray."""
    return _stable(t, _SIN_MINUS_X_COS, _sin_minus_x_cos_direct, scaled=True)


def sin_over(a, x):
    """sin(a x) / a for a float a >= 0 and x a float or ndarray; x at a = 0.

    a is floored at 2^-500, below which sin(a x) / a equals x to double
    precision for every |x| < 2^400, so the floor changes no result there;
    it keeps the quotient clear of 0 / 0 at a = 0.
    """
    a = max(a, _FLOOR)
    return np.sin(a * x) / a


def sinc(t: float) -> float:
    """sin(t) / t for a float t >= 0; 1 at t = 0."""
    return sin_over(t, 1.0)
