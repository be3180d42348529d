"""Frequency parameter and numerically stable trigonometric kernels.

Every quantity in this package is an entire function of the design
frequency w: as w approaches 0 the basis tends to the cubic Hermite one,
and the closed forms become ratios of differences like w - sin(w) that
vanish to high order.  The kernels below compute those differences, and the
same differences divided by their leading power of t (sin(t)/t and the
like, finite at t = 0), with small relative error for every argument.
Written through the scaled kernels, each coefficient is a ratio with a
finite limit, so one formula holds on all of [0, pi], w = 0 included.

Every kernel takes a float or an ndarray.  An array runs numpy's sin and
cos under a mask; a float runs libm's sin and cos and only the branch its
argument selects, so it stays a Python float, and it gets bitwise the
entry an array call gives it.
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
        if not 0.0 < h < math.inf:
            raise DomainError(f"grid step h must be positive and finite, got {h!r}")
        w = h * self.omega0
        if w > math.pi:
            raise DomainError(
                f"h*omega0 = {w!r} exceeds pi; refine h or lower omega0"
            )
        return Frequency(w)


def _sin(u):
    """np.sin of an array; libm's sin of a float, so a float stays a
    Python float.  libm raises on +-inf where np.sin gives nan, and nan is
    what a float gets too."""
    if isinstance(u, np.ndarray):
        return np.sin(u)
    try:
        return math.sin(u)
    except ValueError:
        return math.nan


def _cos(u):
    """np.cos of an array, libm's cos of a float; nan at +-inf, as ``_sin``."""
    if isinstance(u, np.ndarray):
        return np.cos(u)
    try:
        return math.cos(u)
    except ValueError:
        return math.nan


def _horner(coeffs, t2):
    """sum_k c_k t2^k for ``coeffs`` = (c_n, ..., c_0)."""
    total = coeffs[0]
    for coeff in coeffs[1:]:
        total = total * t2 + coeff
    return total


def _stable(t, coeffs, direct, scaled=False):
    """Series below the cutoff, ``direct`` at or above it, elementwise.

    The series is sum_k c_k t^(2k) = direct(t) / t^3, in Horner form over
    ``coeffs``: two operations per term.  It is multiplied by t^3, or with
    ``scaled`` the direct form divided by t^3 instead.  Below the cutoff
    every term after the tenth is under 4e-19 of the sum, far below half an
    ulp.

    A float runs only the branch that |t| selects.  On an ndarray every
    lane runs both and the mask keeps one: the series sees 0 on the direct
    lanes, and ``direct`` sees t + 1, inside (0.1, 1.9), on the series
    lanes, so no lane divides by zero.  The branch the mask drops adds
    +0.0 to the kept one (or nan, where the kept one is nan already), so
    the float branch adds +0.0 too and both give the same bits, signed
    zeros included.
    """
    if not isinstance(t, np.ndarray):
        if abs(t) < _SERIES_CUTOFF:
            t2 = t * t
            total = _horner(coeffs, t2)
            kept = total if scaled else total * (t * t2)
        else:
            closed = direct(t)
            kept = closed / (t * t * t) if scaled else closed
        return kept + 0.0
    size = abs(t)
    near, far = size < _SERIES_CUTOFF, size >= _SERIES_CUTOFF
    small = t * near
    t2 = small * small
    total = _horner(coeffs, t2)
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
    return u - _sin(u)


def _sin_minus_x_cos_direct(u):
    return _sin(u) - u * _cos(u)


def x_minus_sin(t):
    """t - sin(t) with eps-level relative accuracy; float or ndarray."""
    return _stable(t, _X_MINUS_SIN, _x_minus_sin_direct)


def x_minus_sin_scaled(t):
    """(t - sin(t)) / t^3, 1/6 at t = 0; float or ndarray."""
    return _stable(t, _X_MINUS_SIN, _x_minus_sin_direct, scaled=True)


def one_minus_cos(t):
    """1 - cos(t), evaluated as 2 sin^2(t/2) to avoid cancellation."""
    s = _sin(0.5 * t)
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
    return _sin(a * x) / a


def sinc(t: float) -> float:
    """sin(t) / t for a float t >= 0; 1 at t = 0."""
    return sin_over(t, 1.0)
