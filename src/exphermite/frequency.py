"""Frequency parameter and numerically stable trigonometric kernels.

Every quantity in this package is an entire function of the design
frequency w: as w approaches 0 the basis tends to the cubic Hermite one,
and the closed forms become ratios of differences like w - sin(w) that
vanish to high order.  The kernels below compute those differences, and the
same differences divided by their leading power of t (sin(t)/t and the
like, finite at t = 0), with small relative error for every argument.
Written through the scaled kernels, each coefficient is a ratio with a
finite limit, so one formula holds on all of [0, pi], w = 0 included.

Every kernel takes a float or an ndarray, and each branch of a kernel
(series or direct form) is written once for both.  A float runs the branch
its argument selects with libm's sin and cos, so it stays a Python float;
an array runs each branch with numpy's sin and cos on only the lanes that
select it, so every lane gets bitwise what its float gets.
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

    # Keyed by omega0 alone: every per-frequency cache hashes its key, and
    # the generated methods would build a one-field tuple on each lookup.
    def __eq__(self, other):
        if isinstance(other, Frequency):
            return self.omega0 == other.omega0
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.omega0)


def _trig(np_fn, libm_fn):
    """np_fn of an array; libm_fn of a float, so a float stays a Python
    float.  libm raises on +-inf where numpy gives nan, and nan is what a
    float gets too."""
    def apply(u):
        if isinstance(u, np.ndarray):
            return np_fn(u)
        try:
            return libm_fn(u)
        except ValueError:
            return math.nan
    return apply


_sin = _trig(np.sin, math.sin)
_cos = _trig(np.cos, math.cos)


def _horner(coeffs, t2):
    """sum_k c_k t2^k for ``coeffs`` = (c_n, (c_(n-1), ..., c_0))."""
    total, rest = coeffs
    for coeff in rest:
        total = total * t2 + coeff
    return total


def _series_branch(t, coeffs, scaled):
    t2 = t * t
    total = _horner(coeffs, t2)
    return total if scaled else total * (t * t2)


def _direct_branch(t, direct, scaled):
    value = direct(t)
    return value / (t * t * t) if scaled else value


def _stable(t, coeffs, direct, scaled=False):
    """Series below the cutoff, ``direct`` at or above it, elementwise.

    The series is sum_k c_k t^(2k) = direct(t) / t^3, in Horner form over
    ``coeffs``: two operations per term.  It is multiplied by t^3, or with
    ``scaled`` the direct form divided by t^3 instead.  Below the cutoff
    every term after the tenth is under 4e-19 of the sum, far below half an
    ulp.

    Each branch is written once, above.  A float runs the one that |t|
    selects; an ndarray runs each on the lanes that select it (nan and
    +-inf take ``direct``), so a lane gets bitwise what its float gets.
    Both add 0.0, which writes the series' -0.0 at t = -0.0 (unscaled) as
    +0.0.
    """
    if not isinstance(t, np.ndarray):
        if abs(t) < _SERIES_CUTOFF:
            return _series_branch(t, coeffs, scaled) + 0.0
        return _direct_branch(t, direct, scaled) + 0.0
    near = abs(t) < _SERIES_CUTOFF
    far = ~near
    out = np.empty(t.shape)
    out[near] = _series_branch(t[near], coeffs, scaled)
    out[far] = _direct_branch(t[far], direct, scaled)
    return out + 0.0


def _series(numerator):
    """Horner coefficients (c_n, (c_(n-1), ..., c_0)) of sum_k (-1)^k
    numerator(k) / (2k + 3)! t^(2k), each rounded once; the leading one
    apart, so that ``_horner`` takes no slice."""
    lead, *rest = ((-1) ** k * numerator(k) / factorial(2 * k + 3)
                   for k in reversed(range(_SERIES_TERMS)))
    return lead, tuple(rest)


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
    if a < _FLOOR:
        a = _FLOOR
    return _sin(a * x) / a


def sinc(t: float) -> float:
    """sin(t) / t for a float t >= 0; 1 at t = 0."""
    return sin_over(t, 1.0)
