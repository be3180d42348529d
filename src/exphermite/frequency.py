"""Frequency parameter and numerically stable trigonometric difference kernels.

Every quantity in this package degenerates as the design frequency w
approaches 0 (the basis tends to the cubic Hermite one), and the naive
closed forms divide cancellation-prone differences like w - sin(w) by
each other.  The kernels below compute those differences with small
relative error for every admissible argument, which keeps all downstream
formulas accurate uniformly in w.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Below this threshold the exact cubic-Hermite limit formulas are used
# everywhere instead of the trigonometric closed forms.
SMALL_FREQ_THRESHOLD = 1e-4

_SERIES_CUTOFF = 0.9
_SERIES_TERMS = 10


class DomainError(ValueError):
    """A numeric argument lies outside the range an operation supports."""


@dataclass(frozen=True)
class Frequency:
    """Design frequency w in radians, restricted to [0, pi].

    ``is_small`` selects the cubic-limit evaluation path; every module
    with such a path branches on this single predicate so the switch is
    consistent package-wide.
    """

    omega0: float

    def __post_init__(self) -> None:
        w = self.omega0
        if not math.isfinite(w) or w < 0.0 or w > math.pi:
            raise DomainError(f"omega0 must lie in [0, pi], got {w!r}")

    @property
    def is_small(self) -> bool:
        return self.omega0 < SMALL_FREQ_THRESHOLD

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


def _stable(t, first, steps, direct):
    """Series below the cutoff, ``direct`` at or above it, elementwise.

    Each branch runs on all of t with the arguments outside its range
    replaced by 0, where both branches vanish, so their sum is the selected
    branch.  The series is t^3 / first plus one term per (num, den) step,
    each the previous term times -t^2 num / den, summed largest first.
    Below the cutoff every term after the tenth is under 4e-19 of the sum,
    far below half an ulp, so this fixed length gives the same bits as
    summing until the terms vanish.
    """
    small = t * (abs(t) < _SERIES_CUTOFF)
    large = t - small
    t2 = small * small
    term = small * t2 / first
    total = term
    for num, den in steps:
        term = term * (-t2 * num / den)
        total = total + term
    return total + direct(large)


# t^3/6 - t^5/120 + t^7/5040 - ...
_X_MINUS_SIN_STEPS = tuple(
    (1, (2 * k + 2) * (2 * k + 3)) for k in range(1, _SERIES_TERMS)
)
# sum_k (-1)^(k+1) 2k t^(2k+1) / (2k+1)!, leading term t^3/3
_SIN_MINUS_X_COS_STEPS = tuple(
    (k + 1, k * (2 * k + 2) * (2 * k + 3)) for k in range(1, _SERIES_TERMS)
)


def x_minus_sin(t):
    """t - sin(t) with eps-level relative accuracy; float or ndarray."""
    return _stable(t, 6.0, _X_MINUS_SIN_STEPS, lambda u: u - np.sin(u))


def one_minus_cos(t):
    """1 - cos(t), evaluated as 2 sin^2(t/2) to avoid cancellation."""
    s = np.sin(0.5 * t)
    return 2.0 * s * s


def sin_minus_x_cos(t):
    """sin(t) - t*cos(t) with eps-level relative accuracy; float or ndarray."""
    return _stable(
        t, 3.0, _SIN_MINUS_X_COS_STEPS, lambda u: np.sin(u) - u * np.cos(u)
    )


def s_factor(w: float) -> float:
    """2 sin(w/2) - w cos(w/2), the common denominator of the basis forms.

    Positive for w in (0, pi]; behaves like w^3/12 near 0.
    """
    return 2.0 * sin_minus_x_cos(0.5 * w)
