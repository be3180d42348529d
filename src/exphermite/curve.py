"""Closed periodic plane curves in the Hermite representation.

A curve with M control points and M tangent vectors uses the frequency
2 pi / M, which is exactly what makes the representation close up over one
period and reproduce circles and (through affine maps) all ellipses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .basis import HermiteData, spline_eval, spline_grid
from .frequency import DomainError, Frequency


@dataclass(frozen=True)
class ClosedHermiteCurve:
    """M-periodic curve r(t) = sum_n (r(n) phi1(t-n) + r'(n) phi2(t-n))."""

    points: np.ndarray
    tangents: np.ndarray

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float)
        tan = np.asarray(self.tangents, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise DomainError(f"points must have shape (M, 2), got {pts.shape}")
        if tan.shape != pts.shape:
            raise DomainError(
                f"tangents shape {tan.shape} must match points shape {pts.shape}"
            )
        if len(pts) < 3:
            raise DomainError("a closed curve needs at least M = 3 control points")
        if not (np.isfinite(pts).all() and np.isfinite(tan).all()):
            raise DomainError("control data must be finite numbers")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "tangents", tan)

    @property
    def period(self) -> int:
        return len(self.points)

    @cached_property
    def freq(self) -> Frequency:
        return Frequency(2.0 * math.pi / self.period)

    @cached_property
    def _data(self) -> HermiteData:
        return HermiteData(self.points, self.tangents, periodic=True)

    def to_hermite_data(self) -> HermiteData:
        return self._data

    def eval(self, t) -> tuple[np.ndarray, np.ndarray]:
        """Point and tangent at parameter t (wrapped modulo the period); an
        array of n parameters gives (n, 2) points and tangents."""
        value, deriv = spline_eval(self.freq, self._data, np.mod(t, self.period))
        return np.asarray(value), np.asarray(deriv)

    def sample(self, samples_per_span: int) -> np.ndarray:
        """The (M * S, 2) points at the parameters n + k/S, n = 0..M-1 and
        k = 0..S-1 with S = samples_per_span, in that order and without
        tangents: one kernel pair per fraction k/S, shared by all M spans
        (``spline_grid``).  DomainError unless S is an int >= 1."""
        return spline_grid(self.freq, self._data, samples_per_span)

    def affine(self, matrix: np.ndarray, shift: np.ndarray) -> "ClosedHermiteCurve":
        """Image under x -> A x + b; evaluation commutes with the map."""
        A = np.asarray(matrix, dtype=float)
        b = np.asarray(shift, dtype=float)
        return ClosedHermiteCurve(self.points @ A.T + b, self.tangents @ A.T)


def unit_circle(period: int) -> ClosedHermiteCurve:
    """The unit circle encoded exactly with M = period control points."""
    if period < 3:
        raise DomainError(f"period must be >= 3, got {period!r}")
    w = 2.0 * math.pi / period
    n = np.arange(period)
    points = np.column_stack([np.cos(w * n), np.sin(w * n)])
    tangents = np.column_stack([-w * np.sin(w * n), w * np.cos(w * n)])
    return ClosedHermiteCurve(points, tangents)


_TARGETS = {
    "const": (lambda w, x: np.ones_like(x), lambda w, x: np.zeros_like(x)),
    "linear": (lambda w, x: x, lambda w, x: np.ones_like(x)),
    "cos": (lambda w, x: np.cos(w * x), lambda w, x: -w * np.sin(w * x)),
    "sin": (lambda w, x: np.sin(w * x), lambda w, x: w * np.cos(w * x)),
}

_WINDOW = 10          # samples on -10..10
_CHECK_LIMIT = 8.0    # errors measured on [-8, 8] to stay clear of truncation
_CHECK_COUNT = 1601


def reproduction_errors(freq: Frequency, targets) -> list[float]:
    """Sup errors of the Hermite expansions of targets the basis reproduces,
    one per target, in order.

    Samples each target and its derivative on an integer window, evaluates
    the expansions densely on the interior, and returns the worst absolute
    deviations from the analytic targets (0 up to roundoff for targets
    1, x, cos(w x), sin(w x)).  The targets are the columns of one
    HermiteData, so one evaluation serves them all; each column gets the
    same bits as on its own.
    """
    for target in targets:
        if target not in _TARGETS:
            raise ValueError(
                f"unknown target {target!r}; pick one of {sorted(_TARGETS)}"
            )
    pairs = [_TARGETS[target] for target in targets]
    w = freq.omega0
    ns = np.arange(-_WINDOW, _WINDOW + 1, dtype=float)
    data = HermiteData(np.column_stack([f(w, ns) for f, _ in pairs]),
                       np.column_stack([df(w, ns) for _, df in pairs]))
    xs = np.linspace(-_CHECK_LIMIT, _CHECK_LIMIT, _CHECK_COUNT)
    value, _ = spline_eval(freq, data, xs + _WINDOW)
    exact = np.column_stack([f(w, xs) for f, _ in pairs])
    return np.max(np.abs(value - exact), axis=0).tolist()


def reproduction_check(freq: Frequency, target: str) -> float:
    """Sup error of the Hermite expansion of one target the basis
    reproduces; see ``reproduction_errors``."""
    return reproduction_errors(freq, (target,))[0]
