"""Gram matrix of the generator shifts and Riesz-bound verification.

The five scalar entry functions a..e are closed forms whose numerators
cancel down to the w^7..w^11 scale of their denominators, so double
precision loses them long before w reaches the cubic regime.  They are
therefore evaluated once per frequency in fixed 80-digit arithmetic and
returned as floats; the frequency scans built on top are plain NumPy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import mpmath as mp
import numpy as np

from .frequency import DomainError, Frequency

_MP_DPS = 80


@dataclass(frozen=True)
class GramEntries:
    """Inner products of the generators with their shifts:
    a = <phi1, phi1(.-1)>, b = <phi1, phi1>, c = <phi1, phi2(.-1)>,
    d = <phi2, phi2(.-1)>, e = <phi2, phi2>."""

    a: float
    b: float
    c: float
    d: float
    e: float

    def det_coeffs(self) -> tuple[float, float, float]:
        """(A, B, C) with det = A cos(2 om) + B cos(om) + C."""
        A = 2.0 * (self.a * self.d + self.c * self.c)
        B = 2.0 * (self.a * self.e + self.b * self.d)
        C = 2.0 * (self.a * self.d - self.c * self.c) + self.b * self.e
        return A, B, C


def _mp_s(w):
    return 2 * mp.sin(w / 2) - w * mp.cos(w / 2)


def _mp_entries(w):
    s2 = _mp_s(w) ** 2
    a = (w * (w**2 - 18) * mp.cos(w) - 6 * (w**2 - 5) * mp.sin(w)
         + w * (w**2 - 12)) / (12 * w * s2)
    b = (w * (w**2 + 3) * mp.cos(w) - 3 * (w**2 + 5) * mp.sin(w)
         + w * (w**2 + 12)) / (3 * w * s2)
    c = (5 * w * (w**2 + 3) * mp.cos(w / 2) + w * (w**2 - 15) * mp.cos(3 * w / 2)
         - 72 * mp.sin(w / 2) - 6 * (w**2 - 4) * mp.sin(3 * w / 2)) \
        / (24 * w**2 * mp.sin(w / 2) * s2)
    d = (6 * (7 * w**2 + 6) * mp.sin(w) + 6 * (w**2 - 3) * mp.sin(2 * w)
         - w * (2 * (7 * w**2 - 30) * mp.cos(w) + (w**2 - 12) * mp.cos(2 * w)
                + 3 * (w**2 + 24))) / (48 * w**3 * mp.sin(w / 2) ** 2 * s2)
    e = (-12 * (2 * w**2 + 3) * mp.sin(w) - 3 * (5 * w**2 - 6) * mp.sin(2 * w)
         + 2 * w * (2 * (w**2 + 9) * mp.cos(w) + (w**2 - 18) * mp.cos(2 * w)
                    + 6 * w**2)) / (24 * w**3 * mp.sin(w / 2) ** 2 * s2)
    return a, b, c, d, e


# Gram constants of the cubic Hermite pair h00(t) = (2t+1)(t-1)^2,
# h10(t) = t(t-1)^2, as exact rationals of the integrals on [0, 1].
_CUBIC_LIMIT_ENTRIES = GramEntries(9 / 70, 26 / 35, -13 / 420, -1 / 140, 2 / 105)


@lru_cache(maxsize=1024)
def gram_entries(freq: Frequency) -> GramEntries:
    """Evaluate the five closed-form entries for omega0 in [0, pi]."""
    if freq.is_small:
        return _CUBIC_LIMIT_ENTRIES
    with mp.workdps(_MP_DPS):
        vals = _mp_entries(mp.mpf(freq.omega0))
        return GramEntries(*(float(v) for v in vals))


def _scan(freq: Frequency, grid_size: int):
    """The Hermitian Fourier symbol [[2a cos om + b, -2 c i sin om],
    [2 c i sin om, 2d cos om + e]] on a uniform grid of om over [0, pi]:
    returns om, the determinant and the two eigenvalues."""
    g = gram_entries(freq)
    om = np.linspace(0.0, math.pi, grid_size)
    co = np.cos(om)
    m11 = 2.0 * g.a * co + g.b
    m22 = 2.0 * g.d * co + g.e
    det = m11 * m22 - 4.0 * g.c * g.c * np.sin(om) ** 2
    tr = m11 + m22
    disc = np.sqrt(np.maximum(tr * tr - 4.0 * det, 0.0))
    return om, det, 0.5 * (tr - disc), 0.5 * (tr + disc)


def riesz_bounds(freq: Frequency, grid_size: int = 2048) -> tuple[float, float]:
    """Lower/upper Riesz constants estimated on a uniform symbol-frequency
    grid over [0, pi] (symmetry covers the negative half).  Extrema between
    samples are not certified: this is a verification scan, not a proof."""
    if grid_size < 64:
        raise DomainError(f"grid_size must be >= 64, got {grid_size!r}")
    _, _, lmin, lmax = _scan(freq, grid_size)
    low = float(lmin.min())
    if low < 0.0:
        raise ArithmeticError(f"negative eigenvalue {low:.3e} on the scan grid")
    return math.sqrt(low), math.sqrt(float(lmax.max()))


def det_scan_min(freq: Frequency, grid_size: int = 2048) -> float:
    """Smallest determinant of the symbol over the scan grid."""
    if grid_size < 64:
        raise DomainError(f"grid_size must be >= 64, got {grid_size!r}")
    _, det, _, _ = _scan(freq, grid_size)
    return float(det.min())


def _mp_lower_bound_parts(w):
    """Numerator and denominator of ``lower_bound_G``; both are O(w^12)."""
    num = (180 * w * mp.sin(w) - 9 * w**3 * mp.sin(2 * w)
           - 4 * (2 * w**4 - 3 * w**2 - 48) * mp.cos(w)
           + (w**4 - 24 * w**2 - 3) * mp.cos(2 * w)
           + 7 * w**4 - 78 * w**2 - 189)
    return num, 24 * w**4 * mp.sin(w / 2) ** 2 * _mp_s(w) ** 2


def lower_bound_G(freq: Frequency) -> float:
    """Closed-form lower bound for the symbol determinant, uniform in the
    Fourier frequency; positive and nondecreasing over (0, pi]."""
    if freq.omega0 <= 0.0:
        raise DomainError("lower_bound_G needs omega0 in (0, pi]")
    # the numerator cancels down to the w^12 scale of the denominator
    dps = _MP_DPS + int(12.0 * max(0.0, -math.log10(freq.omega0)))
    with mp.workdps(dps):
        num, den = _mp_lower_bound_parts(mp.mpf(freq.omega0))
        return float(num / den)


def lower_bound_G_zero_limit() -> float:
    """Limit of the lower bound as omega0 -> 0+: the exact rational 29/6300,
    the leading term of the series 29/6300 + O(w^2) of the closed form."""
    return 29 / 6300
