"""Exponential Bernstein basis on [0, 1] and exact Hermite <-> Bezier
conversion.

The four basis pieces are nonnegative, symmetric under x -> 1-x, sum to
one, and reduce to the cubic Bernstein polynomials as the frequency
vanishes.  Interior control points sit at tangent-proportional offsets
from the segment endpoints; the offset ratio lam(w) plays the role that
1/3 plays for cubic curves.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .basis import E4Piece, make_generators, piece_kernels
from .frequency import DomainError, Frequency, sinc, x_minus_sin_scaled


def conversion_ratio(freq: Frequency) -> float:
    """Handle-offset ratio lam(w) = (w - sin w) / (w (1 - cos w)), taken as
    2 S2(w) / sinc^2(w/2) with S2(w) = (w - sin w) / w^3; 1/3 at w = 0.

    Equal to the closed form r/(r - p) of the exponential derivation, with
    r = 1 + 2 i w e^{iw} - e^{2 i w} and p = e^{2 i w}(i w - 1) + i w + 1;
    this real rearrangement avoids the O(w^3) cancellation of r itself.
    """
    w = freq.omega0
    half = sinc(0.5 * w)
    return 2.0 * x_minus_sin_scaled(w) / (half * half)


def endpoint_slope(freq: Frequency) -> float:
    """Derivative of the first Bernstein piece at 0:
    kappa(w) = w (cos w - 1) / (w - sin w) = -1 / lam(w); -3 at w = 0."""
    w = freq.omega0
    half = sinc(0.5 * w)
    return -half * half / (2.0 * x_minus_sin_scaled(w))


@lru_cache(maxsize=1024)
def bernstein_basis(freq: Frequency) -> tuple[E4Piece, E4Piece, E4Piece, E4Piece]:
    """The four Bernstein pieces b0..b3 on [0, 1] for one frequency.

    Each piece is pinned down by its Hermite endpoint data, so it is a
    combination of the two generators and their reflections:
    b0 = g1 + kappa g2, b1 = -kappa g2, and b2, b3 mirror b1, b0.
    Partition of unity is then inherited from g1(x) + g1(1-x) = 1.
    """
    kappa = endpoint_slope(freq)
    pair = make_generators(freq)
    g1, g2 = pair.g1, pair.g2
    b0 = E4Piece(1.0, kappa, g1.C + kappa * g2.C, g1.D + kappa * g2.D, freq)
    b1 = E4Piece(0.0, -kappa, -kappa * g2.C, -kappa * g2.D, freq)
    # mirrored ends are exact zeros: value and slope of b0, b1 vanish at 1
    b2 = b1.reflected(0.0, 0.0)
    b3 = b0.reflected(0.0, 0.0)
    return b0, b1, b2, b3


def bernstein(freq: Frequency, ell: int, x):
    """Evaluate the ell-th Bernstein piece at x in [0, 1], a float or an
    array.  ell must be an int (a bool is not an index)."""
    if type(ell) is not int or ell not in (0, 1, 2, 3):
        raise ValueError(f"ell must be an int in 0..3, got {ell!r}")
    inside = (np.all((0.0 <= x) & (x <= 1.0)) if isinstance(x, np.ndarray)
              else 0.0 <= x <= 1.0)
    if not inside:
        raise DomainError(f"bernstein argument must lie in [0, 1], got {x!r}")
    return bernstein_basis(freq)[ell].value(x)


@dataclass(frozen=True)
class BezierSegment:
    """Control values p0..p3 of one segment; ``freq`` is the segment-local
    frequency (h * omega0 for a segment of parameter length h), so the
    segment evaluates in its own local coordinate t in [0, 1]."""

    p0: float | np.ndarray
    p1: float | np.ndarray
    p2: float | np.ndarray
    p3: float | np.ndarray
    freq: Frequency

    def value(self, t):
        """The segment at local parameter t, a float or an array; control
        points of shape s give results of shape t.shape + s.  A float t
        has float weights, which multiply the control points directly, so
        float control points give a float."""
        kernels = piece_kernels(self.freq, t)
        b0, b1, b2, b3 = [piece.at(t, kernels)
                          for piece in bernstein_basis(self.freq)]
        mul = np.multiply.outer if isinstance(t, np.ndarray) else operator.mul
        return (mul(b0, self.p0) + mul(b1, self.p1)
                + mul(b2, self.p2) + mul(b3, self.p3))


def hermite_to_bezier(
    freq: Frequency,
    h: float,
    f0: float | np.ndarray,
    d0: float | np.ndarray,
    f1: float | np.ndarray,
    d1: float | np.ndarray,
) -> BezierSegment:
    """Convert Hermite segment data on a span of parameter length h into
    Bezier control values: interior points are offset from the endpoints by
    lam(h w) * h * derivative."""
    local = freq.scaled(h)
    offset = conversion_ratio(local) * h
    return BezierSegment(
        p0=f0, p1=f0 + offset * d0, p2=f1 - offset * d1, p3=f1, freq=local
    )


def bezier_to_hermite(segment: BezierSegment, h: float):
    """Exact inverse of hermite_to_bezier for the same span length h."""
    if not 0.0 < h < math.inf:
        raise DomainError(f"span length h must be positive and finite, got {h!r}")
    offset = conversion_ratio(segment.freq) * h
    f0, f1 = segment.p0, segment.p3
    d0 = (segment.p1 - segment.p0) / offset
    d1 = (segment.p3 - segment.p2) / offset
    return f0, d0, f1, d1
