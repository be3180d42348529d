"""Exponential Bernstein basis on [0, 1] and exact Hermite <-> Bezier
conversion.

The four basis pieces are nonnegative, symmetric under x -> 1-x, sum to
one, and reduce to the cubic Bernstein polynomials as the frequency
vanishes.  Interior control points sit at tangent-proportional offsets
from the segment endpoints; the offset ratio lam(w) plays the role that
1/3 plays for cubic curves.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .basis import E4Piece, make_generators, piece_kernels
from .frequency import DomainError, Frequency, one_minus_cos, x_minus_sin


def conversion_ratio(freq: Frequency) -> float:
    """Handle-offset ratio lam(w) = (w - sin w) / (w (1 - cos w)); exactly
    1/3 on the small-frequency path.

    Equal to the closed form r/(r - p) of the exponential derivation, with
    r = 1 + 2 i w e^{iw} - e^{2 i w} and p = e^{2 i w}(i w - 1) + i w + 1;
    this real rearrangement avoids the O(w^3) cancellation of r itself.
    """
    if freq.is_small:
        return 1.0 / 3.0
    w = freq.omega0
    return x_minus_sin(w) / (w * one_minus_cos(w))


def endpoint_slope(freq: Frequency) -> float:
    """Derivative of the first Bernstein piece at 0:
    kappa(w) = w (cos w - 1) / (w - sin w) = -1 / lam(w); -3 in the limit."""
    if freq.is_small:
        return -3.0
    w = freq.omega0
    return -w * one_minus_cos(w) / x_minus_sin(w)


@dataclass(frozen=True)
class BernsteinBasis:
    """The four Bernstein pieces b0..b3 on [0, 1] for one frequency."""

    pieces: tuple[E4Piece, E4Piece, E4Piece, E4Piece]
    freq: Frequency
    lam: float
    kappa: float


_CUBIC_BERNSTEIN = (
    (1.0, -3.0, 3.0, -1.0),   # (1-x)^3
    (0.0, 3.0, -6.0, 3.0),    # 3x(1-x)^2
    (0.0, 0.0, 3.0, -3.0),    # 3x^2(1-x)
    (0.0, 0.0, 0.0, 1.0),     # x^3
)


@lru_cache(maxsize=1024)
def bernstein_basis(freq: Frequency) -> BernsteinBasis:
    """Construct b0..b3.

    Each piece is pinned down by its Hermite endpoint data, so it is a
    combination of the two generators and their reflections:
    b0 = g1 + kappa g2, b1 = -kappa g2, and b2, b3 mirror b1, b0.
    Partition of unity is then inherited from g1(x) + g1(1-x) = 1.
    """
    lam = conversion_ratio(freq)
    kappa = endpoint_slope(freq)
    if freq.is_small:
        pieces = tuple(E4Piece(*quad, freq) for quad in _CUBIC_BERNSTEIN)
        return BernsteinBasis(pieces, freq, lam, kappa)
    pair = make_generators(freq)
    g1, g2 = pair.g1, pair.g2
    b0 = E4Piece.from_stable_parts(
        1.0, kappa, g1.c + kappa * g2.c, g1.d + kappa * g2.d, freq
    )
    b1 = E4Piece.from_stable_parts(0.0, -kappa, -kappa * g2.c, -kappa * g2.d, freq)
    # mirrored ends are exact zeros: value and slope of b0, b1 vanish at 1
    b2 = b1.reflected(0.0, 0.0)
    b3 = b0.reflected(0.0, 0.0)
    return BernsteinBasis((b0, b1, b2, b3), freq, lam, kappa)


def bernstein(freq: Frequency, ell: int, x):
    """Evaluate the ell-th Bernstein piece at x in [0, 1], a float or an
    array."""
    if ell not in (0, 1, 2, 3):
        raise ValueError(f"ell must be in 0..3, got {ell!r}")
    if not np.all((0.0 <= x) & (x <= 1.0)):
        raise DomainError(f"bernstein argument must lie in [0, 1], got {x!r}")
    return bernstein_basis(freq).pieces[ell].value(x)


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
        points of shape s give results of shape t.shape + s."""
        kernels = piece_kernels(self.freq, t)
        b0, b1, b2, b3 = (piece.at(t, kernels)
                          for piece in bernstein_basis(self.freq).pieces)
        return (
            np.multiply.outer(b0, self.p0) + np.multiply.outer(b1, self.p1)
            + np.multiply.outer(b2, self.p2) + np.multiply.outer(b3, self.p3)
        )


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
    if h <= 0.0:
        raise DomainError(f"span length h must be positive, got {h!r}")
    offset = conversion_ratio(segment.freq) * h
    f0, f1 = segment.p0, segment.p3
    d0 = (segment.p1 - segment.p0) / offset
    d1 = (segment.p3 - segment.p2) / offset
    return f0, d0, f1, d1
