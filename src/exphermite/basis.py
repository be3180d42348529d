"""Cardinal Hermite generators for piecewise span{1, x, cos(w x), sin(w x)}.

The two generators phi1 (even, interpolates values) and phi2 (odd,
interpolates first derivatives) are supported on [-1, 1], join C^1 at the
knots, and reduce to the cardinal cubic Hermite pair as w -> 0.  Their
integer shifts reproduce 1, x, cos(w x) and sin(w x), which is what makes
closed curves built on them reproduce ellipses exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .frequency import (
    Frequency,
    one_minus_cos,
    s_factor,
    sin_minus_x_cos,
    x_minus_sin,
)


def piece_kernels(freq: Frequency, x):
    """The pair (1 - cos(w x), w x - sin(w x)) that every regular-path piece
    of frequency w combines at x (float or array); None on the cubic path,
    whose pieces are plain polynomials."""
    if freq.is_small:
        return None
    t = freq.omega0 * x
    return one_minus_cos(t), x_minus_sin(t)


@dataclass(frozen=True)
class E4Piece:
    """One segment on [0, 1] of the four-dimensional exponential family.

    For a regular frequency the segment is
        a + b*x + c*cos(w x) + d*sin(w x);
    when ``freq.is_small`` the same slots hold monomial coefficients
        a + b*x + c*x^2 + d*x^3
    (the cubic limit of the family).

    Evaluation never sums the raw terms: near w = 0 the coefficients grow
    like 1/w^3 and the naive sum loses all significant digits.  Instead the
    segment start data (value and slope at x = 0) are stored explicitly and
    the trigonometric part enters only through the small differences
    1 - cos and x - sin, each computed with eps-level relative error:

        value(x) = value0 + slope0*x - c*(1 - cos(w x)) - d*(w x - sin(w x))
    """

    a: float
    b: float
    c: float
    d: float
    freq: Frequency
    value0: float = field(default=math.nan)
    slope0: float = field(default=math.nan)

    def __post_init__(self) -> None:
        if math.isnan(self.value0):
            object.__setattr__(self, "value0", self.a + self.c)
        if math.isnan(self.slope0):
            w = self.freq.omega0
            slope = self.b if self.freq.is_small else self.b + self.d * w
            object.__setattr__(self, "slope0", slope)

    @classmethod
    def from_stable_parts(
        cls, value0: float, slope0: float, c: float, d: float, freq: Frequency
    ) -> "E4Piece":
        """Build from exact start data plus trig coefficients (regular path)."""
        w = freq.omega0
        return cls(value0 - c, slope0 - d * w, c, d, freq, value0, slope0)

    def value(self, x):
        """The segment at a float x, or elementwise on an array."""
        return self.at(x, piece_kernels(self.freq, x))

    def at(self, x, kernels):
        """The segment at x from ``kernels = piece_kernels(self.freq, x)``.

        The kernel pair depends only on the frequency and x, so pieces that
        share both (a generator pair, the Bernstein basis) compute it once
        and each combine it here.
        """
        if self.freq.is_small:
            return self.a + x * (self.b + x * (self.c + x * self.d))
        one_minus_cos_wx, wx_minus_sin_wx = kernels
        return (
            self.value0
            + self.slope0 * x
            - self.c * one_minus_cos_wx
            - self.d * wx_minus_sin_wx
        )

    def derivative(self) -> "E4Piece":
        if self.freq.is_small:
            return E4Piece(self.b, 2.0 * self.c, 3.0 * self.d, 0.0, self.freq)
        w = self.freq.omega0
        return E4Piece.from_stable_parts(
            self.slope0, -self.c * w * w, self.d * w, -self.c * w, self.freq
        )

    def reflected(self, value1: float, slope1: float) -> "E4Piece":
        """The segment x -> value(1 - x), given its exact data at x = 1."""
        if self.freq.is_small:
            a, b, c, d = self.a, self.b, self.c, self.d
            return E4Piece(
                a + b + c + d, -(b + 2.0 * c + 3.0 * d), c + 3.0 * d, -d, self.freq
            )
        w = self.freq.omega0
        cw, sw = math.cos(w), math.sin(w)
        return E4Piece.from_stable_parts(
            value1, -slope1, self.c * cw + self.d * sw, self.c * sw - self.d * cw,
            self.freq,
        )


@dataclass(frozen=True)
class GeneratorPair:
    """Restrictions of phi1 and phi2 to [0, 1]; the negative side follows by
    the even/odd extension."""

    g1: E4Piece
    g2: E4Piece
    freq: Frequency

    @cached_property
    def dg1(self) -> E4Piece:
        return self.g1.derivative()

    @cached_property
    def dg2(self) -> E4Piece:
        return self.g2.derivative()


_CUBIC_G1 = (1.0, 0.0, -3.0, 2.0)   # (2x+1)(x-1)^2
_CUBIC_G2 = (0.0, 1.0, -2.0, 1.0)   # x(x-1)^2

_BOUNDARY_TOL = 1e-9


@lru_cache(maxsize=1024)
def make_generators(freq: Frequency) -> GeneratorPair:
    """Construct the generator pair for a frequency in [0, pi].

    Regular-path coefficients come from the closed forms
        g1:  1 - sin(w/2)/s + (w cos(w/2)/s) x + sin(w/2 - w x)/s
        g2:  solved from the four Hermite boundary conditions,
    with s = 2 sin(w/2) - w cos(w/2), rearranged into stable-kernel form.
    The eight boundary conditions are checked before returning.
    """
    if freq.is_small:
        g1 = E4Piece(*_CUBIC_G1, freq)
        g2 = E4Piece(*_CUBIC_G2, freq)
        return GeneratorPair(g1, g2, freq)

    w = freq.omega0
    s = s_factor(w)
    half_sin = math.sin(0.5 * w)
    half_cos = math.cos(0.5 * w)
    g1 = E4Piece.from_stable_parts(1.0, 0.0, half_sin / s, -half_cos / s, freq)
    # sin(w/2) - w cos(w/2) = sin(u) - 2u cos(u) at u = w/2: no cancellation,
    # the leading behaviour is -w/2.
    gamma = sin_minus_x_cos(w) / (2.0 * w * half_sin * s)
    delta = (half_sin - w * half_cos) / (w * s)
    g2 = E4Piece.from_stable_parts(0.0, 1.0, gamma, delta, freq)

    pair = GeneratorPair(g1, g2, freq)
    at0, at1 = piece_kernels(freq, 0.0), piece_kernels(freq, 1.0)
    residual = max(
        abs(g1.at(0.0, at0) - 1.0), abs(pair.dg1.at(0.0, at0)),
        abs(g1.at(1.0, at1)), abs(pair.dg1.at(1.0, at1)),
        abs(g2.at(0.0, at0)), abs(pair.dg2.at(0.0, at0) - 1.0),
        abs(g2.at(1.0, at1)), abs(pair.dg2.at(1.0, at1)),
    )
    if residual > _BOUNDARY_TOL:
        raise ArithmeticError(
            f"generator boundary conditions violated at w={w!r}: {residual:.3e}"
        )
    return pair


def _check_which(which: int) -> None:
    if which not in (1, 2):
        raise ValueError(f"which must be 1 or 2, got {which!r}")


def _extend(piece: E4Piece, odd: bool, x):
    """A piece on [0, 1] extended evenly (or oddly) to (-1, 1) and by zero
    outside, at a float or at every entry of an array.  Outside points
    evaluate the piece at 1 and multiply it by 0."""
    ax = abs(x)
    inside = ax < 1.0
    val = piece.value(np.minimum(ax, 1.0))
    if odd:
        val = val * (1 - 2 * (x < 0.0))
    return val * inside


def phi(freq: Frequency, which: int, x):
    """Evaluate phi1 or phi2 at a float or an array (zero outside (-1, 1))."""
    _check_which(which)
    pair = make_generators(freq)
    return _extend(pair.g1 if which == 1 else pair.g2, which == 2, x)


def phi_deriv(freq: Frequency, which: int, x):
    """Derivative of phi1 or phi2; at knots the shared one-sided limit."""
    _check_which(which)
    pair = make_generators(freq)
    return _extend(pair.dg1 if which == 1 else pair.dg2, which == 1, x)


def phi_rescaled(freq: Frequency, h: float, which: int, x: float) -> float:
    """Generator for the grid h*Z: phi1^h(x) = phi1_{h w}(x/h) and
    phi2^h(x) = h * phi2_{h w}(x/h) (renormalized so the slope at 0 is 1)."""
    scaled = freq.scaled(h)
    val = phi(scaled, which, x / h)
    return val if which == 1 else h * val


def phi_rescaled_deriv(freq: Frequency, h: float, which: int, x: float) -> float:
    """Derivative of the rescaled generators on h*Z."""
    scaled = freq.scaled(h)
    val = phi_deriv(scaled, which, x / h)
    return val / h if which == 1 else val


@dataclass(frozen=True)
class HermiteData:
    """Samples (value, first derivative) on a unit-spaced index grid.

    Values may be scalars or points (shape (L,) or (L, dim)); derivatives
    match.  Derivative entries are plain slope samples with respect to the
    curve parameter, not pre-multiplied by any grid step.  ``periodic``
    wraps the index modulo the length.

    Finiteness is not checked here, because every refinement level builds
    one of these: ``subdivide`` and ``hermite_to_scalar`` check their input
    data once, before allocating their output.
    """

    values: np.ndarray
    derivs: np.ndarray
    periodic: bool = False

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        d = np.asarray(self.derivs, dtype=float)
        if v.shape != d.shape:
            raise ValueError(f"values shape {v.shape} != derivs shape {d.shape}")
        if v.ndim == 0:
            raise ValueError("samples need an index axis, got a 0-d value")
        if len(v) < 1:
            raise ValueError("need at least one sample")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "derivs", d)

    def __len__(self) -> int:
        return len(self.values)

    def index(self, n) -> np.ndarray:
        """Sample indices of the integral grid positions n (any shape),
        wrapped modulo the length when periodic; IndexError outside
        0..len-1 otherwise."""
        n = np.asarray(n).astype(np.intp)
        if self.periodic:
            return n % len(self)
        bad = n[(n < 0) | (n >= len(self))]
        if bad.size:
            raise IndexError(f"sample index {bad[0]} outside 0..{len(self) - 1}")
        return n


def spline_eval(freq: Frequency, data: HermiteData, x):
    """Evaluate sum_n (s(n) phi1(x-n) + s'(n) phi2(x-n)) and its derivative
    at a float or at every entry of an array of x.

    Only the two shifts bracketing x contribute.  x on [n, n+1) uses the
    segment of that interval; integer x returns the stored sample (the
    shared C^1 limit equals it by the interpolation conditions).  Results
    have the shape of x, followed by the point shape for (L, dim) data.
    """
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError("evaluation points must be finite")
    n0 = np.floor(x)
    t = x - n0
    i0, i1 = data.index(n0), data.index(np.ceil(x))
    # coordinates first, so the weights, shaped like x, broadcast against them
    values, derivs = data.values.T, data.derivs.T
    v0, d0 = values[..., i0], derivs[..., i0]
    v1, d1 = values[..., i1], derivs[..., i1]
    pair = make_generators(freq)
    t1 = 1.0 - t
    # one kernel pair per argument, shared by the four pieces evaluated there
    k0, k1 = piece_kernels(freq, t), piece_kernels(freq, t1)
    value = (
        v0 * pair.g1.at(t, k0) + d0 * pair.g2.at(t, k0)
        + v1 * pair.g1.at(t1, k1) - d1 * pair.g2.at(t1, k1)
    )
    deriv = (
        v0 * pair.dg1.at(t, k0) + d0 * pair.dg2.at(t, k0)
        - v1 * pair.dg1.at(t1, k1) + d1 * pair.dg2.at(t1, k1)
    )
    at_node = t == 0.0
    coords = range(data.values.ndim - 1)
    last = range(-len(coords), 0)
    return (np.moveaxis(np.where(at_node, v0, value), coords, last)[()],
            np.moveaxis(np.where(at_node, d0, deriv), coords, last)[()])
