"""Cardinal Hermite generators for piecewise span{1, x, cos(w x), sin(w x)}.

The two generators phi1 (even, interpolates values) and phi2 (odd,
interpolates first derivatives) are supported on [-1, 1], join C^1 at the
knots, and reduce to the cardinal cubic Hermite pair as w -> 0.  Their
integer shifts reproduce 1, x, cos(w x) and sin(w x), which is what makes
closed curves built on them reproduce ellipses exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .frequency import (
    DomainError,
    Frequency,
    sin_minus_x_cos_scaled,
    sin_over,
    sinc,
    x_minus_sin_scaled,
)


def _k1(freq: Frequency, x):
    """(1 - cos(w x)) / w^2 = (sin(w x / 2) / (w / 2))^2 / 2; x^2 / 2 at
    w = 0."""
    half = sin_over(0.5 * freq.omega0, x)
    return 0.5 * half * half


def _k2(freq: Frequency, x):
    """(w x - sin(w x)) / w^3 = x^3 (t - sin t) / t^3 at t = w x; x^3 / 6 at
    w = 0."""
    return x * x * x * x_minus_sin_scaled(freq.omega0 * x)


def piece_kernels(freq: Frequency, x):
    """The pair (K1, K2) = ((1 - cos(w x)) / w^2, (w x - sin(w x)) / w^3)
    that every piece of frequency w combines at x (float or array).  Both
    are entire in w, so one formula serves all of [0, pi]."""
    return _k1(freq, x), _k2(freq, x)


@dataclass(frozen=True, slots=True)
class E4Piece:
    """One segment on [0, 1] of the four-dimensional family
    span{1, x, cos(w x), sin(w x)}, stored as its value and slope at x = 0
    and two scaled coefficients C and D:

        value(x) = value0 + slope0*x - C*K1(x) - D*K2(x)

    with the kernels K1, K2 of ``piece_kernels``.  In the trigonometric
    basis the same segment has cos and sin coefficients C/w^2 and D/w^3,
    which grow like 1/w^3 near w = 0 and cancel to every digit when summed
    raw; C and D themselves stay bounded, and at w = 0 the segment is the
    cubic value0 + slope0 x - C x^2/2 - D x^3/6.
    """

    value0: float
    slope0: float
    C: float
    D: float
    freq: Frequency

    def value(self, x):
        """The segment at a float x, or elementwise on an array."""
        return self.at(x, piece_kernels(self.freq, x))

    def at(self, x, kernels):
        """The segment at x from ``kernels = piece_kernels(self.freq, x)``.

        The kernel pair depends only on the frequency and x, so pieces that
        share both (a generator pair, the Bernstein basis) compute it once
        and each combine it here.
        """
        k1, k2 = kernels
        return self.value0 + self.slope0 * x - self.C * k1 - self.D * k2

    def derivative(self) -> "E4Piece":
        """The segment's derivative: K1' = x - w^2 K2 and K2' = K1."""
        w = self.freq.omega0
        return E4Piece(self.slope0, -self.C, self.D, -self.C * w * w, self.freq)

    def reflected(self, value1: float, slope1: float) -> "E4Piece":
        """The segment x -> value(1 - x), given its exact data at x = 1."""
        w = self.freq.omega0
        cw, sw = math.cos(w), sinc(w)
        return E4Piece(value1, -slope1, self.C * cw + self.D * sw,
                       self.C * w * w * sw - self.D * cw, self.freq)


@dataclass(frozen=True, slots=True)
class GeneratorPair:
    """Restrictions of phi1 and phi2 to [0, 1], and their derivatives; the
    negative side follows by the even/odd extension."""

    g1: E4Piece
    g2: E4Piece
    dg1: E4Piece
    dg2: E4Piece
    freq: Frequency


_BOUNDARY_TOL = 1e-9


@lru_cache(maxsize=1024)
def make_generators(freq: Frequency) -> GeneratorPair:
    """Construct the generator pair for a frequency in [0, pi].

    With u = w/2, sinc(u) = sin(u)/u and S3(u) = (sin u - u cos u) / u^3,
    the scaled coefficients are
        g1:  C = 2 sinc(u) / S3(u),  D = -4 cos(u) / S3(u)
        g2:  C = 4 S3(w) / (sinc(u) S3(u)),  D = 2 (sinc(u) - 2 cos(u)) / S3(u).
    They are the closed form 1 - sin(u)/s + (w cos(u)/s) x + sin(u - w x)/s
    of g1 and the g2 solved from its four Hermite conditions, with the
    common denominator s = 2 sin(u) - w cos(u) = w^3 S3(u) / 4 divided out.
    No ratio cancels, and at w = 0 they are the cubic (6, -12) and (4, -6).
    The eight boundary conditions are checked before returning.
    """
    w = freq.omega0
    u = 0.5 * w
    half_sinc, half_cos = sinc(u), math.cos(u)
    half_s3 = sin_minus_x_cos_scaled(u)
    g1 = E4Piece(1.0, 0.0, 2.0 * half_sinc / half_s3, -4.0 * half_cos / half_s3,
                 freq)
    g2 = E4Piece(
        0.0, 1.0, 4.0 * sin_minus_x_cos_scaled(w) / (half_sinc * half_s3),
        2.0 * (half_sinc - 2.0 * half_cos) / half_s3, freq,
    )

    pair = GeneratorPair(g1, g2, g1.derivative(), g2.derivative(), freq)
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
    """ValueError unless which is the int 1 or 2 (a bool is not an index)."""
    if type(which) is not int or which not in (1, 2):
        raise ValueError(f"which must be the int 1 or 2, got {which!r}")


def _extend(even: E4Piece, odd: E4Piece, x):
    """Two pieces of one frequency on [0, 1], the first extended evenly and
    the second oddly to (-1, 1), both by zero outside, at a finite float or
    at every entry of an array.  They share one kernel pair.  Outside
    points evaluate the pieces at 0 and multiply them by 0."""
    ax = abs(x)
    inside = ax < 1.0
    t = ax * inside
    kernels = piece_kernels(even.freq, t)
    return (even.at(t, kernels) * inside,
            odd.at(t, kernels) * (1 - 2 * (x < 0.0)) * inside)


def phi_pair(freq: Frequency, x):
    """(phi1(x), phi2(x)) at a float or an array (zero outside (-1, 1)),
    from one kernel pair per argument."""
    pair = make_generators(freq)
    return _extend(pair.g1, pair.g2, x)


def phi(freq: Frequency, which: int, x):
    """Evaluate phi1 or phi2 at a float or an array (zero outside (-1, 1))."""
    _check_which(which)
    return phi_pair(freq, x)[which - 1]


def phi_deriv(freq: Frequency, which: int, x):
    """Derivative of phi1 or phi2; at knots the shared one-sided limit."""
    _check_which(which)
    pair = make_generators(freq)
    # phi1' is odd and phi2' even
    return _extend(pair.dg2, pair.dg1, x)[2 - which]


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
        0..len-1 otherwise.  A periodic int is wrapped without numpy."""
        if self.periodic and type(n) is int:
            return n % len(self)
        # wrapped or checked before the cast, which overflows from 2^63 on
        if self.periodic:
            return np.mod(n, len(self)).astype(np.intp)
        n = np.asarray(n)
        bad = n[(n < 0) | (n >= len(self))]
        if bad.size:
            raise IndexError(f"sample index {bad[0]:.17g} outside 0..{len(self) - 1}")
        return n.astype(np.intp)


def _span_values(pair: GeneratorPair, t, kernels, kernels1, v0, v1, d0, d1):
    """The Hermite interpolant of (v0, d0) at 0 and (v1, d1) at 1 at the
    fraction t in [0, 1), from the kernel pairs ``kernels`` at t and
    ``kernels1`` at 1 - t:

        v0 + (v1 - v0) g1(1 - t) + d0 g2(t) - d1 g2(1 - t),

    and v0 itself at t = 0 (the shared C^1 limit equals it by the
    interpolation conditions).  The sample values enter through the
    partition of unity g1(t) + g1(1 - t) = 1: constants come back bitwise,
    and the rounding error scales with the jump v1 - v0, not with the size
    of the values.  The fractions and the span data broadcast against each
    other.
    """
    t1 = 1.0 - t
    value = (
        v0 + (v1 - v0) * pair.g1.at(t1, kernels1)
        + d0 * pair.g2.at(t, kernels) - d1 * pair.g2.at(t1, kernels1)
    )
    return np.where(t == 0.0, v0, value)


def _points_last(array, point_ndim: int):
    """Move the leading point axes of an evaluation to the end."""
    coords = range(point_ndim)
    return np.moveaxis(array, coords, range(-point_ndim, 0))[()]


def _spline_at(freq: Frequency, data: HermiteData, x, deriv: bool):
    """The spline of ``spline_eval`` at x, coordinates first, and with
    ``deriv`` its derivative as well: (value, derivative or None).

    x is a finite array, or a finite float, which runs the float kernels
    and gives the point shape (the float lane of
    ``ClosedHermiteCurve.eval``).  The values alone form no derivative
    terms (``reproduction_errors``).
    """
    if isinstance(x, np.ndarray):
        n0, n1 = np.floor(x), np.ceil(x)
    else:
        n0, n1 = math.floor(x), math.ceil(x)
    t = x - n0
    i0, i1 = data.index(n0), data.index(n1)
    # coordinates first, so the weights, shaped like x, broadcast against them
    values, derivs = data.values.T, data.derivs.T
    v0, d0 = values[..., i0], derivs[..., i0]
    v1, d1 = values[..., i1], derivs[..., i1]
    pair = make_generators(freq)
    t1 = 1.0 - t
    # one kernel pair per argument, shared by the pieces evaluated there
    k0, k1 = piece_kernels(freq, t), piece_kernels(freq, t1)
    value = _span_values(pair, t, k0, k1, v0, v1, d0, d1)
    if not deriv:
        return value, None
    # g1'(t) = g1'(1 - t), so the slope terms of the values are
    # (v0 - v1) g1'(1 - t)
    slope = (
        d0 * pair.dg2.at(t, k0) + d1 * pair.dg2.at(t1, k1)
        - (v1 - v0) * pair.dg1.at(t1, k1)
    )
    return value, np.where(t == 0.0, d0, slope)


def spline_eval(freq: Frequency, data: HermiteData, x):
    """Evaluate sum_n (s(n) phi1(x-n) + s'(n) phi2(x-n)) and its derivative
    at a float or at every entry of an array of x.

    Only the two shifts bracketing x contribute.  x on [n, n+1) uses the
    segment of that interval (``_span_values``); integer x returns the
    stored sample.  Results have the shape of x, followed by the point
    shape for (L, dim) data.
    """
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError("evaluation points must be finite")
    value, deriv = _spline_at(freq, data, x, deriv=True)
    point_ndim = data.values.ndim - 1
    return _points_last(value, point_ndim), _points_last(deriv, point_ndim)


def spline_grid(freq: Frequency, data: HermiteData, samples_per_span: int):
    """The spline of ``spline_eval`` at n + k/S for every span n and
    k = 0..S-1, with S = samples_per_span, in increasing order of the
    parameter: shape (spans * S,), followed by the point shape.  Periodic
    data have the spans n = 0..L-1, the last one closing the loop; other
    data the spans n = 0..L-2.  No derivatives are formed.

    The Hermite functions are integer translates of one generator pair, so
    the kernel pairs are needed only at the S fractions k/S and 1 - k/S.
    They are evaluated once and the data of every span are broadcast
    against them: two kernel pairs per fraction instead of two per sample.

    The parameter is exactly n + fl(k/S), with the formula of
    ``spline_eval``.  For a power-of-two S it equals fl((nS + k)/S), so the
    samples are bitwise those of ``spline_eval`` at arange(spans * S) / S;
    for other S the two parameters differ in their low bits.

    DomainError unless samples_per_span is an int (exactly, as every count
    and index here) of at least 1.
    """
    if type(samples_per_span) is not int or samples_per_span < 1:
        raise DomainError(
            f"samples_per_span must be an int >= 1, got {samples_per_span!r}"
        )
    spans = np.arange(len(data) if data.periodic else len(data) - 1)
    t = np.arange(samples_per_span) / samples_per_span
    # coordinates first, then spans, then fractions
    values, derivs = data.values.T[..., None], data.derivs.T[..., None]
    i0, i1 = data.index(spans), data.index(spans + 1)
    value = _span_values(
        make_generators(freq), t, piece_kernels(freq, t),
        piece_kernels(freq, 1.0 - t), values[..., i0, :], values[..., i1, :],
        derivs[..., i0, :], derivs[..., i1, :],
    )
    return _points_last(value.reshape(value.shape[:-2] + (-1,)),
                        data.values.ndim - 1)
