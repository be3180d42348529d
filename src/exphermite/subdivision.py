"""Level-dependent dyadic Hermite subdivision and the derived scalar
four-point scheme.

The vector scheme is interpolatory: each step keeps the coarse samples and
inserts the value/derivative of the local Hermite interpolant at span
midpoints.  Because the interpolant lives on a grid of spacing 2^-j, the
insertion rule (``masks``) depends on the level through the halved frequency
w / 2^j, which is what lets the scheme reproduce ellipses at every level.
The scalar scheme runs the same insertion rule on Bezier control points, in
each node's mean / half-difference coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import HermiteData
from .bezier import conversion_ratio
from .frequency import (
    DomainError,
    Frequency,
    sin_minus_x_cos_scaled,
    sinc,
    x_minus_sin_scaled,
)


MAX_LEVEL = 1022
"""Deepest level with an insertion rule: from level 1023 on the grid step
2^-j is no longer a normal double (and ``bot`` ~ 1.5 / 2^-j overflows)."""


def _check_level(j: int) -> None:
    """ValueError unless j is a nonnegative int (a bool is not a level),
    DomainError above MAX_LEVEL."""
    if isinstance(j, bool) or not isinstance(j, int) or j < 0:
        raise ValueError(f"level must be a nonnegative int, got {j!r}")
    if j > MAX_LEVEL:
        raise DomainError(f"level {j} is above the deepest level {MAX_LEVEL}")


def masks(freq: Frequency, j: int) -> tuple[float, float, float]:
    """The insertion rule (top, bot, diag) for the refinement from grid
    2^-j to grid 2^-(j+1), built from the generators at the level frequency
    w/2^j.  Between nodes (v0, d0) and (v1, d1) the midpoint gets

        value = (v0 + v1)/2 + top (d0 - d1)
        deriv = bot (v1 - v0) + diag (d0 + d1),

    the local Hermite interpolant and its derivative at the midpoint."""
    _check_level(j)
    h = 2.0 ** (-j)
    w = freq.omega0 * h
    # with u = w/2 and s = w^3 S3(u) / 4: top = h tan(w/4) / (2w), bot =
    # 2w sin^2(w/4) / (s h) and diag = -(u - sin u) / s, as ratios of the
    # scaled kernels; at w = 0 the stationary h/8, 3/(2h) and -1/4
    quarter_sinc = sinc(0.25 * w)
    half_s3 = sin_minus_x_cos_scaled(0.5 * w)
    top = quarter_sinc / (8.0 * math.cos(0.25 * w)) * h
    bot = quarter_sinc * quarter_sinc / (2.0 * half_s3) / h
    diag = -x_minus_sin_scaled(0.5 * w) / (2.0 * half_s3)
    return top, bot, diag


MAX_NODES = 2**24
"""Largest node count ``subdivide`` will produce (the CLI caps its text
output lower).  Vector output of 2^24 plane nodes holds 512 MB of values and
derivatives, so this is where a run stops fitting comfortably in memory;
above it the request is refused before anything is allocated."""


def refined_length(n: int, periodic: bool, levels: int = 1) -> int:
    """Node count after ``levels`` dyadic steps on ``n`` nodes."""
    return n << levels if periodic else ((n - 1) << levels) + 1


def check_node_budget(n: int, periodic: bool, levels: int,
                      cap: int = MAX_NODES) -> None:
    """Raise DomainError if ``levels`` steps on ``n`` nodes would exceed
    ``cap`` nodes.  Levels past the cap's bit length are refused without
    forming the (possibly huge) node count."""
    if levels >= cap.bit_length() or refined_length(n, periodic, levels) > cap:
        raise DomainError(
            f"{levels} levels on {n} nodes go above the cap of {cap} nodes"
        )


def _columns(arr: np.ndarray) -> np.ndarray:
    """(n,) or (n, dim) array as a (dim, n) view whose rows are the
    coordinate columns.  The kernels below work one column at a time: a 1-D
    strided column runs as one long ufunc loop, while an (n, 2) block with
    interleaved rows runs one two-element loop per row, several times
    slower."""
    return arr.reshape(len(arr), -1).T


def _insert(rule, v0, d0, v1, d1, out=(None, None)):
    """Midpoint slots (value, deriv) between columns (v0, d0) and (v1, d1)
    for the rule (top, bot, diag) of ``masks``; the entries may also be
    arrays that broadcast against the columns.  ``out`` may name arrays
    that receive the two results.

    The value (v0 + v1)/2 + top (d0 - d1) is summed as (v0/2 + top d0) +
    (v1/2 - top d1), in that pairwise order.  The derivative is taken in
    difference form, bot (v1 - v0) + diag (d0 + d1), which loses fewer
    digits to the large ``bot`` at deep levels than summing -bot v0 +
    bot v1.
    """
    top, bot, diag = rule
    return (np.add(v0 * 0.5 + d0 * top, v1 * 0.5 - d1 * top, out=out[0]),
            np.add((v1 - v0) * bot, (d0 + d1) * diag, out=out[1]))


def _insert_spans(rule, v, d, out_v, out_d, periodic: bool) -> None:
    """Midpoint slots of the n - 1 spans of the 1-D columns (v, d), then of
    the span from the last node back to the first when ``periodic``."""
    n = len(v)
    _insert(rule, v[:-1], d[:-1], v[1:], d[1:], out=(out_v[:n - 1], out_d[:n - 1]))
    if periodic:
        _insert(rule, v[-1:], d[-1:], v[:1], d[:1], out=(out_v[n - 1:], out_d[n - 1:]))


def _check_refinable(n: int, periodic: bool) -> None:
    if n < 2 and not periodic:
        raise ValueError("refinement needs at least two non-periodic samples")


def _check_finite(data: HermiteData) -> None:
    if not (np.isfinite(data.values).all() and np.isfinite(data.derivs).all()):
        raise DomainError("Hermite samples must be finite")


def refine_step(data: HermiteData, rule: tuple[float, float, float]) -> HermiteData:
    """One dyadic step with ``rule`` = masks(freq, j): even output slots
    copy the input bitwise; each odd slot is the local Hermite interpolant
    of the bracketing nodes at the span midpoint (value and derivative).

    Error model: values carry a few eps of the data scale at any depth.
    A level-j derivative is recovered from a value difference scaled by
    about 1.5 * 2^j, so over L steps its relative error grows like
    c * eps * 2^L, with c below 3 on circles and ellipses at M = 4 and 8;
    the M = 4 ellipse measures 1.9e-11 at L = 16.
    """
    n = len(data)
    _check_refinable(n, data.periodic)
    shape = (refined_length(n, data.periodic),) + data.values.shape[1:]
    out_v, out_d = np.empty(shape), np.empty(shape)
    for v, d, ov, od in zip(_columns(data.values), _columns(data.derivs),
                            _columns(out_v), _columns(out_d)):
        ov[0::2] = v
        od[0::2] = d
        _insert_spans(rule, v, d, ov[1::2], od[1::2], data.periodic)
    return HermiteData(out_v, out_d, periodic=data.periodic)


def subdivide(freq: Frequency, data0: HermiteData, levels: int) -> HermiteData:
    """Run ``levels`` dyadic steps; entry n of the result holds the value
    and derivative of the Hermite interpolant of data0 at n / 2^levels.

    Values are exact to a few eps of the data scale; derivatives to a
    relative c eps 2^levels (see refine_step).  Raises DomainError before
    allocating anything if data0 is not finite or the result would exceed
    MAX_NODES nodes.
    """
    if levels < 0:
        raise ValueError(f"levels must be nonnegative, got {levels!r}")
    _check_finite(data0)
    check_node_budget(len(data0), data0.periodic, levels)
    data = data0
    for j in range(levels):
        data = refine_step(data, masks(freq, j))
    return data


@dataclass(frozen=True)
class ScalarControl:
    """Bezier control points of the level-j representation: the node n of
    the Hermite data owns points[2n] (incoming handle) and points[2n+1]
    (outgoing handle), so there are twice as many points as nodes.  The
    level is checked as ``masks`` checks it.

    Finiteness is not checked here, because every refinement level builds
    one of these: ``hermite_to_scalar`` checks the Hermite data it converts,
    before allocating the control points.
    """

    points: np.ndarray
    level: int
    periodic: bool = False

    def __post_init__(self) -> None:
        _check_level(self.level)
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 0:
            raise ValueError("control points need an index axis, got a 0-d value")
        if len(pts) % 2 != 0:
            raise ValueError("control points come in per-node pairs")
        if len(pts) < 2:
            raise ValueError("need at least one node's pair of control points")
        object.__setattr__(self, "points", pts)

    def node_count(self) -> int:
        return len(self.points) // 2


def _handle_offset(freq: Frequency, j: int) -> float:
    """lam_j 2^-j: distance in parameter units from a level-j node to its
    control points, per unit derivative."""
    _check_level(j)
    h = 2.0 ** (-j)
    return conversion_ratio(Frequency(freq.omega0 * h)) * h


def hermite_to_scalar(freq: Frequency, j: int, data: HermiteData) -> ScalarControl:
    """Convert level-j Hermite samples to their Bezier control polygon;
    DomainError if they are not finite."""
    _check_finite(data)
    step = _handle_offset(freq, j) * data.derivs
    pts = np.empty((2 * len(data),) + data.values.shape[1:])
    np.subtract(data.values, step, out=pts[0::2])
    np.add(data.values, step, out=pts[1::2])
    return ScalarControl(pts, j, data.periodic)


def scalar_to_hermite(freq: Frequency, ctrl: ScalarControl) -> HermiteData:
    """Inverse of hermite_to_scalar at the control polygon's own level: each
    node's value is the mean of its two control points, its derivative their
    half difference over the handle offset."""
    offset = _handle_offset(freq, ctrl.level)
    incoming, outgoing = ctrl.points[0::2], ctrl.points[1::2]
    values = 0.5 * (incoming + outgoing)
    derivs = 0.5 * (outgoing - incoming) / offset
    return HermiteData(values, derivs, periodic=ctrl.periodic)


def scalar_refine_step(pts: ScalarControl, freq: Frequency) -> ScalarControl:
    """One step of the scalar four-point scheme: the vector step in each
    node's mean / half-difference coordinates.

    A level-j node with control points (a, b) has value m = (a + b)/2 and
    half-difference (b - a)/2 = o_j d, o_j being the level-j handle offset.
    Rescaled to o_{j+1} d, the refined node's own, the pair (m, o_{j+1} d)
    refines by the vector rule with top / o_{j+1}, bot * o_{j+1} and the
    same diagonal, and each refined node is written back as m -/+ o_{j+1} d.
    So the step commutes with the vector step through hermite_to_scalar.
    Old control points are discarded (the scheme is approximating).

    Error model: control points carry a few eps of the data scale at any
    depth.  Means refine like vector values.  A half-difference o_L d is a
    level-L derivative, whose relative error grows like eps 2^L, times o_L,
    which shrinks like 2^-L, so its absolute error stays a few eps of the
    level-0 control points.  Against the control polygon of ``subdivide``,
    random M = 4 ellipses at L = 16 measure within 6 eps of the largest.
    """
    n = pts.node_count()
    _check_refinable(n, pts.periodic)
    j = pts.level
    top, bot, diag = masks(freq, j)
    offset, next_offset = _handle_offset(freq, j), _handle_offset(freq, j + 1)
    rule = (top / next_offset, bot * next_offset, diag)
    half_ratio = 0.5 * next_offset / offset
    # node k owns points 2k (incoming) and 2k+1 (outgoing); in the output,
    # old node k becomes node 2k (points 4k, 4k+1) and the midpoint after
    # it node 2k+1 (points 4k+2, 4k+3)
    out = np.empty((2 * refined_length(n, pts.periodic),) + pts.points.shape[1:])
    mean, half = np.empty((2, n))
    mid_m, mid_half = np.empty((2, len(out) // 4))
    for p, o in zip(_columns(pts.points), _columns(out)):
        a, b = p[0::2], p[1::2]
        np.multiply(np.add(a, b, out=mean), 0.5, out=mean)
        np.multiply(np.subtract(b, a, out=half), half_ratio, out=half)
        np.subtract(mean, half, out=o[0::4])
        np.add(mean, half, out=o[1::4])
        _insert_spans(rule, mean, half, mid_m, mid_half, pts.periodic)
        np.subtract(mid_m, mid_half, out=o[2::4])
        np.add(mid_m, mid_half, out=o[3::4])
    return ScalarControl(out, j + 1, pts.periodic)
