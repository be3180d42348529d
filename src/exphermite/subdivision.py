"""Level-dependent dyadic Hermite subdivision and the derived scalar
four-point scheme.

The vector scheme is interpolatory: each step keeps the coarse samples and
inserts the value/derivative of the local Hermite interpolant at span
midpoints.  Because the interpolant lives on a grid of spacing 2^-j, the
insertion rule (``masks``) depends on the level through the halved frequency
w / 2^j, which is what lets the scheme reproduce ellipses at every level.
The scalar scheme runs the same insertion rule on Bezier control points, in
each node's mean / half-difference coordinates.

Both kernels run on lanes: 1-D views of the data columns, in which a pair
of adjacent coordinates is one complex128 element, and share one insertion
kernel, ``_midpoints``, which forms each node's half-products once for the
two spans that touch it.  Each level is refined in blocks of at most
``_BLOCK`` spans, so that a block's nodes, its output slots and the
block-sized scratch stay in cache through every pass.  The block of spans
s..e-1 reads nodes s..e (node n of periodic data is node 0) and writes
every slot of those nodes and spans, so node e is written by both blocks
that share it.  A midpoint depends only on its span's two end nodes and
the level's rule, so the output is bitwise that of one pass.
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
    """ValueError unless j is a nonnegative int (exactly, so not a bool or
    a numpy integer), DomainError above MAX_LEVEL."""
    if type(j) is not int or j < 0:
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


def stationary_distance(freq: Frequency, j: int) -> float:
    """Distance of the level-j rule, rescaled by h = 2^-j, from its
    stationary (Merrien) limit top/h = 1/8, bot h = 3/2, diag = -1/4:
    max(|top/h - 1/8|, |bot h - 3/2|, |diag + 1/4|)."""
    top, bot, diag = masks(freq, j)
    h = 2.0 ** (-j)
    return max(abs(top / h - 0.125), abs(bot * h - 1.5), abs(diag + 0.25))


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


def _lanes(block: np.ndarray) -> np.ndarray:
    """(n,) or (n, ...) float64 array as a (lanes, n) view whose rows are
    1-D lanes, so that each lane runs as one long ufunc loop (an (n, 2)
    block with interleaved rows would run one two-element loop per row).
    When a row holds an even number of coordinates, each adjacent pair is
    one complex128 lane, so a plane curve is a single lane; a row whose
    coordinates are not contiguous is copied first (only input blocks can
    be; the kernels allocate their outputs contiguous).  Odd row widths
    give one float64 lane per coordinate."""
    flat = block.reshape(len(block), -1)
    if flat.shape[1] % 2:
        return flat.T
    if flat.strides[1] != flat.itemsize:
        flat = np.ascontiguousarray(flat)
    return flat.view(np.complex128).T


def _times(lane: np.ndarray, factor: float, out: np.ndarray) -> np.ndarray:
    """out = lane * factor as one float64 product per coordinate, through
    the float64 view of the contiguous ``out`` (see refine_step for why a
    complex lane is not multiplied as complex)."""
    if lane.dtype != np.float64 and not lane.flags.c_contiguous:
        np.copyto(out, lane)
        lane = out
    np.multiply(lane.view(np.float64), factor, out=out.view(np.float64))
    return out


_BLOCK = 2**13
"""Most spans per block of the refinement kernels.  A block's nodes, its
output slots and the kernel's scratch (``_BLOCK + 1`` entries a lane,
128 KB per complex lane) stay within a 2 MB per-core L2 cache through
every pass.  Refine-workload op time over 136 ops (decks 0-3 of seed 1),
two fresh processes per size (2-core Xeon, Python 3.11.7, numpy 2.4.6):
2^11 0.424/0.419 s, 2^12 0.381/0.405 s, 2^13 0.371/0.364 s, 2^14
0.395/0.365 s, 2^15 0.461/0.417 s; one pass per level took 0.492/0.453 s."""


def _midpoints(rule, v, d, out_v, out_d, scratch) -> None:
    """Midpoint slots (value, deriv) of the len(v) - 1 spans of consecutive
    nodes of the lanes (v, d) for the rule (top, bot, diag) of ``masks``,
    written to out_v and out_d.  ``scratch`` holds two contiguous lanes of
    at least len(v) entries.  The derivatives are written first and the
    values last, after the last read of (v, d), so out_v may share memory
    with v or d.

    The value (v0 + v1)/2 + top (d0 - d1) is summed as (v0/2 + top d0) +
    (v1/2 - top d1), in that pairwise order.  Each node's half-products
    a = v/2 + top d and c = v/2 - top d are formed once and shared by the
    spans on either side of it, so a span's value is a[k] + c[k+1].  The
    derivative is taken in difference form, bot (v1 - v0) + diag (d0 + d1),
    which loses fewer digits to the large ``bot`` at deep levels than
    summing -bot v0 + bot v1.
    """
    top, bot, diag = rule
    n = len(v)
    lo, hi = (lane[:n] for lane in scratch)
    np.subtract(v[1:], v[:-1], out=lo[:-1])
    np.add(d[:-1], d[1:], out=hi[:-1])
    np.add(_times(lo[:-1], bot, lo[:-1]), _times(hi[:-1], diag, hi[:-1]), out=out_d)
    _times(v, 0.5, lo)
    _times(d, top, hi)
    np.add(lo[:-1], hi[:-1], out=out_v)
    np.subtract(lo[1:], hi[1:], out=hi[1:])
    np.add(out_v, hi[1:], out=out_v)


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

    The step runs on lanes (``_lanes``): on a plane curve both coordinates
    of a node are one complex128 element.  Each lane is refined in blocks
    of at most ``_BLOCK`` spans, with two scratch lanes of ``_BLOCK + 1``
    entries (128 KB each on a plane curve) in place of two of n.  The block
    of spans s..e-1 copies nodes s..e to their even slots and writes its
    odd slots while the nodes are in cache; node n of periodic data is
    node 0, appended to a copy of the last block's nodes.  Node e is copied
    by both blocks that share it and a midpoint reads only its span's two
    nodes, so the blocks give the bits of one pass, which is bitwise one
    float64 column per coordinate.  Complex + and - act on the real and
    imaginary parts apart, so each coordinate gets its float sum.  Complex
    times real is not bitwise the real products (its real part is
    x*f - y*0, which can flip the sign of a zero), so every product by
    0.5, top, bot and diag is taken on the float64 view of contiguous
    scratch.
    """
    n = len(data)
    _check_refinable(n, data.periodic)
    spans = n if data.periodic else n - 1
    shape = (refined_length(n, data.periodic),) + data.values.shape[1:]
    out_v, out_d = np.empty(shape), np.empty(shape)
    values, derivs = _lanes(data.values), _lanes(data.derivs)
    scratch = [np.empty(min(spans, _BLOCK) + 1, values.dtype) for _ in range(2)]
    for v, d, ov, od in zip(values, derivs, _lanes(out_v), _lanes(out_d)):
        for s in range(0, spans, _BLOCK):
            e = min(s + _BLOCK, spans)
            # at e = n these stop at node n - 1: node 0's slot is block 0's
            ov[2 * s:2 * e + 1:2] = v[s:e + 1]
            od[2 * s:2 * e + 1:2] = d[s:e + 1]
            if e < n:
                vb, db = v[s:e + 1], d[s:e + 1]
            else:
                vb, db = np.concatenate((v[s:], v[:1])), np.concatenate((d[s:], d[:1]))
            _midpoints(rule, vb, db, ov[2 * s + 1:2 * e:2], od[2 * s + 1:2 * e:2],
                       scratch)
    return HermiteData(out_v, out_d, periodic=data.periodic)


def subdivide(freq: Frequency, data0: HermiteData, levels: int) -> HermiteData:
    """Run ``levels`` dyadic steps; entry n of the result holds the value
    and derivative of the Hermite interpolant of data0 at n / 2^levels.

    Values are exact to a few eps of the data scale; derivatives to a
    relative c eps 2^levels (see refine_step).  The level count is checked
    as ``masks`` checks a level.  Raises DomainError before allocating
    anything if data0 is not finite or the result would exceed MAX_NODES
    nodes.
    """
    _check_level(levels)
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
    for v, s, p in zip(_lanes(data.values), _lanes(step), _lanes(pts)):
        np.subtract(v, s, out=p[0::2])
        np.add(v, s, out=p[1::2])
    return ScalarControl(pts, j, data.periodic)


def scalar_to_hermite(freq: Frequency, ctrl: ScalarControl) -> HermiteData:
    """Inverse of hermite_to_scalar at the control polygon's own level: each
    node's value is the mean of its two control points, its derivative their
    half difference over the handle offset."""
    offset = _handle_offset(freq, ctrl.level)
    shape = (ctrl.node_count(),) + ctrl.points.shape[1:]
    values, derivs = np.empty(shape), np.empty(shape)
    for p, v, d in zip(_lanes(ctrl.points), _lanes(values), _lanes(derivs)):
        np.add(p[0::2], p[1::2], out=v)
        np.subtract(p[1::2], p[0::2], out=d)
    values *= 0.5
    derivs *= 0.5
    derivs /= offset
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

    Like ``refine_step`` the step runs on lanes, in blocks of at most
    ``_BLOCK`` spans: the block of spans s..e-1 forms the means and
    half-differences of nodes s..e, node n of periodic data being node 0,
    and writes all four slot groups of those nodes and spans while they
    are in cache.  Its output and four scratch lanes (means,
    half-differences and the kernel's two) of ``_BLOCK + 1`` entries, 512 KB
    together on a plane curve, are all the step allocates.  A node's mean
    and half-difference depend on its own two points alone, so node e,
    written by both blocks that share it, gets the same bits in both.  The
    step is bitwise the float column form: means, half-differences and
    slot writes are complex + and -, which act on the two coordinates
    apart, and the products by 0.5, half_ratio and the rule are taken on
    the float64 view of contiguous scratch, since complex times real can
    flip the sign of a zero.
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
    points = _lanes(pts.points)
    spans = n if pts.periodic else n - 1
    mean, half, *scratch = [np.empty(min(spans, _BLOCK) + 1, points.dtype)
                            for _ in range(4)]
    for p, o in zip(points, _lanes(out)):
        a, b = p[0::2], p[1::2]
        groups = [o[k::4] for k in range(4)]
        for s in range(0, spans, _BLOCK):
            e = min(s + _BLOCK, spans)
            k = e - s
            m, h = mean[:k + 1], half[:k + 1]
            # q of nodes s..e are in the lane; node n is node 0 (wrap span)
            q = min(e + 1, n) - s
            np.add(a[s:e + 1], b[s:e + 1], out=m[:q])
            np.subtract(b[s:e + 1], a[s:e + 1], out=h[:q])
            if e == n:
                np.add(a[:1], b[:1], out=m[k:])
                np.subtract(b[:1], a[:1], out=h[k:])
            _times(m, 0.5, m)
            _times(h, half_ratio, h)
            np.subtract(m[:q], h[:q], out=groups[0][s:e + 1])
            np.add(m[:q], h[:q], out=groups[1][s:e + 1])
            # the midpoint means are written over the block's first k
            # means, which the kernel has read for the last time by then
            mid_m, mid_half = m[:k], groups[3][s:e]
            _midpoints(rule, m, h, mid_m, mid_half, scratch)
            np.subtract(mid_m, mid_half, out=groups[2][s:e])
            np.add(mid_m, mid_half, out=mid_half)
    return ScalarControl(out, j + 1, pts.periodic)
