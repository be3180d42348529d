"""The subdivision kernels in their column-by-column form, kept as a
bitwise oracle for the lane kernels of ``exphermite.subdivision``.

Each coordinate column runs as its own strided 1-D loop, and ``_insert``
forms each node's half-products once for every span that touches it.  The
lane kernels must give the same bits, signed zeros included.
"""

import numpy as np

from exphermite import HermiteData, ScalarControl, masks
from exphermite.subdivision import _handle_offset, refined_length


def _columns(arr: np.ndarray) -> np.ndarray:
    """(n,) or (n, dim) array as a (dim, n) view whose rows are the
    coordinate columns."""
    return arr.reshape(len(arr), -1).T


def _insert(rule, v0, d0, v1, d1, out=(None, None)):
    """Midpoint slots (value, deriv) between columns (v0, d0) and (v1, d1)
    for the rule (top, bot, diag) of ``masks``; the entries may also be
    arrays that broadcast against the columns.  ``out`` may name arrays
    that receive the two results.

    The value (v0 + v1)/2 + top (d0 - d1) is summed as (v0/2 + top d0) +
    (v1/2 - top d1), in that pairwise order; the derivative is taken in
    difference form, bot (v1 - v0) + diag (d0 + d1).
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


def column_refine_step(data: HermiteData, rule) -> HermiteData:
    n = len(data)
    shape = (refined_length(n, data.periodic),) + data.values.shape[1:]
    out_v, out_d = np.empty(shape), np.empty(shape)
    for v, d, ov, od in zip(_columns(data.values), _columns(data.derivs),
                            _columns(out_v), _columns(out_d)):
        ov[0::2] = v
        od[0::2] = d
        _insert_spans(rule, v, d, ov[1::2], od[1::2], data.periodic)
    return HermiteData(out_v, out_d, periodic=data.periodic)


def column_scalar_refine_step(pts: ScalarControl, freq) -> ScalarControl:
    n = pts.node_count()
    j = pts.level
    top, bot, diag = masks(freq, j)
    offset, next_offset = _handle_offset(freq, j), _handle_offset(freq, j + 1)
    rule = (top / next_offset, bot * next_offset, diag)
    half_ratio = 0.5 * next_offset / offset
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


def column_hermite_to_scalar(freq, j: int, data: HermiteData) -> ScalarControl:
    step = _handle_offset(freq, j) * data.derivs
    pts = np.empty((2 * len(data),) + data.values.shape[1:])
    np.subtract(data.values, step, out=pts[0::2])
    np.add(data.values, step, out=pts[1::2])
    return ScalarControl(pts, j, data.periodic)


def column_scalar_to_hermite(freq, ctrl: ScalarControl) -> HermiteData:
    offset = _handle_offset(freq, ctrl.level)
    incoming, outgoing = ctrl.points[0::2], ctrl.points[1::2]
    values = 0.5 * (incoming + outgoing)
    derivs = 0.5 * (outgoing - incoming) / offset
    return HermiteData(values, derivs, periodic=ctrl.periodic)
