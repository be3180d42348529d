"""The subdivision kernels against two test-only oracles.

The generic einsum form sums in a different order (and takes the
derivative row in difference form), so agreement with it is within the
error model, not bitwise: values to a few eps of the data scale,
derivatives to c eps 2^L relative to the slope scale, scalar control
points to 1e-11.  The column-by-column kernels (``column_kernels``) do the
same float operations as the lane kernels, so agreement with them is
bitwise, signed zeros included.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exphermite import (
    Frequency,
    HermiteData,
    ScalarControl,
    hermite_to_scalar,
    masks,
    refine_step,
    scalar_refine_step,
    scalar_to_hermite,
)
import exphermite.subdivision as subdivision
from exphermite.subdivision import _handle_offset
from column_kernels import (
    column_hermite_to_scalar,
    column_refine_step,
    column_scalar_refine_step,
    column_scalar_to_hermite,
)
from rule2x2 import hm1, hp1

EPS = float(np.finfo(float).eps)
# measured worst cases over 400 random draws: 2.0 and 1.6
VALUE_EPS = 8
DERIV_EPS = 8
SCALAR_TOL = 1e-11


def _conversion_matrix(freq: Frequency, j: int) -> np.ndarray:
    """M_j mapping (value, derivative) to the node's two control points."""
    offset = _handle_offset(freq, j)
    return np.array([[1.0, -offset], [1.0, offset]])


def _node_matrix(data: HermiteData) -> np.ndarray:
    return np.stack([data.values, data.derivs], axis=1)


def oracle_refine_step(data: HermiteData, mask) -> HermiteData:
    nodes = _node_matrix(data)
    left = nodes if data.periodic else nodes[:-1]
    right = np.roll(nodes, -1, axis=0) if data.periodic else nodes[1:]
    odd = np.einsum("ij,njd->nid", hp1(mask), left.reshape(left.shape[0], 2, -1)) \
        + np.einsum("ij,njd->nid", hm1(mask), right.reshape(right.shape[0], 2, -1))
    odd = odd.reshape(left.shape)
    out_len = 2 * len(data) if data.periodic else 2 * len(data) - 1
    out = np.empty((out_len,) + nodes.shape[1:])
    out[0::2] = nodes
    out[1::2] = odd
    return HermiteData(out[:, 0], out[:, 1], periodic=data.periodic)


def oracle_scalar_refine_step(pts: ScalarControl, freq: Frequency) -> ScalarControl:
    j = pts.level
    mask = masks(freq, j)
    m_next = _conversion_matrix(freq, j + 1)
    m_inv = np.linalg.inv(_conversion_matrix(freq, j))
    even_rule = m_next @ m_inv
    odd_left = m_next @ hp1(mask) @ m_inv
    odd_right = m_next @ hm1(mask) @ m_inv

    blocks = pts.points.reshape(pts.node_count(), 2, -1)
    left = blocks if pts.periodic else blocks[:-1]
    right = np.roll(blocks, -1, axis=0) if pts.periodic else blocks[1:]
    even = np.einsum("ij,njd->nid", even_rule, blocks)
    odd = np.einsum("ij,njd->nid", odd_left, left) \
        + np.einsum("ij,njd->nid", odd_right, right)
    n_out = 2 * pts.node_count() if pts.periodic else 2 * pts.node_count() - 1
    out = np.empty((n_out, 2, blocks.shape[2]))
    out[0::2] = even
    out[1::2] = odd
    flat = out.reshape(2 * n_out, -1)
    if pts.points.ndim == 1:
        flat = flat[:, 0]
    return ScalarControl(flat, j + 1, pts.periodic)


@st.composite
def kernel_cases(draw):
    # both sides of 1e-4, the switch point of a former cubic-limit path
    w = draw(st.one_of(
        st.floats(1e-7, 1e-4, exclude_max=True),
        st.floats(1e-4, math.pi),
    ))
    m = draw(st.integers(3, 64))
    # at most 2^14 output nodes keeps the einsum oracle quick
    levels = draw(st.integers(0, min(10, 14 - m.bit_length())))
    dim = draw(st.sampled_from([None, 2]))
    periodic = draw(st.booleans())
    scale = 10.0 ** draw(st.floats(-3, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (m,) if dim is None else (m, dim)
    data = HermiteData(scale * rng.normal(size=shape),
                       scale * rng.normal(size=shape), periodic=periodic)
    return Frequency(w), data, levels


@settings(max_examples=60, deadline=None)
@given(kernel_cases())
def test_kernels_match_einsum_oracle(case):
    freq, data0, levels = case
    scale = max(np.abs(data0.values).max(), np.abs(data0.derivs).max())
    fast = slow = data0
    for j in range(levels):
        mask = masks(freq, j)
        prev, fast = fast, refine_step(fast, mask)
        slow = oracle_refine_step(slow, mask)
        assert np.array_equal(fast.values[0::2], prev.values)
        assert np.array_equal(fast.derivs[0::2], prev.derivs)
    assert fast.values.shape == slow.values.shape
    assert np.abs(fast.values - slow.values).max() <= VALUE_EPS * EPS * scale
    assert np.abs(fast.derivs - slow.derivs).max() <= (
        DERIV_EPS * EPS * 2.0**levels * scale
    )

    fast_ctrl = slow_ctrl = hermite_to_scalar(freq, 0, data0)
    for _ in range(levels):
        fast_ctrl = scalar_refine_step(fast_ctrl, freq)
        slow_ctrl = oracle_scalar_refine_step(slow_ctrl, freq)
    assert fast_ctrl.points.shape == slow_ctrl.points.shape
    assert fast_ctrl.level == slow_ctrl.level == levels
    assert np.abs(fast_ctrl.points - slow_ctrl.points).max() <= SCALAR_TOL * scale


def _layouts(block: np.ndarray):
    """``block`` as a contiguous array and as strided views of a larger
    buffer: one 8 bytes into each row (so a complex128 lane is not
    16-byte aligned), one with reversed rows, and a Fortran-order copy."""
    n = len(block)
    flat = block.reshape(n, -1)
    width = flat.shape[1]
    yield "contiguous", block.copy()
    base = np.full((n, width + 3), np.nan)
    base[:, 1:1 + width] = flat
    yield "offset by 8 bytes", base[:, 1:1 + width].reshape(block.shape)
    base = np.full((n, width + 4), np.nan)
    base[::-1, 2:2 + width] = flat
    yield "reversed rows", base[::-1, 2:2 + width].reshape(block.shape)
    yield "fortran order", np.asfortranarray(block)


def _salted(rng, shape, scale):
    """Random data with about a quarter of the entries set to +0.0 or -0.0,
    and, when a row has two or more coordinates, all of the first one: a
    zero result keeps its sign only while every term is a zero, and a
    product taken in complex arithmetic (x*f - y*0) flips it where the
    neighbouring coordinate y is negative."""
    data = scale * rng.normal(size=shape)
    zeros = rng.random(size=shape) < 0.25
    if len(shape) > 1 and math.prod(shape[1:]) > 1:
        zeros.reshape(shape[0], -1)[:, 0] = True
    data[zeros] = np.copysign(0.0, rng.normal(size=shape))[zeros]
    return data


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(
        np.ascontiguousarray(a).view(np.int64), np.ascontiguousarray(b).view(np.int64))


@pytest.mark.parametrize("w", [0.0, 1e-9, 0.8731, math.pi])
@pytest.mark.parametrize("periodic", [False, True])
@pytest.mark.parametrize("tail", [(), (1,), (2,), (3,), (2, 2), (0,)])
def test_lane_kernels_are_bitwise_the_column_kernels(monkeypatch, tail, periodic, w):
    freq = Frequency(w)
    # the real block size runs each level here in one block; blocks of 1, 2
    # and 5 spans give full, partial and wrap blocks at every level
    for block in (subdivision._BLOCK, 1, 2, 5):
        monkeypatch.setattr(subdivision, "_BLOCK", block)
        rng = np.random.default_rng([len(tail), sum(tail), periodic, int(w * 1e4)])
        _check_lane_kernels(freq, tail, periodic, rng, block)


def _check_lane_kernels(freq, tail, periodic, rng, block):
    for n in ((1, 2, 6, 9) if periodic else (2, 3, 7)):
        scale = 10.0 ** rng.uniform(-3, 3)
        values = _salted(rng, (n,) + tail, scale)
        derivs = _salted(rng, (n,) + tail, scale)
        # values and derivatives in different layouts, so that a lane type
        # that followed the layout would pair complex with float lanes
        for (name, v), (_, d) in zip(_layouts(values), [*_layouts(derivs)][::-1]):
            data = HermiteData(v, d, periodic)
            lane = column = data
            for j in range(3):
                rule = masks(freq, j)
                lane, column = refine_step(lane, rule), column_refine_step(column, rule)
                assert _same_bits(lane.values, column.values), (block, name, n, j)
                assert _same_bits(lane.derivs, column.derivs), (block, name, n, j)
            lane = hermite_to_scalar(freq, 0, data)
            column = column_hermite_to_scalar(freq, 0, data)
            assert _same_bits(lane.points, column.points), (block, name, n)
            for j in range(3):
                lane = scalar_refine_step(lane, freq)
                column = column_scalar_refine_step(column, freq)
                assert _same_bits(lane.points, column.points), (block, name, n, j)
            for pts in _layouts(lane.points):
                ctrl = ScalarControl(pts[1], lane.level, periodic)
                back = scalar_to_hermite(freq, ctrl)
                expected = column_scalar_to_hermite(freq, ctrl)
                assert _same_bits(back.values, expected.values), (block, pts[0], n)
                assert _same_bits(back.derivs, expected.derivs), (block, pts[0], n)
