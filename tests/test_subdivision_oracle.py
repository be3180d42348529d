"""The explicit 2x2 subdivision kernels against the generic einsum form
they replaced, kept here as a test-only oracle.

The kernels sum in a different order (and take the derivative row in
difference form), so agreement is within the error model, not bitwise:
values to a few eps of the data scale, derivatives to c eps 2^L relative to
the slope scale, scalar control points to 1e-11.
"""

import math

import numpy as np
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
)
from exphermite.subdivision import _handle_offset
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
