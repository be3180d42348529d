"""Dyadic vector Hermite refinement, general two-scale masks, and the
derived scalar four-point scheme."""

import math
import tracemalloc
from enum import IntEnum

import mpmath as mp
import numpy as np
import pytest

from exphermite import (
    MAX_NODES,
    DomainError,
    Frequency,
    HermiteData,
    ScalarControl,
    hermite_to_bezier,
    hermite_to_scalar,
    masks,
    refine_step,
    scalar_refine_step,
    scalar_to_hermite,
    spline_eval,
    subdivide,
    unit_circle,
)
from exphermite.subdivision import (
    _BLOCK,
    MAX_LEVEL,
    _handle_offset,
    check_node_budget,
)
from column_kernels import _insert
from rescaled import phi_rescaled, phi_rescaled_deriv
from rule2x2 import hm1, hp1

EPS = float(np.finfo(float).eps)
MERRIEN_MINUS = np.array([[0.5, -0.125], [1.5, -0.25]])


def mask_oracle_mp(w0: float, j: int) -> np.ndarray:
    """50-digit evaluation of the closed-form left insertion matrix."""
    with mp.workdps(50):
        h = mp.mpf(2) ** (-j)
        w = mp.mpf(w0) * h
        s = 2 * mp.sin(w / 2) - w * mp.cos(w / 2)
        return np.array(
            [
                [0.5, float(-mp.tan(w / 4) / (2 * w) * h)],
                [
                    float(2 * w * mp.sin(w / 4) ** 2 / s / h),
                    float((2 * mp.sin(w / 2) - w) / (2 * s)),
                ],
            ]
        )


# frozen from mask_oracle_mp(pi/2, 0)
H0_MINUS_HALF_PI = np.array(
    [[0.5, -0.13184827189476236], [1.5159356336015395, -0.25796781680076976]]
)


def rescaled_similarity(mat: np.ndarray, j: int) -> np.ndarray:
    h = 2.0 ** (-j)
    return mat * np.array([[1.0, 1.0 / h], [h, 1.0]])


def test_mask_closed_form_against_oracle():
    mat = hm1(masks(Frequency(math.pi / 2), 0))
    assert np.abs(mat - mask_oracle_mp(math.pi / 2, 0)).max() < 1e-14
    assert np.abs(mat - H0_MINUS_HALF_PI).max() < 1e-14


def test_mask_merrien_limit_at_deep_level():
    mat = hm1(masks(Frequency(3 * math.pi / 4), 16))
    dist = np.abs(rescaled_similarity(mat, 16) - MERRIEN_MINUS).max()
    assert dist < 1e-3


def test_mask_merrien_limit_monotone():
    w0 = 3 * math.pi / 4
    dists = []
    for j in range(4, 13):
        mat = hm1(masks(Frequency(w0), j))
        dists.append(np.abs(rescaled_similarity(mat, j) - MERRIEN_MINUS).max())
    assert all(b < a for a, b in zip(dists, dists[1:]))


def test_rule_is_three_python_floats():
    for w0 in (0.0, 1e-300, 1.3, math.pi):
        rule = masks(Frequency(w0), 3)
        assert type(rule) is tuple and [type(x) for x in rule] == [float] * 3


def test_deepest_level_rule_is_finite():
    # 2^-1022 is the smallest normal double; bot ~ 1.5 * 2^1022 still fits
    for w0 in (0.0, 1.0, math.pi):
        rule = masks(Frequency(w0), MAX_LEVEL)
        assert MAX_LEVEL == 1022 and all(math.isfinite(x) for x in rule)
        assert rule[1] * 2.0**-MAX_LEVEL == pytest.approx(1.5)
    assert math.isfinite(_handle_offset(Frequency(1.0), MAX_LEVEL))


@pytest.mark.parametrize("level, error", [
    (MAX_LEVEL + 1, DomainError),  # 2^-j is subnormal from here on
    (1074, DomainError),  # bot was inf
    (1075, DomainError),  # 2^-j was 0, and masks divided by it
    (1.5, ValueError),
    (1.0, ValueError),
    (True, ValueError),
    (-1, ValueError),
    (-3, ValueError),
    ("3", ValueError),
    (IntEnum("Level", [("TWO", 2)]).TWO, ValueError),  # an int subclass
    (np.int64(2), ValueError),
])
def test_levels_are_validated(level, error):
    f = Frequency(1.0)
    data = HermiteData(np.arange(3.0), np.ones(3))
    with pytest.raises(error, match="level"):
        masks(f, level)
    with pytest.raises(error, match="level"):
        hermite_to_scalar(f, level, data)
    with pytest.raises(error, match="level") as info:
        subdivide(f, data, level)
    assert type(info.value) is error
    # refused where it enters, so scalar_to_hermite never sees it
    with pytest.raises(error, match="level") as info:
        ScalarControl(np.arange(6.0), level)
    assert type(info.value) is error


def test_broadcast_insert_equals_one_call_per_rule():
    # verify's masks suite ran [function, level] through one broadcast call
    # of the column oracle; it now runs refine_step per level on two nodes
    # with the functions as columns, which must give the same bits
    f = Frequency(2.0)
    rules = [masks(f, j) for j in (0, 5, 16)]
    v0, d0, v1, d1 = np.random.default_rng(3).normal(size=(4, 4, 3))
    mid_v, mid_d = _insert(np.array(rules).T, v0, d0, v1, d1)
    for k, rule in enumerate(rules):
        one_v, one_d = _insert(rule, v0[:, k], d0[:, k], v1[:, k], d1[:, k])
        assert np.array_equal(mid_v[:, k].view(np.uint64), one_v.view(np.uint64))
        assert np.array_equal(mid_d[:, k].view(np.uint64), one_d.view(np.uint64))
        step = refine_step(HermiteData(np.stack([v0[:, k], v1[:, k]]),
                                       np.stack([d0[:, k], d1[:, k]])), rule)
        assert np.array_equal(step.values[1].view(np.uint64), one_v.view(np.uint64))
        assert np.array_equal(step.derivs[1].view(np.uint64), one_d.view(np.uint64))


def test_refine_even_slots_are_bitwise_copies():
    rng = np.random.default_rng(0)
    data = HermiteData(rng.normal(size=6), rng.normal(size=6))
    out = refine_step(data, masks(Frequency(1.1), 0))
    assert np.array_equal(out.values[0::2], data.values)
    assert np.array_equal(out.derivs[0::2], data.derivs)
    assert len(out) == 11


def test_refine_reproduces_cosine_at_midpoints():
    w0 = 1.3
    f = Frequency(w0)
    ns = np.arange(6).astype(float)
    data = HermiteData(np.cos(w0 * ns), -w0 * np.sin(w0 * ns))
    out = refine_step(data, masks(f, 0))
    mids = ns[:-1] + 0.5
    assert np.abs(out.values[1::2] - np.cos(w0 * mids)).max() < 1e-12
    assert np.abs(out.derivs[1::2] + w0 * np.sin(w0 * mids)).max() < 1e-12


def test_refine_reproduces_linear_data():
    f = Frequency(2.0)
    ns = np.arange(5).astype(float)
    data = HermiteData(ns, np.ones(5))
    out = refine_step(data, masks(f, 0))
    assert np.abs(out.values[1::2] - (ns[:-1] + 0.5)).max() < 1e-13
    assert np.abs(out.derivs[1::2] - 1.0).max() < 1e-13


def test_refine_needs_two_samples():
    data = HermiteData(np.array([1.0]), np.array([0.0]))
    with pytest.raises(ValueError):
        refine_step(data, masks(Frequency(1.0), 0))


def test_subdivide_zero_levels_is_identity():
    rng = np.random.default_rng(2)
    data = HermiteData(rng.normal(size=4), rng.normal(size=4))
    out = subdivide(Frequency(1.0), data, 0)
    assert np.array_equal(out.values, data.values)
    assert np.array_equal(out.derivs, data.derivs)


def test_subdivide_matches_direct_evaluation():
    rng = np.random.default_rng(7)
    f = Frequency(2.2)
    data = HermiteData(rng.normal(size=5), rng.normal(size=5))
    levels = 6
    out = subdivide(f, data, levels)
    step = 2.0 ** (-levels)
    for n in range(len(out)):
        value, deriv = spline_eval(f, data, n * step)
        assert abs(float(value) - out.values[n]) < 1e-10
        assert abs(float(deriv) - out.derivs[n]) < 1e-10


def test_subdivide_interpolatory_striding():
    rng = np.random.default_rng(8)
    f = Frequency(1.4)
    data = HermiteData(rng.normal(size=4), rng.normal(size=4))
    levels = [subdivide(f, data, j) for j in range(4)]
    for j, level in enumerate(levels[:-1]):
        stride = 2 ** (3 - j)
        assert np.array_equal(levels[3].values[::stride], level.values)
        assert np.array_equal(levels[3].derivs[::stride], level.derivs)


def test_subdivide_circle_stays_on_circle_each_level():
    curve = unit_circle(8)
    data = curve.to_hermite_data()
    for j in range(5):
        data = refine_step(data, masks(curve.freq, j))
        radii = np.linalg.norm(data.values, axis=1)
        assert np.abs(radii - 1.0).max() < 1e-10
    assert len(data) == 8 * 2**5


def test_subdivide_error_model_on_ellipse():
    # values stay within a few eps; the derivative error grows like
    # c eps 2^L with c < 3 (about 2.3 here at L = 12)
    eps = np.finfo(float).eps
    theta = 0.3
    mat = np.array([[math.cos(theta), -math.sin(theta)],
                    [math.sin(theta), math.cos(theta)]]) @ np.diag([2.0, 1.0])
    center = np.array([0.25, -0.5])
    curve = unit_circle(8).affine(mat, center)
    w = curve.freq.omega0
    for levels in (4, 8, 12):
        out = subdivide(curve.freq, curve.to_hermite_data(), levels)
        t = np.arange(len(out)) * 2.0 ** (-levels)
        exact = np.column_stack([np.cos(w * t), np.sin(w * t)]) @ mat.T + center
        slope = w * np.column_stack([-np.sin(w * t), np.cos(w * t)]) @ mat.T
        value_err = np.linalg.norm(out.values - exact, axis=1).max() / 2.0
        deriv_err = (np.linalg.norm(out.derivs - slope, axis=1)
                     / np.linalg.norm(slope, axis=1)).max()
        assert value_err < 8 * eps
        assert deriv_err < 3 * eps * 2.0**levels


def test_node_cap_boundary():
    # 8 periodic nodes reach 2^24 = MAX_NODES at 21 levels; 5 open nodes
    # give 4 * 2^22 + 1 = 2^24 + 1 at 22 levels
    check_node_budget(8, True, 21)
    with pytest.raises(DomainError):
        check_node_budget(8, True, 22)
    check_node_budget(5, False, 21)
    with pytest.raises(DomainError):
        check_node_budget(5, False, 22)
    assert MAX_NODES == 2**24


def test_derivative_consistency_across_levels():
    # forward difference quotients approach the derivative samples at a
    # first-order rate, so the discrepancy roughly halves per level
    f = Frequency(1.0)
    ns = np.arange(5).astype(float)
    data = HermiteData(np.sin(ns), np.cos(ns))
    gaps = []
    for levels in (3, 4, 5, 6):
        out = subdivide(f, data, levels)
        h = 2.0 ** (-levels)
        quotients = np.diff(out.values) / h
        gaps.append(np.abs(quotients - out.derivs[:-1]).max())
    for a, b in zip(gaps, gaps[1:]):
        assert 1.7 < a / b < 2.3


def refinement_mask_general(freq, h, m, n):
    """Two-scale matrix relating the grid-h generators to the grid-h/m ones:

        [[phi1^h(n h/m),   (phi1^h)'(n h/m)],
         [phi2^h(n h/m),   (phi2^h)'(n h/m)]]

    Zero for |n| >= m by the support of the generators; the m = 2 case is
    the transpose of the closed-form insertion masks, which makes it their
    oracle here.
    """
    x = n * h / m
    return np.array(
        [
            [phi_rescaled(freq, h, 1, x), phi_rescaled_deriv(freq, h, 1, x)],
            [phi_rescaled(freq, h, 2, x), phi_rescaled_deriv(freq, h, 2, x)],
        ]
    )


def test_general_mask_center_is_identity():
    mat = refinement_mask_general(Frequency(1.3), 1.0, 2, 0)
    assert np.abs(mat - np.eye(2)).max() < 1e-13


def test_general_mask_matches_closed_form_for_dyadic():
    f = Frequency(1.3)
    for j in (0, 1, 3):
        h = 2.0 ** (-j)
        rule = masks(f, j)
        assert np.abs(refinement_mask_general(f, h, 2, 1).T - hp1(rule)).max() < 1e-12
        assert np.abs(refinement_mask_general(f, h, 2, -1).T - hm1(rule)).max() < 1e-12


def test_general_mask_vanishes_outside_support():
    f = Frequency(1.3)
    for m, n in ((2, 2), (2, -2), (3, 3), (5, -5)):
        assert np.array_equal(
            refinement_mask_general(f, 1.0, m, n), np.zeros((2, 2))
        )


def test_general_mask_two_scale_relation_ternary():
    # the coarse generators are exact combinations of fine-grid shifts
    # weighted by the sampled matrix, here checked for arity 3
    f = Frequency(0.9)
    h, m = 1.0, 3
    for x in (-0.7, -0.2, 0.33, 0.5, 0.85):
        for row, which in ((0, 1), (1, 2)):
            direct = phi_rescaled(f, h, which, x)
            total = 0.0
            for n in range(-m, m + 1):
                mask = refinement_mask_general(f, h, m, n)
                total += (
                    mask[row, 0] * phi_rescaled(f, h / m, 1, x - n * h / m)
                    + mask[row, 1] * phi_rescaled(f, h / m, 2, x - n * h / m)
                )
            assert total == pytest.approx(direct, abs=1e-12)


def test_scalar_conversion_zero_derivative():
    data = HermiteData(np.array([3.3]), np.array([0.0]))
    p0, p1 = hermite_to_scalar(Frequency(1.0), 0, data).points
    assert p0 == p1 == 3.3


def test_scalar_conversion_round_trip():
    rng = np.random.default_rng(12)
    f = Frequency(2.0)
    for j in (0, 1, 4):
        values, derivs = rng.normal(size=(2, 25))
        ctrl = hermite_to_scalar(f, j, HermiteData(values, derivs))
        back = scalar_to_hermite(f, ctrl)
        assert back.values == pytest.approx(values, abs=1e-13)
        assert back.derivs == pytest.approx(derivs, abs=1e-13)


def test_scalar_conversion_small_frequency_offset():
    data = HermiteData(np.array([0.0]), np.array([1.0]))
    p0, p1 = hermite_to_scalar(Frequency(1e-6), 0, data).points
    assert p1 == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert p0 == pytest.approx(-1.0 / 3.0, abs=1e-9)


def test_scalar_refine_commutes_with_vector_refine():
    rng = np.random.default_rng(21)
    f = Frequency(2.0)
    data = HermiteData(rng.normal(size=6), rng.normal(size=6))
    ctrl = hermite_to_scalar(f, 0, data)
    for step in range(3):
        data = refine_step(data, masks(f, step))
        ctrl = scalar_refine_step(ctrl, f)
        expected = hermite_to_scalar(f, step + 1, data)
        assert np.abs(ctrl.points - expected.points).max() < 1e-11
    back = scalar_to_hermite(f, ctrl)
    assert np.abs(back.values - data.values).max() < 1e-11


def assignment_form_scalar_step(pts, f):
    """scalar_refine_step with each slot group assigned from temporaries,
    the form that the out= writes replaced; kept as their oracle."""
    j = pts.level
    top, bot, diag = masks(f, j)
    offset, next_offset = _handle_offset(f, j), _handle_offset(f, j + 1)
    rule = (top / next_offset, bot * next_offset, diag)
    half_ratio = 0.5 * next_offset / offset
    cols = pts.points.reshape(len(pts.points), -1).T
    n = len(pts.points) // 2
    spans = n if pts.periodic else n - 1
    out = np.empty((4 * spans + 2 * (n - spans), cols.shape[0]))
    for p, o in zip(cols, out.T):
        a, b = p[0::2], p[1::2]
        mean, half = 0.5 * (a + b), half_ratio * (b - a)
        o[0::4], o[1::4] = mean - half, mean + half
        nxt = np.roll(np.arange(n), -1)[:spans]
        mid_m, mid_half = _insert(rule, mean[:spans], half[:spans], mean[nxt], half[nxt])
        o[2::4], o[3::4] = mid_m - mid_half, mid_m + mid_half
    return out.reshape((len(out),) + pts.points.shape[1:])


@pytest.mark.parametrize("periodic", [False, True])
@pytest.mark.parametrize("shape", [(7,), (7, 2), (5, 3)])
def test_scalar_step_out_writes_are_bitwise_the_assignment_form(periodic, shape):
    rng = np.random.default_rng(17)
    for w in (0.0, 1e-5, 2.0, math.pi):
        f = Frequency(w)
        ctrl = hermite_to_scalar(f, 0, HermiteData(rng.normal(size=shape),
                                                   rng.normal(size=shape), periodic))
        for _ in range(4):
            expected = assignment_form_scalar_step(ctrl, f)
            ctrl = scalar_refine_step(ctrl, f)
            assert ctrl.points.shape == expected.shape
            assert np.array_equal(ctrl.points.view(np.int64), expected.view(np.int64))


def _traced_peak(call):
    """(call(), the traced peak of the call above the memory traced
    before it); numpy reports its array buffers to tracemalloc."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = call()
        return out, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("periodic", [True, False])
def test_each_steps_scratch_is_block_sized(periodic):
    # beyond its output, each step holds at most four lanes of
    # min(spans, _BLOCK) + 1 complex entries: refine_step's two scratch
    # lanes and its wrap-block copies of v and d, scalar_refine_step's means,
    # half-differences and the kernel's two lanes; 8 KB of slack covers the
    # Python objects of the views, lists and rule (about 4 KB measured)
    rng = np.random.default_rng(3)
    f = Frequency(1.0)
    for n in (_BLOCK, 3 * _BLOCK + 5):
        spans = n if periodic else n - 1
        budget = 4 * (min(spans, _BLOCK) + 1) * 16 + 8192
        data = HermiteData(rng.normal(size=(n, 2)), rng.normal(size=(n, 2)), periodic)
        ctrl = hermite_to_scalar(f, 0, data)
        rule = masks(f, 0)
        out, peak = _traced_peak(lambda: refine_step(data, rule))
        assert peak - out.values.nbytes - out.derivs.nbytes <= budget
        out, peak = _traced_peak(lambda: scalar_refine_step(ctrl, f))
        assert peak - out.points.nbytes <= budget


def test_scalar_refine_keeps_constants():
    for w in (0.0, 1e-5, 1.5, math.pi):
        for points in (np.full(10, 2.5), np.tile([2.5, -0.75], (10, 1))):
            ctrl = ScalarControl(points, level=0)
            out = scalar_refine_step(ctrl, Frequency(w))
            assert out.points.shape == (18,) + points.shape[1:]
            assert np.abs(out.points - points[0]).max() < 1e-13
            assert out.level == 1


def test_scalar_refine_rejects_edge_inputs():
    # one non-periodic node has no span: the vector step's error
    with pytest.raises(ValueError, match="at least two non-periodic samples"):
        scalar_refine_step(ScalarControl(np.array([0.5, 1.5]), level=0),
                           Frequency(1.0))
    for periodic in (False, True):
        with pytest.raises(ValueError, match="at least one node"):
            ScalarControl(np.empty(0), level=0, periodic=periodic)
    # one periodic node refines to two, as the vector step does
    out = scalar_refine_step(ScalarControl(np.array([0.5, 1.5]), level=0,
                                           periodic=True), Frequency(1.0))
    assert out.node_count() == 2


def test_zero_dimensional_samples_raise_value_error():
    with pytest.raises(ValueError, match="index axis"):
        HermiteData(1.0, 2.0)
    with pytest.raises(ValueError, match="index axis"):
        ScalarControl(1.0, 0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["values", "derivs"])
def test_non_finite_samples_refused_before_allocation(monkeypatch, bad, field):
    curve = unit_circle(4)
    parts = {"values": curve.points.copy(), "derivs": curve.tangents.copy()}
    parts[field][2, 1] = bad
    data = HermiteData(parts["values"], parts["derivs"], periodic=True)

    def refuse(*args, **kwargs):
        raise AssertionError("allocated before refusing non-finite samples")
    monkeypatch.setattr(np, "empty", refuse)
    with pytest.raises(DomainError, match="finite"):
        subdivide(curve.freq, data, 3)
    with pytest.raises(DomainError, match="finite"):
        hermite_to_scalar(curve.freq, 0, data)


def _de_casteljau_midpoint(p0, p1, p2, p3):
    """Inner control points of the two halves of a cubic Bezier segment:
    (p0+p1)/2, (p0+2p1+p2)/4 | (p1+2p2+p3)/4, (p2+p3)/2."""
    return ((p0 + p1) / 2, (p0 + 2 * p1 + p2) / 4,
            (p1 + 2 * p2 + p3) / 4, (p2 + p3) / 2)


@pytest.mark.parametrize("dim", [None, 2])
@pytest.mark.parametrize("periodic", [False, True])
def test_scalar_step_at_zero_frequency_splits_cubic_spans(dim, periodic):
    # at w = 0 the level-j polygon is the cubic Bezier form of the spline:
    # span k has control points (v_k, b_k, a_{k+1}, v_{k+1}) with the node
    # value v_k = (a_k + b_k)/2, and one step splits every span at its
    # midpoint by de Casteljau's rule; no conversion matrix is involved.
    # Measured worst case 0.6 eps of the polygon scale.
    rng = np.random.default_rng(31 + 2 * periodic + (dim or 0))
    f = Frequency(0.0)
    for j in (0, 1, 3):
        n = 7
        ctrl = ScalarControl(rng.normal(size=(2 * n,) + ((dim,) if dim else ())),
                             level=j, periodic=periodic)
        a, b = ctrl.points[0::2], ctrl.points[1::2]
        v = (a + b) / 2
        spans = n if periodic else n - 1
        out = scalar_refine_step(ctrl, f).points
        assert len(out) == 2 * (2 * spans + (not periodic))
        scale = np.abs(ctrl.points).max()
        for k in range(spans):
            k1 = (k + 1) % n
            split = _de_casteljau_midpoint(v[k], b[k], a[k1], v[k1])
            got = (out[4 * k + 1], out[4 * k + 2], out[4 * k + 3],
                   out[(4 * k + 4) % len(out)])
            for x, y in zip(got, split):
                assert np.abs(x - y).max() <= 4 * EPS * scale
        if not periodic:
            # the end handles halve towards their nodes
            assert np.abs(out[0] - (v[0] + a[0]) / 2).max() <= 4 * EPS * scale
            assert np.abs(out[-1] - (v[-1] + b[-1]) / 2).max() <= 4 * EPS * scale


# 4x the worst case measured over the 8 draws below, 5.9 eps
SCALAR_K = 24


def test_scalar_refine_error_model_at_depth():
    # the deepest refine benchmark template: an M = 4 ellipse to L = 16,
    # against the control polygon of the vector result; the gap is a few
    # eps of the level-0 control points, with no 2^L growth
    levels = 16
    for seed in range(8):
        rng = np.random.default_rng(seed)
        theta = rng.uniform(0.0, math.pi)
        rotation = np.array([[math.cos(theta), -math.sin(theta)],
                             [math.sin(theta), math.cos(theta)]])
        curve = unit_circle(4).affine(rotation @ np.diag(rng.uniform(0.2, 5.0, 2)),
                                      3.0 * rng.normal(size=2))
        f, data = curve.freq, curve.to_hermite_data()
        ctrl = hermite_to_scalar(f, 0, data)
        scale = np.abs(ctrl.points).max()
        for _ in range(levels):
            ctrl = scalar_refine_step(ctrl, f)
        expected = hermite_to_scalar(f, levels, subdivide(f, data, levels)).points
        assert np.abs(ctrl.points - expected).max() <= SCALAR_K * EPS * scale


def test_scalar_refine_circle_reconstructs_on_circle():
    curve = unit_circle(8)
    f = curve.freq
    ctrl = hermite_to_scalar(f, 0, curve.to_hermite_data())
    for _ in range(5):
        ctrl = scalar_refine_step(ctrl, f)
    level = ctrl.level
    h = 2.0 ** (-level)
    data = scalar_to_hermite(f, ctrl)
    # reconstruct each span through the Bezier form and check the radius
    worst = 0.0
    n = len(data)
    for k in range(n):
        seg = hermite_to_bezier(
            f,
            h,
            data.values[k],
            data.derivs[k],
            data.values[(k + 1) % n],
            data.derivs[(k + 1) % n],
        )
        for t in (0.2, 0.5, 0.8):
            worst = max(worst, abs(np.linalg.norm(seg.value(t)) - 1.0))
    assert worst < 1e-9


def test_scalar_round_trip_2d():
    curve = unit_circle(6)
    f = curve.freq
    ctrl = hermite_to_scalar(f, 0, curve.to_hermite_data())
    back = scalar_to_hermite(f, ctrl)
    assert np.abs(back.values - curve.points).max() < 1e-13
    assert np.abs(back.derivs - curve.tangents).max() < 1e-13
