"""Closed periodic curves: interpolation, circle encoding, affine maps,
reproduction, and the fourth-order accuracy of the representation."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exphermite import (
    ClosedHermiteCurve,
    DomainError,
    Frequency,
    HermiteData,
    reproduction_check,
    reproduction_errors,
    spline_eval,
    subdivide,
    unit_circle,
)
from exphermite.basis import spline_grid


def test_eval_interpolates_control_data():
    curve = unit_circle(8)
    for n in range(8):
        point, tangent = curve.eval(float(n))
        assert np.array_equal(point, curve.points[n])
        assert np.array_equal(tangent, curve.tangents[n])


def test_unit_circle_m4_axis_points():
    curve = unit_circle(4)
    expected = np.array([[1, 0], [0, 1], [-1, 0], [0, -1]], dtype=float)
    assert np.abs(curve.points - expected).max() < 1e-15
    assert np.linalg.norm(curve.tangents, axis=1) == pytest.approx(
        [math.pi / 2] * 4, abs=1e-14
    )


def test_unit_circle_dense_radius():
    curve = unit_circle(8)
    ts = np.linspace(0.0, 8.0, 1000, endpoint=False)
    radii = [np.linalg.norm(curve.eval(float(t))[0]) for t in ts]
    assert max(abs(r - 1.0) for r in radii) < 1e-10


def test_unit_circle_midpoint():
    point, _ = unit_circle(8).eval(0.5)
    assert abs(np.linalg.norm(point) - 1.0) < 1e-10


def test_closure_is_exact():
    curve = unit_circle(5)
    p0, t0 = curve.eval(0.0)
    p1, t1 = curve.eval(5.0)
    assert np.array_equal(p0, p1)
    assert np.array_equal(t0, t1)


def test_cusp_data_stays_continuous():
    curve = unit_circle(8)
    tangents = curve.tangents.copy()
    tangents[0] = 0.0
    cusp = ClosedHermiteCurve(curve.points, tangents)
    _, tangent = cusp.eval(0.0)
    assert np.linalg.norm(tangent) == 0.0
    # approach the node from both sides: positions converge to the node
    for eps in (1e-3, 1e-5, 1e-7):
        left, _ = cusp.eval(8.0 - eps)
        right, _ = cusp.eval(eps)
        assert np.linalg.norm(left - curve.points[0]) < 1e-2
        assert np.linalg.norm(right - curve.points[0]) < 1e-2
    near, _ = cusp.eval(1e-9)
    assert np.linalg.norm(near - curve.points[0]) < 1e-8


def test_affine_identity():
    curve = unit_circle(6)
    same = curve.affine(np.eye(2), np.zeros(2))
    assert np.array_equal(same.points, curve.points)
    assert np.array_equal(same.tangents, curve.tangents)


def test_affine_translation_shifts_exactly():
    curve = unit_circle(6)
    shift = np.array([3.25, -1.5])
    moved = curve.affine(np.eye(2), shift)
    for t in np.linspace(0.0, 6.0, 60, endpoint=False):
        a, _ = curve.eval(float(t))
        b, _ = moved.eval(float(t))
        assert np.abs(b - (a + shift)).max() < 1e-12


def test_affine_scaling_gives_ellipse():
    curve = unit_circle(8).affine(np.diag([2.0, 1.0]), np.zeros(2))
    for t in np.linspace(0.0, 8.0, 500, endpoint=False):
        x, y = curve.eval(float(t))[0]
        assert abs((x / 2.0) ** 2 + y**2 - 1.0) < 1e-9


@settings(max_examples=50, deadline=None)
@given(
    entries=st.lists(st.floats(-2.0, 2.0), min_size=6, max_size=6),
    t=st.floats(0.0, 6.0),
)
def test_affine_commutes_with_eval(entries, t):
    curve = unit_circle(6)
    A = np.array(entries[:4]).reshape(2, 2)
    b = np.array(entries[4:])
    mapped = curve.affine(A, b)
    direct, dtan = mapped.eval(t)
    point, tangent = curve.eval(t)
    assert np.abs(direct - (A @ point + b)).max() < 1e-11
    assert np.abs(dtan - A @ tangent).max() < 1e-11


def test_affine_singular_matrix_degenerates():
    A = np.array([[1.0, 2.0], [0.5, 1.0]])  # rank one
    curve = unit_circle(8).affine(A, np.zeros(2))
    direction = np.array([1.0, 0.5]) / np.linalg.norm([1.0, 0.5])
    for t in np.linspace(0.0, 8.0, 100, endpoint=False):
        point, _ = curve.eval(float(t))
        off_axis = point - (point @ direction) * direction
        assert np.linalg.norm(off_axis) < 1e-11


@pytest.mark.parametrize("target", ["const", "linear", "cos", "sin"])
def test_reproduction_targets(target):
    assert reproduction_check(Frequency(3 * math.pi / 4), target) < 1e-12


def reproduction_error_one_target(freq, f, df):
    """The per-target loop that the batched check replaced: one 1-D
    HermiteData and one evaluation per target."""
    w = freq.omega0
    ns = np.arange(-10.0, 11.0)
    xs = np.linspace(-8.0, 8.0, 1601)
    value, _ = spline_eval(freq, HermiteData(f(w, ns), df(w, ns)), xs + 10.0)
    return float(np.max(np.abs(value - f(w, xs))))


def test_batched_reproduction_matches_one_target_at_a_time():
    targets = {
        "const": (lambda w, x: np.ones_like(x), lambda w, x: np.zeros_like(x)),
        "linear": (lambda w, x: x, lambda w, x: np.ones_like(x)),
        "cos": (lambda w, x: np.cos(w * x), lambda w, x: -w * np.sin(w * x)),
        "sin": (lambda w, x: np.sin(w * x), lambda w, x: w * np.cos(w * x)),
    }
    for w0 in (0.0, 1e-5, 1.0, math.pi):
        freq = Frequency(w0)
        errors = reproduction_errors(freq, list(targets))
        assert all(type(err) is float for err in errors)
        # the maxima are exact, so the columns give the same bits as alone
        assert errors == [reproduction_error_one_target(freq, *pair)
                          for pair in targets.values()]
        assert errors[1:3] == reproduction_errors(freq, ("linear", "cos"))


def test_values_only_reproduction_is_the_spline_eval_sup_error_bitwise():
    # reproduction_errors forms no derivatives; spline_eval, which does, is
    # the oracle for every bit of the maxima
    targets = {
        "const": (lambda w, x: np.ones_like(x), lambda w, x: np.zeros_like(x)),
        "linear": (lambda w, x: x, lambda w, x: np.ones_like(x)),
        "cos": (lambda w, x: np.cos(w * x), lambda w, x: -w * np.sin(w * x)),
        "sin": (lambda w, x: np.sin(w * x), lambda w, x: w * np.cos(w * x)),
    }
    rng = np.random.default_rng(24)
    omegas = [0.0, 5e-324, 1e-7, 1e-5, 0.7, 3 * math.pi / 4, math.pi,
              *np.exp(rng.uniform(math.log(1e-7), math.log(math.pi), 12))]
    for w0 in omegas:
        freq = Frequency(float(w0))
        got = reproduction_errors(freq, list(targets))
        want = [reproduction_error_one_target(freq, *pair)
                for pair in targets.values()]
        assert np.array_equal(np.array(got).view(np.uint64),
                              np.array(want).view(np.uint64)), w0


def test_reproduction_rejects_unknown_target():
    with pytest.raises(ValueError):
        reproduction_check(Frequency(1.0), "tan")
    with pytest.raises(ValueError):
        reproduction_errors(Frequency(1.0), ("const", "tan"))


def test_minimum_period():
    pts = np.zeros((2, 2))
    with pytest.raises(DomainError):
        ClosedHermiteCurve(pts, pts)
    with pytest.raises(DomainError):
        unit_circle(2)


@pytest.mark.parametrize("period", [2, 3.5, 8.0, True, "8", np.int64(8)], ids=repr)
def test_unit_circle_period_must_be_an_int(period):
    # 3.5 would give 4 points at multiples of 2 pi / 3.5, which with the
    # curve's frequency 2 pi / 4 is no circle
    with pytest.raises(DomainError, match="period must be an int >= 3"):
        unit_circle(period)


def test_circle_survives_subdivision():
    curve = unit_circle(8)
    refined = subdivide(curve.freq, curve.to_hermite_data(), 5)
    assert np.abs(np.linalg.norm(refined.values, axis=1) - 1.0).max() < 1e-9


def interpolation_error(h: float, w0: float = 1.0) -> float:
    """Sup interpolation error for f = sin(2x) sampled with step h on [0, 4]."""
    f = Frequency(w0)
    scaled = Frequency(h * w0)
    n_nodes = int(round(4.0 / h)) + 1
    xs = h * np.arange(n_nodes)
    # representing on the h-grid means feeding h-scaled slopes to the
    # unit-grid evaluator
    data = HermiteData(np.sin(2 * xs), 2 * h * np.cos(2 * xs))
    worst = 0.0
    for x in np.linspace(0.25, 3.75, 701):
        value, _ = spline_eval(scaled, data, float(x) / h)
        worst = max(worst, abs(float(value) - math.sin(2 * x)))
    return worst


def test_fourth_order_accuracy():
    e4 = interpolation_error(0.25)
    e8 = interpolation_error(0.125)
    e16 = interpolation_error(0.0625)
    assert 12.0 < e4 / e8 < 20.0
    assert 12.0 < e8 / e16 < 20.0


def random_curve(rng, m, scale):
    """Control data uniform in (-0.4, 0.4) * scale, so that no jump between
    neighbours overflows even at scale 1e308."""
    return ClosedHermiteCurve(scale * rng.uniform(-0.4, 0.4, (m, 2)),
                              scale * rng.uniform(-0.4, 0.4, (m, 2)))


GRID_SCALES = [1e-300, 1e-150, 1.0, 1e150, 1e308]


@pytest.mark.parametrize("samples", [1, 2, 16, 64, 256])
def test_sample_is_spline_eval_at_power_of_two_fractions(samples):
    # n + k/S is fl((nS + k)/S) for a power-of-two S, so every bit agrees
    rng = np.random.default_rng(samples)
    for _ in range(12):
        m = int(rng.integers(3, 65))
        scale = float(rng.choice(GRID_SCALES)) * 10.0 ** rng.uniform(-3, 0)
        curve = random_curve(rng, m, scale)
        expected, _ = spline_eval(curve.freq, curve.to_hermite_data(),
                                  np.arange(m * samples) / samples)
        got = curve.sample(samples)
        assert got.shape == (m * samples, 2)
        assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("samples", [1, 4, 32])
def test_grid_on_open_and_scalar_data(samples):
    # open data have the spans 0..L-2; scalar data keep the point shape ()
    rng = np.random.default_rng(7)
    freq = Frequency(0.9)
    for shape, periodic in [((6,), False), ((6,), True), ((6, 3), False)]:
        data = HermiteData(rng.normal(size=shape), rng.normal(size=shape),
                           periodic=periodic)
        spans = 6 if periodic else 5
        expected, _ = spline_eval(freq, data, np.arange(spans * samples) / samples)
        got = spline_grid(freq, data, samples)
        assert got.shape == (spans * samples,) + shape[1:]
        assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("period", [3, 5, 8, 17])
def test_eval_at_a_float_is_the_lane_of_the_array_call(period):
    # a float runs the float kernels and Python's %; each result must be
    # the bits of its lane in the array call, and an array, never a scalar
    rng = np.random.default_rng(period)
    curve = unit_circle(period).affine(rng.normal(size=(2, 2)), rng.normal(size=2))
    ts = [0.0, -0.0, 0.5, 1.0, float(period), float(period) - 2.0 ** -50,
          -1e-20, -3.25, 5e-324, 2.0 ** 60 + 2.0 ** 10, 1e6 + 0.1,
          *rng.uniform(-4 * period, 4 * period, 200).tolist()]
    points, tangents = curve.eval(np.array(ts))
    for i, t in enumerate(ts):
        point, tangent = curve.eval(t)
        for got, lane in ((point, points[i]), (tangent, tangents[i])):
            assert type(got) is np.ndarray and got.shape == (2,)
            assert np.array_equal(got.view(np.uint64), lane.view(np.uint64)), t


@pytest.mark.parametrize("period", [3, 5, 8])
def test_huge_periodic_parameters_wrap_before_the_index_cast(period):
    # floor(x) at or above 2^63 does not fit an intp, so the sample index is
    # wrapped while it is still a float; open data are checked the same way
    curve = unit_circle(period)
    data = curve.to_hermite_data()
    for x in (2.0 ** 63, 1e300, -1e300):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = spline_eval(curve.freq, data, np.array([x]))
        expected = spline_eval(curve.freq, data, np.array([np.mod(x, period)]))
        for a, b in zip(got, expected):
            assert a.tobytes() == b.tobytes(), x
    open_data = HermiteData(data.values, data.derivs)
    with pytest.raises(IndexError, match="sample index 1.0000000000000001e"):
        spline_eval(curve.freq, open_data, np.array([1e300]))


WRAP_POINTS = np.array([
    0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 2.25, -2.25, 7.999999999999999, -1e-300,
    2.0 ** 52 + 0.5, -(2.0 ** 52) - 0.5, 2.0 ** 53 - 1, 2.0 ** 53, 2.0 ** 53 + 2,
    -(2.0 ** 53), -(2.0 ** 53) + 1, 2.0 ** 63, -(2.0 ** 63), 1e300, -1e300,
    *np.random.default_rng(0).uniform(-1e3, 1e3, 200)])


@pytest.mark.parametrize("period", [3, 5, 8])
def test_periodic_span_indices_wrap_once_and_equal_two_wraps(period):
    # the index of ceil(x) steps from that of floor(x); from 2^53 on the two
    # are the same float, and both wraps must agree bitwise there as well
    data = unit_circle(period).to_hermite_data()
    n0, n1 = np.floor(WRAP_POINTS), np.ceil(WRAP_POINTS)
    i0, i1 = data.span_indices(n0, n1)
    assert i0.dtype == i1.dtype == np.intp
    assert np.array_equal(i0, np.mod(n0, period).astype(np.intp))
    assert np.array_equal(i1, np.mod(n1, period).astype(np.intp))
    for x in WRAP_POINTS[:21]:
        one = data.span_indices(np.floor(np.asarray(x)), np.ceil(np.asarray(x)))
        assert [int(i) for i in one] == [int(np.mod(np.floor(x), period)),
                                         int(np.mod(np.ceil(x), period))], x


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_eval_refuses_a_non_finite_float(t):
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="finite"):
        unit_circle(5).eval(t)
