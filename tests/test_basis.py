"""Generator evaluation: oracle values, interpolation conditions, symmetry,
partition of unity, rescaling, and the cubic limit."""

import math
from enum import IntEnum

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exphermite import (
    DomainError,
    Frequency,
    HermiteData,
    make_generators,
    phi,
    phi_deriv,
    phi_pair,
    spline_eval,
)
from rescaled import phi_rescaled, phi_rescaled_deriv

OMEGA_GRID = [0.0, 0.01, 0.2, 0.5, 1.0, 2.0, 3 * math.pi / 4, 3.0, math.pi]


def complex_coefficient_oracle(w0: float, which: int):
    """High-precision coefficient quad from the complex closed forms,
    converted to the real basis {1, x, cos(w x), sin(w x)}."""
    with mp.workdps(60):
        w = mp.mpf(w0)
        E = mp.e ** (1j * w)
        q = E * (1j * w - 2) + 1j * w + 2
        if which == 1:
            a = (1j * w + 1 + E * (1j * w - 1)) / q
            b = -(1j * w * (E + 1)) / q
            c = 1 / q
            d = -E / q
        else:
            p = mp.e ** (2j * w) * (1j * w - 1) + 1j * w + 1
            a = p / (1j * w * (E - 1) * q)
            b = -(E - 1) / q
            c = (E - 1j * w - 1) / (1j * w * (E - 1) * q)
            d = -E * (E * (1j * w - 1) + 1) / (1j * w * (E - 1) * q)
        quad = (a, b, c + d, 1j * (c - d))
        assert max(abs(mp.im(v)) for v in quad) < mp.mpf("1e-40")
        return [float(mp.re(v)) for v in quad]


# frozen from the oracle above at w0 = pi/2
G1_QUAD_HALF_PI = (
    -1.3298961831627438,
    3.6597923663254877,
    2.3298961831627438,
    -2.3298961831627438,
)
# frozen from the same oracle: g2 piece of phi2 at w0 = 3pi/4, x = 0.5
PHI2_AT_HALF = 0.14179191079102154


def trig_quad(piece) -> tuple[float, float, float, float]:
    """(a, b, c, d) of a piece in the basis {1, x, cos(w x), sin(w x)}: the
    scaled coefficients are C = c w^2 and D = d w^3, and value0 = a + c,
    slope0 = b + d w."""
    w = piece.freq.omega0
    c, d = piece.C / w**2, piece.D / w**3
    return (piece.value0 - c, piece.slope0 - d * w, c, d)


def test_g1_quad_matches_complex_oracle():
    g1 = make_generators(Frequency(math.pi / 2)).g1
    quad = trig_quad(g1)
    oracle = complex_coefficient_oracle(math.pi / 2, 1)
    assert oracle == pytest.approx(G1_QUAD_HALF_PI, rel=1e-14)
    assert quad == pytest.approx(G1_QUAD_HALF_PI, rel=1e-12)


def test_g2_quad_matches_complex_oracle():
    g2 = make_generators(Frequency(1.0)).g2
    oracle = complex_coefficient_oracle(1.0, 2)
    assert trig_quad(g2) == pytest.approx(oracle, rel=1e-12)


def expanded_g2_closed_form(w: float, x: float) -> float:
    """Fully expanded trigonometric form of the second segment, kept as an
    independent cross-check oracle for the structural construction."""
    s = 2 * math.sin(w / 2) - w * math.cos(w / 2)
    t = 2 * math.sin(w / 2) + w * math.cos(w / 2)
    u = w * math.sin(w) - 2 * (1 - math.cos(w))
    v = 2 * math.sin(w) + w * (1 - math.cos(w))
    return (
        (math.sin(w) - w * math.cos(w)) / (w * u)
        + math.sin(w / 2) / s * x
        - (
            w**2 * math.cos(w / 2) * math.cos(w * (1 - x))
            + math.sin(w / 2)
            * (math.sin(w * x) * u - math.cos(w * x) * v)
        )
        / (2 * w * math.sin(w / 2) * s * t)
    )


@pytest.mark.parametrize("w0", [0.8, 1.0, 2.0, 3 * math.pi / 4, 2.9])
def test_g2_matches_expanded_closed_form(w0):
    g2 = make_generators(Frequency(w0)).g2
    for x in np.linspace(0.0, 1.0, 21):
        assert g2.value(float(x)) == pytest.approx(
            expanded_g2_closed_form(w0, float(x)), abs=1e-12
        )


@pytest.mark.parametrize("w0", OMEGA_GRID)
def test_boundary_conditions(w0):
    pair = make_generators(Frequency(w0))
    assert abs(pair.g1.value(0.0) - 1.0) < 1e-12
    assert abs(pair.dg1.value(0.0)) < 1e-12
    assert abs(pair.g1.value(1.0)) < 1e-12
    assert abs(pair.dg1.value(1.0)) < 1e-12
    assert abs(pair.g2.value(0.0)) < 1e-12
    assert abs(pair.dg2.value(0.0) - 1.0) < 1e-12
    assert abs(pair.g2.value(1.0)) < 1e-12
    assert abs(pair.dg2.value(1.0)) < 1e-12


def test_phi_point_values():
    f = Frequency(3 * math.pi / 4)
    assert phi(f, 1, 0.0) == pytest.approx(1.0, abs=1e-15)
    assert phi(f, 2, 0.0) == 0.0
    # evenness plus partition of unity pin the midpoint value
    assert phi(f, 1, 0.5) == pytest.approx(0.5, abs=1e-13)
    assert phi(f, 2, 0.5) == pytest.approx(PHI2_AT_HALF, abs=1e-14)
    assert phi(f, 1, 1.0) == 0.0
    assert phi(f, 1, -1.0) == 0.0
    assert phi(f, 1, 7.3) == 0.0


def test_phi_deriv_point_values():
    f = Frequency(3 * math.pi / 4)
    assert phi_deriv(f, 2, 0.0) == pytest.approx(1.0, abs=1e-14)
    assert phi_deriv(f, 1, 0.0) == pytest.approx(0.0, abs=1e-14)


def test_phi_deriv_matches_finite_differences_spot():
    f = Frequency(1.0)
    x, step = 0.25, 1e-6
    fd = (phi(f, 1, x + step) - phi(f, 1, x - step)) / (2 * step)
    assert phi_deriv(f, 1, x) == pytest.approx(fd, abs=1e-8)


@pytest.mark.parametrize("w0", OMEGA_GRID)
def test_interpolation_conditions(w0):
    f = Frequency(w0)
    for n in (-1, 0, 1):
        assert abs(phi(f, 1, n) - (1.0 if n == 0 else 0.0)) < 1e-12
        assert abs(phi(f, 2, n)) < 1e-12
        assert abs(phi_deriv(f, 1, n)) < 1e-12
        assert abs(phi_deriv(f, 2, n) - (1.0 if n == 0 else 0.0)) < 1e-12


@settings(max_examples=200, deadline=None)
@given(
    x=st.floats(-1.0, 1.0),
    w0=st.floats(0.0, math.pi, allow_nan=False),
)
def test_symmetry(x, w0):
    f = Frequency(w0)
    assert phi(f, 1, x) == pytest.approx(phi(f, 1, -x), abs=1e-14)
    assert phi(f, 2, x) == pytest.approx(-phi(f, 2, -x), abs=1e-14)


@pytest.mark.parametrize("w0", OMEGA_GRID)
def test_partition_of_unity(w0):
    f = Frequency(w0)
    for t in np.linspace(0.0, 1.0, 257, endpoint=False):
        total = phi(f, 1, t) + phi(f, 1, t - 1.0)
        assert abs(total - 1.0) < 1e-12


@pytest.mark.parametrize("w0", OMEGA_GRID)
def test_c1_continuity_at_knots(w0):
    # one-sided limits at the knots, computed analytically from the pieces:
    # at 0 the even/odd extension flips the sign of g1', at +-1 the outside
    # limit is zero.
    pair = make_generators(Frequency(w0))
    assert abs(pair.dg1.value(0.0) - (-pair.dg1.value(0.0))) < 1e-10
    assert abs(pair.g1.value(1.0)) < 1e-10 and abs(pair.dg1.value(1.0)) < 1e-10
    assert abs(pair.g2.value(1.0)) < 1e-10 and abs(pair.dg2.value(1.0)) < 1e-10


def test_derivative_consistency_random_points():
    rng = np.random.default_rng(42)
    f = Frequency(2.0)
    step = 1e-6
    count = 0
    while count < 200:
        x = float(rng.uniform(-1.0, 1.0))
        if min(abs(x), abs(abs(x) - 1.0)) < 1e-3:
            continue
        count += 1
        for which in (1, 2):
            fd = (phi(f, which, x + step) - phi(f, which, x - step)) / (2 * step)
            assert abs(phi_deriv(f, which, x) - fd) < 1e-7


def test_cubic_limit_monotone():
    w0 = 1.0
    sups = []
    grid = np.linspace(0.0, 1.0, 41)
    for k in range(1, 21):
        h = 2.0 ** (-k)
        f = Frequency(h * w0)
        pair = make_generators(f)
        sup = max(
            abs(pair.g1.value(float(x)) - (2 * x + 1) * (x - 1) ** 2) for x in grid
        )
        sups.append(sup)
    for prev, nxt in zip(sups[1:], sups[2:]):
        assert nxt <= prev + 1e-15
    assert sups[-1] < 1e-10


def test_rescaled_small_step_matches_cubic_values():
    f = Frequency(1.0)
    h = 1e-6
    assert phi_rescaled(f, h, 1, h * 0.5) == pytest.approx(0.5, abs=1e-9)
    assert phi_rescaled(f, h, 2, h * 0.5) / h == pytest.approx(0.125, abs=1e-9)


def test_rescaled_unit_step_is_identity():
    f = Frequency(2.0)
    for x in (-0.7, 0.0, 0.3, 0.99):
        assert phi_rescaled(f, 1.0, 1, x) == phi(f, 1, x)
        assert phi_rescaled(f, 1.0, 2, x) == phi(f, 2, x)
        assert phi_rescaled_deriv(f, 1.0, 1, x) == phi_deriv(f, 1, x)
        assert phi_rescaled_deriv(f, 1.0, 2, x) == phi_deriv(f, 2, x)


def test_rescaled_hermite_conditions_on_grid():
    f = Frequency(2.0)
    h = 0.25
    assert phi_rescaled(f, h, 1, 0.0) == pytest.approx(1.0, abs=1e-13)
    assert phi_rescaled(f, h, 1, h) == pytest.approx(0.0, abs=1e-13)
    assert phi_rescaled_deriv(f, h, 2, 0.0) == pytest.approx(1.0, abs=1e-13)
    assert phi_rescaled_deriv(f, h, 2, h) == pytest.approx(0.0, abs=1e-13)


def test_rescaled_rejects_bad_steps():
    f = Frequency(2.0)
    with pytest.raises(DomainError):
        phi_rescaled(f, 2.0, 1, 0.1)  # h * w0 > pi
    with pytest.raises(DomainError):
        phi_rescaled(f, -1.0, 1, 0.1)


@pytest.mark.parametrize("h", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_scaled_rejects_non_finite_and_nonpositive_steps(h):
    # nan once reached Frequency and was reported as a bad omega0
    for w0 in (0.0, 1.0):
        with pytest.raises(DomainError, match="grid step h must be positive and finite"):
            Frequency(w0).scaled(h)


def test_frequency_domain():
    with pytest.raises(DomainError):
        Frequency(-0.1)
    with pytest.raises(DomainError):
        Frequency(math.pi + 0.1)
    with pytest.raises(DomainError):
        Frequency(math.nan)
    # both ends of [0, pi] are admissible, and one formula serves them
    for w0 in (0.0, math.pi):
        assert make_generators(Frequency(w0)).freq.omega0 == w0


def test_spline_eval_reproduces_constants_and_linears():
    f = Frequency(3 * math.pi / 4)
    ns = np.arange(8)
    ones = HermiteData(np.ones(8), np.zeros(8))
    ramp = HermiteData(ns.astype(float), np.ones(8))
    for x in (0.0, 0.31, 2.5, 6.99):
        value, deriv = spline_eval(f, ones, x)
        assert value == pytest.approx(1.0, abs=1e-13)
        assert deriv == pytest.approx(0.0, abs=1e-13)
        value, deriv = spline_eval(f, ramp, x)
        assert value == pytest.approx(x, abs=1e-13)
        assert deriv == pytest.approx(1.0, abs=1e-13)


def test_spline_eval_reproduces_cosine():
    w0 = 3 * math.pi / 4
    f = Frequency(w0)
    ns = np.arange(8).astype(float)
    data = HermiteData(np.cos(w0 * ns), -w0 * np.sin(w0 * ns))
    value, deriv = spline_eval(f, data, 0.37)
    assert value == pytest.approx(math.cos(0.37 * w0), abs=1e-12)
    assert deriv == pytest.approx(-w0 * math.sin(0.37 * w0), abs=1e-12)


def test_frequency_caches_are_bounded():
    from exphermite import bernstein_basis, gram_entries

    for cached in (make_generators, gram_entries, bernstein_basis):
        assert cached.cache_info().maxsize == 1024
    for k in range(1100):
        make_generators(Frequency(1.0 + k * 1e-6))
    info = make_generators.cache_info()
    assert info.currsize == 1024
    assert make_generators(Frequency(1.0 + 1099e-6)) is make_generators(
        Frequency(1.0 + 1099e-6))


def test_diagnostics_report_the_three_caches():
    from exphermite import diagnostics

    before = diagnostics()
    assert set(before) == {"make_generators", "gram_entries", "bernstein_basis",
                           "greens_constants"}
    for info in before.values():
        assert list(info) == ["currsize", "maxsize", "hits", "misses"]
        assert info["maxsize"] == 1024
    freq = Frequency(1.0 + 0.5 ** 40)   # no other test uses this frequency
    make_generators(freq)
    make_generators(freq)
    after = diagnostics()["make_generators"]
    assert after["misses"] == before["make_generators"]["misses"] + 1
    assert after["hits"] == before["make_generators"]["hits"] + 1
    assert after["currsize"] == make_generators.cache_info().currsize


def counting(monkeypatch, module, names):
    """Wrap module-level functions by name; returns their call counts."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("w0", [0.0, 0.5 * 1e-4, 2.0])
def test_one_kernel_pair_per_distinct_argument(monkeypatch, w0):
    import exphermite.basis as basis
    from exphermite import BezierSegment, bernstein_basis

    # one path for every frequency: 0, below and above the former 1e-4 seam
    freq = Frequency(w0)
    data = HermiteData(np.arange(6.0), np.ones(6))
    bernstein_basis(freq)
    calls = counting(monkeypatch, basis, ["_k1", "_k2"])
    # the 8 boundary residuals of a fresh construction share the pairs at 0, 1
    basis.make_generators.__wrapped__(freq)
    assert calls == dict.fromkeys(calls, 2)
    for x in (2.5, np.linspace(0.0, 5.0, 11)):
        calls.update(dict.fromkeys(calls, 0))
        spline_eval(freq, data, x)   # 6 pieces at t and 1 - t
        assert calls == dict.fromkeys(calls, 2)
        calls.update(dict.fromkeys(calls, 0))
        BezierSegment(0.0, 1.0, 2.0, 3.0, freq).value(x / 5.0)   # 4 pieces at t
        assert calls == dict.fromkeys(calls, 1)


def one_piece_extension(piece, odd, x):
    """The piece at |x|, times sgn(x) when ``odd``, and 0 outside (-1, 1):
    the extension of one piece on its own kernel pair."""
    ax = abs(x)
    inside = ax < 1.0
    val = piece.value(ax * inside)
    if odd:
        val = val * (1 - 2 * (x < 0.0))
    return val * inside


def bits(values) -> np.ndarray:
    return np.array(values, dtype=float).view(np.uint64)


@pytest.mark.parametrize("w0", [0.0, 1e-300, 1e-7, 0.5, math.pi])
def test_phi_pair_is_phi1_and_phi2_bitwise(w0):
    f = Frequency(w0)
    pair = make_generators(f)
    xs = np.concatenate([np.linspace(-1.5, 1.5, 61), [-1.0, -0.0, 0.0, 1.0]])
    for x in (*xs.tolist(), xs):
        p1, p2 = phi_pair(f, x)
        assert type(p1) is type(p2) is type(phi(f, 1, x))
        assert np.array_equal(bits(p1), bits(phi(f, 1, x))), (w0, x)
        assert np.array_equal(bits(p2), bits(phi(f, 2, x))), (w0, x)
        # and both pieces as they were evaluated one at a time
        assert np.array_equal(bits(p1), bits(one_piece_extension(pair.g1, False, x)))
        assert np.array_equal(bits(p2), bits(one_piece_extension(pair.g2, True, x)))
        assert np.array_equal(bits(phi_deriv(f, 1, x)),
                              bits(one_piece_extension(pair.dg1, True, x)))
        assert np.array_equal(bits(phi_deriv(f, 2, x)),
                              bits(one_piece_extension(pair.dg2, False, x)))


@pytest.mark.parametrize("w0", [0.0, 1e-7, 2.0])
def test_generator_pair_callers_share_one_kernel_pair(monkeypatch, w0):
    import exphermite.basis as basis
    from exphermite import bspline, rho_from_phi
    from exphermite.cli import _suite_gram

    freq = Frequency(w0)
    xs = np.linspace(-0.5, 3.5, 9)
    expected = [  # (call, kernel pairs: one per distinct argument)
        (lambda: phi_pair(freq, 0.3), 1),
        (lambda: phi(freq, 2, xs), 1),
        (lambda: phi_deriv(freq, 1, 0.3), 1),
        (lambda: rho_from_phi(freq, 1, 0.3), 2),
        (lambda: rho_from_phi(freq, 2, xs), 2),
        (lambda: bspline(freq, 4, 1.3, "superfunction"), 3),
        (lambda: bspline(freq, 3, xs, "superfunction"), 2),
        (lambda: _suite_gram(freq), 2),
    ]
    for call, _ in expected:
        call()  # fill the per-frequency caches
    calls = counting(monkeypatch, basis, ["piece_kernels"])
    for call, pairs in expected:
        calls["piece_kernels"] = 0
        call()
        assert calls["piece_kernels"] == pairs


def test_array_calls_match_scalar_calls():
    f = Frequency(2.0)
    xs = np.linspace(-1.5, 1.5, 31)
    for which in (1, 2):
        values = phi(f, which, xs)
        slopes = phi_deriv(f, which, xs)
        assert values.shape == slopes.shape == xs.shape
        for x, value, slope in zip(xs.tolist(), values, slopes):
            assert phi(f, which, x) == value
            assert phi_deriv(f, which, x) == slope
    data = HermiteData(np.arange(6.0), np.ones(6))
    values, derivs = spline_eval(f, data, np.array([[0.5, 1.0], [2.25, 4.75]]))
    assert values.shape == derivs.shape == (2, 2)
    assert np.abs(values - [[0.5, 1.0], [2.25, 4.75]]).max() < 1e-13


def test_spline_eval_rejects_non_finite_points():
    data = HermiteData(np.zeros(3), np.zeros(3), periodic=True)
    with pytest.raises(ValueError):
        spline_eval(Frequency(1.0), data, np.array([0.5, math.nan]))


def test_spline_eval_missing_samples():
    f = Frequency(1.0)
    data = HermiteData(np.zeros(3), np.zeros(3))
    with pytest.raises(IndexError, match=r"^sample index 3 outside 0\.\.2$"):
        spline_eval(f, data, 2.5)
    with pytest.raises(IndexError, match=r"^sample index -1 outside 0\.\.2$"):
        spline_eval(f, data, -0.5)


def test_frequency_is_keyed_by_its_float():
    from exphermite import bernstein_basis, diagnostics
    from exphermite.greens import _constants

    assert Frequency(0.0) == Frequency(-0.0)
    assert hash(Frequency(0.0)) == hash(Frequency(-0.0))
    assert Frequency(0.5) == Frequency(0.5) and Frequency(0.5) != Frequency(0.25)
    assert Frequency(0.5) != 0.5 and 0.5 != Frequency(0.5)
    assert Frequency(0.5).__eq__(0.5) is NotImplemented
    assert len({Frequency(0.3), Frequency(0.3), Frequency(0.2)}) == 2
    # equal frequencies share one entry of every per-frequency cache
    w = 1.0 + 0.5 ** 41   # no other test uses this frequency
    before = diagnostics()
    for cached in (make_generators, bernstein_basis, _constants):
        assert cached(Frequency(w)) is cached(Frequency(w))
    after = diagnostics()
    for name in ("make_generators", "bernstein_basis", "greens_constants"):
        assert after[name]["misses"] == before[name]["misses"] + 1, name
        assert after[name]["hits"] >= before[name]["hits"] + 1, name


# an IntEnum member or a numpy integer is not an int either (type(x) is int)
BAD_INDICES = [True, False, 1.0, 2.0, "1", 3, 0, None,
               IntEnum("Which", [("ONE", 1)]).ONE, np.int64(1)]


@pytest.mark.parametrize("which", BAD_INDICES, ids=repr)
def test_which_must_be_the_int_1_or_2(which):
    # a bool or a float used to pass the check and then either index a
    # tuple (TypeError) or act as 1 or 2
    from exphermite import phi_from_rho, rho, rho_from_phi

    f = Frequency(0.7)
    for name, fn in (("phi", phi), ("phi_deriv", phi_deriv), ("rho", rho),
                     ("rho_from_phi", rho_from_phi),
                     ("phi_from_rho", phi_from_rho)):
        for x in (0.3, np.array([0.3, -1.2])):
            with pytest.raises(ValueError, match="which must be the int 1 or 2"):
                fn(f, which, x)


@pytest.mark.parametrize("ell", [True, False, 1.0, "1", 4, -1, None,
                                 IntEnum("Ell", [("ONE", 1)]).ONE, np.int64(1)],
                         ids=repr)
def test_bernstein_index_must_be_an_int_in_0_to_3(ell):
    from exphermite import bernstein

    for x in (0.3, np.array([0.3, 0.6])):
        with pytest.raises(ValueError, match="ell must be an int in 0..3"):
            bernstein(Frequency(0.7), ell, x)
    assert bernstein(Frequency(0.7), 3, 0.3) > 0.0


@pytest.mark.parametrize("order", [True, 3.0, 4.0, "4", 5,
                                   IntEnum("Order", [("THREE", 3)]).THREE,
                                   np.int64(3)])
@pytest.mark.parametrize("method", ["green", "superfunction"])
def test_bspline_order_must_be_the_int_3_or_4(order, method):
    from exphermite import bspline

    with pytest.raises(ValueError, match="order must be 3 or 4"):
        bspline(Frequency(0.7), order, 1.5, method)


@pytest.mark.parametrize("order", [True, 3.0, 4.0, "4", 5, np.int64(3)], ids=repr)
def test_annihilation_weights_order_must_be_the_int_3_or_4(order):
    from exphermite import annihilation_weights

    with pytest.raises(ValueError, match="order must be 3 or 4"):
        annihilation_weights(Frequency(0.7), order)
    assert len(annihilation_weights(Frequency(0.7), 4)) == 5
