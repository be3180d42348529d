"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one `[criterion NN] PASS/FAIL` line (visible with
``pytest -s`` or in the failure report) and asserts the same condition.
"""

import math
import xml.etree.ElementTree as ET

import numpy as np
from scipy.integrate import quad

from exphermite import (
    CurveDocument,
    Frequency,
    HermiteData,
    bernstein,
    bspline,
    conversion_ratio,
    dumps_document,
    gram_entries,
    hermite_to_scalar,
    lower_bound_G,
    make_generators,
    masks,
    phi,
    phi_from_rho,
    refine_step,
    reproduction_check,
    rho,
    rho_from_phi,
    riesz_bounds,
    scalar_refine_step,
    spline_eval,
    subdivide,
    unit_circle,
)
from exphermite.cli import main

CRITERION_FREQS = [0.01, 0.5, 1.0, 3 * math.pi / 4, math.pi]


def report(number: int, name: str, ok: bool, measured: float, threshold: float):
    status = "PASS" if ok else "FAIL"
    print(
        f"[criterion {number:2d}] {status}  {name}: "
        f"measured {measured:.3e} vs threshold {threshold:.3e}"
    )
    assert ok, f"criterion {number} ({name}) failed: {measured:.3e}"


def test_criterion_01_hermite_conditions():
    worst = 0.0
    for w0 in CRITERION_FREQS:
        pair = make_generators(Frequency(w0))
        worst = max(
            worst,
            abs(pair.g1.value(0.0) - 1.0), abs(pair.dg1.value(0.0)),
            abs(pair.g1.value(1.0)), abs(pair.dg1.value(1.0)),
            abs(pair.g2.value(0.0)), abs(pair.dg2.value(0.0) - 1.0),
            abs(pair.g2.value(1.0)), abs(pair.dg2.value(1.0)),
        )
    report(1, "hermite boundary conditions", worst < 1e-12, worst, 1e-12)


def test_criterion_02_partition_of_unity_and_affine_invariance():
    worst = 0.0
    t = np.linspace(0.0, 1.0, 2500, endpoint=False)
    for w0 in (0.01, 1.0, 3 * math.pi / 4, math.pi):
        f = Frequency(w0)
        total = phi(f, 1, t) + phi(f, 1, t - 1.0)
        worst = max(worst, float(np.abs(total - 1.0).max()))
    curve = unit_circle(8)
    A = np.array([[2.0, 0.3], [-0.4, 1.0]])
    b = np.array([0.7, -0.2])
    mapped = curve.affine(A, b)
    t = np.linspace(0.0, 8.0, 10_000, endpoint=False)
    direct, _ = mapped.eval(t)
    points, _ = curve.eval(t)
    worst = max(worst, float(np.abs(direct - (points @ A.T + b)).max()))
    report(2, "partition of unity + affine invariance", worst < 1e-12, worst, 1e-12)


def test_criterion_03_ellipse_reproduction():
    curve = unit_circle(8)
    points, _ = curve.eval(np.linspace(0.0, 8.0, 10_000, endpoint=False))
    worst = float(np.abs(np.linalg.norm(points, axis=1) - 1.0).max())
    report(3, "unit-circle radius", worst < 1e-10, worst, 1e-10)
    refined = subdivide(curve.freq, curve.to_hermite_data(), 5)
    drift = float(np.abs(np.linalg.norm(refined.values, axis=1) - 1.0).max())
    report(3, "circle invariance through 5 levels", drift < 1e-9, drift, 1e-9)


def test_criterion_04_reproduction_identities():
    worst = 0.0
    for target in ("const", "linear", "cos", "sin"):
        worst = max(worst, reproduction_check(Frequency(3 * math.pi / 4), target))
        worst = max(worst, reproduction_check(Frequency(1.0), target))
    report(4, "reproduction of {1, x, cos, sin}", worst < 1e-12, worst, 1e-12)


def test_criterion_05_green_identities():
    worst = 0.0
    for w0 in (1.0, 3 * math.pi / 4):
        f = Frequency(w0)
        x = np.linspace(-5.0, 5.0, 201)
        for which in (1, 2):
            worst = max(
                worst,
                float(np.abs(rho_from_phi(f, which, x) - rho(f, which, x)).max()),
                float(np.abs(phi_from_rho(f, which, x) - phi(f, which, x)).max()),
            )
    report(5, "Green's-function identities", worst < 1e-10, worst, 1e-10)


def test_criterion_06_bspline_dual_construction():
    worst = 0.0
    for w0 in (1.0, 3 * math.pi / 4):
        f = Frequency(w0)
        for order in (3, 4):
            x = np.linspace(-0.5, order + 0.5, 401)
            worst = max(
                worst,
                float(np.abs(bspline(f, order, x, "green")
                             - bspline(f, order, x, "superfunction")).max()),
            )
        x = np.linspace(0.0, 1.0, 257, endpoint=False)
        total = sum(bspline(f, 4, x + k) for k in range(4))
        worst = max(worst, float(np.abs(total - 1.0).max()))
    report(6, "B-spline dual construction + partition", worst < 1e-10, worst, 1e-10)
    support_ok = all(
        bspline(Frequency(w0), order, x, method) == 0.0
        for w0 in (1.0, 3 * math.pi / 4)
        for order in (3, 4)
        for method in ("green", "superfunction")
        for x in (-0.5, 0.0, float(order), order + 0.5)
    )
    report(6, "support confinement exact", support_ok, 0.0, 0.0)


def test_criterion_07_gram_quadrature_and_scan():
    worst = 0.0
    for w0 in (0.5, 1.0, 3 * math.pi / 4, math.pi):
        f = Frequency(w0)
        g = gram_entries(f)
        qa = quad(lambda x: phi(f, 1, x) * phi(f, 1, x - 1), 0, 1)[0]
        qb = 2 * quad(lambda x: phi(f, 1, x) ** 2, 0, 1)[0]
        qc = quad(lambda x: phi(f, 1, x) * phi(f, 2, x - 1), 0, 1)[0]
        qd = quad(lambda x: phi(f, 2, x) * phi(f, 2, x - 1), 0, 1)[0]
        qe = 2 * quad(lambda x: phi(f, 2, x) ** 2, 0, 1)[0]
        worst = max(
            worst, abs(g.a - qa), abs(g.b - qb), abs(g.c - qc),
            abs(g.d - qd), abs(g.e - qe),
        )
    report(7, "gram entries vs quadrature", worst < 1e-8, worst, 1e-8)
    min_alpha = min(
        riesz_bounds(Frequency(w0))[0] for w0 in (0.1, 1.0, 2.0, 3.0, math.pi)
    )
    report(7, "smallest symbol eigenvalue", min_alpha > 0.0, min_alpha, 0.0)
    values = [lower_bound_G(Frequency(k * math.pi / 200)) for k in range(1, 201)]
    ok = all(v > 0.0 for v in values) and all(
        b >= a - 1e-15 for a, b in zip(values, values[1:])
    )
    report(7, "lower bound positive and nondecreasing", ok, min(values), 0.0)


def test_criterion_08_subdivision_exactness():
    rng = np.random.default_rng(123)
    f = Frequency(3 * math.pi / 4)
    data = HermiteData(rng.normal(size=5), rng.normal(size=5))
    refined = subdivide(f, data, 6)
    worst = 0.0
    for n in range(len(refined)):
        value, deriv = spline_eval(f, data, n * 2.0**-6)
        worst = max(
            worst, abs(float(value) - refined.values[n]),
            abs(float(deriv) - refined.derivs[n]),
        )
    report(8, "six-level refinement vs direct evaluation", worst < 1e-10, worst, 1e-10)
    top, bot, diag = masks(f, 16)
    h = 2.0 ** (-16)
    dist = max(abs(top / h - 0.125), abs(bot * h - 1.5), abs(diag + 0.25))
    report(8, "stationary-limit masks at level 16", dist < 1e-3, dist, 1e-3)


def test_criterion_09_commuting_square():
    rng = np.random.default_rng(7)
    f = Frequency(2.0)
    data = HermiteData(rng.normal(size=6), rng.normal(size=6))
    ctrl = hermite_to_scalar(f, 0, data)
    worst = 0.0
    for step in range(3):
        data = refine_step(data, masks(f, step))
        ctrl = scalar_refine_step(ctrl, f)
        expected = hermite_to_scalar(f, step + 1, data)
        worst = max(worst, float(np.abs(ctrl.points - expected.points).max()))
    report(9, "vector/scalar commuting square", worst < 1e-11, worst, 1e-11)


def interpolation_error(h: float) -> float:
    w0 = 1.0
    scaled = Frequency(h * w0)
    xs = h * np.arange(int(round(4.0 / h)) + 1)
    data = HermiteData(np.sin(2 * xs), 2 * h * np.cos(2 * xs))
    x = np.linspace(0.25, 3.75, 701)
    values, _ = spline_eval(scaled, data, x / h)
    return float(np.abs(values - np.sin(2 * x)).max())


def test_criterion_10_fourth_order_approximation():
    ratios = [
        interpolation_error(0.25) / interpolation_error(0.125),
        interpolation_error(0.125) / interpolation_error(0.0625),
    ]
    ok = all(12.0 < r < 20.0 for r in ratios)
    report(10, "fourth-order error ratios", ok, min(ratios), 12.0)


def test_criterion_11_bezier_limits_and_properties():
    gap = abs(conversion_ratio(Frequency(1e-2)) - 1.0 / 3.0)
    report(11, "handle ratio near 1/3", gap < 1e-3, gap, 1e-3)
    worst_pou, worst_sym, worst_neg = 0.0, 0.0, 0.0
    for w0 in (0.5, 1.5, 3 * math.pi / 4, math.pi):
        f = Frequency(w0)
        x = np.linspace(0.0, 1.0, 301)
        vals = np.array([bernstein(f, ell, x) for ell in range(4)])
        worst_pou = max(worst_pou, float(np.abs(vals.sum(axis=0) - 1.0).max()))
        worst_neg = max(worst_neg, float((-vals).max()))
        for ell in range(4):
            worst_sym = max(worst_sym, float(
                np.abs(vals[ell] - bernstein(f, 3 - ell, 1.0 - x)).max()))
    ok = worst_pou < 1e-12 and worst_sym < 1e-12 and worst_neg < 1e-12
    report(11, "bernstein partition/symmetry/nonnegativity", ok,
           max(worst_pou, worst_sym, worst_neg), 1e-12)


def test_criterion_12_cli_golden_and_verify(tmp_path, capsys):
    circle = CurveDocument.from_curve(unit_circle(8))
    circle_path = tmp_path / "circle.json"
    circle_path.write_text(dumps_document(circle))
    cusp_curve = unit_circle(8)
    tangents = cusp_curve.tangents.copy()
    tangents[0] = 0.0
    cusp_path = tmp_path / "cusp.json"
    cusp_path.write_text(
        dumps_document(CurveDocument(1, 8, cusp_curve.points, tangents))
    )
    stable = True
    for path in (circle_path, cusp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        assert main(["render", str(path), "--out", str(a)]) == 0
        assert main(["render", str(path), "--out", str(b)]) == 0
        stable = stable and a.read_bytes() == b.read_bytes()
        ET.fromstring(a.read_text())  # well-formed XML
    code = main(["verify", "--suite", "all", "--omega0", "3pi/4"])
    capsys.readouterr()  # drain the verify table before the report lines
    report(12, "render output byte-stable", stable, 0.0, 0.0)
    report(12, "verify --suite all exits clean", code == 0, float(code), 0.0)
