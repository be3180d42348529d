"""Output checks, run outside the timed section.

Every check raises ``CheckFailed`` on a wrong output and otherwise returns the
errors it measured against an analytic reference: ``(value_err,
deriv_err)``, either of which is ``None`` when the output has no analytic
reference.  Value errors are relative to the size of the curve (or absolute
for unit-scale functions); derivative errors are relative to the size of the
exact tangent.

Tolerances are those the repository's tests use, with an explicit error
model where the tests pin none (documented at each constant).
"""

from __future__ import annotations

import math
import re

import mpmath as mp
import numpy as np

import exphermite.subdivision as xsub
from exphermite.frequency import SMALL_FREQ_THRESHOLD

EPS = float(np.finfo(float).eps)

# Ellipse reproduction through refinement and evaluation (acceptance tests).
CONIC_VALUE_TOL = 1e-10
# Commuting square of the vector and scalar schemes (acceptance tests).
COMMUTE_TOL = 1e-11
# Generator values against the closed forms (Hermite conditions, tests).
BASIS_TOL = 1e-12
# SVG coordinates carry 6 decimals: each rounds by at most 5e-7 px.
SVG_PX_TOL = 2e-6
VIEWPORT_DRAWN = 900.0     # viewport minus the 5% margins, in px
CHUNK = 1 << 16


class CheckFailed(Exception):
    """An output is wrong."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def deriv_tol(levels: int) -> float:
    """Refined slopes are recovered from value differences at scale 2^-j, so
    their relative error grows like eps * 2^L (about 1e-10 at L = 18 on the
    circle); 64 eps 2^L leaves a wide margin over that growth."""
    return 1e-12 + 64.0 * EPS * 2.0 ** levels


# --- conic references -----------------------------------------------------

class Conic:
    """r(t) = A (cos wt, sin wt) + c with w = 2 pi / M."""

    def __init__(self, matrix: np.ndarray, center: np.ndarray, period: int):
        self.A = matrix
        self.c = center
        self.w = 2.0 * math.pi / period
        self.scale = float(np.linalg.norm(matrix, 2))

    def errors(self, t, values, derivs):
        """Max relative value and derivative errors at parameters t."""
        cos, sin = np.cos(self.w * t), np.sin(self.w * t)
        exact = np.column_stack([cos, sin]) @ self.A.T + self.c
        slope = self.w * np.column_stack([-sin, cos]) @ self.A.T
        verr = float(np.max(np.linalg.norm(values - exact, axis=1))) / self.scale
        derr = 0.0
        if derivs is not None:
            derr = float(np.max(np.linalg.norm(derivs - slope, axis=1)
                                / np.linalg.norm(slope, axis=1)))
        return verr, derr


def conic_errors_chunked(conic: Conic, values, derivs, step: float):
    """Errors of node n at t = n * step, a chunk at a time to keep memory
    flat beside large results."""
    verr = derr = 0.0
    for lo in range(0, len(values), CHUNK):
        hi = min(lo + CHUNK, len(values))
        t = np.arange(lo, hi) * step
        v, d = conic.errors(t, values[lo:hi], derivs[lo:hi])
        verr, derr = max(verr, v), max(derr, d)
    return verr, derr


def check_conic(conic, values, derivs, step, levels):
    verr, derr = conic_errors_chunked(conic, values, derivs, step)
    require(verr <= CONIC_VALUE_TOL, f"value off the ellipse by {verr:.3e}")
    require(derr <= deriv_tol(levels),
            f"tangent error {derr:.3e} above {deriv_tol(levels):.3e}")
    return verr, derr


# --- subdivision ------------------------------------------------------------

def check_interpolatory(values, derivs, doc, levels, deriv_scale=1.0):
    """Coarse nodes reappear bitwise at stride 2^L."""
    stride = 1 << levels
    require(len(values) == doc.period * stride,
            f"{len(values)} nodes, expected {doc.period * stride}")
    require(np.array_equal(values[::stride], doc.points),
            "coarse values not kept at stride 2^L")
    require(np.array_equal(derivs[::stride], doc.tangents * deriv_scale),
            "coarse derivatives not kept at stride 2^L")


def check_commuting(freq, levels, vector, scalar_points, scale):
    """Scalar refinement equals the control polygon of vector refinement."""
    expected = xsub.hermite_to_scalar(freq, levels, vector).points
    require(scalar_points.shape == expected.shape,
            f"scalar shape {scalar_points.shape} != {expected.shape}")
    gap = float(np.max(np.abs(scalar_points - expected))) / scale
    require(gap <= COMMUTE_TOL, f"commuting square off by {gap:.3e}")


# --- SVG --------------------------------------------------------------------

_PATH = re.compile(r'<path d="M ([^"]*) Z"')


def svg_points(svg: str) -> np.ndarray:
    match = _PATH.search(svg)
    require(match is not None, "no curve path in SVG")
    pairs = [p.split(",") for p in match.group(1).split(" L ")]
    return np.array(pairs, dtype=float)


def to_pixels(points: np.ndarray, expected: np.ndarray) -> np.ndarray:
    """The documented drawing convention: a 1000 x 1000 viewport with 5%
    margins, one uniform scale fitted to the bounding box of the samples,
    y flipped.  The box is taken from ``expected``."""
    lo, hi = expected.min(axis=0), expected.max(axis=0)
    scale = VIEWPORT_DRAWN / float(max(hi - lo))
    center = 0.5 * (lo + hi)
    return np.column_stack([500.0 + (points[:, 0] - center[0]) * scale,
                            500.0 - (points[:, 1] - center[1]) * scale])


def check_svg(svg: str, doc, samples_per_span: int, expected: np.ndarray,
              conic: Conic | None):
    """Structure, every drawn point against ``expected`` (the curve at the
    sample parameters, from ``hermite_samples``) and, for conics, against
    the exact ellipse.  Errors are in px; the value error returned is in
    units of the drawing's extent (900 px), where the 6-decimal output
    rounds by up to 7.1e-7 px, 7.9e-10 of the extent."""
    require(svg.startswith('<?xml version="1.0"') and svg.endswith("</svg>\n"),
            "SVG is not a complete document")
    m = doc.period
    px = svg_points(svg)
    require(len(px) == m * samples_per_span,
            f"{len(px)} path points, expected {m * samples_per_span}")
    require(svg.count('<line class="handle"') == m
            and svg.count('<path class="ctrl"') == m, "handle markers missing")
    off = float(np.max(np.linalg.norm(px - to_pixels(expected, expected), axis=1)))
    require(off <= SVG_PX_TOL, f"drawn point off the curve by {off:.3e} px")
    if conic is None:
        return None, None
    t = np.arange(len(px)) / samples_per_span
    exact = np.column_stack([np.cos(conic.w * t), np.sin(conic.w * t)]) @ conic.A.T + conic.c
    err = float(np.max(np.linalg.norm(px - to_pixels(exact, expected), axis=1)))
    require(err <= SVG_PX_TOL, f"drawn point off the ellipse by {err:.3e} px")
    return err / VIEWPORT_DRAWN, None


def hermite_samples(doc, samples_per_span: int, reference) -> np.ndarray:
    """The curve at t = i / samples_per_span, evaluated independently of the
    package: each span is v0 g1(u) + d0 g2(u) + v1 g1(1-u) - d1 g2(1-u) with
    the generator values taken from ``reference`` (a GeneratorReference)."""
    u = [i / samples_per_span for i in range(samples_per_span)]
    g1 = np.array([reference(1, x) for x in u])[:, None]
    g2 = np.array([reference(2, x) for x in u])[:, None]
    h1 = np.array([reference(1, 1.0 - x) for x in u])[:, None]
    h2 = np.array([reference(2, 1.0 - x) for x in u])[:, None]
    p, d = doc.points, doc.tangents
    p1, d1 = np.roll(p, -1, axis=0), np.roll(d, -1, axis=0)
    spans = [p[n] * g1 + d[n] * g2 + p1[n] * h1 - d1[n] * h2
             for n in range(doc.period)]
    return np.concatenate(spans)


# --- basis CSV --------------------------------------------------------------

class GeneratorReference:
    """phi1, phi2 from their closed forms in 40-digit arithmetic: the pieces
    a + b x + c cos(wx) + d sin(wx) on [0, 1] solved from the Hermite
    boundary conditions."""

    def __init__(self, w: float):
        with mp.workdps(40):
            w = mp.mpf(w)
            cw, sw = mp.cos(w), mp.sin(w)
            rows = mp.matrix([[1, 0, 1, 0], [0, 1, 0, w],
                              [1, 1, cw, sw], [0, 1, -w * sw, w * cw]])
            self.w = w
            self.coeffs = {
                1: mp.lu_solve(rows, mp.matrix([1, 0, 0, 0])),
                2: mp.lu_solve(rows, mp.matrix([0, 1, 0, 0])),
            }

    def __call__(self, which: int, x: float) -> float:
        ax = abs(x)
        if ax >= 1.0:
            return 0.0
        with mp.workdps(40):
            a, b, c, d = self.coeffs[which]
            wx = self.w * mp.mpf(ax)
            val = a + b * ax + c * mp.cos(wx) + d * mp.sin(wx)
        val = float(val)
        return -val if which == 2 and x < 0 else val


def check_basis_csv(text: str, reference: GeneratorReference, which: int,
                    samples: int):
    lines = text.strip().split("\n")
    require(lines[0] == "x,value", "CSV header is wrong")
    require(len(lines) == samples + 1, f"{len(lines) - 1} rows, expected {samples}")
    rows = np.array([line.split(",") for line in lines[1:]], dtype=float)
    require(np.array_equal(rows[:, 0], np.linspace(-1.0, 1.0, samples)),
            "CSV abscissae are wrong")
    err = max(abs(v - reference(which, x)) for x, v in rows)
    require(err <= BASIS_TOL, f"generator value off by {err:.3e}")
    return err, None


# --- verify -----------------------------------------------------------------

_VERIFY_LINE = re.compile(r"^(.*?)\s+value=\s*(\S+)\s+threshold=\s*(\S+)\s+(PASS|FAIL)$")


def check_verify_stdout(code: int, text: str) -> float:
    """Exit 0, every check PASS; returns the worst reproduction error, which
    is measured against the exact targets 1, x and cos(wx)."""
    require(code == 0, f"verify exited {code}")
    lines = text.strip().split("\n")
    checks = [_VERIFY_LINE.match(line) for line in lines[:-1]]
    require(all(checks) and len(checks) == 15, "verify output malformed")
    require(all(m.group(4) == "PASS" for m in checks), "a verify check failed")
    require(lines[-1] == "15/15 checks passed", "verify summary is wrong")
    return max(float(m.group(2)) for m in checks
               if m.group(1).startswith("reproduction of"))


# The localization identities and the Bezier round trip, as the tests pin
# them (identities at w >= 0.7, phi_from_rho from 0.8).
IDENTITY_TOL = 1e-10
BEZIER_VALUE_TOL = 1e-11

# Frequency ranges [lo, hi) where the package is known not to meet
# IDENTITY_TOL.  There the residual is recorded in the run record, not
# checked, and kept out of max_value_err; everywhere else IDENTITY_TOL holds.
# Each range ends where the measured residual falls to a third of the
# tolerance.
KNOWN_DEFECTS = {
    # Green's-function shifts whose sum cancels at relative scale w^2 (the
    # prefactor w/s grows like 12/w^2): the residual measures 0.7e-14/w^2 to
    # 2.5e-14/w^2, above the tolerance below w = 0.016 and 1.07 at w = 1e-7.
    "phi_from_rho": (0.0, 0.03),
    # The green route on the cubic-limit path (w below SMALL_FREQ_THRESHOLD)
    # applies the exact-w filter to the w = 0 Green's function: residual
    # 0.92 w^2 to 1.03 w^2, 9.0e-9 at w = 0.99e-4.
    "bspline": (5e-6, SMALL_FREQ_THRESHOLD),
}


def known_defect(identity: str, w: float) -> bool:
    lo, hi = KNOWN_DEFECTS.get(identity, (0.0, 0.0))
    return lo <= w < hi


def bezier_slope_tol(lam: float) -> float:
    """Recovered slopes are (p1 - p0) / lam on unit-size points: their
    absolute error is a few eps / lam; 16 eps / lam plus the tests' 1e-13."""
    return 1e-13 + 16.0 * EPS / lam
