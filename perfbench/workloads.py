"""Seeded inputs, the timed op of each workload, and its output check.

Each workload hands out decks of ops.  Within one run every deck holds the
same multiset of op sizes, so the latency quantiles compare across seeds;
the seed chooses the order of the ops, the perturbed curves and, for
``verify``, the frequencies.  Nothing is resized or filtered after it is
drawn.  Why each workload exists is said in its class docstring and in
BENCHMARK.json.

An op is one user-level call: ``exphermite.cli.main(argv)`` on files written
to the run's temporary directory, or, for ``refine``, the named library
calls on in-memory arrays.  Library functions are looked up through their
modules at call time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

import exphermite.bezier as xbezier
import exphermite.basis as xbasis
import exphermite.cli as xcli
import exphermite.curve as xcurve
import exphermite.document as xdoc
import exphermite.greens as xgreens
import exphermite.subdivision as xsub
from exphermite.frequency import Frequency

import checks
from checks import Conic, require


@dataclass
class Op:
    kind: str
    key: tuple                 # equal keys mean equal inputs
    params: dict = field(default_factory=dict)


@dataclass
class Outcome:
    items: int
    value_err: float | None = None
    deriv_err: float | None = None
    # residuals of identities checks.KNOWN_DEFECTS exempts, by identity
    known_defects: dict = field(default_factory=dict)


@dataclass
class DocInput:
    doc: object                # exphermite.document.CurveDocument
    path: str
    conic: Conic | None


def _rotation(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def make_doc(kind: str, period: int, rng: np.random.Generator, path: str) -> DocInput:
    """circle / ellipse: the unit circle under a fixed affine map (ellipse:
    axes 2 and 1, turned by 0.3 rad; both shifted off the origin).  Their
    geometry does not depend on the seed: the error metrics are maxima of
    rounding errors, which move with the geometry by more than any bound
    could absorb.  cusp: the gallery cusp (M = 8, third tangent zeroed).
    perturbed: a circle with seeded noise on points and tangents."""
    base = xcurve.unit_circle(period)
    conic = None
    if kind in ("circle", "ellipse"):
        if kind == "ellipse":
            matrix = _rotation(0.3) @ np.diag([2.0, 1.0])
            center = np.array([0.25, -0.5])
        else:
            matrix, center = np.eye(2), np.array([0.5, 0.25])
        curve = base.affine(matrix, center)
        conic = Conic(matrix, center, period)
        doc = xdoc.CurveDocument.from_curve(curve)
    elif kind == "cusp":
        require(period == 8, "the gallery cusp has M = 8")
        tangents = base.tangents.copy()
        tangents[2] = 0.0
        doc = xdoc.CurveDocument(1, 8, base.points, tangents)
    elif kind == "perturbed":
        w = 2 * math.pi / period
        points = base.points + 0.1 * rng.normal(size=base.points.shape)
        tangents = (base.tangents * rng.uniform(0.5, 1.5, size=(period, 1))
                    + 0.1 * w * rng.normal(size=base.tangents.shape))
        doc = xdoc.CurveDocument(1, period, points, tangents)
    else:
        raise ValueError(f"unknown doc kind {kind!r}")
    with open(path, "w") as fh:
        fh.write(xdoc.dumps_document(doc))
    return DocInput(doc, path, conic)


def _shuffled(items, rng):
    order = rng.permutation(len(items))
    return [items[i] for i in order]


def _van_der_corput(k: int) -> float:
    """k-th point of the base-2 van der Corput sequence: 0, 1/2, 1/4, 3/4..."""
    value, scale = 0.0, 0.5
    while k:
        value += scale * (k & 1)
        k >>= 1
        scale /= 2
    return value


def _quiet_main(argv) -> tuple[int, str]:
    """cli.main with stdout captured; SystemExit becomes its exit code."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = xcli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, buf.getvalue()


class Workload:
    name = ""

    def __init__(self, seed: int, tmpdir: str, tiny: bool = False):
        self.seed = seed
        self.tmpdir = tmpdir

    def rng(self, *stream: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, *stream])

    def docs(self, specs) -> list[DocInput]:
        rng = self.rng(0)
        return [make_doc(kind, m, rng, os.path.join(self.tmpdir, f"doc{i}.json"))
                for i, (kind, m) in enumerate(specs)]

    def deck(self, index: int) -> list[Op]:
        raise NotImplementedError

    def run(self, op: Op):
        raise NotImplementedError

    def check(self, op: Op, out) -> Outcome:
        raise NotImplementedError


# --- render -----------------------------------------------------------------

class Render(Workload):
    """Dense one-frequency evaluation with hot caches: the per-point
    spline_eval / E4Piece.value path, which subdivision and gram never see."""

    name = "render"
    DOCS = [("circle", 3), ("circle", 12), ("circle", 64), ("ellipse", 5),
            ("ellipse", 16), ("ellipse", 40), ("cusp", 8), ("perturbed", 4),
            ("perturbed", 6), ("perturbed", 10), ("perturbed", 24),
            ("perturbed", 32), ("perturbed", 48)]
    # (doc index, samples per span); the last four repeat earlier ones
    RENDERS = [(0, 64), (0, 128), (0, 256), (1, 64), (1, 128), (1, 256),
               (2, 64), (3, 64), (3, 128), (3, 256), (4, 64), (4, 128),
               (4, 256), (5, 64), (6, 64), (6, 128), (6, 256), (7, 128),
               (7, 256), (8, 64), (8, 256), (9, 128), (10, 64), (10, 128),
               (11, 64), (12, 64), (1, 128), (3, 64), (6, 128), (8, 64)]
    # (doc index whose frequency 2 pi / M is used, which generator, samples);
    # basis cost depends on the frequency, so it is fixed per template
    BASIS = [(0, 1, 201), (1, 2, 201), (3, 1, 401), (4, 2, 401), (6, 1, 801),
             (9, 2, 801), (2, 1, 1601), (12, 2, 1601), (5, 1, 401), (10, 2, 801)]
    TINY_DOCS = [("circle", 3), ("ellipse", 5), ("cusp", 8), ("perturbed", 4)]
    TINY_RENDERS = [(0, 8), (1, 8), (2, 4), (3, 4), (0, 8)]
    TINY_BASIS = [(0, 1, 21), (3, 2, 21)]

    def __init__(self, seed, tmpdir, tiny=False):
        super().__init__(seed, tmpdir, tiny)
        self.inputs = self.docs(self.TINY_DOCS if tiny else self.DOCS)
        self.basis_ops = [(2 * math.pi / self.inputs[d].doc.period, which, n)
                          for d, which, n in (self.TINY_BASIS if tiny else self.BASIS)]
        self.renders = self.TINY_RENDERS if tiny else self.RENDERS
        self.out_path = os.path.join(tmpdir, "out.svg")
        self.seen: dict[tuple, str] = {}
        self.references: dict[float, checks.GeneratorReference] = {}

    def deck(self, index):
        ops = [Op("render", ("render", d, s), {"doc": d, "s": s})
               for d, s in self.renders]
        ops += [Op("basis", ("basis", w, which, n),
                   {"w": w, "which": which, "n": n})
                for w, which, n in self.basis_ops]
        return _shuffled(ops, self.rng(2, index))

    def run(self, op):
        p = op.params
        if op.kind == "render":
            argv = ["render", self.inputs[p["doc"]].path, "--samples-per-span",
                    str(p["s"]), "--handles", "--out", self.out_path]
            return _quiet_main(argv)[0]
        argv = ["basis", "--omega0", repr(p["w"]), "--which", str(p["which"]),
                "--samples", str(p["n"])]
        return _quiet_main(argv)

    def check(self, op, out):
        p = op.params
        if op.kind == "render":
            require(out == 0, f"render exited {out}")
            with open(self.out_path) as fh:
                text = fh.read()
        else:
            code, text = out
            require(code == 0, f"basis exited {code}")
        items = p["s"] * self.inputs[p["doc"]].doc.period if op.kind == "render" else p["n"]
        if op.key in self.seen:
            require(self.seen[op.key] == text, "repeated op gave different bytes")
            return Outcome(items)
        outcome = self._check_first(op, text, items)
        self.seen[op.key] = text
        return outcome

    def _check_first(self, op, text, items):
        p = op.params
        if op.kind == "basis":
            verr, _ = checks.check_basis_csv(text, self.reference(p["w"]),
                                             p["which"], p["n"])
            return Outcome(items, verr)
        source = self.inputs[p["doc"]]
        expected = checks.hermite_samples(source.doc, p["s"],
                                          self.reference(2 * math.pi / source.doc.period))
        verr, _ = checks.check_svg(text, source.doc, p["s"], expected, source.conic)
        if source.conic is None:
            return Outcome(items)
        # tangents of the evaluator the drawing is built on, every 4th
        # sample, against the exact ellipse
        curve = source.doc.curve()
        t = np.arange(0, items, 4) / p["s"]
        evals = [curve.eval(float(x)) for x in t]
        values = np.array([e[0] for e in evals])
        derivs = np.array([e[1] for e in evals])
        value_err, derr = source.conic.errors(t, values, derivs)
        require(value_err <= checks.CONIC_VALUE_TOL,
                f"evaluated point off the ellipse by {value_err:.3e}")
        require(derr <= checks.deriv_tol(0), f"tangent error {derr:.3e}")
        return Outcome(items, verr, derr)

    def reference(self, w: float) -> checks.GeneratorReference:
        if w not in self.references:
            self.references[w] = checks.GeneratorReference(w)
        return self.references[w]


# --- refine -----------------------------------------------------------------

class Refine(Workload):
    """The subdivision kernel alone, on results kept in memory: no document
    or basis evaluation is involved, so a kernel change shows here first."""

    name = "refine"
    # (doc kind, M, L); each template is a vector op followed by a scalar
    # op.  Fifteen templates at 2^16 output nodes and two at 2^18: 34 ops a
    # deck, so a run is three decks (102 ops, about ten seconds on a 2 GHz
    # Xeon core).  The large ops are 12% of all ops, so p90 falls among them
    # and measures the kernel at scale, not the tail of the small ops.
    TEMPLATES = [("circle", 4, 14), ("ellipse", 4, 14), ("perturbed", 4, 14),
                 ("cusp", 8, 13), ("circle", 8, 13), ("ellipse", 8, 13),
                 ("perturbed", 8, 13), ("circle", 16, 12), ("ellipse", 16, 12),
                 ("perturbed", 16, 12), ("ellipse", 32, 11), ("perturbed", 32, 11),
                 ("circle", 64, 10), ("ellipse", 64, 10), ("perturbed", 128, 9),
                 ("ellipse", 4, 16), ("perturbed", 8, 15)]
    TINY_TEMPLATES = [("circle", 3, 5), ("perturbed", 5, 4), ("cusp", 8, 3),
                      ("ellipse", 4, 6)]

    def __init__(self, seed, tmpdir, tiny=False):
        super().__init__(seed, tmpdir, tiny)
        self.templates = self.TINY_TEMPLATES if tiny else self.TEMPLATES
        self.inputs = self.docs([(k, m) for k, m, _ in self.templates])
        self.arrays = []
        for source in self.inputs:
            curve = source.doc.curve()
            self.arrays.append((curve.freq, curve.to_hermite_data()))
        self.vector = None

    def deck(self, index):
        ops = []
        for i in self.rng(2, index).permutation(len(self.templates)):
            levels = self.templates[i][2]
            ops.append(Op("vector", ("vector", i), {"t": int(i), "L": levels}))
            ops.append(Op("scalar", ("scalar", i), {"t": int(i), "L": levels}))
        return ops

    def run(self, op):
        freq, data = self.arrays[op.params["t"]]
        levels = op.params["L"]
        if op.kind == "vector":
            return xsub.subdivide(freq, data, levels)
        ctrl = xsub.hermite_to_scalar(freq, 0, data)
        for _ in range(levels):
            ctrl = xsub.scalar_refine_step(ctrl, freq)
        return ctrl

    def check(self, op, out):
        t, levels = op.params["t"], op.params["L"]
        source = self.inputs[t]
        freq, _ = self.arrays[t]
        if op.kind == "vector":
            # the scalar op that follows is checked against this result even
            # if it fails its own checks, so each op fails for its own output
            self.vector = (t, out)
            require(out.periodic, "refined data lost periodicity")
            checks.check_interpolatory(out.values, out.derivs, source.doc, levels)
            if source.conic is None:
                return Outcome(len(out))
            verr, derr = checks.check_conic(source.conic, out.values, out.derivs,
                                            2.0 ** -levels, levels)
            return Outcome(len(out), verr, derr)
        require(self.vector is not None and self.vector[0] == t,
                "scalar op without its vector result")
        vector = self.vector[1]
        self.vector = None
        require(out.level == levels and out.periodic, "scalar level or wrap wrong")
        scale = float(np.abs(source.doc.points).max())
        checks.check_commuting(freq, levels, vector, out.points, scale)
        return Outcome(out.node_count())


# --- roundtrip --------------------------------------------------------------

class Roundtrip(Workload):
    """Shallow subdivision written through the CLI and read back: document
    writes and reads dominate, so a serializer change moves it and a kernel
    change barely does."""

    name = "roundtrip"
    TEMPLATES = [("circle", 3, 8), ("perturbed", 4, 8), ("ellipse", 12, 8),
                 ("perturbed", 20, 8), ("circle", 64, 8), ("ellipse", 5, 9),
                 ("perturbed", 6, 9), ("circle", 3, 10), ("cusp", 8, 10),
                 ("ellipse", 5, 10), ("perturbed", 4, 11), ("circle", 3, 12)]
    TINY_TEMPLATES = [("circle", 3, 2), ("cusp", 8, 1), ("perturbed", 5, 3)]

    def __init__(self, seed, tmpdir, tiny=False):
        super().__init__(seed, tmpdir, tiny)
        self.templates = self.TINY_TEMPLATES if tiny else self.TEMPLATES
        self.inputs = self.docs([(k, m) for k, m, _ in self.templates])
        self.out_path = os.path.join(tmpdir, "out.json")

    def deck(self, index):
        ops = []
        for i in self.rng(2, index).permutation(len(self.templates)):
            levels = self.templates[i][2]
            for scheme in ("vector", "scalar"):
                ops.append(Op(scheme, (scheme, i), {"t": int(i), "L": levels}))
        return ops

    def run(self, op):
        argv = ["subdivide", self.inputs[op.params["t"]].path, "--levels",
                str(op.params["L"]), "--scheme", op.kind, "--out", self.out_path]
        code = _quiet_main(argv)[0]
        with open(self.out_path) as fh:
            text = fh.read()
        if op.kind == "vector":
            return code, xdoc.loads_document(text)
        return code, json.loads(text)

    def check(self, op, out):
        code, result = out
        require(code == 0, f"subdivide exited {code}")
        t, levels = op.params["t"], op.params["L"]
        source = self.inputs[t]
        curve = source.doc.curve()
        vector = xsub.subdivide(curve.freq, curve.to_hermite_data(), levels)
        if op.kind == "scalar":
            require(isinstance(result, dict) and result.get("scheme") == "scalar"
                    and result.get("M") == source.doc.period
                    and result.get("level") == levels, "scalar header is wrong")
            points = np.array(result["control_points"], dtype=float)
            ctrl = xsub.hermite_to_scalar(curve.freq, 0, curve.to_hermite_data())
            for _ in range(levels):
                ctrl = xsub.scalar_refine_step(ctrl, curve.freq)
            require(np.array_equal(points, ctrl.points),
                    "reread control points differ from the in-memory result")
            scale = float(np.abs(source.doc.points).max())
            checks.check_commuting(curve.freq, levels, vector, points, scale)
            return Outcome(len(points) // 2)
        expected = xdoc.refined_document(source.doc, vector)
        require(result.period == expected.period
                and np.array_equal(result.points, expected.points)
                and np.array_equal(result.tangents, expected.tangents),
                "reread document differs from the in-memory result")
        # tangents are rescaled by the new grid step h = 2^-L (exact)
        step = 2.0 ** -levels
        checks.check_interpolatory(result.points, result.tangents, source.doc,
                                   levels, deriv_scale=step)
        if source.conic is None:
            return Outcome(result.period)
        verr, derr = checks.check_conic(source.conic, result.points,
                                        result.tangents / step, step, levels)
        return Outcome(result.period, verr, derr)


# --- verify -----------------------------------------------------------------

class Verify(Workload):
    """Every op a new frequency, so caches stay cold: the only workload that
    runs gram, greens, bezier and the seam at SMALL_FREQ_THRESHOLD."""

    name = "verify"
    LOW, HIGH = 1e-7, math.pi
    # both ends of the range and the two sides of the small-frequency seam
    ANCHORS = [1e-7, 0.99e-4, 1.01e-4, math.pi]
    PER_DECK = 30
    TINY_PER_DECK = 3
    GRID = [float(x) for x in np.linspace(-5.0, 5.0, 41)]
    BSPLINE_GRID = {order: [float(x) for x in np.linspace(-0.25, order + 0.25, 23)]
                    for order in (3, 4)}
    PHASES = [2 * math.pi * k / 8 for k in range(8)]
    BEZIER_T = [float(t) for t in np.linspace(0.0, 1.0, 9)]

    def __init__(self, seed, tmpdir, tiny=False):
        super().__init__(seed, tmpdir, tiny)
        self.per_deck = self.TINY_PER_DECK if tiny else self.PER_DECK
        self.shift = self.rng(1).uniform()

    def deck(self, index):
        """One frequency per stratum of [log 1e-7, log pi].  Deck k sits at
        offset frac(vdc(k) + shift) inside every stratum, vdc being the
        base-2 van der Corput sequence, so any number of decks spreads
        evenly over each stratum; the seed picks the shift and the order."""
        offset = (_van_der_corput(index) + self.shift) % 1.0
        lo, hi = math.log(self.LOW), math.log(self.HIGH)
        n = self.per_deck
        ops = [Op("verify", ("verify", w), {"w": w})
               for i in range(n)
               for w in [math.exp(lo + (hi - lo) * (i + offset) / n)]]
        ops = _shuffled(ops, self.rng(2, index))
        if index == 0:
            ops = [Op("verify", ("verify", w), {"w": w, "anchor": True})
                   for w in self.ANCHORS] + ops
        return ops

    def run(self, op):
        w = op.params["w"]
        text = "pi" if w == math.pi else repr(w)
        code, stdout = _quiet_main(["verify", "--suite", "all", "--omega0", text])
        freq = Frequency(w)
        grid = self.GRID
        residuals = {
            "rho_from_phi": max(abs(xgreens.rho_from_phi(freq, k, x)
                                    - xgreens.rho(freq, k, x))
                                for k in (1, 2) for x in grid),
            "phi_from_rho": max(abs(xgreens.phi_from_rho(freq, k, x)
                                    - xbasis.phi(freq, k, x))
                                for k in (1, 2) for x in grid),
            "bspline": max(abs(xgreens.bspline(freq, order, x, "green")
                               - xgreens.bspline(freq, order, x, "superfunction"))
                           for order in (3, 4) for x in self.BSPLINE_GRID[order]),
        }
        # a unit-circle arc on [0, 1], reproduced exactly by the basis
        bezier = []
        for phase in self.PHASES:
            f0 = np.array([math.cos(phase), math.sin(phase)])
            f1 = np.array([math.cos(w + phase), math.sin(w + phase)])
            d0 = w * np.array([-f0[1], f0[0]])
            d1 = w * np.array([-f1[1], f1[0]])
            seg = xbezier.hermite_to_bezier(freq, 1.0, f0, d0, f1, d1)
            values = [seg.value(t) for t in self.BEZIER_T]
            back = xbezier.bezier_to_hermite(seg, 1.0)
            bezier.append((phase, values, back, (d0, d1)))
        return code, stdout, residuals, bezier

    def check(self, op, out):
        code, stdout, residuals, bezier = out
        w = op.params["w"]
        freq = Frequency(w)
        verr = checks.check_verify_stdout(code, stdout)
        defects = {}
        for name, value in residuals.items():
            if checks.known_defect(name, w):
                defects[name] = value
                continue
            require(value <= checks.IDENTITY_TOL,
                    f"{name} residual {value:.3e} above {checks.IDENTITY_TOL:.0e} "
                    f"at w={w!r}")
            verr = max(verr, value)
        slope_tol = checks.bezier_slope_tol(xbezier.conversion_ratio(freq))
        derr = 0.0
        for phase, values, back, (d0, d1) in bezier:
            for t, value in zip(self.BEZIER_T, values):
                exact = np.array([math.cos(w * t + phase), math.sin(w * t + phase)])
                err = float(np.linalg.norm(value - exact))
                require(err <= checks.BEZIER_VALUE_TOL,
                        f"Bezier value off by {err:.3e}")
                verr = max(verr, err)
            for got, exact in ((back[1], d0), (back[3], d1)):
                err = float(np.linalg.norm(got - exact))
                require(err <= slope_tol, f"Bezier slope off by {err:.3e}")
                derr = max(derr, err / w)
        if not op.params.get("anchor"):
            # only the fixed anchors feed the error metrics: near w = 1e-7
            # the Bezier slope errors are rounding amplified by 1/w, so the
            # seeded frequencies there would make the maxima a matter of the
            # seed
            return Outcome(1, known_defects=defects)
        return Outcome(1, verr, derr, defects)


WORKLOADS = {cls.name: cls for cls in (Render, Refine, Roundtrip, Verify)}
