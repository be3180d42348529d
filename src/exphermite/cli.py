"""Command-line front end: basis tables, subdivision, SVG rendering, and
property verification.

Exit codes: 0 success, 1 verification failure, 2 bad flags, 3 domain or
invariant errors (including output above MAX_OUTPUT_ROWS rows and output
numbers that are not finite), 4 malformed input JSON, input that is not
UTF-8 or an unsupported document version, 5 unwritable output.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import stat
import sys

import numpy as np
from numpy.polynomial.legendre import leggauss

from . import __version__
from .basis import HermiteData, _k1, phi, phi_deriv, phi_pair
from .curve import reproduction_errors
from .document import (
    CurveDocument,
    DocumentFormatError,
    dumps_document,
    dumps_scalar_document,
    format_rows,
    loads_document,
    refined_document,
    render_svg,
)
from .frequency import DomainError, Frequency, sin_over
from .gram import det_scan_min, gram_entries, lower_bound_G, riesz_bounds
from .subdivision import (
    check_node_budget,
    hermite_to_scalar,
    masks,
    refine_step,
    scalar_refine_step,
    stationary_distance,
    subdivide,
)

EXIT_VERIFY_FAIL = 1
EXIT_DOMAIN = 3
EXIT_BAD_JSON = 4
EXIT_UNWRITABLE = 5

MAX_OUTPUT_ROWS = 2**20
"""Most rows of text one command writes: subdivided nodes (vector scheme)
or control points (scalar scheme), SVG path points, or CSV samples.  At
about 100 bytes a row this is some 100 MB of text; larger requests exit
with code 3 before anything is allocated."""

_PI_FORM = re.compile(r"^(\d+(?:\.\d+)?)?pi(?:/(\d+(?:\.\d+)?))?$", re.IGNORECASE)


def parse_omega0(text: str) -> float:
    """Accept a plain float or the literal form '<p>pi/<q>' (e.g. 3pi/4)."""
    match = _PI_FORM.match(text.strip())
    try:
        if not match:
            return float(text)
        num = float(match.group(1) or 1.0)
        return num * math.pi / float(match.group(2) or 1.0)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"expected a float or '<p>pi/<q>' with q != 0, got {text!r}"
        ) from None


def _open_in_place(path: str, flags: int) -> int:
    # the flags open() gives "wb", O_BINARY included, without O_TRUNC
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


def _write_text(path: str | None, text: str) -> None:
    """Write text as UTF-8 to the file at path, or to stdout for None or "-".

    The file is overwritten in place and then truncated to the bytes
    written, not truncated to zero first: on ext4 a rewrite after a
    truncate to zero makes the kernel flush the data when the file closes.
    A successful write leaves the bytes, inode, mode and links of a "w"
    open; a failed one leaves exactly the bytes it wrote.  Only a regular
    file is truncated, so devices and FIFOs are written as before.
    """
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "wb", opener=_open_in_place) as fh:
            try:
                fh.write(text.encode("utf-8"))
                fh.flush()
            finally:
                # the raw position counts the bytes that reached the file
                if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                    fh.raw.truncate()
    except OSError as exc:
        print(f"error: cannot write {path!r}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_UNWRITABLE) from exc


def _load_document(path: str) -> CurveDocument:
    # UTF-8 whatever the locale, as JSON text is
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read {path!r}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_BAD_JSON) from exc
    except UnicodeDecodeError as exc:
        print(f"error: malformed document: not UTF-8 text: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_BAD_JSON) from exc
    try:
        return loads_document(text)
    except DocumentFormatError as exc:
        print(f"error: malformed document: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_BAD_JSON) from exc


def _check_rows(rows: int, what: str) -> None:
    if rows > MAX_OUTPUT_ROWS:
        raise DomainError(
            f"{what} asks for {rows} rows, above the cap of "
            f"{MAX_OUTPUT_ROWS} output rows"
        )


def cmd_basis(args: argparse.Namespace) -> int:
    freq = Frequency(args.omega0)
    lo, hi = args.range
    if args.samples < 2:
        raise DomainError(f"samples must be >= 2, got {args.samples}")
    _check_rows(args.samples, "--samples")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError(f"range bounds must be finite, got {lo} and {hi}")
    if hi <= lo:
        raise DomainError(f"range upper bound {hi} must exceed lower bound {lo}")
    evaluate = phi_deriv if args.deriv else phi
    xs = np.linspace(lo, hi, args.samples)
    values = evaluate(freq, args.which, xs)
    body = format_rows(np.column_stack([xs, values]), "%.17g,%.17g", "\n")
    _write_text(args.out, f"x,value\n{body}\n")
    return 0


def cmd_subdivide(args: argparse.Namespace) -> int:
    doc = _load_document(args.input)
    curve = doc.curve()
    data = curve.to_hermite_data()
    # one output row per vector node, two (its control points) per scalar one
    rows_per_node = 1 if args.scheme == "vector" else 2
    check_node_budget(len(data), data.periodic, args.levels,
                      MAX_OUTPUT_ROWS // rows_per_node)
    if args.scheme == "vector":
        refined = subdivide(curve.freq, data, args.levels)
        _write_text(args.out, dumps_document(refined_document(doc, refined)))
        return 0
    ctrl = hermite_to_scalar(curve.freq, 0, data)
    for _ in range(args.levels):
        ctrl = scalar_refine_step(ctrl, curve.freq)
    _write_text(args.out, dumps_scalar_document(doc, ctrl))
    return 0


def cmd_render(args: argparse.Namespace) -> int:
    doc = _load_document(args.input)
    _check_rows(doc.period * args.samples_per_span, "--samples-per-span")
    svg = render_svg(doc, samples_per_span=args.samples_per_span,
                     handles=args.handles)
    _write_text(args.out, svg)
    return 0


def _check(name: str, value: float, threshold: float, ok: bool) -> dict:
    return {"name": name, "value": value, "threshold": threshold, "ok": ok}


def _suite_riesz(freq: Frequency) -> list[dict]:
    alpha, beta = riesz_bounds(freq)
    min_det = det_scan_min(freq)
    bound = lower_bound_G(freq)
    return [
        _check("riesz lower bound alpha > 0", alpha, 0.0, alpha > 0.0),
        _check("riesz upper bound beta finite", beta, math.inf,
               math.isfinite(beta) and beta >= alpha),
        _check("min det >= closed-form bound - 1e-12", min_det - bound, -1e-12,
               min_det >= bound - 1e-12),
    ]


def _suite_reproduction(freq: Frequency) -> list[dict]:
    targets = ("const", "linear", "cos")
    return [_check(f"reproduction of {target}", err, 1e-12, err < 1e-12)
            for target, err in zip(targets, reproduction_errors(freq, targets))]


def _suite_masks(freq: Frequency) -> list[dict]:
    levels = (0, 16)
    rules = [masks(freq, j) for j in levels]
    dist = stationary_distance(freq, 16)
    # one insertion per level at the nodes x = 0, h = 2^-j, against the
    # exact midpoint, on cos(w x), sin(w x) and the scaled pair sin(w x)/w,
    # (1 - cos(w x))/w^2, which tend to x and x^2/2 and so keep the check
    # live at w = 0; derivative errors scaled by h, the error model of
    # refine_step.  Each level runs one refine_step on the two nodes, the
    # four functions as the columns: [level, point, function].
    w, h = freq.omega0, np.ldexp(1.0, [-j for j in levels])
    x = np.multiply.outer(h, [0.0, 1.0, 0.5])
    c, s, s_w = np.cos(w * x), np.sin(w * x), sin_over(w, x)
    v = np.stack([c, s, s_w, _k1(freq, x)], axis=-1)
    d = np.stack([-w * s, w * c, c, s_w], axis=-1)
    errs = []
    for k, rule in enumerate(rules):
        mid = refine_step(HermiteData(v[k, :2], d[k, :2]), rule)
        errs.append(float(np.maximum(abs(mid.values[1] - v[k, 2]),
                                     h[k] * abs(mid.derivs[1] - d[k, 2])).max()))
    return [
        _check("stationary-limit distance at level 16", dist, 1e-3, dist < 1e-3),
        *(_check(f"insertion keeps cos, sin at level {j}", err, 1e-13, err < 1e-13)
          for j, err in zip(levels, errs)),
    ]


_GAUSS_NODES = 20


@functools.cache
def _gauss_rule() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the Gauss-Legendre rule on [0, 1], built once
    per process and read-only, since every call shares them."""
    nodes, weights = leggauss(_GAUSS_NODES)
    x, weights = 0.5 * (nodes + 1.0), 0.5 * weights
    x.flags.writeable = weights.flags.writeable = False
    return x, weights


def _suite_gram(freq: Frequency) -> list[dict]:
    g = gram_entries(freq)
    # Gauss-Legendre on [0, 1], where each generator is one smooth segment
    x, weights = _gauss_rule()
    p1, p2 = phi_pair(freq, x)
    q1, q2 = phi_pair(freq, x - 1.0)
    pairs = {
        "a": (g.a, weights @ (p1 * q1)),
        "b": (g.b, 2 * weights @ (p1 * p1)),
        "c": (g.c, weights @ (p1 * q2)),
        "d": (g.d, weights @ (p2 * q2)),
        "e": (g.e, 2 * weights @ (p2 * p2)),
    }
    out = []
    for name, (closed, numeric) in pairs.items():
        err = abs(closed - numeric)
        out.append(_check(f"gram entry {name} vs quadrature", err, 1e-8, err < 1e-8))
    alpha, _ = riesz_bounds(freq)
    out.append(_check("smallest symbol eigenvalue > 0", alpha * alpha, 0.0,
                      alpha > 0.0))
    return out


_SUITES = {
    "riesz": _suite_riesz,
    "reproduction": _suite_reproduction,
    "masks": _suite_masks,
    "gram": _suite_gram,
}


def cmd_verify(args: argparse.Namespace) -> int:
    freq = Frequency(args.omega0)
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    checks: list[dict] = []
    for name in names:
        checks.extend(_SUITES[name](freq))
    width = max(len(c["name"]) for c in checks)
    failed = 0
    for c in checks:
        status = "PASS" if c["ok"] else "FAIL"
        failed += 0 if c["ok"] else 1
        print(
            f"{c['name']:<{width}}  value={c['value']: .6e}  "
            f"threshold={c['threshold']: .6e}  {status}"
        )
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return EXIT_VERIFY_FAIL if failed else 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of this process, built on first use: building it costs
    over ten times a parse, and parse_args leaves the parser unchanged."""
    parser = argparse.ArgumentParser(
        prog="exphermite",
        description="Exponential Hermite splines: evaluate, subdivide, render, verify.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("basis", help="tabulate a generator as CSV")
    p.add_argument("--omega0", type=parse_omega0, required=True)
    p.add_argument("--which", type=int, choices=(1, 2), default=1)
    p.add_argument("--deriv", action="store_true")
    p.add_argument("--range", type=float, nargs=2, default=(-1.0, 1.0),
                   metavar=("LO", "HI"))
    p.add_argument("--samples", type=int, default=201)
    p.add_argument("--out", default=None)

    p = sub.add_parser("subdivide", help="refine a curve document")
    p.add_argument("input")
    p.add_argument("--levels", type=int, default=1)
    p.add_argument("--scheme", choices=("vector", "scalar"), default="vector")
    p.add_argument("--out", default=None)

    p = sub.add_parser("render", help="render a curve document to SVG")
    p.add_argument("input")
    p.add_argument("--samples-per-span", type=int, default=64)
    p.add_argument("--handles", action="store_true")
    p.add_argument("--out", default=None)

    p = sub.add_parser("verify", help="run property verification suites")
    p.add_argument("--suite", choices=(*_SUITES, "all"), default="all")
    p.add_argument("--omega0", type=parse_omega0, required=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.command in ("subdivide", "render"):
        if getattr(args, "levels", 0) < 0:
            parser.error("--levels must be nonnegative")
        if getattr(args, "samples_per_span", 1) < 1:
            parser.error("--samples-per-span must be >= 1")
    # looked up per call, so the handler that runs is the module's current one
    handler = globals()[f"cmd_{args.command}"]
    # every output is checked finite, so a numpy overflow warning would only
    # precede the error line
    try:
        with np.errstate(all="ignore"):
            return handler(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
