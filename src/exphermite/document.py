"""Curve interchange documents (JSON) and SVG rendering.

The JSON schema is the single on-disk format:

    {"version": 1, "M": 8, "omega0_mode": "auto",
     "points": [[x, y], ...], "tangents": [[dx, dy], ...]}

Numbers are written with 17 significant digits so every double value
survives the round trip, and output is byte-stable for fixed input.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .curve import ClosedHermiteCurve
from .frequency import DomainError


DOCUMENT_VERSION = 1
"""The only document version this package reads and writes."""


class DocumentFormatError(ValueError):
    """The payload is not a structurally valid curve document."""


@dataclass(frozen=True)
class CurveDocument:
    version: int
    period: int
    points: np.ndarray
    tangents: np.ndarray
    omega0_mode: str = "auto"

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float)
        tan = np.asarray(self.tangents, dtype=float)
        if self.omega0_mode != "auto":
            raise DomainError(f"unsupported omega0_mode {self.omega0_mode!r}")
        if len(pts) != self.period or len(tan) != self.period:
            raise DomainError(
                f"points/tangents lists must have length M = {self.period}"
            )
        if not (np.isfinite(pts).all() and np.isfinite(tan).all()):
            raise DomainError("document entries must be finite numbers")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "tangents", tan)

    def curve(self) -> ClosedHermiteCurve:
        return ClosedHermiteCurve(self.points, self.tangents)

    @classmethod
    def from_curve(cls, curve: ClosedHermiteCurve) -> "CurveDocument":
        return cls(DOCUMENT_VERSION, curve.period, curve.points, curve.tangents)


def format_number(x: float) -> str:
    """17 significant digits; negative zero is canonicalized so that
    serializing a reparsed document reproduces the bytes."""
    return format(float(x) + 0.0, ".17g")


def format_rows(block, row: str, sep: str) -> str:
    """Text of an (n, k) block in one %-format pass: ``row`` is a template
    with k conversions, repeated n times and joined by ``sep``.  Adding 0.0
    maps -0.0 to 0.0 as format_number does; a block that never holds -0.0
    (pixel coordinates) is unchanged by it."""
    block = np.asarray(block, dtype=float) + 0.0
    return sep.join([row] * len(block)) % tuple(block.ravel().tolist())


_PAIR = "[%.17g, %.17g]"


def dumps_document(doc: CurveDocument) -> str:
    """Serialize with fixed key order and 17-significant-digit numbers."""
    return (
        "{\n"
        f'  "version": {doc.version},\n'
        f'  "M": {doc.period},\n'
        f'  "omega0_mode": "{doc.omega0_mode}",\n'
        f'  "points": [{format_rows(doc.points, _PAIR, ", ")}],\n'
        f'  "tangents": [{format_rows(doc.tangents, _PAIR, ", ")}]\n'
        "}\n"
    )


def dumps_scalar_document(doc: CurveDocument, ctrl) -> str:
    """Serialize the scalar-scheme control polygon ``ctrl`` (a
    ScalarControl) refined from ``doc``: one control point per line, in the
    number format of dumps_document."""
    body = format_rows(ctrl.points, _PAIR, ",\n    ")
    return (
        "{\n"
        f'  "version": {doc.version},\n'
        f'  "M": {doc.period},\n'
        f'  "scheme": "scalar",\n'
        f'  "level": {ctrl.level},\n'
        f'  "control_points": [\n    {body}\n  ]\n'
        "}\n"
    )


def _require(payload: dict, key: str, kinds) -> object:
    if key not in payload:
        raise DocumentFormatError(f"missing document key {key!r}")
    value = payload[key]
    # bool is an int subclass but never a valid document value
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise DocumentFormatError(f"document key {key!r} has wrong type")
    return value


def _point_list(payload: dict, key: str) -> list[list[float]]:
    rows = _require(payload, key, list)
    # json.loads yields exact types, so one type-set scan refuses bools (an
    # int subclass) and strings such as "1.5", which np.array would coerce
    if not (set(map(type, rows)) <= {list} and set(map(len, rows)) <= {2}
            and set(map(type, chain.from_iterable(rows))) <= {int, float}):
        raise DocumentFormatError(f"{key!r} must be a list of [x, y] pairs")
    return rows


def loads_document(text: str) -> CurveDocument:
    """Parse and validate; format problems raise DocumentFormatError,
    invariant violations raise DomainError."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentFormatError(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise DocumentFormatError("document nests too deeply") from exc
    except ValueError as exc:  # an integer literal above int_max_str_digits
        raise DomainError(f"document number out of range: {exc}") from exc
    if not isinstance(payload, dict):
        raise DocumentFormatError("document root must be a JSON object")
    version = _require(payload, "version", int)
    if version != DOCUMENT_VERSION:
        raise DocumentFormatError(
            f"unsupported document version {version!r}; "
            f"expected {DOCUMENT_VERSION}"
        )
    period = _require(payload, "M", int)
    mode = _require(payload, "omega0_mode", str)
    points = _point_list(payload, "points")
    tangents = _point_list(payload, "tangents")
    try:
        points = np.array(points, dtype=float)
        tangents = np.array(tangents, dtype=float)
    except OverflowError:  # an integer literal beyond the float range
        raise DomainError("document entries must be finite numbers") from None
    return CurveDocument(version, period, points, tangents, mode)


def refined_document(doc: CurveDocument, refined) -> CurveDocument:
    """Wrap refined periodic Hermite samples back into a document.

    The refined grid has spacing h = M / M'; reparametrizing to unit
    spacing multiplies the tangents by h, after which omega0 = 2 pi / M'
    again holds automatically.
    """
    m_new = len(refined)
    h = doc.period / m_new
    return CurveDocument(doc.version, m_new, refined.values, h * refined.derivs)


# --- SVG output -----------------------------------------------------------

VIEWPORT = 1000.0
MARGIN_FRACTION = 0.05


def _fit(points: np.ndarray):
    """Uniform map from data coordinates into the fixed square viewport
    with a margin; y is flipped so the curve appears in the usual
    orientation."""
    lo = points.min(axis=0)
    hi = points.max(axis=0)
    span = float(max(hi[0] - lo[0], hi[1] - lo[1]))
    if span <= 0.0:
        span = 1.0
    margin = MARGIN_FRACTION * VIEWPORT
    scale = (VIEWPORT - 2.0 * margin) / span
    center = 0.5 * (lo + hi)

    def to_px(p):
        """(n, 2) data points to (n, 2) pixel coordinates."""
        x = VIEWPORT / 2.0 + (p[..., 0] - center[0]) * scale
        y = VIEWPORT / 2.0 - (p[..., 1] - center[1]) * scale
        return np.stack([x, y], axis=-1)

    return to_px


_HANDLE = (
    '<line class="handle" x1="%.6f" y1="%.6f" x2="%.6f" y2="%.6f" '
    'stroke="steelblue" stroke-width="1.5"/>\n'
    '<path class="ctrl" d="M %.6f,%.6f L %.6f,%.6f M %.6f,%.6f L %.6f,%.6f" '
    'stroke="crimson" stroke-width="1.5" fill="none"/>'
)


def render_svg(doc: CurveDocument, samples_per_span: int = 64,
               handles: bool = False) -> str:
    """Deterministic SVG 1.1 picture: one closed path through a dense
    evaluation of the curve, optionally with one cross marker and one
    tangent line per control point."""
    if samples_per_span < 1:
        raise DomainError(
            f"samples_per_span must be >= 1, got {samples_per_span!r}"
        )
    curve = doc.curve()
    m = curve.period
    samples, _ = curve.eval(np.arange(m * samples_per_span) / samples_per_span)
    to_px = _fit(samples)
    path = "M " + format_rows(to_px(samples), "%.6f,%.6f", " L ") + " Z"
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{VIEWPORT:.0f}" height="{VIEWPORT:.0f}" '
        f'viewBox="0 0 {VIEWPORT:.0f} {VIEWPORT:.0f}">',
        f'<path d="{path}" fill="none" stroke="black" stroke-width="2"/>',
    ]
    if handles:
        arm = 0.008 * VIEWPORT
        x, y = to_px(doc.points).T
        tip_x, tip_y = to_px(doc.points + doc.tangents).T
        lines.append(format_rows(
            np.column_stack([x, y, tip_x, tip_y, x - arm, y, x + arm, y,
                             x, y - arm, x, y + arm]), _HANDLE, "\n"))
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
