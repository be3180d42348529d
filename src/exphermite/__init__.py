"""Exponential Hermite splines with exact ellipse reproduction.

Evaluation of the cardinal generator pair, Green's-function identities,
Riesz-stability verification, Hermite/Bezier conversion, non-stationary
vector and scalar subdivision, and closed-curve modelling with SVG export.
"""

from .basis import (
    E4Piece,
    GeneratorPair,
    HermiteData,
    make_generators,
    phi,
    phi_deriv,
    phi_pair,
    piece_kernels,
    spline_eval,
)
from .bezier import (
    BezierSegment,
    bernstein,
    bernstein_basis,
    bezier_to_hermite,
    conversion_ratio,
    endpoint_slope,
    hermite_to_bezier,
)
from .curve import (
    ClosedHermiteCurve,
    reproduction_check,
    reproduction_errors,
    unit_circle,
)
from .document import (
    CurveDocument,
    DocumentFormatError,
    dumps_document,
    loads_document,
    refined_document,
    render_svg,
)
from . import greens
from .frequency import DomainError, Frequency
from .gram import (
    GramEntries,
    det_scan_min,
    gram_entries,
    lower_bound_G,
    riesz_bounds,
)
from .greens import (
    annihilation_weights,
    bspline,
    phi_from_rho,
    rho,
    rho_from_phi,
)
from .subdivision import (
    MAX_NODES,
    ScalarControl,
    hermite_to_scalar,
    masks,
    refine_step,
    scalar_refine_step,
    scalar_to_hermite,
    subdivide,
)

__version__ = "0.1.0"

# the cached functions themselves, kept apart from the names above so that a
# wrapper installed over a name does not hide its cache
_CACHES = {"make_generators": make_generators, "gram_entries": gram_entries,
           "bernstein_basis": bernstein_basis,
           "greens_constants": greens._constants}


def diagnostics() -> dict[str, dict[str, int]]:
    """Entry count, bound, hits and misses of each bounded per-frequency
    cache, as {name: {"currsize", "maxsize", "hits", "misses"}}."""
    return {
        name: {key: getattr(cached.cache_info(), key)
               for key in ("currsize", "maxsize", "hits", "misses")}
        for name, cached in _CACHES.items()
    }


__all__ = [
    "BezierSegment",
    "ClosedHermiteCurve",
    "CurveDocument",
    "DocumentFormatError",
    "DomainError",
    "E4Piece",
    "Frequency",
    "GeneratorPair",
    "GramEntries",
    "HermiteData",
    "MAX_NODES",
    "ScalarControl",
    "annihilation_weights",
    "bernstein",
    "bernstein_basis",
    "bezier_to_hermite",
    "bspline",
    "conversion_ratio",
    "det_scan_min",
    "diagnostics",
    "dumps_document",
    "endpoint_slope",
    "gram_entries",
    "hermite_to_bezier",
    "hermite_to_scalar",
    "loads_document",
    "lower_bound_G",
    "make_generators",
    "masks",
    "phi",
    "phi_deriv",
    "phi_from_rho",
    "phi_pair",
    "piece_kernels",
    "refine_step",
    "refined_document",
    "render_svg",
    "reproduction_check",
    "reproduction_errors",
    "rho",
    "rho_from_phi",
    "riesz_bounds",
    "scalar_refine_step",
    "scalar_to_hermite",
    "spline_eval",
    "subdivide",
    "unit_circle",
]
