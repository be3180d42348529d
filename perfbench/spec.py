"""The layers the traced pass wraps.

Workload names, metric names, units and bounds live in BENCHMARK.json alone;
run.py reads them from there.
"""

# Traced functions: (metric prefix, module, attribute).  A dotted attribute
# is a method, wrapped through its class.
LAYERS = [
    ("frequency.x_minus_sin", "exphermite.frequency", "x_minus_sin"),
    ("frequency.one_minus_cos", "exphermite.frequency", "one_minus_cos"),
    ("frequency.sin_minus_x_cos", "exphermite.frequency", "sin_minus_x_cos"),
    ("basis.E4Piece.value", "exphermite.basis", "E4Piece.value"),
    ("basis.spline_eval", "exphermite.basis", "spline_eval"),
    ("basis.phi", "exphermite.basis", "phi"),
    ("basis.phi_deriv", "exphermite.basis", "phi_deriv"),
    ("basis.make_generators", "exphermite.basis", "make_generators"),
    ("curve.eval", "exphermite.curve", "ClosedHermiteCurve.eval"),
    ("curve.reproduction_check", "exphermite.curve", "reproduction_check"),
    ("greens.rho", "exphermite.greens", "rho"),
    ("greens.bspline", "exphermite.greens", "bspline"),
    ("greens.phi_from_rho", "exphermite.greens", "phi_from_rho"),
    ("greens.rho_from_phi", "exphermite.greens", "rho_from_phi"),
    ("gram.gram_entries", "exphermite.gram", "gram_entries"),
    ("gram.lower_bound_G", "exphermite.gram", "lower_bound_G"),
    ("gram.riesz_bounds", "exphermite.gram", "riesz_bounds"),
    ("gram.det_scan_min", "exphermite.gram", "det_scan_min"),
    ("bezier.bernstein_basis", "exphermite.bezier", "bernstein_basis"),
    ("bezier.conversion_ratio", "exphermite.bezier", "conversion_ratio"),
    ("bezier.segment_value", "exphermite.bezier", "BezierSegment.value"),
    ("subdivision.masks", "exphermite.subdivision", "masks"),
    ("subdivision.refine_step", "exphermite.subdivision", "refine_step"),
    ("subdivision.scalar_refine_step", "exphermite.subdivision",
     "scalar_refine_step"),
    ("subdivision.hermite_to_scalar", "exphermite.subdivision",
     "hermite_to_scalar"),
    ("document.dumps_document", "exphermite.document", "dumps_document"),
    ("document.loads_document", "exphermite.document", "loads_document"),
    ("document.render_svg", "exphermite.document", "render_svg"),
    ("document.format_number", "exphermite.document", "format_number"),
    ("cli.main", "exphermite.cli", "main"),
]

# Called more than about 10^4 times in one op: these keep aggregate counts
# and times only, no spans.
HOT = {
    "frequency.x_minus_sin", "frequency.one_minus_cos",
    "frequency.sin_minus_x_cos", "basis.E4Piece.value", "basis.spline_eval",
    "basis.phi", "basis.phi_deriv", "basis.make_generators", "curve.eval",
    "greens.rho", "document.format_number",
}
