"""Every closed form of the package against 80-digit references, on one
frequency grid that includes 0, 1e-7, both sides of 1e-4 (where a former
cubic-limit path switched on) and pi.

The error of a value v against its reference r is |v - r| / max(1, |r|):
absolute for the generators, B-splines and ratios of size at most 1,
relative for larger values (rho at |x| up to 5, the localization
coefficients).  The mask entries, whose sizes scale like 2^j and 2^-j, are
compared relatively.  Every value is within ``VALUE_TOL`` and every
derivative within ``DERIV_TOL`` of its reference.

``BEFORE`` holds the worst error each quantity had above 1e-4, on this grid,
in the code that still switched to the cubic limit below 1e-4; above 1e-4
each stays within twice that.  Below 1e-4 that code returned the w = 0
limit, off by O(w^2): 8.8e-12 for phi1 and 1.2e-8 for rho1 at 0.99e-4,
against 1.0e-15 and 1.6e-16 now.  Measured worst over the whole grid:
2.3e-15 for the derivatives and 1.8e-15 for the values.
"""

import math

import numpy as np
import pytest

import exact
from exphermite import (
    Frequency,
    bspline,
    conversion_ratio,
    endpoint_slope,
    masks,
    phi,
    phi_deriv,
    rho,
)
from exphermite.greens import _constants

GRID = [0.0, 1e-7, 0.99e-4, 1.01e-4, 0.01, 0.5, 1.0, 2.0, 3 * math.pi / 4, math.pi]
VALUE_TOL = 4e-15
DERIV_TOL = 8e-15
PHI_X = np.linspace(-1.0, 1.0, 101)
RHO_X = np.linspace(-5.0, 5.0, 41)
BSPLINE_X = {order: np.linspace(-0.25, order + 0.25, 23) for order in (3, 4)}
LEVELS = (0, 1, 5)

# worst error above 1e-4 on this grid before the single path
BEFORE = {
    "phi1": 8.6e-16, "phi2": 7.5e-16, "phi1'": 2.3e-15, "phi2'": 1.4e-15,
    "rho1": 3.8e-16, "rho2": 3.5e-16, "lam": 7.4e-17, "kappa": 2.6e-16,
    "localization": 2.5e-16, "masks": 1.1e-11, "bspline_green": 2.3e-15,
    "bspline_superfunction": 8.6e-16,
}
DERIVATIVES = {"phi1'", "phi2'"}


def error(got, reference) -> float:
    return float(abs(got - reference) / max(1, abs(reference)))


def worst(pairs) -> float:
    return max(error(float(got), ref) for got, ref in pairs)


def errors(w: float) -> dict[str, float]:
    f = Frequency(w)
    out = {}
    for k in (1, 2):
        out[f"phi{k}"] = worst(zip(phi(f, k, PHI_X), (exact.phi(w, k, x) for x in PHI_X)))
        out[f"phi{k}'"] = worst(zip(phi_deriv(f, k, PHI_X),
                                    (exact.phi(w, k, x, True) for x in PHI_X)))
        out[f"rho{k}"] = worst(zip(rho(f, k, RHO_X), (exact.rho(w, k, x) for x in RHO_X)))
    out["lam"] = error(conversion_ratio(f), exact.conversion_ratio(w))
    out["kappa"] = error(endpoint_slope(f), exact.endpoint_slope(w))
    constants = _constants(f)
    out["localization"] = worst(zip((constants.g1.C, -constants.g1.D, constants.c4),
                                    exact.localization_coefficients(w)))
    pairs = []
    for j in LEVELS:
        pairs += zip(masks(f, j), exact.mask_entries(w, j))
    out["masks"] = max(float(abs(got - ref) / abs(ref)) for got, ref in pairs)
    for method in ("green", "superfunction"):
        out[f"bspline_{method}"] = max(
            worst(zip(bspline(f, order, xs, method),
                      (exact.bspline(w, order, x) for x in xs)))
            for order, xs in BSPLINE_X.items())
    return out


@pytest.fixture(scope="module")
def table():
    return {w: errors(w) for w in GRID}


@pytest.mark.parametrize("name", sorted(BEFORE))
def test_within_the_tolerance_on_the_whole_grid(table, name):
    tol = DERIV_TOL if name in DERIVATIVES else VALUE_TOL
    assert max(row[name] for row in table.values()) <= tol


@pytest.mark.parametrize("name", sorted(BEFORE))
def test_within_twice_the_former_error_above_1e_4(table, name):
    above = max(row[name] for w, row in table.items() if w > 1e-4)
    assert above <= 2.0 * BEFORE[name]
