"""Bit identity of the Green's-function routes.

Each case hashes the int64 views of one ``greens`` output over a fixed grid
of frequencies and points, through both the float route (one Python float
per call) and the array route (one call on the whole grid), and compares
the SHA-256 digest with one pinned from commit 91e8c15, before the module
was rewritten to state each rule once.  The points cover (-1, 0), where
``rho_from_phi`` rounds its offset, both signed zeros, the integers and the
B-spline supports; the frequencies cover w = 0, the subnormals, both sides
of the series switch near 1e-4 and pi.
"""

import hashlib
import math

import numpy as np
import pytest

from exphermite import (
    Frequency,
    annihilation_weights,
    bspline,
    phi_from_rho,
    rho,
    rho_from_phi,
)

FREQS = [0.0, 5e-324, 1e-7, 0.99e-4, 1.01e-4, 1.0, math.pi]
X = [*(float(n) for n in range(-5, 6)), -0.0, 5e-324, -5e-324, -1e-17,
     -0.1, -0.3, -0.5, -0.7, -0.9, -0.999999, 0.1, 0.5, 1.25, 2.75, 3.5,
     3.999, -1.5, -2.3, 4.2, 5.3, -5.3]


def _which(fn):
    return lambda f, x: [v for k in (1, 2) for v in _lanes(lambda y: fn(f, k, y), x)]


def _bspline(method):
    return lambda f, x: [v for order in (3, 4)
                         for v in _lanes(lambda y: bspline(f, order, y, method), x)]


def _lanes(call, xs):
    """The float route at every point, then the array route at all."""
    return [*(call(x) for x in xs), *call(np.array(xs))]


OUTPUTS = {
    "rho": _which(rho),
    "rho_from_phi": _which(rho_from_phi),
    "phi_from_rho": _which(phi_from_rho),
    "bspline_green": _bspline("green"),
    "bspline_superfunction": _bspline("superfunction"),
    "annihilation_weights": lambda f, _: [*annihilation_weights(f, 3),
                                          *annihilation_weights(f, 4)],
}

GOLDEN = {
    "rho":
        "cf3282161cdcc0226930c5f015e9cad944786d15323c6e558546490a576034aa",
    "rho_from_phi":
        "275d49c86f7888d069f7d0c874421ab23d2dd48525093bf32047187df5b4ee05",
    "phi_from_rho":
        "2a2323172226077e3e707b78b11508e60fb98bb4a7e8ff1d4f0c4e4e9e13470e",
    "bspline_green":
        "08eb091b3dec9ec1eadb2d0bb93b0208ac93caa13b12221a21e9dff0f9ab3cd3",
    "bspline_superfunction":
        "b907d6286639bb191a648c1a6ee7ba318f8ae52e27d08fca171123edf8a999af",
    "annihilation_weights":
        "c017b4c16a5adaa457b90517cb227f9671977c9ad8d56cb2e2a118d87b0855c2",
}


@pytest.mark.parametrize("name", OUTPUTS)
def test_greens_outputs_match_golden_bits(name):
    values = [v for w in FREQS for v in OUTPUTS[name](Frequency(w), X)]
    bits = np.array(values, dtype=np.float64).view(np.int64)
    assert hashlib.sha256(bits.tobytes()).hexdigest() == GOLDEN[name]
