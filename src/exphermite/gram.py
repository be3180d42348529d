"""Gram matrix of the generator shifts and Riesz-bound verification.

The five entries a..e and the determinant lower bound G are closed forms
whose numerators cancel down to the w^7..w^12 scale of their denominators,
so double precision loses them long before w reaches 0.  Each is even in w
and analytic on [0, pi] (the nearest singularity is at 2 pi), so all six
are one degree-14 Chebyshev series in t = 2 w^2 / pi^2 - 1.  Its table is
fitted to the closed forms in 80-digit arithmetic by
``scripts/fit_gram_table.py`` and matches them within 4e-16 relative on
all of [0, pi], w = 0 included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.chebyshev import chebval

from .frequency import Frequency

# rows: degrees 0..14; columns: a, b, c, d, e, G
_TABLE = np.array([
    [0.1268443540068659, 0.7463112919862682, -0.034599510354964606,
     -0.008990263893684654, 0.023187233992437755, 0.004941596769024464],
    [-0.0017836813515506777, 0.0035673627031013555, -0.003913290205540046,
     -0.0020313006221561376, 0.004526332680979954, 0.00034158715754561964],
    [-5.856863244580962e-05, 0.00011713726489161925, -0.000285734177689652,
     -0.0002007613593062513, 0.0004212206957173539, 2.0850414228363727e-06],
    [-2.030451534780426e-06, 4.060903069560852e-06, -2.099986427461826e-05,
     -1.833874453683652e-05, 3.74755084855444e-05, -1.239854875795836e-06],
    [-7.100230993894482e-08, 1.4200461987788964e-07, -1.529743096033963e-06,
     -1.595403614259421e-06, 3.221986101107231e-06, -1.7675111835037091e-07],
    [-2.479633610581596e-09, 4.959267221163192e-09, -1.106980606519564e-07,
     -1.3438202141782752e-07, 2.6994971756439275e-07, -1.8417474588986505e-08],
    [-8.629239422954036e-11, 1.7258478845908073e-10, -7.980132813956605e-09,
     -1.1064367906534224e-08, 2.2172912452255254e-08, -1.7087238587418201e-09],
    [-2.9916540937366127e-12, 5.983308187473225e-12, -5.741237411954886e-10,
     -8.957265321614417e-10, 1.7930731937740157e-09, -1.4941063837843376e-10],
    [-1.0334842661425486e-13, 2.0669685322850973e-13, -4.1262294228932575e-11,
     -7.1572971839842e-11, 1.432046198513624e-10, -1.2606559370161926e-11],
    [-3.558710543094267e-15, 7.117421086188534e-15, -2.963988726500849e-12,
     -5.659643024473629e-12, 1.1321389647651452e-11, -1.0385263597193156e-12],
    [-1.2218458204776673e-16, 2.4436916409553347e-16, -2.1285715329513626e-13,
     -4.4372679833712654e-13, 8.875283829628517e-13, -8.408510877065918e-14],
    [-4.18406817345704e-18, 8.36813634691408e-18, -1.528428456944936e-14,
     -3.4541423686340277e-14, 6.908548749675848e-14, -6.718629842495251e-15],
    [-1.4293794049122559e-19, 2.8587588098245117e-19, -1.097425838440925e-15,
     -2.6725882304759074e-15, 5.345269106620135e-15, -5.312366012803665e-16],
    [-4.8725511679079925e-21, 9.745102335815985e-21, -7.879383179984448e-17,
     -2.057122120582677e-16, 4.1142765845152983e-16, -4.164640822695994e-17],
    [-1.6577043321430692e-22, 3.3154086642861384e-22, -5.657218561415478e-18,
     -1.5762319207425567e-17, 3.1524750822160203e-17, -3.2416532463329015e-18],
])

@dataclass(frozen=True)
class GramEntries:
    """Inner products of the generators with their shifts:
    a = <phi1, phi1(.-1)>, b = <phi1, phi1>, c = <phi1, phi2(.-1)>,
    d = <phi2, phi2(.-1)>, e = <phi2, phi2>."""

    a: float
    b: float
    c: float
    d: float
    e: float

    def det_coeffs(self) -> tuple[float, float, float]:
        """(A, B, C) with det = A cos(2 om) + B cos(om) + C."""
        A = 2.0 * (self.a * self.d + self.c * self.c)
        B = 2.0 * (self.a * self.e + self.b * self.d)
        C = 2.0 * (self.a * self.d - self.c * self.c) + self.b * self.e
        return A, B, C


def _table_values(freq: Frequency) -> list[float]:
    w = freq.omega0
    return chebval(2.0 * w * w / math.pi**2 - 1.0, _TABLE).tolist()


@lru_cache(maxsize=1024)
def gram_entries(freq: Frequency) -> GramEntries:
    """The five entries for omega0 in [0, pi]."""
    return GramEntries(*_table_values(freq)[:5])


def riesz_bounds(freq: Frequency) -> tuple[float, float]:
    """Lower and upper Riesz constants (alpha, beta), exact and certified.

    Both extrema of the eigenvalues of the Hermitian Fourier symbol
    M = [[2a c + b, -2 c_g i s], [2 c_g i s, 2d c + e]], c = cos(om),
    s = sin(om), c_g the entry c, sit at om = 0.  There M is diagonal, so
    alpha^2 = 2d + e and beta^2 = 2a + b (= 1, the integral of phi1).
    Certificate: det(M - alpha^2 I) = (1 - c) L(c) and
    det(beta^2 I - M) = (1 - c) U(c) with L and U linear in c, and the
    diagonal entries -2d (1 - c) and 2a (1 - c) are nonnegative when
    d < 0 < a.  So d < 0 < a and L, U > 0 at c = +-1 make both matrices
    positive semidefinite for every om; otherwise ArithmeticError.
    """
    g = gram_entries(freq)
    alpha2, beta2 = 2.0 * g.d + g.e, 2.0 * g.a + g.b
    margins = [alpha2, -g.d, g.a]
    for c in (-1.0, 1.0):
        offdiag = 4.0 * g.c * g.c * (1.0 + c)
        margins.append(-2.0 * g.d * (2.0 * g.a * c + g.b - alpha2) - offdiag)
        margins.append(2.0 * g.a * (beta2 - 2.0 * g.d * c - g.e) - offdiag)
    if not min(margins) > 0.0:
        raise ArithmeticError(
            f"Riesz certificate fails at omega0={freq.omega0!r}: "
            f"margin {min(margins):.3e}"
        )
    return math.sqrt(alpha2), math.sqrt(beta2)


def det_scan_min(freq: Frequency) -> float:
    """Exact minimum of the symbol determinant over om: the quadratic
    A (2c^2 - 1) + B c + C in c = cos(om) at c = +-1 and, if it lies
    inside, at its vertex."""
    A, B, C = gram_entries(freq).det_coeffs()
    cs = [-1.0, 1.0]
    if abs(B) < 4.0 * abs(A):
        cs.append(-B / (4.0 * A))
    return min(A * (2.0 * c * c - 1.0) + B * c + C for c in cs)


def lower_bound_G(freq: Frequency) -> float:
    """Closed-form lower bound for the symbol determinant, uniform in the
    Fourier frequency; positive and nondecreasing over [0, pi]."""
    return _table_values(freq)[5]
