"""The generators of the grid h*Z, built from the unit-grid ones; a test
helper, since no library code needs them.

phi1^h(x) = phi1_{h w}(x/h) and phi2^h(x) = h * phi2_{h w}(x/h), so that
the slope of phi2^h at 0 is 1.  The tests of the subdivision masks and of
the Bezier conversion on a span of length h compare against these.
"""

from exphermite import Frequency, phi, phi_deriv


def phi_rescaled(freq: Frequency, h: float, which: int, x: float) -> float:
    """Generator phi1^h or phi2^h of the grid h*Z at x."""
    scaled = freq.scaled(h)
    val = phi(scaled, which, x / h)
    return val if which == 1 else h * val


def phi_rescaled_deriv(freq: Frequency, h: float, which: int, x: float) -> float:
    """Derivative of the rescaled generators on h*Z."""
    scaled = freq.scaled(h)
    val = phi_deriv(scaled, which, x / h)
    return val / h if which == 1 else val
