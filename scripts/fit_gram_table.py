"""Fit the Chebyshev table that ``exphermite.gram`` evaluates.

The five Gram entries a..e and the determinant lower bound G are closed
forms whose numerators cancel down to the w^7..w^12 scale of their
denominators.  Here they are evaluated in high-precision arithmetic
(mpmath), which this script and the tests need but the library does not.
Each of the six is even in w and analytic on [0, pi], so a degree-14
Chebyshev series in t = 2 w^2 / pi^2 - 1 fitted on 60 Chebyshev nodes
matches it to about 1e-15 relative; the script prints that (15, 6) table,
one row per degree, columns a, b, c, d, e, G.

Usage: python scripts/fit_gram_table.py
"""

import math

import mpmath as mp

DEGREE = 14
NODES = 60
DPS = 80

# values at w = 0: the Gram constants of the cubic Hermite pair
# h00(t) = (2t+1)(t-1)^2, h10(t) = t(t-1)^2 and the series limit of G
ZERO_LIMITS = ((9, 70), (26, 35), (-13, 420), (-1, 140), (2, 105), (29, 6300))


def _s(w):
    return 2 * mp.sin(w / 2) - w * mp.cos(w / 2)


def gram_closed_forms(w):
    """Entries a..e as mpmath numbers at the working precision."""
    s2 = _s(w) ** 2
    a = (w * (w**2 - 18) * mp.cos(w) - 6 * (w**2 - 5) * mp.sin(w)
         + w * (w**2 - 12)) / (12 * w * s2)
    b = (w * (w**2 + 3) * mp.cos(w) - 3 * (w**2 + 5) * mp.sin(w)
         + w * (w**2 + 12)) / (3 * w * s2)
    c = (5 * w * (w**2 + 3) * mp.cos(w / 2) + w * (w**2 - 15) * mp.cos(3 * w / 2)
         - 72 * mp.sin(w / 2) - 6 * (w**2 - 4) * mp.sin(3 * w / 2)) \
        / (24 * w**2 * mp.sin(w / 2) * s2)
    d = (6 * (7 * w**2 + 6) * mp.sin(w) + 6 * (w**2 - 3) * mp.sin(2 * w)
         - w * (2 * (7 * w**2 - 30) * mp.cos(w) + (w**2 - 12) * mp.cos(2 * w)
                + 3 * (w**2 + 24))) / (48 * w**3 * mp.sin(w / 2) ** 2 * s2)
    e = (-12 * (2 * w**2 + 3) * mp.sin(w) - 3 * (5 * w**2 - 6) * mp.sin(2 * w)
         + 2 * w * (2 * (w**2 + 9) * mp.cos(w) + (w**2 - 18) * mp.cos(2 * w)
                    + 6 * w**2)) / (24 * w**3 * mp.sin(w / 2) ** 2 * s2)
    return a, b, c, d, e


def lower_bound_parts(w):
    """Numerator and denominator of G; both are O(w^12)."""
    num = (180 * w * mp.sin(w) - 9 * w**3 * mp.sin(2 * w)
           - 4 * (2 * w**4 - 3 * w**2 - 48) * mp.cos(w)
           + (w**4 - 24 * w**2 - 3) * mp.cos(2 * w)
           + 7 * w**4 - 78 * w**2 - 189)
    return num, 24 * w**4 * mp.sin(w / 2) ** 2 * _s(w) ** 2


def closed_forms(w):
    """(a, b, c, d, e, G) at w in [0, pi], correct to about DPS digits.

    The precision grows by 12 digits per decade below w = 1, enough for
    the w^12 cancellation of G; w = 0 returns the exact limits.
    """
    if w == 0:
        return tuple(mp.mpf(p) / q for p, q in ZERO_LIMITS)
    dps = DPS + int(12 * max(0.0, -math.log10(float(w))))
    with mp.workdps(dps):
        x = mp.mpf(w)
        num, den = lower_bound_parts(x)
        return (*gram_closed_forms(x), num / den)


def fit_table():
    """(DEGREE + 1) rows of six Chebyshev coefficients in t, as floats.

    The discrete Chebyshev transform on NODES first-kind nodes, truncated
    at DEGREE, which is the least-squares fit on those nodes.
    """
    with mp.workdps(DPS):
        thetas = [mp.pi * (j + mp.mpf(1) / 2) / NODES for j in range(NODES)]
        values = [closed_forms(mp.pi * mp.sqrt((1 + mp.cos(th)) / 2))
                  for th in thetas]
        rows = []
        for k in range(DEGREE + 1):
            scale = mp.mpf(1 if k == 0 else 2) / NODES
            rows.append([
                float(scale * mp.fsum(v[i] * mp.cos(k * th)
                                      for v, th in zip(values, thetas)))
                for i in range(6)
            ])
    return rows


def main() -> None:
    print("_TABLE = np.array([")
    for row in fit_table():
        cells = [repr(x) for x in row]
        print(f"    [{', '.join(cells[:3])},\n     {', '.join(cells[3:])}],")
    print("])")


if __name__ == "__main__":
    main()
