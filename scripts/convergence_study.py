"""Empirical order of approximation and the stationary-limit of the masks.

Usage: python scripts/convergence_study.py
"""

import math

import numpy as np

from exphermite import Frequency, HermiteData, masks, spline_eval


def interpolation_error(h: float, w0: float = 1.0) -> float:
    scaled = Frequency(h * w0)
    xs = h * np.arange(int(round(4.0 / h)) + 1)
    data = HermiteData(np.sin(2 * xs), 2 * h * np.cos(2 * xs))
    x = np.linspace(0.25, 3.75, 701)
    values, _ = spline_eval(scaled, data, x / h)
    return float(np.abs(values - np.sin(2 * x)).max())


def main() -> None:
    print("interpolation error for f(x) = sin(2x), omega0 = 1:")
    print(f"{'h':>10} {'sup error':>14} {'ratio':>8}")
    prev = None
    for k in range(1, 7):
        h = 2.0 ** (-k)
        err = interpolation_error(h)
        ratio = f"{prev / err:8.2f}" if prev else "       -"
        print(f"{h:10.5f} {err:14.6e} {ratio}")
        prev = err

    print("\ndistance of the rescaled masks from the stationary limit:")
    freq = Frequency(3 * math.pi / 4)
    print(f"{'level':>6} {'distance':>14}")
    for j in range(0, 13, 2):
        top, bot, diag = masks(freq, j)
        h = 2.0 ** (-j)
        # top/h, bot h and diag tend to the stationary 1/8, 3/2 and -1/4
        dist = max(abs(top / h - 0.125), abs(bot * h - 1.5), abs(diag + 0.25))
        print(f"{j:6d} {dist:14.6e}")


if __name__ == "__main__":
    main()
