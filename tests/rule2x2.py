"""The 2x2 matrices of the level-j insertion rule, rebuilt from the three
numbers (top, bot, diag) that ``masks`` returns; a test helper for the
matrix oracles, since no library code needs the matrices.

The odd-sample update reads a[2n+1] = hp1 @ a[n] + hm1 @ a[n+1] on the
node vectors a = (value, derivative), the centre matrix is the identity
(coarse samples are kept), and hp1 is hm1 with both off-diagonal entries
negated.
"""

import numpy as np


def hm1(rule) -> np.ndarray:
    """[[1/2, -top], [bot, diag]], the weight of the right-hand node."""
    top, bot, diag = rule
    return np.array([[0.5, -top], [bot, diag]])


def hp1(rule) -> np.ndarray:
    """[[1/2, top], [-bot, diag]], the weight of the left-hand node."""
    top, bot, diag = rule
    return np.array([[0.5, top], [-bot, diag]])
