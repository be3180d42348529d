"""The array route of the four series/direct kernels, lane by lane against
the float route.

Each kernel writes its series branch and its direct branch once: a float
runs the branch that |t| selects, and an array runs each branch on only
the lanes that select it.  Whatever the array's layout (0-d, empty, 2-D,
sliced, transposed), the result has the argument's shape and dtype
float64, and every entry has the bits of the float call on that entry,
signed zeros and infinities included.  A nan lane is nan on both routes;
its sign bit is not compared, since np.sin(inf) gives the platform's
default nan (negative on x86-64) where the float route gives math.nan.
"""

import math

import numpy as np
import pytest

from exphermite.frequency import (
    sin_minus_x_cos,
    sin_minus_x_cos_scaled,
    x_minus_sin,
    x_minus_sin_scaled,
)

KERNELS = {
    "x_minus_sin": x_minus_sin,
    "x_minus_sin_scaled": x_minus_sin_scaled,
    "sin_minus_x_cos": sin_minus_x_cos,
    "sin_minus_x_cos_scaled": sin_minus_x_cos_scaled,
}

BELOW_CUTOFF = math.nextafter(0.9, 0.0)
# both signs of zero, nan, both infinities, and lanes on both sides of the
# 0.9 cutoff, the cutoff itself included
VALUES = np.array([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 0.5,
                   -BELOW_CUTOFF, BELOW_CUTOFF, 0.9, -0.9, 2.0, -3.5, 1e300,
                   -1e-300, 0.25])
GRID = VALUES.reshape(4, 4)

LAYOUTS = {
    "0-d below the cutoff": np.array(0.5),
    "0-d above the cutoff": np.array(-2.0),
    "0-d negative zero": np.array(-0.0),
    "0-d nan": np.array(math.nan),
    "empty": np.empty(0),
    "empty 2-D": np.empty((0, 3)),
    "1-D": VALUES,
    "2-D": GRID,
    "sliced": VALUES[1::3],
    "transposed": GRID.T,
    "sliced 2-D": GRID[::-1, 1::2],
}


def bits(values) -> np.ndarray:
    """The bit patterns of the entries, every nan as math.nan's."""
    values = np.asarray(values, dtype=float).ravel()
    return np.where(np.isnan(values), math.nan, values).view(np.uint64)


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("name", KERNELS)
def test_array_route_matches_the_float_route_lane_by_lane(name, layout):
    kernel, t = KERNELS[name], LAYOUTS[layout]
    with np.errstate(invalid="ignore", over="ignore"):  # t^3 at 1e300
        got = kernel(t)
    # a 0-d argument gives a numpy scalar, as any numpy expression does
    assert type(got) is (np.float64 if t.ndim == 0 else np.ndarray)
    assert np.shape(got) == t.shape
    assert got.dtype == np.float64
    floats = [kernel(x) for x in t.ravel().tolist()]
    assert all(type(value) is float for value in floats)
    assert np.array_equal(bits(got), bits(floats)), (t, got, floats)
