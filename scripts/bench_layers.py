"""Paired layer timings of two checkouts, loaded side by side in one process.

Usage:
    python scripts/bench_layers.py PARENT_DIR CHANGE_DIR [--rounds N]

Loads each checkout's ``src/exphermite`` under its own package name, so the
two trees share one interpreter, one numpy and one machine state, and times
these layers on fixed inputs:

- ``refine_step`` and ``scalar_refine_step`` on the M = 8 ellipse (the
  gallery's: the unit circle with axes scaled to 2 and 1), refined to
  2 (open: its first two nodes), 64, 1,024, 8,192, 32,768 and 131,072
  nodes; the scalar step runs on the control polygon of those nodes;
- ``subdivide`` of the M = 4 ellipse to level 16.

Each of N rounds times one sample per side, alternating which side goes
first.  A sample is the mean over k back-to-back calls, k chosen once per
layer so that a sample takes about a millisecond.  Prints per layer each
side's median and best sample in microseconds per call and the ratio of
the medians, change / parent.  Both sides must give bitwise-equal outputs
on every layer; otherwise the tool names the layer.  An A/A run (the same
directory twice) checks the tool itself.

Exit codes: 0 done, 1 a layer's outputs differ, 2 bad arguments.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import os
import sys
import time

import numpy as np

SAMPLE_S = 1e-3
STEP_NODES = [2, 64, 1024, 8192, 32768, 131072]


def load_tree(name: str, root: str):
    """The package at root/src/exphermite, imported as ``name``."""
    pkg = os.path.join(root, "src", "exphermite")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(pkg, "__init__.py"), submodule_search_locations=[pkg])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def ellipse(xh, period: int):
    return xh.unit_circle(period).affine(np.diag([2.0, 1.0]), np.zeros(2))


def step_inputs(xh, nodes: int):
    """(freq, level, Hermite data) of the M = 8 ellipse at ``nodes`` nodes."""
    curve = ellipse(xh, 8)
    freq, data = curve.freq, curve.to_hermite_data()
    if nodes == 2:
        return freq, 0, xh.HermiteData(data.values[:2], data.derivs[:2], periodic=False)
    level = (nodes // 8).bit_length() - 1
    return freq, level, xh.subdivide(freq, data, level)


def layers(xh) -> dict:
    """Layer name -> (call, bytes of its result) for the tree ``xh``."""
    out = {}
    for nodes in STEP_NODES:
        tag = f"{nodes:,}" + (" open" if nodes == 2 else "")
        freq, level, data = step_inputs(xh, nodes)
        rule = xh.masks(freq, level)
        ctrl = xh.hermite_to_scalar(freq, level, data)
        out[f"refine_step {tag}"] = (
            lambda data=data, rule=rule: xh.refine_step(data, rule),
            lambda r: r.values.tobytes() + r.derivs.tobytes())
        out[f"scalar_refine_step {tag}"] = (
            lambda ctrl=ctrl, freq=freq: xh.scalar_refine_step(ctrl, freq),
            lambda r: r.points.tobytes())
    curve = ellipse(xh, 4)
    out["subdivide M=4 L=16"] = (
        lambda: xh.subdivide(curve.freq, curve.to_hermite_data(), 16),
        lambda r: r.values.tobytes() + r.derivs.tobytes())
    return out


def sample(call, k: int) -> float:
    """Mean seconds per call over k back-to-back calls."""
    t0 = time.perf_counter()
    for _ in range(k):
        call()
    return (time.perf_counter() - t0) / k


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--rounds", type=int, default=100, help="samples per side (default 100)")
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")
    for root in (args.parent, args.change):
        if not os.path.isfile(os.path.join(root, "src", "exphermite", "__init__.py")):
            ap.error(f"{root} has no src/exphermite package")
    sides = [layers(load_tree("exphermite_parent", args.parent)),
             layers(load_tree("exphermite_change", args.change))]
    print(f"{'layer':<28}{'parent us':>11}{'best':>11}{'change us':>11}{'best':>11}"
          f"{'ratio':>8}")
    for name in sides[0]:
        (call_p, bits_p), (call_c, bits_c) = sides[0][name], sides[1][name]
        if bits_p(call_p()) != bits_c(call_c()):
            print(f"{name}: the two sides' outputs differ", file=sys.stderr)
            return 1
        t0 = time.perf_counter()
        call_p()
        k = max(1, int(SAMPLE_S / (time.perf_counter() - t0)))
        times = ([], [])
        gc.disable()
        try:
            for r in range(args.rounds):
                order = (0, 1) if r % 2 == 0 else (1, 0)
                for side in order:
                    times[side].append(sample((call_p, call_c)[side], k))
        finally:
            gc.enable()
        med = [float(np.median(t)) * 1e6 for t in times]
        best = [min(t) * 1e6 for t in times]
        print(f"{name:<28}{med[0]:>11.2f}{best[0]:>11.2f}{med[1]:>11.2f}{best[1]:>11.2f}"
              f"{med[1] / med[0]:>8.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
