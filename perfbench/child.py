"""One workload pass in a fresh single-threaded interpreter.

    python3 perfbench/child.py --workload NAME --seed N --seconds S
        --result PATH [--traced --spans PATH] [--tiny]

``run.py`` starts this with PYTHONPATH pointing at the checkout's ``src``
and the BLAS/OpenMP thread counts pinned to 1.  The timed phase is a closed
loop with one client: whole decks of ops, each op issued after the previous
one returned, until the ops' summed time reaches ``--seconds`` and at least
``MIN_OPS`` ops have run.  Each op's output is checked right after it, with
the clock stopped.  Latencies and throughput are the ops' own times; noise
from the machine is left to the medians taken over whole runs.  The result
is written as JSON to ``--result``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

import workloads
from checks import CheckFailed

MIN_OPS = 100       # so p90 has at least 10 samples beyond it
TINY_MIN_OPS = 4


def timed_pass(workload, seconds: float, min_ops: int, tracer=None) -> dict:
    latencies: list[float] = []
    items = failed = 0
    value_err = deriv_err = 0.0
    known_defects: dict[str, float] = {}
    op_time = 0.0
    errors: list[str] = []
    deck = 0
    deck_s: list[float] = []
    while op_time < seconds or len(latencies) < min_ops:
        deck_s.append(-op_time)
        for op in workload.deck(deck):
            op_id = len(latencies)
            if tracer is not None:
                tracer.begin_op(op_id)
            t0 = time.perf_counter()
            try:
                out = workload.run(op)
                exc = None
            except Exception as caught:   # an op that raises counts as failed
                out, exc = None, caught
            dur = time.perf_counter() - t0
            if tracer is not None:
                tracer.end_op()
            latencies.append(dur)
            op_time += dur
            try:
                if exc is not None:
                    raise CheckFailed(f"op raised {exc!r}")
                outcome = workload.check(op, out)
            except Exception as caught:
                failed += 1
                if len(errors) < 5:
                    errors.append(f"{op.key}: {caught!r}")
                    print(f"failed op {errors[-1]}", file=sys.stderr)
                continue
            items += outcome.items
            if outcome.value_err is not None:
                value_err = max(value_err, outcome.value_err)
            if outcome.deriv_err is not None:
                deriv_err = max(deriv_err, outcome.deriv_err)
            for name, residual in outcome.known_defects.items():
                known_defects[name] = max(known_defects.get(name, 0.0), residual)
        deck_s[-1] += op_time
        deck += 1
    ms = [1e3 * x for x in latencies]
    cuts = statistics.quantiles(ms, n=100, method="inclusive")
    return {
        "attempted": len(latencies),
        "failed": failed,
        "errors": errors,
        "deck_s": deck_s,
        "items": items,
        "op_time_s": op_time,
        "latencies_ms": ms,
        "items_per_s": items / op_time,
        "latency_p50_ms": cuts[49],
        "latency_p90_ms": cuts[89],
        "max_value_err": value_err,
        "max_deriv_err": deriv_err,
        "known_defects": known_defects,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def versions() -> dict:
    import mpmath
    import numpy
    import scipy
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "mpmath": mpmath.__version__}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--spans")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    tmpdir = tempfile.mkdtemp(prefix="inputs-", dir=os.path.dirname(args.result))
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, tmpdir, args.tiny)
        tracer = None
        if args.traced:
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        try:
            min_ops = TINY_MIN_OPS if args.tiny else MIN_OPS
            result = timed_pass(workload, args.seconds, min_ops, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        if tracer is not None:
            result["layers"] = tracer.metrics()
            if args.spans:
                tracer.write_spans(args.spans)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    result["versions"] = versions()
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
