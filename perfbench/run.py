"""The exphermite benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads, metrics, units and bounds are
read from BENCHMARK.json; the seeded inputs and the output checks live in
perfbench/workloads.py and perfbench/checks.py.

--trace 0: runs the workload in a fresh single-threaded interpreter and
prints every end-to-end metric.  Set-up time is the median over fresh
interpreters importing ``exphermite.cli``, half of them before the workload
pass and half after it.

--trace 1: prints the end-to-end metrics of an untraced pass, then runs a
separate traced pass and prints every per-layer metric, including the import
breakdown from ``python -X importtime`` and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A run record
(git SHA, nproc, versions, thread settings, seed) is printed before it and
written with the spans to ``.perfbench-out/``.  Residuals of identities the
package is known not to meet at some frequencies are recorded there too, not
checked (see ``checks.KNOWN_DEFECTS``).  Without the package sources
in ``src/`` the script exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

SETUP_RUNS = 3          # on each side of the workload pass
IMPORTTIME_RUNS = 3
CHILD_TIMEOUT_S = 150
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    # bytecode is cached as for an installed package, whatever the caller's
    # environment says, so set-up time means the same on every machine
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def import_seconds(env: dict, root: str, runs: int) -> list[float]:
    """Wall times of fresh interpreters importing exphermite.cli."""
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import exphermite.cli"], env=env,
                       cwd=root, check=True, timeout=60)
        times.append(time.perf_counter() - start)
    return times


def importtime_split(env: dict, root: str) -> tuple[float, float]:
    """(exphermite, scipy) cumulative import seconds from -X importtime.

    Each output line is 'import time: self | cumulative | name' with the
    name indented two spaces per nesting level; children print before their
    parent.  scipy's share sums the outermost scipy entries."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import exphermite.cli"],
        env=env, cwd=root, check=True, timeout=60, capture_output=True, text=True)
    rows = []
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        rows.append((depth, int(cumulative), name.strip()))
    ours = sum(c for d, c, n in rows if d == 0 and n.split(".")[0] == "exphermite")
    scipy = 0
    for i, (depth, cumulative, name) in enumerate(rows):
        if name.split(".")[0] != "scipy":
            continue
        parent = next((r for r in rows[i + 1:] if r[0] < depth), None)
        if parent is None or parent[2].split(".")[0] != "scipy":
            scipy += cumulative
    return ours / 1e6, scipy / 1e6


def run_child(args, env, root, outdir, traced: bool) -> dict:
    tag = f"{args.workload}-{args.seed}-{'traced' if traced else 'plain'}"
    result_path = os.path.join(outdir, f"result-{tag}.json")
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--result", result_path]
    if traced:
        cmd += ["--traced", "--spans", os.path.join(outdir, f"spans-{tag}.jsonl")]
    if os.path.exists(result_path):
        os.remove(result_path)
    subprocess.run(cmd, env=env, cwd=root, check=True, timeout=CHILD_TIMEOUT_S,
                   stdout=sys.stderr)
    with open(result_path) as fh:
        return json.load(fh)


def git_sha(root: str) -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, timeout=10,
                              capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    bench = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = ROOT
    if not os.path.isfile(os.path.join(root, "src", "exphermite", "__init__.py")):
        print("error: src/exphermite is missing: perfbench/ must sit in a "
              "checkout of the repository", file=sys.stderr)
        return 2
    env = child_env(root)
    outdir = os.path.join(root, ".perfbench-out")
    os.makedirs(outdir, exist_ok=True)

    try:
        if not args.trace:
            # the first import writes the bytecode cache, as an installed
            # package would have it; it is not counted
            setup = import_seconds(env, root, 1 + SETUP_RUNS)[1:]
        plain = run_child(args, env, root, outdir, traced=False)
        runs = [plain]
        e2e = {
            "items_per_s": plain["items_per_s"],
            "latency_p50_ms": plain["latency_p50_ms"],
            "latency_p90_ms": plain["latency_p90_ms"],
            "success_rate": 1.0 - plain["failed"] / plain["attempted"],
            "max_value_err": plain["max_value_err"],
            "max_deriv_err": plain["max_deriv_err"],
            "peak_rss_mb": plain["peak_rss_mb"],
        }
        if args.trace:
            splits = [importtime_split(env, root) for _ in range(IMPORTTIME_RUNS)]
            traced = run_child(args, env, root, outdir, traced=True)
            runs.append(traced)
        else:
            setup += import_seconds(env, root, SETUP_RUNS)
            e2e["setup_s"] = statistics.median(setup)
    except (subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: benchmark run failed: {exc}", file=sys.stderr)
        return 1

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(root), "nproc": os.cpu_count(),
        "versions": plain["versions"],
        "threads": {var: env[var] for var in THREAD_VARS},
        "ops": plain["attempted"], "deck_s": plain["deck_s"],
        "op_time_s": plain["op_time_s"],
        "error_rate": plain["failed"] / plain["attempted"],
        "errors": [e for r in runs for e in r["errors"]],
        "known_defects": plain["known_defects"],
        "end_to_end": e2e,
    }
    if not args.trace:
        record["setup_runs_s"] = setup
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    print("end-to-end (untraced pass, %d ops):" % plain["attempted"])
    for name, value in e2e.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    for name, value in plain["known_defects"].items():
        print(f"  known defect, not checked: {name} residual up to {value:.3g}")

    if args.trace:
        layers = dict(traced["layers"])
        layers["setup.import_exphermite_s"] = statistics.median(s[0] for s in splits)
        layers["setup.import_scipy_s"] = statistics.median(s[1] for s in splits)
        layers["trace.op_s"] = traced["op_time_s"]
        layers["trace.overhead_ratio"] = traced["items_per_s"] / plain["items_per_s"]
        metrics = {m["name"]: metric(layers[m["name"]], m["unit"])
                   for m in bench["per_layer"]}
        record["traced_ops"] = traced["attempted"]
    else:
        metrics = {name: metric(e2e[name], unit) for name, unit in units.items()}

    record["metrics"] = metrics
    name = f"record-{args.workload}-{args.seed}-trace{args.trace}.json"
    with open(os.path.join(outdir, name), "w") as fh:
        json.dump(record, fh, indent=1)
    print("record: " + json.dumps({k: record[k] for k in (
        "workload", "seed", "git_sha", "nproc", "versions", "threads", "ops")}))
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
