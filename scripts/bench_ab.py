"""Paired A/B runs of the benchmark on two checkouts.

Usage:
    python scripts/bench_ab.py PARENT_DIR CHANGE_DIR --workload W[,W...]|all \\
        --seeds A-B --seconds S [--record N]

For every workload named (``all``: every workload of ``BENCHMARK.json``, in
its order) and every seed in A..B, runs each checkout's own
``perfbench/run.py`` once (``--trace 0``), alternating which side goes
first: parent first on the first seed, change first on the next, and so on.
The whole machine drifts between runs, so only pairs run back to back are
compared.  Each run prints its items_per_s and latency_p50_ms to stderr;
verify runs at two timing levels on some machines, and the p50 shows which.

Prints per workload, for every end-to-end metric, each side's median and
quartiles, the median over pairs of change / parent and the number of pairs
the change won (ties count for neither side).  A metric whose parent runs
spread from min to max by more than its ``BENCHMARK.json`` bound, relative
to their median, is marked ``unresolved``: on that box a change within the
bound cannot be told from the parent's own drift.  With ``--record N`` (one
workload only) it also writes ``BENCH_<N>_<sha7>.json`` to the current
directory, named after the commit CHANGE_DIR has checked out: every run's
metrics, the summary and the machine facts.  An A/A run (the same directory
twice) checks the tool itself.

Exit codes: 0 done, 1 a benchmark run failed, 2 bad arguments.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

import numpy as np

RUN_TIMEOUT_S = 900


def parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    try:
        lo, hi = int(first), int(last or first)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected A or A-B, got {text!r}") from None
    if hi < lo:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return list(range(lo, hi + 1))


def git_state(root: str) -> dict:
    """HEAD of the checkout and whether its tracked files differ from it."""
    def git(*args):
        proc = subprocess.run(["git", *args], cwd=root, capture_output=True,
                              text=True, timeout=30)
        return proc.stdout.strip() if proc.returncode == 0 else None
    head = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no")
    return {"head": head, "dirty": bool(status) if head else None}


def benchmark_files(root: str) -> dict[str, bytes]:
    """BENCHMARK.json and the harness sources, which must match on both sides."""
    names = ["BENCHMARK.json"] + sorted(
        os.path.join("perfbench", n) for n in os.listdir(os.path.join(root, "perfbench"))
        if n.endswith(".py"))
    out = {}
    for name in names:
        with open(os.path.join(root, name), "rb") as fh:
            out[name] = fh.read()
    return out


def run_once(root: str, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run: its metrics, op counts and run record."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    record = next(json.loads(line[len("record: "):]) for line in lines
                  if line.startswith("record: "))
    return {"metrics": {k: m["value"] for k, m in result["metrics"].items()},
            "attempted": result["attempted"], "failed": result["failed"],
            "record": record}


def quartiles(values) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def ratio(change: float, parent: float) -> float:
    if parent == 0.0:
        return 1.0 if change == 0.0 else float("inf")
    return change / parent


def spread(values) -> float:
    """(max - min) / |median| of one side's runs; 0 when they all agree."""
    width = max(values) - min(values)
    median = abs(float(np.median(values)))
    if width == 0.0:
        return 0.0
    return width / median if median else float("inf")


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    summary = {}
    for m in metrics:
        name = m["name"]
        parent = [p["parent"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        sign = 1.0 if m["better"] == "higher" else -1.0
        diffs = [sign * (c - p) for p, c in zip(parent, change)]
        summary[name] = {
            "unit": m["unit"], "better": m["better"], "bound": m["bound"],
            "parent": quartiles(parent), "change": quartiles(change),
            "parent_spread": spread(parent),
            "ratio_median": float(np.median([ratio(c, p)
                                             for p, c in zip(parent, change)])),
            "won": sum(d > 0 for d in diffs), "ties": sum(d == 0 for d in diffs),
            "pairs": len(pairs),
        }
    return summary


def machine_facts(record: dict) -> dict:
    facts = {"platform": platform.platform(), "nproc": record["nproc"],
             "versions": record["versions"], "threads": record["threads"]}
    try:
        with open("/proc/cpuinfo") as fh:
            facts["cpu"] = next((line.split(":", 1)[1].strip() for line in fh
                                 if line.startswith("model name")), None)
    except OSError:
        facts["cpu"] = None
    return facts


def print_summary(workload: str, seeds: list[int], seconds: float,
                  summary: dict) -> None:
    print(f"{workload}: seeds {seeds[0]}-{seeds[-1]} ({len(seeds)} pairs), "
          f"{seconds:g} s per run; ratio = change / parent, median over pairs")
    print(f"{'metric':<16} {'parent median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'ratio':>7}  won")
    for name, s in summary.items():
        sides = ["{median:.4g} [{q1:.4g}, {q3:.4g}]".format(**s[side])
                 for side in ("parent", "change")]
        print(f"{name:<16} {sides[0]:>34} {sides[1]:>34} "
              f"{s['ratio_median']:7.3f}  {s['won']}/{s['pairs']}"
              + (f" ({s['ties']} ties)" if s["ties"] else ""))
    for name, s in summary.items():
        if s["parent_spread"] > s["bound"]:
            print(f"unresolved: {name} parent spread {s['parent_spread']:.3g} "
                  f"> bound {s['bound']:g}")


def parse_workloads(text: str, names: list[str]) -> list[str]:
    """The workloads of a comma-separated list, or all of them for "all"."""
    if text == "all":
        return list(names)
    chosen = text.split(",")
    unknown = [name for name in chosen if name not in names]
    if unknown:
        raise ValueError(f"unknown workload {unknown[0]!r}; pick from {names} or 'all'")
    return chosen


def run_pairs(roots: dict, workload: str, seeds: list[int], seconds: float) -> list[dict]:
    """One pair of runs per seed, alternating which side goes first."""
    pairs = []
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            try:
                pair[side] = run_once(roots[side], workload, seed, seconds)
            except (RuntimeError, subprocess.SubprocessError, OSError,
                    ValueError, StopIteration) as exc:
                raise RuntimeError(f"{workload} {side} run at seed {seed} "
                                   f"failed: {exc}") from exc
            metrics = pair[side]["metrics"]
            print(f"{workload} seed {seed} {side}: items_per_s = "
                  f"{metrics['items_per_s']:.6g}, latency_p50_ms = "
                  f"{metrics['latency_p50_ms']:.4g}", file=sys.stderr)
        pairs.append(pair)
    return pairs


def write_record(number: int, workload: str, args, roots: dict, same_benchmark: bool,
                 pairs: list[dict], summary: dict) -> None:
    states = {side: git_state(root) for side, root in roots.items()}
    sha7 = (states["change"]["head"] or "nogit")[:7]
    out = {
        "record": number, "workload": workload,
        "seeds": args.seeds, "seconds": args.seconds,
        "same_benchmark": same_benchmark,
        "parent": states["parent"], "change": states["change"],
        "machine": machine_facts(pairs[0]["parent"]["record"]),
        "summary": summary,
        "runs": [{"seed": p["seed"], "first": p["first"],
                  **{side: {k: p[side][k] for k in ("metrics", "attempted",
                                                   "failed")}
                     for side in ("parent", "change")}}
                 for p in pairs],
    }
    path = f"BENCH_{number}_{sha7}.json"
    with open(path, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_dir")
    parser.add_argument("change_dir")
    parser.add_argument("--workload", required=True,
                        help="a workload, a comma-separated list of them, or all")
    parser.add_argument("--seeds", type=parse_seeds, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--record", type=int, metavar="N")
    args = parser.parse_args(argv)
    roots = {"parent": os.path.abspath(args.parent_dir),
             "change": os.path.abspath(args.change_dir)}

    with open(os.path.join(roots["parent"], "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    try:
        workloads = parse_workloads(args.workload,
                                    [w["name"] for w in bench["workloads"]])
    except ValueError as exc:
        parser.error(str(exc))
    if args.record is not None and len(workloads) != 1:
        parser.error("--record takes exactly one workload")
    same_benchmark = (benchmark_files(roots["parent"])
                      == benchmark_files(roots["change"]))
    if not same_benchmark:
        print("warning: BENCHMARK.json or perfbench/ differ between the sides",
              file=sys.stderr)

    for workload in workloads:
        try:
            pairs = run_pairs(roots, workload, args.seeds, args.seconds)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        summary = summarize(pairs, bench["end_to_end"])
        print_summary(workload, args.seeds, args.seconds, summary)
        for side in ("parent", "change"):
            failed = sum(p[side]["failed"] for p in pairs)
            attempted = sum(p[side]["attempted"] for p in pairs)
            print(f"{side}: {failed} of {attempted} ops failed")
        if args.record is not None:
            write_record(args.record, workload, args, roots, same_benchmark,
                         pairs, summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
