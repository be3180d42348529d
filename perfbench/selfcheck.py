"""Self-checks of the benchmark.  Run from the root of a checkout:

    python3 perfbench/selfcheck.py

1. A tiny-size smoke run of every workload, plain and traced, in its own
   interpreter, passes its checks and reports every per-layer metric that
   BENCHMARK.json lists.
2. A deliberately corrupted output of every workload is caught by its check
   and counted as a failed op.
3. run.py prints exactly the metric names BENCHMARK.json lists.
4. Outside a checkout (only BENCHMARK.json and perfbench/), run.py exits
   with a non-zero code and prints no result.

Exits 0 when every check passes.  Uses .perfbench-out/ for scratch files.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from run import child_env, load_benchmark  # noqa: E402

FAILURES: list[str] = []


def expect(ok: bool, message: str) -> None:
    print(("ok    " if ok else "FAIL  ") + message)
    if not ok:
        FAILURES.append(message)


def smoke(scratch: str) -> None:
    env = child_env(ROOT)
    bench = load_benchmark()
    layer_names = {m["name"] for m in bench["per_layer"]}
    # added by run.py from the import breakdown and the untraced pass
    layer_names -= {"setup.import_exphermite_s", "setup.import_scipy_s",
                    "trace.op_s", "trace.overhead_ratio"}
    for name in (w["name"] for w in bench["workloads"]):
        for traced in (False, True):
            path = os.path.join(scratch, f"{name}-{traced}.json")
            cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload",
                   name, "--seed", "7", "--seconds", "0.2", "--tiny",
                   "--result", path]
            if traced:
                cmd += ["--traced", "--spans", os.path.join(scratch, "spans.jsonl")]
            proc = subprocess.run(cmd, env=env, cwd=ROOT, timeout=120)
            label = f"tiny {'traced' if traced else 'plain'} {name}"
            if proc.returncode != 0:
                expect(False, f"{label} ran")
                continue
            with open(path) as fh:
                result = json.load(fh)
            expect(result["failed"] == 0 and result["attempted"] >= 4,
                   f"{label}: {result['attempted']} ops, {result['failed']} failed")
            if traced:
                expect(set(result["layers"]) == layer_names,
                       f"{label} reports every per-layer metric")


def corruption(scratch: str) -> None:
    import numpy as np

    import child
    import workloads

    def bump_digit(text, start):
        i = next(i for i in range(start, len(text)) if text[i] in "123456789")
        return text[:i] + str(int(text[i]) % 9 + 1) + text[i + 1:]

    def render(w, op, out):
        if op.kind == "basis":
            code, text = out
            return code, bump_digit(text, text.index(",", len(text) // 2))
        with open(w.out_path) as fh:
            text = fh.read()
        with open(w.out_path, "w") as fh:
            fh.write(bump_digit(text, text.index('<path d="M ')))
        return out

    def refine(w, op, out):
        if op.kind == "vector":
            out.values[0, 0] = np.nextafter(out.values[0, 0], np.inf)
        else:
            out.points[3, 1] += 1e-9
        return out

    def roundtrip(w, op, out):
        code, result = out
        if op.kind == "vector":
            result.tangents[1, 0] = np.nextafter(result.tangents[1, 0], np.inf)
        else:
            result["control_points"][1][0] += 1e-12
        return out

    def verify(w, op, out):
        code, stdout, residuals, bezier = out
        return code, stdout.replace("PASS", "FAIL", 1), residuals, bezier

    corrupters = {"render": render, "refine": refine, "roundtrip": roundtrip,
                  "verify": verify}
    for name, corrupt in corrupters.items():
        base = workloads.WORKLOADS[name]

        class Corrupted(base):
            def run(self, op):
                return corrupt(self, op, super().run(op))

        tmpdir = tempfile.mkdtemp(dir=scratch)
        result = child.timed_pass(Corrupted(7, tmpdir, tiny=True), 0.0, 1)
        expect(result["failed"] == result["attempted"] > 0,
               f"corrupted {name} outputs: {result['failed']} of "
               f"{result['attempted']} ops counted as failed")


def printed_names() -> None:
    """run.py prints exactly the BENCHMARK.json metric names (one workload,
    a short run; each pass still makes its 100 ops)."""
    bench = load_benchmark()
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             "roundtrip", "--seed", "7", "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, timeout=170, capture_output=True, text=True)
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            expect(False, f"run.py --trace {trace} printed a result")
            continue
        printed = {n: m["unit"] for n, m in result["metrics"].items()}
        listed = {m["name"]: m["unit"] for m in bench[key]}
        expect(proc.returncode == 0 and result["correct"] and printed == listed
               and set(result) == {"correct", "attempted", "failed", "metrics"},
               f"run.py --trace {trace} prints every {key} metric and no other")


def outside_checkout(scratch: str) -> None:
    bare = tempfile.mkdtemp(dir=scratch)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "render", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, timeout=170, capture_output=True, text=True)
    expect(proc.returncode != 0 and proc.stdout == "",
           f"without src/ run.py exits {proc.returncode} and prints no result")


def main() -> int:
    outdir = os.path.join(ROOT, ".perfbench-out")
    os.makedirs(outdir, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="selfcheck-", dir=outdir)
    try:
        smoke(scratch)
        corruption(scratch)
        printed_names()
        outside_checkout(scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(f"{len(FAILURES)} self-check(s) failed" if FAILURES else "all self-checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
