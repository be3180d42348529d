"""Per-layer tracing from outside the program.

The tracer replaces public functions of the package with timing wrappers in
every namespace where a caller looks them up (the defining module, the
package, and each module that imported the name), and methods through their
class attribute.  ``uninstall`` puts the originals back.

Self time is a call's duration minus the time covered by traced calls made
inside it.  Functions in ``spec.HOT`` keep only aggregate counts and times;
the others also record a span (id, name, start, end, parent id, op id), held
in memory and written out by ``write_spans``.  Outside an op (between
``begin_op`` and ``end_op``) the wrappers pass calls straight through, so
input generation and output checks are not counted.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

from spec import HOT, LAYERS


def _bytes_of(*arrays) -> int:
    return sum(int(a.nbytes) for a in arrays)


def _refine_step_extra(extra, args, result):
    data = args[0]
    extra["nodes"] += len(result)
    extra["bytes"] += _bytes_of(data.values, data.derivs,
                                result.values, result.derivs)


def _scalar_refine_step_extra(extra, args, result):
    extra["points"] += len(result.points)
    extra["bytes"] += _bytes_of(args[0].points, result.points)


def _text_result_extra(extra, args, result):
    extra["bytes"] += len(result)


def _text_arg_extra(extra, args, result):
    extra["bytes"] += len(args[0])


def _exit_code_extra(extra, args, result):
    if result != 0:
        extra["nonzero_exits"] += 1


_EXTRAS = {
    "subdivision.refine_step": (_refine_step_extra, ("nodes", "bytes")),
    "subdivision.scalar_refine_step": (_scalar_refine_step_extra,
                                       ("points", "bytes")),
    "document.dumps_document": (_text_result_extra, ("bytes",)),
    "document.render_svg": (_text_result_extra, ("bytes",)),
    "document.loads_document": (_text_arg_extra, ("bytes",)),
    "cli.main": (_exit_code_extra, ("nonzero_exits",)),
}

# lru_cache'd functions whose cache_info() feeds .misses and .cache_size
_CACHED = ("basis.make_generators", "gram.gram_entries",
           "bezier.bernstein_basis")


class Tracer:
    def __init__(self) -> None:
        # per name: [calls, inclusive seconds, self seconds]
        self.stats = {name: [0, 0.0, 0.0] for name, _, _ in LAYERS}
        self.extra = {name: dict.fromkeys(keys, 0)
                      for name, (_, keys) in _EXTRAS.items()}
        self.spans: list[tuple] = []
        self.op = None
        self._frames = [0.0]      # child-time accumulator per open call
        self._span_ids = [-1]     # innermost open span
        self._next_id = 0
        self._op_start = 0.0
        self._restore: list[tuple] = []
        self._originals: dict[str, object] = {}
        self._cache_start: dict[str, int] = {}

    # --- installation ---------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == "exphermite" or n.startswith("exphermite.")]
        for name, module_name, attr in LAYERS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._replace(cls, meth, self._wrap(name, original))
            else:
                original = getattr(module, attr)
                wrapper = self._wrap(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._replace(mod, key, wrapper)
            self._originals[name] = original
        for name in _CACHED:
            self._cache_start[name] = self._originals[name].cache_info().misses

    def _replace(self, owner, key, new) -> None:
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, new)

    def uninstall(self) -> None:
        for owner, key, old in reversed(self._restore):
            setattr(owner, key, old)
        self._restore.clear()

    def _wrap(self, name, fn):
        stat = self.stats[name]
        frames = self._frames
        perf = time.perf_counter
        tracer = self

        if name in HOT:
            @functools.wraps(fn)
            def hot_wrapper(*args, **kwargs):
                if tracer.op is None:
                    return fn(*args, **kwargs)
                frames.append(0.0)
                t0 = perf()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = perf() - t0
                    child = frames.pop()
                    frames[-1] += dur
                    stat[0] += 1
                    stat[1] += dur
                    stat[2] += dur - child
            return hot_wrapper

        hook, _ = _EXTRAS.get(name, (None, ()))
        extra = self.extra.get(name)
        spans = self.spans
        span_ids = self._span_ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = span_ids[-1]
            span_ids.append(span_id)
            frames.append(0.0)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            except SystemExit as exc:
                if name == "cli.main" and exc.code not in (0, None):
                    extra["nonzero_exits"] += 1
                raise
            finally:
                t1 = perf()
                dur = t1 - t0
                child = frames.pop()
                frames[-1] += dur
                span_ids.pop()
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - child
                spans.append((span_id, name, t0, t1, parent, tracer.op))
            if hook is not None:
                hook(extra, args, result)
            return result
        return wrapper

    # --- ops --------------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self.op = op_id
        self._frames[:] = [0.0]
        self._span_ids[:] = [self._next_id]
        self._next_id += 1
        self._op_start = time.perf_counter()

    def end_op(self) -> None:
        end = time.perf_counter()
        root = self._span_ids[0]
        self.spans.append((root, "op", self._op_start, end, -1, self.op))
        self.op = None

    # --- results ----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer counters, named as in BENCHMARK.json's per_layer list."""
        out: dict[str, float] = {}
        for name, (calls, total, self_s) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
        calls, total, _ = self.stats["basis.spline_eval"]
        out["basis.spline_eval.us_per_call"] = 1e6 * total / calls if calls else 0.0
        for name in _CACHED:
            info = self._originals[name].cache_info()
            out[f"{name}.misses"] = info.misses - self._cache_start[name]
            if name != "bezier.bernstein_basis":
                out[f"{name}.cache_size"] = info.currsize
        ex = self.extra
        total = self.stats["subdivision.refine_step"][1]
        nodes = ex["subdivision.refine_step"]["nodes"]
        out["subdivision.refine_step.ns_per_node"] = 1e9 * total / nodes if nodes else 0.0
        out["subdivision.refine_step.bytes"] = ex["subdivision.refine_step"]["bytes"]
        total = self.stats["subdivision.scalar_refine_step"][1]
        points = ex["subdivision.scalar_refine_step"]["points"]
        out["subdivision.scalar_refine_step.ns_per_point"] = (
            1e9 * total / points if points else 0.0)
        out["subdivision.scalar_refine_step.bytes"] = (
            ex["subdivision.scalar_refine_step"]["bytes"])
        for name in ("document.dumps_document", "document.loads_document",
                     "document.render_svg"):
            out[f"{name}.bytes"] = ex[name]["bytes"]
        out["cli.main.nonzero_exits"] = ex["cli.main"]["nonzero_exits"]
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span_id, name, t0, t1, parent, op in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": t0,
                                     "end": t1, "parent": parent, "op": op}))
                fh.write("\n")
