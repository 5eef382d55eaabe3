"""Trace spans around padeval's public functions, installed from outside the package.

:class:`Tracer` replaces each function listed in :data:`LAYERS` with one
wrapper at every ``padeval.*`` module attribute bound to it -- including
names imported into other modules such as ``padeval.cli.evaluate_pad`` or
``padeval.metrics.validate_score_set`` -- so nested calls get the span of
their caller as parent.  Per-record helpers (``minmax_apply``,
``fmt_float``, ``decision_value``) are deliberately not wrapped: a span per
record would cost more than the work it measures.

Spans (name, start, end, parent, pass id) live in flat ``array`` columns,
which the cyclic GC does not traverse, and are written out only when the
run ends.  Counters (rows, bytes, solver iterations) are taken at the same
boundaries from the arguments and results.  A layer's self time is the
duration of its spans minus the part covered by their direct children.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time
from array import array
from collections import defaultdict

LAYERS = {
    "cli": ("run",),
    "ingest": (
        "parse_scores", "write_scores", "parse_labels", "parse_features", "parse_manifest",
        "parse_depth_pgm", "parse_landmarks", "write_report", "parse_report", "write_model",
        "parse_model", "write_det", "write_det_svg",
    ),
    "core": ("validate_score_set",),
    "metrics": (
        "evaluate_pad", "evaluate_vuln", "d_eer", "bpcer_at_apcer", "threshold_at_fmr", "iapmr",
        "det_curve", "candidate_thresholds",
    ),
    "ocsvm": ("fit", "score_matrix"),
    "depth_variance": ("dv_score", "sample_depths"),
    "fusion": ("fuse",),
    "synth": ("gen_depth", "gen_features"),
}


def _text_bytes(text) -> int:
    return len(text.encode("utf-8")) if isinstance(text, str) else len(text)


# counters recorded at a function boundary: f(args, result) -> {metric: amount}
COUNTERS = {
    "ingest.parse_scores": lambda args, result: {"ingest.parse_scores.rows": len(result)},
    "ingest.write_scores": lambda args, result: {"ingest.write_scores.rows": len(args[0])},
    "ingest.parse_features": lambda args, result: {"ingest.parse_features.values": result.values.size},
    "ingest.write_model": lambda args, result: {"ingest.model.bytes": _text_bytes(result)},
    "ingest.write_det": lambda args, result: {"ingest.det_csv.bytes": _text_bytes(result)},
    "ingest.write_det_svg": lambda args, result: {"ingest.det_svg.bytes": _text_bytes(result)},
    "core.validate_score_set": lambda args, result: {"core.validate_score_set.records": len(args[0])},
    "ocsvm.fit": lambda args, result: {
        "ocsvm.fit.iterations": result.diagnostics.iterations,
        "ocsvm.fit.kkt_residual": result.diagnostics.kkt_residual,
    },
    "ocsvm.score_matrix": lambda args, result: {"ocsvm.score_matrix.rows": len(result)},
    "fusion.fuse": lambda args, result: {"fusion.fuse.rows": len(result)},
}

COUNTER_UNITS = {
    "ingest.parse_scores.rows": "rows",
    "ingest.write_scores.rows": "rows",
    "ingest.parse_features.values": "values",
    "ingest.model.bytes": "bytes",
    "ingest.det_csv.bytes": "bytes",
    "ingest.det_svg.bytes": "bytes",
    "core.validate_score_set.records": "records",
    "ocsvm.fit.iterations": "count",
    "ocsvm.fit.kkt_residual": "dimensionless",
    "ocsvm.fit.rss_growth_mb": "MB",
    "ocsvm.score_matrix.rows": "rows",
    "fusion.fuse.rows": "rows",
    "python.gc_s": "s",
    "python.gc_collections": "count",
}

SPAN_NAMES = [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Span recorder; :meth:`install` and :meth:`uninstall` swap the wrappers in and out."""

    def __init__(self) -> None:
        self.pass_id = 0
        self._name = array("i")
        self._parent = array("i")
        self._pass = array("i")
        self._start = array("q")
        self._end = array("q")
        self._stack: list[int] = []
        self.counters: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(int))
        self._gc_start = 0
        self._bindings: list[tuple[object, str, object, object]] = []
        self._build_bindings()

    # -- wrapping ---------------------------------------------------------

    def _build_bindings(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "padeval"]
        for name_id, span_name in enumerate(SPAN_NAMES):
            layer, fn_name = span_name.split(".")
            home = sys.modules.get(f"padeval.{layer}")
            original = getattr(home, fn_name, None)
            if original is None:  # a later version may drop the function; its metrics then read 0
                continue
            wrapper = self._wrap(name_id, span_name, original)
            for module in modules:
                for attr, value in vars(module).items():
                    if value is original:
                        self._bindings.append((module, attr, original, wrapper))

    def _wrap(self, name_id: int, span_name: str, fn):
        count = COUNTERS.get(span_name)
        tracks_rss = span_name == "ocsvm.fit"
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(tracer._start)
            tracer._name.append(name_id)
            tracer._parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer._pass.append(tracer.pass_id)
            tracer._start.append(0)
            tracer._end.append(0)
            tracer._stack.append(idx)
            rss0 = _maxrss_mb() if tracks_rss else 0.0
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._end[idx] = time.perf_counter_ns()
                tracer._start[idx] = t0
                tracer._stack.pop()
            counters = tracer.counters[tracer.pass_id]
            if count is not None:
                for key, amount in count(args, result).items():
                    counters[key] += amount
            if tracks_rss:
                growth = _maxrss_mb() - rss0
                counters["ocsvm.fit.rss_growth_mb"] = max(counters["ocsvm.fit.rss_growth_mb"], growth)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter_ns()
        else:
            counters = self.counters[self.pass_id]
            counters["python.gc_s"] += (time.perf_counter_ns() - self._gc_start) / 1e9
            counters["python.gc_collections"] += 1

    def install(self, pass_id: int) -> None:
        self.pass_id = pass_id
        self.counters[pass_id]  # a pass with no call still reports zeros
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)
        for module, attr, original, _ in self._bindings:
            setattr(module, attr, original)

    # -- results ----------------------------------------------------------

    def per_pass(self) -> dict[int, dict[str, float]]:
        """Per pass: ``<span>.s``, ``<span>.calls``, ``<layer>.self_s`` and the counters."""
        n = len(self._start)
        child_ns = [0] * n
        for k in range(n):
            parent = self._parent[k]
            if parent >= 0:
                child_ns[parent] += self._end[k] - self._start[k]
        out: dict[int, dict[str, float]] = {}
        for pass_id, counters in self.counters.items():
            row = dict.fromkeys(COUNTER_UNITS, 0)
            row.update(counters)
            for span_name in SPAN_NAMES:
                row[f"{span_name}.s"] = 0.0
                row[f"{span_name}.calls"] = 0
            for layer in LAYERS:
                row[f"{layer}.self_s"] = 0.0
            out[pass_id] = row
        for k in range(n):
            row = out[self._pass[k]]
            span_name = SPAN_NAMES[self._name[k]]
            dur = self._end[k] - self._start[k]
            row[f"{span_name}.s"] += dur / 1e9
            row[f"{span_name}.calls"] += 1
            row[f"{span_name.split('.')[0]}.self_s"] += (dur - child_ns[k]) / 1e9
        return out

    def write(self, path: str, env: dict) -> None:
        """All spans as Chrome trace events (loads in ui.perfetto.dev), with the environment."""
        events = [
            {
                "name": SPAN_NAMES[self._name[k]],
                "ph": "X",
                "ts": self._start[k] / 1e3,
                "dur": (self._end[k] - self._start[k]) / 1e3,
                "pid": 1,
                "tid": 1,
                "args": {"span": k, "parent": self._parent[k], "pass": self._pass[k]},
            }
            for k in range(len(self._start))
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "otherData": env}, fh)
