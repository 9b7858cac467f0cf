"""Layer spans recorded from outside the program.

Every public entry point the benchmark attributes time to is replaced,
in the worker process only, by a wrapper that records a span: layer
name, start, end, the enclosing span, the tier the call was asked for
(its ``engine=``/``kernel=`` argument, resolved the way the callee
resolves it) and a small per-layer payload.  Spans live in memory and
are summarised when the pass ends.

A span's self time is its duration minus the durations of its direct
children.  Calls are strictly nested in a single-threaded pass, so the
self times of all spans inside the measured window, plus the time no
span covers (``unattributed_s``), add up to the window exactly.

The same wrappers, in ``first_call_only`` mode, remove themselves on the
first call into a workload layer: that instant ends set-up, and the
untraced pass then runs on the unwrapped program.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time

#: Layers whose calls do not end set-up: opening a journal appends to it
#: before any workload layer runs.
_SETUP_LAYERS = {"journal"}

#: Oracle tier of each guarded stage (the last rung of its ladder).
_ORACLE = {"guard.trace": "interp", "guard.annotate": "general",
           "guard.model": "reference"}


def _arg(args, kwargs, position: int, name: str, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[position] if len(args) > position else default


def _sim_tier(args, kwargs):
    from repro.sim.compile import resolve_engine
    return resolve_engine(_arg(args, kwargs, 5, "engine", "auto"))


def _annotate_tier(args, kwargs):
    from repro.trace.annotate import resolve_kernel
    return resolve_kernel(kwargs.get("kernel"), args[1],
                          kwargs.get("audit", False),
                          kwargs.get("fault_hook"))


def _model_tier(args, kwargs):
    from repro.uarch.engine import resolve_model_engine
    return resolve_model_engine(_arg(args, kwargs, 3, "engine"))


def _sim_payload(args, kwargs, result):
    return (_arg(args, kwargs, 2, "name", ""),
            _arg(args, kwargs, 3, "target", ""))


def _instructions(args, kwargs, result):
    return result.instructions


def _cache_hit(args, kwargs, result):
    return result is not None


#: (layer, module, class or None, attribute, tier extractor, payload).
ENTRY_POINTS = (
    ("model.ppc620", "repro.uarch.ppc620.model", "PPC620Model", "run",
     _model_tier, _instructions),
    ("model.axp21164", "repro.uarch.axp21164.model", "AXP21164Model",
     "run", _model_tier, _instructions),
    ("guard.trace", "repro.harness.guard", "TierGuard", "run_trace",
     None, None),
    ("guard.annotate", "repro.harness.guard", "TierGuard", "run_annotate",
     None, None),
    ("guard.model", "repro.harness.guard", "TierGuard", "run_model",
     None, None),
    ("sim", "repro.sim.functional", None, "run_program", _sim_tier,
     _sim_payload),
    ("workloads.build", "repro.workloads.suite", "Benchmark",
     "build_program", None, None),
    ("cache.load", "repro.harness.cache", "TraceCache", "load", None,
     _cache_hit),
    ("cache.store", "repro.harness.cache", "TraceCache", "store", None,
     None),
    ("annotate", "repro.trace.annotate", None, "annotate_trace",
     _annotate_tier, None),
    ("kernels.decode", "repro.trace.kernels", None, "decode_events", None,
     None),
    ("sweep.evaluate", "repro.harness.sweep", None, "evaluate_configs",
     None, None),
    ("journal", "repro.harness.journal", "RunJournal", "append", None,
     None),
    ("journal", "repro.harness.journal", "RunJournal", "shard_finished",
     None, None),
    ("journal", "repro.harness.sweep", "SweepJournal", "append", None,
     None),
    ("journal", "repro.harness.sweep", "SweepJournal", "chunk_finished",
     None, None),
    ("report", "repro.harness.experiments", None, "run_experiment", None,
     None),
)


class Recorder:
    """Installs the wrappers and keeps the spans of one pass.

    A span is a list ``[layer, start, end, parent, tier, payload]``;
    ``parent`` indexes the enclosing span (-1 at top level).
    """

    def __init__(self, first_call_only: bool = False, on_first_call=None):
        self.first_call_only = first_call_only
        self.on_first_call = on_first_call
        self.first_call = None
        self.spans: list = []
        self._stack: list = []
        self._patches: list = []
        self._active = False

    # -- installation ------------------------------------------------------
    def install(self) -> None:
        """Wrap every entry point, including names other modules bound
        with ``from ... import``."""
        for layer, module_name, owner, attr, tier, payload in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            holder = getattr(module, owner) if owner else module
            original = getattr(holder, attr)
            wrapper = self._wrap(layer, original, tier, payload)
            self._patch(holder, attr, original, wrapper)
            if owner is None:
                for name, other in list(sys.modules.items()):
                    if (other is not None and other is not module
                            and name.startswith("repro")
                            and getattr(other, attr, None) is original):
                        self._patch(other, attr, original, wrapper)
        self._active = True

    def _patch(self, holder, attr, original, wrapper) -> None:
        setattr(holder, attr, wrapper)
        self._patches.append((holder, attr, original))

    def uninstall(self) -> None:
        self._active = False
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    def _wrap(self, layer, function, tier, payload):
        recorder = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if not recorder._active:
                return function(*args, **kwargs)
            start = time.monotonic()
            if recorder.first_call is None and layer not in _SETUP_LAYERS:
                recorder.first_call = start
                if recorder.on_first_call is not None:
                    recorder.on_first_call(start)
                if recorder.first_call_only:
                    recorder.uninstall()
            if recorder.first_call_only:
                return function(*args, **kwargs)
            span = [layer, start, 0.0,
                    recorder._stack[-1] if recorder._stack else -1,
                    tier(args, kwargs) if tier else None, None]
            recorder._stack.append(len(recorder.spans))
            recorder.spans.append(span)
            try:
                result = function(*args, **kwargs)
            finally:
                recorder._stack.pop()
                span[2] = time.monotonic()
            if payload is not None:
                span[5] = payload(args, kwargs, result)
            return result

        return wrapper


#: Layers whose self time the table reports; the three guard entry
#: points share one row.  Order is the table's row order.
SELF_TIME_LAYERS = ("model.ppc620", "model.axp21164", "guard", "sim",
                    "workloads.build", "cache.load", "cache.store",
                    "annotate", "kernels.decode", "sweep.evaluate",
                    "journal", "report")

_MODELS = ("model.ppc620", "model.axp21164")


def _row(layer: str) -> str:
    return "guard" if layer.startswith("guard.") else layer


def _percentile(values, q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(spans, window_start: float, window_end: float) -> dict:
    """The per-layer table of one traced pass, as ``name -> value``.

    Only spans that start inside the window count (journal appends made
    while opening a journal belong to set-up).  Each span's self time
    lands in exactly one ``<layer>.self_s`` metric, so those plus
    ``unattributed_s`` equal ``traced_wall_s``.
    """
    duration = [end - start for _, start, end, _, _, _ in spans]
    self_time = list(duration)
    children: dict = {}
    for position, span in enumerate(spans):
        if span[3] >= 0:
            self_time[span[3]] -= duration[position]
            children.setdefault(span[3], []).append(position)
    inside = [i for i, span in enumerate(spans) if span[1] >= window_start]

    metrics: dict = {}
    for layer in SELF_TIME_LAYERS:
        members = [i for i in inside if _row(spans[i][0]) == layer]
        metrics[f"{layer}.calls"] = len(members)
        metrics[f"{layer}.self_s"] = sum(self_time[i] for i in members)

    for layer in _MODELS:
        calls = [duration[i] for i in inside if spans[i][0] == layer]
        metrics[f"{layer}.call_p50_s"] = _percentile(calls, 50)
        metrics[f"{layer}.call_p90_s"] = _percentile(calls, 90)
    models = [i for i in inside if spans[i][0] in _MODELS]
    model_s = sum(self_time[i] for i in models)
    metrics["model.sim_instructions_per_s"] = \
        sum(spans[i][5] or 0 for i in models) / model_s if model_s else 0.0
    for tier in ("fast", "reference"):
        metrics[f"model.{tier}.calls"] = sum(
            1 for i in models if spans[i][4] == tier)

    oracle_calls, oracle_s = 0, 0.0
    for i in inside:
        oracle = _ORACLE.get(spans[i][0])
        for later in (children.get(i) or [])[1:]:
            if oracle is not None and spans[later][4] == oracle:
                oracle_calls += 1
                oracle_s += duration[later]
    metrics["guard.oracle_calls"] = oracle_calls
    metrics["guard.oracle_s"] = oracle_s

    sims = [i for i in inside if spans[i][0] == "sim"]
    distinct = len({spans[i][5] for i in sims})
    metrics["sim.distinct_traces"] = distinct
    metrics["sim.useful_ratio"] = distinct / len(sims) if sims else 0.0
    for tier in ("compiled", "interp"):
        metrics[f"sim.{tier}.calls"] = sum(
            1 for i in sims if spans[i][4] == tier)

    loads = [i for i in inside if spans[i][0] == "cache.load"]
    metrics["cache.hit_ratio"] = \
        sum(1 for i in loads if spans[i][5]) / len(loads) if loads else 0.0

    for tier in ("vector", "mono", "general"):
        metrics[f"annotate.{tier}.calls"] = sum(
            1 for i in inside
            if spans[i][0] == "annotate" and spans[i][4] == tier)

    wall = window_end - window_start
    metrics["traced_wall_s"] = wall
    metrics["unattributed_s"] = wall - sum(
        metrics[f"{layer}.self_s"] for layer in SELF_TIME_LAYERS)
    return metrics
