"""Per-run metrics: deterministic counters, phase spans, persistence.

The observability layer has one hard invariant, proven by the
differential suite in ``tests/harness/test_obs.py``:

**Counters are deterministic.**  A counter is a per-benchmark integer
derived purely from the computation's *results* (a trace's opcode mix,
an LVP unit's hit/miss totals, a timing model's cycle count), so a
serial run and a ``--jobs 4`` run of the same suite produce identical
counter values.  Anything wall-clock-shaped -- spans, per-process
cache statistics -- lives in separate sections (``spans``, ``phases``,
``run``) that carry no determinism guarantee.

**Overhead is near zero when disabled.**  A disabled session carries
``metrics=None`` and every instrumentation point is a single ``is not
None`` test; no registry, no clock reads, no dictionaries.  When
enabled, counters are recorded once per completed stage (a handful of
dict stores over numbers the stage already computed) and each stage
gets one pair of clock reads for its span.

The registry is process-local.  Worker processes accumulate into their
own registry and ship a :meth:`MetricsRegistry.fragment` home inside
the shard payload; the parallel engine merges fragments ordered by
benchmark name, so the merged registry is identical however the shards
were scheduled.  See ``docs/observability.md`` for the full model and
the counter catalogue.
"""

from __future__ import annotations

import contextlib
import json
import os
import pathlib
import time
from dataclasses import dataclass
from typing import Iterator, Mapping, Optional

#: Environment knob: truthy values enable metrics on sessions that do
#: not pass an explicit ``metrics=`` argument; ``0``/``false`` disable
#: them even where the CLI would default them on.
METRICS_ENV = "REPRO_METRICS"

#: The metrics document written into each run directory.
METRICS_FILENAME = "metrics.json"

#: Document format identifier (bump on incompatible layout changes).
SCHEMA_ID = "repro.obs/v1"

#: Scope key used for run-level (no-benchmark) phases in the document.
RUN_SCOPE = "(run)"

_FALSY = frozenset({"0", "false", "no", "off"})


def metrics_enabled_from_env(default: bool = False) -> bool:
    """Whether ``REPRO_METRICS`` asks for metrics (unset = *default*)."""
    raw = os.environ.get(METRICS_ENV)
    if raw is None or raw == "":
        return default
    return raw.strip().lower() not in _FALSY


@dataclass(frozen=True)
class Span:
    """One traced phase execution: a start/end pair with provenance.

    ``benchmark`` is None for run-level phases (exhibit rendering);
    ``phase`` is the pipeline phase (``trace``/``annotate``/``model``/
    ``report``); ``label`` identifies the specific unit of work (e.g.
    ``annotate/grep/ppc/Simple`` or an exhibit id).  Times are
    ``time.time()`` epoch seconds so spans from different worker
    processes share one clock.
    """

    benchmark: Optional[str]
    phase: str
    label: str
    start: float
    end: float
    pid: int

    @property
    def seconds(self) -> float:
        """The span's duration (clamped at zero)."""
        return max(0.0, self.end - self.start)


class MetricsRegistry:
    """Counters and spans for one process's share of a run.

    Counters live in two scopes: per-benchmark (deterministic, see the
    module docstring) and run-level (process-shaped things like trace
    cache hit rates).  All mutation methods are cheap dict operations;
    the registry does no I/O until :meth:`to_document`.
    """

    def __init__(self) -> None:
        #: benchmark -> counter name -> integer value.
        self._benchmarks: dict[str, dict[str, int]] = {}
        #: run-scope counter name -> numeric value.
        self._run: dict[str, float] = {}
        #: Every recorded span, in recording order.
        self.spans: list[Span] = []

    # -- counters ------------------------------------------------------------
    def inc(self, benchmark: str, name: str, value: int = 1) -> None:
        """Add *value* to one per-benchmark counter."""
        scope = self._benchmarks.setdefault(benchmark, {})
        scope[name] = scope.get(name, 0) + int(value)

    def add_many(self, benchmark: str, prefix: str,
                 counters: Mapping[str, int]) -> None:
        """Record a stage's counter dict under ``prefix + name``."""
        scope = self._benchmarks.setdefault(benchmark, {})
        for name, value in counters.items():
            key = prefix + name
            scope[key] = scope.get(key, 0) + int(value)

    def inc_run(self, name: str, value: float = 1) -> None:
        """Add *value* to one run-scope counter."""
        self._run[name] = self._run.get(name, 0) + value

    def add_run_many(self, prefix: str,
                     counters: Mapping[str, float]) -> None:
        """Record run-scope counters under ``prefix + name``."""
        for name, value in counters.items():
            self.inc_run(prefix + name, value)

    def max_run(self, name: str, value: float) -> None:
        """Raise one run-scope gauge to at least *value* (a peak:
        fragments merge by summing, so record peaks only on the
        parent's registry)."""
        self._run[name] = max(self._run.get(name, value), value)

    def benchmark_counters(self) -> dict[str, dict[str, int]]:
        """Deep copy of the per-benchmark counter scopes."""
        return {name: dict(scope)
                for name, scope in self._benchmarks.items()}

    def run_counters(self) -> dict[str, float]:
        """Copy of the run-scope counters."""
        return dict(self._run)

    # -- spans ---------------------------------------------------------------
    def record_span(self, span: Span) -> None:
        """Append one finished span."""
        self.spans.append(span)

    @contextlib.contextmanager
    def span(self, benchmark: Optional[str], phase: str,
             label: str) -> Iterator[None]:
        """Record a span around the enclosed block (even on failure:
        a failed stage's wall time is still wall time spent)."""
        start = time.time()
        try:
            yield
        finally:
            self.record_span(Span(benchmark=benchmark, phase=phase,
                                  label=label, start=start,
                                  end=time.time(), pid=os.getpid()))

    # -- merging -------------------------------------------------------------
    def fragment(self) -> dict:
        """This registry's content as a plain picklable dict (what a
        worker ships home inside its shard payload)."""
        return {
            "benchmarks": self.benchmark_counters(),
            "run": self.run_counters(),
            "spans": list(self.spans),
        }

    def merge_fragment(self, fragment: Mapping) -> None:
        """Fold one :meth:`fragment` into this registry (summing
        counters; order-independent, so the engine's by-name merge
        yields the same totals as any other order)."""
        for benchmark, scope in fragment.get("benchmarks", {}).items():
            self.add_many(benchmark, "", scope)
        self.add_run_many("", fragment.get("run", {}))
        self.spans.extend(fragment.get("spans", ()))

    # -- persistence ---------------------------------------------------------
    def phase_seconds(self) -> dict[str, dict[str, float]]:
        """Summed span seconds per benchmark per phase (run-level
        spans aggregate under :data:`RUN_SCOPE`)."""
        phases: dict[str, dict[str, float]] = {}
        for span in self.spans:
            scope = phases.setdefault(span.benchmark or RUN_SCOPE, {})
            scope[span.phase] = scope.get(span.phase, 0.0) + span.seconds
        return phases

    def to_document(self, run_id: str = "",
                    manifest: Optional[Mapping] = None) -> dict:
        """The ``metrics.json`` document for this registry."""
        from repro import __version__
        context = {}
        if manifest:
            context = {key: manifest.get(key)
                       for key in ("scale", "benchmarks", "exhibits",
                                   "jobs")
                       if key in manifest}
        return {
            "schema": SCHEMA_ID,
            "run_id": run_id,
            "version": __version__,
            "context": context,
            "benchmarks": {
                name: dict(sorted(scope.items()))
                for name, scope in sorted(self._benchmarks.items())
            },
            "run": dict(sorted(self._run.items())),
            "phases": {
                name: dict(sorted(scope.items()))
                for name, scope in sorted(self.phase_seconds().items())
            },
            "spans": [
                {"benchmark": span.benchmark, "phase": span.phase,
                 "label": span.label, "start": span.start,
                 "end": span.end, "pid": span.pid}
                for span in self.spans
            ],
        }


def write_metrics(directory, document: Mapping) -> pathlib.Path:
    """Atomically write *document* as ``metrics.json`` in *directory*."""
    directory = pathlib.Path(directory)
    path = directory / METRICS_FILENAME
    temporary = directory / (METRICS_FILENAME + ".tmp")
    temporary.write_text(json.dumps(document, indent=2, sort_keys=True))
    temporary.replace(path)
    return path


def load_metrics(directory) -> dict:
    """Read a run directory's ``metrics.json`` (raises OSError when
    the run was recorded without metrics, ValueError on damage)."""
    path = pathlib.Path(directory) / METRICS_FILENAME
    return json.loads(path.read_text())
