"""Experiment session: memoized traces, annotations, and model runs.

Every paper exhibit draws on the same underlying runs (trace a
benchmark, annotate it with an LVP configuration, schedule it on a
machine model).  A :class:`Session` memoizes each stage so that, e.g.,
Figure 7's verification-latency histograms reuse the exact runs that
produced Figure 6's speedups -- just as the paper's numbers all come
from one set of simulations.

Failures are isolated per benchmark: an exception at any stage is
wrapped in a :class:`~repro.errors.BenchmarkFailure`, recorded on
``session.failures``, and re-raised; repeated requests for the same
failed stage re-raise the recorded failure without re-running the
broken benchmark.  The experiment runners catch these and render the
exhibit with the benchmark footnoted instead of aborting the run.

Transient failures -- anything deriving from
:class:`~repro.errors.RetryableError`, e.g. cache-lock contention or an
injected I/O fault -- are retried with exponential backoff
(:mod:`repro.harness.retry`) before a failure is recorded; terminal
errors are recorded on the first strike.

Chaos knobs (all exercising exactly the paths a real failure would):

* ``REPRO_SABOTAGE=<benchmark>[:<stage>]`` deliberately fails that
  benchmark at that stage (default ``trace``) with a terminal
  :class:`~repro.errors.FaultError`;
* ``REPRO_TRANSIENT=<benchmark>[:<stage>][:<fails>]`` fails the first
  *fails* attempts (default 2) with a retryable
  :class:`~repro.errors.TransientFaultError`, proving the backoff path;
* ``REPRO_PARALLEL_HANG=<benchmark>[:<stage>][:<seconds>]`` wedges the
  stage in a long sleep (default 300s) so the per-unit watchdog
  (``--unit-timeout``, see :mod:`repro.harness.parallel`) can be
  drilled.
"""

from __future__ import annotations

import contextlib
import os
import sys
import time
import weakref
import zlib
from typing import Callable, Optional, Union

from repro.errors import (
    BenchmarkFailure,
    FaultError,
    ResourceExhaustedError,
    TransientFaultError,
)
from repro.harness.cache import TraceCache
from repro.harness.guard import TierGuard
from repro.harness.retry import RetryPolicy, call_with_retries
from repro.lvp.config import LVPConfig, SIMPLE
from repro.obs.metrics import MetricsRegistry, metrics_enabled_from_env
from repro.sim.functional import run_program, sim_counters
from repro.trace.annotate import AnnotatedTrace, annotate_trace
from repro.trace.records import Trace
from repro.trace.validate import validate_trace
from repro.uarch.axp21164.config import AXP21164Config
from repro.uarch.axp21164.model import AXP21164Model, AXP21164Result
from repro.uarch.ppc620.config import PPC620, PPC620Config
from repro.uarch.ppc620.model import PPC620Model, PPC620Result
from repro.workloads.suite import BENCHMARKS, get_benchmark

#: Chaos knob: wedge one benchmark's stage in a long sleep (watchdog
#: drill).  Format ``<benchmark>[:<stage>][:<seconds>]``.
HANG_ENV = "REPRO_PARALLEL_HANG"

#: Chaos knob: fail one benchmark's stage transiently for its first N
#: attempts.  Format ``<benchmark>[:<stage>][:<fails>]``.
TRANSIENT_ENV = "REPRO_TRANSIENT"

#: How often each (benchmark, stage) transient knob has fired in this
#: process.  Per-process on purpose: a retried stage re-attempts inside
#: the same worker, so the counter sees every attempt.
_TRANSIENT_FIRED: dict = {}


def _span_label(fail_key) -> str:
    """Flatten a stage's fail key into a readable span label, e.g.
    ``('annotate', ('grep', 'ppc', 'Simple'))`` -> ``annotate/grep/ppc/
    Simple`` (None components, like the no-LVP baseline, are elided)."""
    parts: list[str] = []

    def walk(value) -> None:
        if isinstance(value, tuple):
            for item in value:
                walk(item)
        elif value is not None:
            parts.append(str(value))

    walk(fail_key)
    return "/".join(parts)


def _parse_knob(knob: str, stages=("trace", "annotate", "model")):
    """Split ``<benchmark>[:<stage>][:<number>]`` (stage optional)."""
    parts = knob.split(":")
    victim = parts[0]
    stage = None
    number = None
    for part in parts[1:]:
        if part in stages and stage is None:
            stage = part
        else:
            try:
                number = float(part)
            except ValueError:
                pass
    return victim, stage or "trace", number


class Session:
    """Memoizing runner for one input scale.

    Parameters
    ----------
    scale:
        Input scale preset (``tiny``/``small``/``reference``).
    benchmarks:
        Benchmark names to run (defaults to the full 17-name suite).
    verify:
        When True (default), every functional run is checked against
        its Python reference computation before its trace is used.
    cache_dir:
        Optional directory for an on-disk trace cache (defaults to the
        ``REPRO_TRACE_CACHE`` environment variable; unset = no cache).
        Cached traces are checksummed on load and validated
        structurally before use; damaged bundles are quarantined and
        regenerated transparently.
    metrics:
        Observability (see ``docs/observability.md``).  ``None``
        (default) consults ``REPRO_METRICS`` (off unless set truthy);
        ``True`` attaches a fresh :class:`MetricsRegistry`; ``False``
        disables metrics regardless of the environment; an existing
        registry is adopted as-is.  When disabled (``session.metrics``
        is None) every instrumentation point is a single ``is None``
        test, so the session behaves byte-identically to an
        unobserved one.
    """

    def __init__(self, scale: str = "small",
                 benchmarks: Optional[tuple[str, ...]] = None,
                 verify: bool = True,
                 cache_dir: Optional[str] = None,
                 metrics: Union[None, bool, MetricsRegistry] = None,
                 unit_timeout: Optional[float] = None) -> None:
        self.scale = scale
        self.benchmark_names = tuple(
            benchmarks if benchmarks is not None
            else (b.name for b in BENCHMARKS)
        )
        self.verify = verify
        cache_dir = cache_dir or os.environ.get("REPRO_TRACE_CACHE")
        self.cache = TraceCache(cache_dir) if cache_dir else None
        if isinstance(metrics, MetricsRegistry):
            self.metrics: Optional[MetricsRegistry] = metrics
        elif metrics is None:
            self.metrics = MetricsRegistry() \
                if metrics_enabled_from_env() else None
        else:
            self.metrics = MetricsRegistry() if metrics else None
        self._traces: dict = {}
        self._annotated: dict = {}
        self._ppc_runs: dict = {}
        self._alpha_runs: dict = {}
        #: Every BenchmarkFailure recorded so far, in discovery order.
        self.failures: list[BenchmarkFailure] = []
        self._failed: dict = {}
        #: EngineReport of the most recent parallel warm (None = never
        #: warmed / serial).  Set by run_experiments and Session.warm
        #: callers that want the timing summary.
        self.last_warm_report = None
        if unit_timeout is None:
            from repro.harness.parallel import unit_timeout_from_env
            unit_timeout = unit_timeout_from_env()
        #: Watchdog seconds the guard re-arms around oracle retries
        #: after a fast-tier timeout (0 = disarmed).
        self.unit_timeout = float(unit_timeout)
        #: Every TierDemotion recorded so far (this session's own plus
        #: any merged back from parallel workers), in discovery order.
        self.demotions: list = []
        #: Divergence sentinels + degradation ladder (docs/resilience.md).
        #: The guard sees the session through a weak proxy: a strong
        #: back-reference would make every session a reference cycle,
        #: keeping its traces (and their memory-mapped cache pages)
        #: alive until the cyclic collector happened to run.
        self.guard = TierGuard(weakref.proxy(self))

    # ------------------------------------------------------------------
    def warm(self, jobs: int = 1, units=None, unit_timeout=None):
        """Precompute this session's runs with *jobs* worker processes.

        Shards the workplan (default: every trace/annotate/model run a
        full exhibit pass needs) across a process pool and merges the
        results -- and any :class:`BenchmarkFailure` -- back into this
        session's memos, ordered by benchmark name.  Subsequent exhibit
        runs are pure memo lookups and produce bit-identical output to
        a serial run (see ``docs/parallel.md``).  ``unit_timeout``
        (seconds; default ``REPRO_UNIT_TIMEOUT``) arms the per-unit
        watchdog against hung units.

        ``jobs <= 1`` is a no-op returning None (the lazy serial path).
        Otherwise returns the :class:`~repro.harness.parallel
        .EngineReport` with per-unit timings.
        """
        from repro.harness.parallel import warm_session
        return warm_session(self, jobs, units=units,
                            unit_timeout=unit_timeout)

    # ------------------------------------------------------------------
    def collect_run_counters(self) -> None:
        """Fold this process's trace-cache statistics into the metrics
        run scope.  Call once per process, just before the registry is
        shipped (worker) or persisted (parent): cache hit rates are
        scheduling-dependent, so they belong to the non-deterministic
        run scope, never the per-benchmark one.
        """
        if self.metrics is None or self.cache is None:
            return
        self.metrics.add_run_many("cache/", self.cache.counters.as_dict())

    # ------------------------------------------------------------------
    def _fail(self, name: str, stage: str, target: str, key,
              cause: BaseException) -> BenchmarkFailure:
        """Record one failure and return it for raising."""
        failure = BenchmarkFailure(name, stage, target, cause)
        self._failed[key] = failure
        self.failures.append(failure)
        return failure

    @staticmethod
    def _check_sabotage(name: str, stage: str) -> None:
        """Honour the REPRO_SABOTAGE chaos-testing knob."""
        knob = os.environ.get("REPRO_SABOTAGE")
        if not knob:
            return
        victim, _, victim_stage = knob.partition(":")
        if victim == name and (victim_stage or "trace") == stage:
            raise FaultError(
                f"deliberate sabotage of {name!r} at the {stage} stage "
                f"(REPRO_SABOTAGE={knob})"
            )

    @staticmethod
    def _check_hang(name: str, stage: str) -> None:
        """Honour the REPRO_PARALLEL_HANG chaos knob (watchdog drill)."""
        knob = os.environ.get(HANG_ENV)
        if not knob:
            return
        victim, victim_stage, seconds = _parse_knob(knob)
        if victim == name and victim_stage == stage:
            time.sleep(seconds if seconds is not None else 300.0)

    @staticmethod
    def _check_transient(name: str, stage: str) -> None:
        """Honour the REPRO_TRANSIENT chaos knob (retry drill)."""
        knob = os.environ.get(TRANSIENT_ENV)
        if not knob:
            return
        victim, victim_stage, fails = _parse_knob(knob)
        if victim != name or victim_stage != stage:
            return
        budget = int(fails) if fails is not None else 2
        fired = _TRANSIENT_FIRED.get((name, stage), 0)
        if fired < budget:
            _TRANSIENT_FIRED[(name, stage)] = fired + 1
            raise TransientFaultError(
                f"injected transient fault {fired + 1}/{budget} for "
                f"{name!r} at the {stage} stage (REPRO_TRANSIENT={knob})"
            )

    def _run_stage(self, name: str, stage: str, target: str, fail_key,
                   body: Callable):
        """Execute one stage body with chaos knobs, retry, and failure
        isolation.

        Transient errors (:class:`~repro.errors.RetryableError`) are
        retried with seeded exponential backoff; whatever still escapes
        is recorded as a :class:`BenchmarkFailure` under *fail_key* and
        re-raised, so subsequent requests fail fast via negative
        memoization.
        """

        def attempt():
            self._check_sabotage(name, stage)
            self._check_hang(name, stage)
            self._check_transient(name, stage)
            return body()

        # Seed the jitter per (benchmark, stage) so concurrent workers
        # that collide (e.g. on the cache lock) de-synchronize instead
        # of marching in lockstep -- while staying run-to-run
        # deterministic.
        policy = RetryPolicy.from_env(
            seed=zlib.crc32(f"{name}/{stage}/{target}".encode()))
        span = contextlib.nullcontext() if self.metrics is None \
            else self.metrics.span(name, stage, _span_label(fail_key))
        with span:
            try:
                return call_with_retries(attempt, policy)
            except BenchmarkFailure:
                raise
            except Exception as exc:
                raise self._fail(name, stage, target, fail_key, exc) from exc

    def _store_trace(self, trace: Trace) -> None:
        """Store a fresh trace in the cache, tolerating a full disk.

        The cache is an accelerator only: resource exhaustion while
        persisting (even after the cache's own LRU eviction made room
        and retried) must degrade to "this run just isn't cached", not
        fail the benchmark that already computed a good trace.
        """
        if self.cache is None:
            return
        try:
            self.cache.store(trace, self.scale)
        except ResourceExhaustedError as exc:
            if self.metrics is not None:
                self.metrics.inc_run("cache/store_failures")
            print(f"warning: trace cache store skipped: {exc}",
                  file=sys.stderr)

    def _cached_trace(self, name: str, target: str) -> Optional[Trace]:
        """Checksummed + validated trace from the on-disk cache."""
        if self.cache is None:
            return None
        cached = self.cache.load(name, target, self.scale)
        if cached is None:
            return None
        if validate_trace(cached):
            # Checksums passed but the contents violate trace
            # invariants (e.g. stale semantics): quarantine and
            # regenerate rather than feed a bad trace downstream.
            self.cache.discard(name, target, self.scale)
            return None
        return cached

    # ------------------------------------------------------------------
    def trace(self, name: str, target: str = "ppc") -> Trace:
        """Functional trace of one benchmark on one codegen target."""
        key = (name, target)
        if key in self._traces:
            return self._traces[key]
        fail_key = ("trace", key)
        if fail_key in self._failed:
            raise self._failed[fail_key]

        def body() -> Trace:
            cached = self._cached_trace(name, target)
            if cached is not None:
                return cached
            bench = get_benchmark(name)
            program = bench.build_program(target, self.scale)
            result = self.guard.run_trace(name, target, program)
            if self.verify:
                bench.verify(program, result, self.scale)
            self._store_trace(result.trace)
            return result.trace

        self._traces[key] = self._run_stage(name, "trace", target,
                                            fail_key, body)
        if self.metrics is not None:
            # Derived from the finished trace, so cache hits and fresh
            # simulations record identical values.
            self.metrics.add_many(name, f"sim/{target}/",
                                  sim_counters(self._traces[key]))
        return self._traces[key]

    def annotated(self, name: str, target: str,
                  config: LVPConfig) -> AnnotatedTrace:
        """Trace annotated with one LVP configuration's outcomes."""
        key = (name, target, config.name)
        if key in self._annotated:
            return self._annotated[key]
        fail_key = ("annotate", key)
        if fail_key in self._failed:
            raise self._failed[fail_key]
        trace = self.trace(name, target)
        self._annotated[key] = self._run_stage(
            name, "annotate", target, fail_key,
            lambda: self.guard.run_annotate(name, target, trace, config))
        if self.metrics is not None:
            self.metrics.add_many(
                name, f"lvp/{target}/{config.name}/",
                self._annotated[key].stats.counters())
        return self._annotated[key]

    # ------------------------------------------------------------------
    def ppc_result(self, name: str, machine: PPC620Config = PPC620,
                   lvp: Optional[LVPConfig] = None) -> PPC620Result:
        """620/620+ run of one benchmark (``lvp=None`` = no LVP)."""
        key = (name, machine.name, lvp.name if lvp else None)
        if key in self._ppc_runs:
            return self._ppc_runs[key]
        fail_key = ("model", "ppc", key)
        if fail_key in self._failed:
            raise self._failed[fail_key]
        annotated = self.annotated(name, "ppc", lvp or SIMPLE)
        label = f"{name}/model/ppc/{machine.name}/{lvp.name if lvp else 'base'}"
        self._ppc_runs[key] = self._run_stage(
            name, "model", "ppc", fail_key,
            lambda: self.guard.run_model(
                name, "ppc", label,
                lambda engine: PPC620Model(machine).run(
                    annotated, use_lvp=lvp is not None, engine=engine)))
        if self.metrics is not None:
            self.metrics.add_many(
                name,
                f"model/ppc/{machine.name}/{lvp.name if lvp else 'base'}/",
                self._ppc_runs[key].counters())
        return self._ppc_runs[key]

    def alpha_result(self, name: str,
                     lvp: Optional[LVPConfig] = None,
                     machine: Optional[AXP21164Config] = None,
                     ) -> AXP21164Result:
        """21164 run of one benchmark (``lvp=None`` = no LVP)."""
        machine = machine or AXP21164Config()
        key = (name, machine.name, lvp.name if lvp else None)
        if key in self._alpha_runs:
            return self._alpha_runs[key]
        fail_key = ("model", "alpha", key)
        if fail_key in self._failed:
            raise self._failed[fail_key]
        annotated = self.annotated(name, "alpha", lvp or SIMPLE)
        label = (f"{name}/model/alpha/{machine.name}/"
                 f"{lvp.name if lvp else 'base'}")
        self._alpha_runs[key] = self._run_stage(
            name, "model", "alpha", fail_key,
            lambda: self.guard.run_model(
                name, "alpha", label,
                lambda engine: AXP21164Model(machine).run(
                    annotated, use_lvp=lvp is not None, engine=engine)))
        if self.metrics is not None:
            self.metrics.add_many(
                name,
                f"model/alpha/{machine.name}/{lvp.name if lvp else 'base'}/",
                self._alpha_runs[key].counters())
        return self._alpha_runs[key]

    # ------------------------------------------------------------------
    def ppc_speedup(self, name: str, machine: PPC620Config,
                    lvp: LVPConfig) -> float:
        """Speedup of *lvp* over the no-LVP baseline on *machine*."""
        base = self.ppc_result(name, machine, None)
        with_lvp = self.ppc_result(name, machine, lvp)
        return base.cycles / with_lvp.cycles

    def alpha_speedup(self, name: str, lvp: LVPConfig) -> float:
        """Speedup of *lvp* over the no-LVP baseline on the 21164."""
        base = self.alpha_result(name, None)
        with_lvp = self.alpha_result(name, lvp)
        return base.cycles / with_lvp.cycles
