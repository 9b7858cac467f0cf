"""Parallel experiment engine.

One :class:`~repro.harness.session.Session` running 17 benchmarks x 2
codegen targets x several LVP configurations strictly serially is the
dominant wall-clock cost of ``experiment all``.  The work units --
(benchmark, stage, target, lvp-config) runs -- are embarrassingly
parallel, so this module shards them across worker processes and merges
the results back into the parent session.

Design rules (see ``docs/parallel.md`` for the full contract):

**Sharding.**  The unit of *scheduling* is one benchmark: a worker
receives every :class:`WorkUnit` for its benchmark and executes them in
dependency order against a private worker :class:`Session`.  Grouping
by benchmark means a trace is generated once per worker and reused by
that benchmark's annotate/model units instead of being re-simulated or
shipped between processes per stage.  Per-*unit* wall times are still
measured individually, so the timing summary reports at (benchmark,
stage, target, config) granularity.

**Determinism.**  Results are merged into the parent session ordered
by benchmark name -- never by completion order -- and each unit's
computation is independent of every other unit, so a parallel run
produces bit-identical traces, annotation statistics, cycle counts,
and speedups to a serial run.  The differential suite in
``tests/harness/test_parallel.py`` asserts this end to end.

**Cache sharing.**  When the parent session has an on-disk
:class:`~repro.harness.cache.TraceCache`, every worker opens the same
directory; the cache's fcntl locking and CRC-verified bundles (PR 1)
make concurrent store/load safe, and a trace generated by one worker
is a cache hit for the next run.  The cache is an accelerator only:
workers return their results in the merge payload, so correctness
never depends on the cache being present or intact.

**Zero-copy handoff.**  Shipping every trace's column arrays through
the pickle pipe is the dominant merge cost, and redundant whenever the
shared cache already holds the same bytes as a v2 bundle.  A worker
therefore substitutes a tiny :class:`_CachedTraceRef` for each trace
whose bundle exists on disk (and strips the matching ``.trace``
back-references from its annotations); the parent resolves each ref by
memory-mapping the bundle read-only -- zero copies, pages shared
across every process that maps it.  A ref that no longer resolves
(evicted, corrupted, disk yanked) simply drops that memo entry and the
session regenerates it lazily; payloads from older checkpoints carry
plain :class:`~repro.trace.records.Trace` objects and merge unchanged.
In process there is no pipe: a shard's payload keeps its traces, and
only its checkpoint carries stubs, so each cached bundle is loaded once.

**Graceful degradation.**  A benchmark that fails inside a worker is
recorded as a :class:`~repro.errors.BenchmarkFailure` on the worker's
session and merged into the parent's negative-memoization table, so
exhibits footnote it exactly as in serial mode.  A worker process that
*dies* (killed, segfaulted...) breaks the process pool; the engine
rebuilds the pool, retries the lost benchmarks, and records a
``worker``-stage failure (cause :class:`~repro.errors.WorkerCrashError`)
for any benchmark that keeps killing its worker.  A crashed worker is
footnoted, never fatal.
"""

from __future__ import annotations

import collections
import contextlib
import copy
import functools
import os
import pickle
import signal
import sys
import threading
import time
import warnings
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

from repro.errors import (
    BenchmarkFailure,
    MemoryBudgetError,
    UnitTimeoutError,
    WorkerCrashError,
)
from repro.harness.retry import RetryPolicy
from repro.lvp.config import CONSTANT, LIMIT, PERFECT, SIMPLE, config_by_name

#: Chaos knob: name a benchmark here and the worker process assigned
#: its shard exits hard (``os._exit``) instead of computing, simulating
#: a crashed/killed worker.  Used by the differential test suite to
#: prove the pool-rebuild and footnoting path; never set in production.
CRASH_ENV = "REPRO_PARALLEL_CRASH"

#: Default worker-count environment variable honoured by the CLI and
#: the benchmark harness (``1`` = the in-process path).
JOBS_ENV = "REPRO_JOBS"

#: Default per-unit watchdog environment variable (seconds; unset or
#: ``<= 0`` disarms the watchdog).
TIMEOUT_ENV = "REPRO_UNIT_TIMEOUT"

#: Per-worker resident-set budget in MiB (unset or ``<= 0`` disarms).
#: Checked between units: a worker over budget fails the *next* unit
#: with a terminal :class:`~repro.errors.MemoryBudgetError` (footnoted
#: like a watchdog timeout) instead of growing until the kernel's OOM
#: killer takes the whole worker -- and every benchmark on it -- down.
RSS_LIMIT_ENV = "REPRO_RSS_LIMIT_MB"

_PPC_MODEL_CONFIGS = (None, SIMPLE, CONSTANT, LIMIT, PERFECT)
_ALPHA_MODEL_CONFIGS = (None, SIMPLE, LIMIT, PERFECT)
_ANNOTATE_CONFIGS = (SIMPLE, CONSTANT, LIMIT, PERFECT)


def jobs_from_env(default: int = 1, strict: bool = False) -> int:
    """The worker count requested via ``REPRO_JOBS`` (>= 1).

    Lenient by default (malformed or non-positive values fall back to
    *default*) for library callers; the CLI passes ``strict=True`` to
    turn a bad value into a clear error instead of a silent fallback.
    """
    raw = os.environ.get(JOBS_ENV)
    if raw is None:
        return default
    try:
        jobs = int(raw)
    except ValueError:
        if strict:
            raise ValueError(
                f"{JOBS_ENV} must be a positive integer, got {raw!r}"
            ) from None
        return default
    if jobs < 1:
        if strict:
            raise ValueError(
                f"{JOBS_ENV} must be >= 1, got {jobs}")
        return default
    return jobs


def unit_timeout_from_env(default: float = 0.0) -> float:
    """The watchdog seconds requested via ``REPRO_UNIT_TIMEOUT``
    (``0`` = disarmed; malformed values fall back to *default*)."""
    try:
        return max(0.0, float(os.environ[TIMEOUT_ENV]))
    except (KeyError, ValueError):
        return default


def rss_limit_from_env(default: float = 0.0) -> float:
    """The RSS budget (MiB) requested via ``REPRO_RSS_LIMIT_MB``
    (``0`` = disarmed).  A malformed value warns (naming it) and falls
    back to *default* instead of silently disarming the watchdog."""
    raw = os.environ.get(RSS_LIMIT_ENV)
    if raw is None:
        return default
    try:
        return max(0.0, float(raw))
    except ValueError:
        warnings.warn(
            f"ignoring malformed {RSS_LIMIT_ENV}={raw!r} "
            f"(expected a number of MiB); using the default",
            RuntimeWarning, stacklevel=2)
        return default


def current_rss_mb() -> Optional[float]:
    """This process's resident set in MiB (None when unmeasurable)."""
    try:
        with open("/proc/self/statm") as handle:
            pages = int(handle.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE") / (1024 * 1024)
    except (OSError, ValueError, IndexError, AttributeError):
        pass
    try:  # pragma: no cover - non-Linux fallback (peak, not current)
        import resource
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # ru_maxrss is KiB on Linux, bytes on macOS.
        import sys as _sys
        divisor = 1024 * 1024 if _sys.platform == "darwin" else 1024
        return peak / divisor
    except Exception:
        return None


def _check_rss(limit_mb: float, unit: "WorkUnit") -> None:
    """Raise :class:`MemoryBudgetError` when the worker is over budget."""
    if not limit_mb or limit_mb <= 0:
        return
    rss = current_rss_mb()
    if rss is not None and rss > limit_mb:
        raise MemoryBudgetError(
            f"worker RSS {rss:.0f} MiB exceeds the {limit_mb:g} MiB "
            f"budget before unit {unit.label} ({RSS_LIMIT_ENV})")


@dataclass(frozen=True)
class WorkUnit:
    """One independent run: a benchmark at one pipeline stage.

    ``stage`` is ``trace``, ``annotate``, or ``model``; ``lvp`` is an
    LVP configuration name (``None`` = the no-LVP baseline, model stage
    only) and ``machine`` a PPC machine name (``620``/``620+``).
    """

    benchmark: str
    stage: str
    target: str
    lvp: Optional[str] = None
    machine: Optional[str] = None

    @property
    def label(self) -> str:
        """Human-readable unit key for the timing summary."""
        parts = [self.benchmark, self.stage, self.target]
        if self.machine:
            parts.append(self.machine)
        parts.append(self.lvp or ("base" if self.stage == "model" else ""))
        return "/".join(p for p in parts if p)


@dataclass(frozen=True)
class UnitTiming:
    """Measured wall time of one work unit inside one worker."""

    unit: WorkUnit
    seconds: float
    pid: int
    ok: bool


def default_workplan(benchmark_names: Sequence[str]) -> tuple[WorkUnit, ...]:
    """Every unit a full exhibit run (``experiment all``, ``check``,
    ``report``) draws on, in dependency order per benchmark."""
    units: list[WorkUnit] = []
    for name in benchmark_names:
        for target in ("ppc", "alpha"):
            units.append(WorkUnit(name, "trace", target))
        for target in ("ppc", "alpha"):
            for config in _ANNOTATE_CONFIGS:
                units.append(WorkUnit(name, "annotate", target, config.name))
        for machine in ("620", "620+"):
            for config in _PPC_MODEL_CONFIGS:
                units.append(WorkUnit(name, "model", "ppc",
                                      config.name if config else None,
                                      machine))
        for config in _ALPHA_MODEL_CONFIGS:
            units.append(WorkUnit(name, "model", "alpha",
                                  config.name if config else None))
    return tuple(units)


def _trace_need(target):
    return ("trace", target, None, None)


def _annotate_need(target, config):
    return ("annotate", target, config.name, None)


def _ppc_need(machine, config):
    return ("model", "ppc", config.name if config else None, machine)


def _alpha_need(config):
    return ("model", "alpha", config.name if config else None, None)


#: The (stage, target, lvp, machine) combinations each exhibit reads
#: directly.  Stage *dependencies* (a model unit's trace and
#: annotation) are intentionally absent: workers resolve them through
#: their session's memoization, so listing them would only double-book
#: the schedule.
_EXHIBIT_NEEDS: dict[str, frozenset] = {
    "tab1": frozenset({_trace_need("ppc"), _trace_need("alpha")}),
    "tab2": frozenset(),
    "tab5": frozenset(),
    "fig1": frozenset({_trace_need("ppc"), _trace_need("alpha")}),
    "fig2": frozenset({_trace_need("ppc")}),
    "tab3": frozenset(_annotate_need(t, c)
                      for t in ("ppc", "alpha") for c in (SIMPLE, LIMIT)),
    "tab4": frozenset(_annotate_need(t, c)
                      for t in ("ppc", "alpha") for c in (SIMPLE, CONSTANT)),
    "fig6": frozenset({_ppc_need("620", c) for c in _PPC_MODEL_CONFIGS}
                      | {_alpha_need(c) for c in _ALPHA_MODEL_CONFIGS}),
    "tab6": frozenset({_ppc_need("620", None)}
                      | {_ppc_need("620+", c) for c in _PPC_MODEL_CONFIGS}),
    "fig7": frozenset(_ppc_need(m, c) for m in ("620", "620+")
                      for c in (SIMPLE, CONSTANT, LIMIT, PERFECT)),
    "fig8": frozenset(_ppc_need(m, c) for m in ("620", "620+")
                      for c in _PPC_MODEL_CONFIGS),
    "fig9": frozenset(_ppc_need(m, c) for m in ("620", "620+")
                      for c in (None, SIMPLE, CONSTANT)),
}


def units_for_exhibits(exp_ids: Sequence[str],
                       benchmark_names: Sequence[str]) -> tuple[WorkUnit, ...]:
    """The workplan a specific set of exhibits draws on.

    A single-exhibit run schedules (and journals) only the units that
    exhibit reads, in the same canonical per-benchmark order as
    :func:`default_workplan`; an unknown exhibit id or ``all``-style
    full pass falls back to the complete workplan.  Exhibits lazily
    compute anything a filtered workplan missed through the parent
    session, so completeness here affects scheduling, never output.
    """
    needed: set = set()
    for exp_id in exp_ids:
        needs = _EXHIBIT_NEEDS.get(exp_id)
        if needs is None:
            return default_workplan(benchmark_names)
        needed |= needs
    return tuple(
        unit for unit in default_workplan(benchmark_names)
        if (unit.stage, unit.target, unit.lvp, unit.machine) in needed
    )


@contextlib.contextmanager
def _unit_watchdog(seconds: float, unit: WorkUnit):
    """Arm a SIGALRM watchdog for one unit's execution.

    Raises :class:`~repro.errors.UnitTimeoutError` inside the hung
    frame when the unit exceeds *seconds* -- interrupting even a
    wedged ``time.sleep`` -- so the session's failure isolation
    records the unit's benchmark and the run moves on.  Disarmed when
    *seconds* is falsy, off the main thread, or on platforms without
    ``SIGALRM`` (the watchdog is then a documented no-op).
    """
    if (not seconds or seconds <= 0
            or not hasattr(signal, "SIGALRM")
            or threading.current_thread() is not threading.main_thread()):
        yield
        return

    def _alarm(signum, frame):
        raise UnitTimeoutError(
            f"work unit {unit.label} exceeded the {seconds:g}s watchdog "
            f"(--unit-timeout / {TIMEOUT_ENV})")

    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# ---------------------------------------------------------------------------
# Worker side.
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class _CachedTraceRef:
    """Merge-payload placeholder for a trace the shared cache holds.

    Pickles in a few dozen bytes where the trace's column arrays would
    be megabytes; the parent resolves it to a read-only memory-mapped
    :class:`~repro.trace.records.Trace` via ``TraceCache.load``.
    """

    name: str
    target: str
    scale: str


@dataclass(frozen=True)
class _ShardSpec:
    """Everything a worker needs to run one benchmark's units."""

    benchmark: str
    scale: str
    verify: bool
    cache_dir: Optional[str]
    units: tuple[WorkUnit, ...]
    unit_timeout: float = 0.0
    #: Attach a MetricsRegistry to the worker session (the fragment
    #: ships home in the shard payload; see repro.obs).
    metrics: bool = False
    #: Run every unit under cProfile and ship the pstats text home.
    profile: bool = False


@dataclass
class _ShardResult:
    """One worker's memo fragments, failures, and unit timings."""

    benchmark: str
    traces: dict
    annotated: dict
    ppc_runs: dict
    alpha_runs: dict
    failed: dict
    timings: list[UnitTiming]
    #: MetricsRegistry.fragment() of the worker session (None when the
    #: run is unobserved -- and in checkpoints from older versions,
    #: which is why the merge reads these via getattr).
    metrics: Optional[dict] = None
    #: unit label -> pstats text, when profiling was requested.
    profiles: Optional[dict] = None
    #: TierDemotion records from the worker session's guard (None in
    #: checkpoints from older versions; the merge reads via getattr).
    demotions: Optional[list] = None


def _machine_by_name(name: Optional[str]):
    from repro.uarch.ppc620.config import PPC620, PPC620_PLUS
    if name in (None, "620"):
        return PPC620
    if name == "620+":
        return PPC620_PLUS
    raise ValueError(f"unknown PPC machine {name!r}")


def _execute_unit(session, unit: WorkUnit) -> None:
    """Run one unit against *session* (results land in its memos)."""
    if unit.stage == "trace":
        session.trace(unit.benchmark, unit.target)
    elif unit.stage == "annotate":
        session.annotated(unit.benchmark, unit.target,
                          config_by_name(unit.lvp))
    elif unit.stage == "model":
        lvp = config_by_name(unit.lvp) if unit.lvp else None
        if unit.target == "ppc":
            session.ppc_result(unit.benchmark, _machine_by_name(unit.machine),
                               lvp)
        else:
            session.alpha_result(unit.benchmark, lvp)
    else:
        raise ValueError(f"unknown work unit stage {unit.stage!r}")


def _portable_failure(failure: BenchmarkFailure) -> BenchmarkFailure:
    """A copy of *failure* guaranteed to survive the pickle trip home.

    Causes are ordinarily plain exceptions and pickle fine; an exotic
    unpicklable cause is replaced by a WorkerCrashError surrogate
    carrying its repr rather than poisoning the whole shard payload.
    """
    try:
        pickle.dumps(failure)
        return failure
    except Exception:
        surrogate = WorkerCrashError(
            f"unpicklable {type(failure.cause).__name__}: {failure.cause}")
        return BenchmarkFailure(failure.benchmark, failure.stage,
                                failure.target, surrogate)


def _profile_text(profiler) -> str:
    """Render one unit's cProfile capture as sorted pstats text."""
    import io
    import pstats
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats("cumulative").print_stats(25)
    return buffer.getvalue()


def _lighten_payload(result: _ShardResult, cache,
                     scale: str) -> _ShardResult:
    """*result* as it should be pickled: cache-backed traces swapped for
    :class:`_CachedTraceRef` stubs.

    Only traces whose v2 bundle is actually on disk in *cache* are
    substituted (the cache may have refused or evicted a store);
    annotations whose ``.trace`` is being replaced are copied and the
    copy re-pointed at the same ref, so one trace's arrays are not
    smuggled through the annotation's back-reference.  *result* itself
    is left untouched, so its owner may go on reading real traces from
    it.  With no cache (or nothing to swap) this returns *result*.
    """
    if cache is None:
        return result
    traces = dict(result.traces)
    refs: dict = {}
    for key, trace in traces.items():
        if isinstance(trace, _CachedTraceRef):
            continue
        name, target = key
        try:
            if not cache.path_for(name, target, scale).exists():
                continue
        except OSError:
            continue
        refs[key] = traces[key] = _CachedTraceRef(name, target, scale)
    if not refs:
        return result
    annotated = dict(result.annotated)
    for akey, annotation in annotated.items():
        ref = refs.get((akey[0], akey[1]))
        if ref is not None:
            annotated[akey] = light = copy.copy(annotation)
            light.trace = ref
    return replace(result, traces=traces, annotated=annotated)


@dataclass
class _GroupResult:
    """What one model group added to its shard's session: the payload
    a model child ships home (:mod:`repro.harness.children`)."""

    ppc_runs: dict
    alpha_runs: dict
    failed: dict
    demotions: list
    metrics: Optional[dict]
    timings: list[UnitTiming]
    profiles: Optional[dict]


def _model_groups(units: Sequence[WorkUnit]) -> list[tuple[WorkUnit, ...]]:
    """The model units of *units*, one group per target in workplan
    order.  The guard's sticky demotions are keyed (benchmark, stage,
    target), so a group holds every unit a demotion can affect."""
    groups: dict[str, list[WorkUnit]] = {}
    for unit in units:
        if unit.stage == "model":
            groups.setdefault(unit.target, []).append(unit)
    return [tuple(group) for group in groups.values()]


class _Shard:
    """One benchmark's units run against a private worker session."""

    def __init__(self, spec: _ShardSpec) -> None:
        crash = os.environ.get(CRASH_ENV)
        if crash and crash == spec.benchmark:
            kill_model_children()  # leave no orphan on the caller's pipes
            os._exit(13)  # simulate a killed/segfaulted worker
        from repro.harness.session import Session
        self.spec = spec
        self.session = Session(
            scale=spec.scale, benchmarks=(spec.benchmark,),
            verify=spec.verify, cache_dir=spec.cache_dir,
            metrics=spec.metrics, unit_timeout=spec.unit_timeout)
        self.rss_limit = rss_limit_from_env()
        self.timings: list[UnitTiming] = []
        self.profiles: Optional[dict] = {} if spec.profile else None

    def run(self, units: Sequence[WorkUnit]) -> None:
        """Execute *units* in order, timing (and profiling) each."""
        pid = os.getpid()
        for unit in units:
            start = time.perf_counter()
            profiler = None
            if self.profiles is not None:
                import cProfile
                profiler = cProfile.Profile()
                profiler.enable()
            try:
                ok = self._attempt(unit)
            finally:
                if profiler is not None:
                    profiler.disable()
                    self.profiles[unit.label] = _profile_text(profiler)
            self.timings.append(UnitTiming(unit, time.perf_counter() - start,
                                           pid, ok))

    def _attempt(self, unit: WorkUnit) -> bool:
        """Execute one unit under the watchdog; False if it failed."""
        session = self.session
        try:
            _check_rss(self.rss_limit, unit)
            with _unit_watchdog(self.spec.unit_timeout, unit):
                _execute_unit(session, unit)
        except BenchmarkFailure:
            # Recorded on the worker session; dependent units of the
            # same benchmark re-raise instantly via negative
            # memoization.
            return False
        except (UnitTimeoutError, MemoryBudgetError) as exc:
            # The alarm fired between stage try-blocks (or the RSS
            # budget tripped before the unit started), so the session
            # did not get to record it: pin the failure on the unit's
            # own stage so the benchmark is footnoted all the same.
            key = ("watchdog", (unit.benchmark, unit.stage, unit.target,
                                unit.lvp, unit.machine))
            if key not in session._failed:
                session._fail(unit.benchmark, unit.stage, unit.target,
                              key, exc)
            return False
        return True

    def resolve(self, group: Sequence[WorkUnit]) -> None:
        """Compute every trace and annotation the model units of
        *group* read (base runs read Simple's), so that a child running
        the group only models."""
        for target, lvp in dict.fromkeys(
                (unit.target, unit.lvp or SIMPLE.name) for unit in group):
            self._attempt(WorkUnit(self.spec.benchmark, "annotate",
                                   target, lvp))

    def run_group(self, group: Sequence[WorkUnit]) -> _GroupResult:
        """Run one model group and return what it added to the session
        (a model child's side: its session is a copy of the parent's,
        and a fresh registry keeps the parent's counters from being
        shipped home twice)."""
        from repro.obs.metrics import MetricsRegistry
        session = self.session
        ppc, alpha = set(session._ppc_runs), set(session._alpha_runs)
        failed = set(session._failed)
        demoted = len(session.demotions)
        if session.metrics is not None:
            session.metrics = MetricsRegistry()
        self.timings = []
        if self.profiles is not None:
            self.profiles = {}
        self.run(group)
        return _GroupResult(
            ppc_runs={key: run for key, run in session._ppc_runs.items()
                      if key not in ppc},
            alpha_runs={key: run for key, run in session._alpha_runs.items()
                        if key not in alpha},
            failed={key: _portable_failure(failure)
                    for key, failure in session._failed.items()
                    if key not in failed},
            demotions=session.demotions[demoted:],
            metrics=None if session.metrics is None
            else session.metrics.fragment(),
            timings=self.timings,
            profiles=self.profiles,
        )

    def merge_group(self, group: _GroupResult) -> None:
        """Fold a model child's :meth:`run_group` result into the
        session, as if the group had run here."""
        session = self.session
        session._ppc_runs.update(group.ppc_runs)
        session._alpha_runs.update(group.alpha_runs)
        for key, failure in group.failed.items():
            session._failed[key] = failure
            session.failures.append(failure)
        session.demotions.extend(group.demotions)
        if group.metrics is not None and session.metrics is not None:
            session.metrics.merge_fragment(group.metrics)
        self.timings.extend(group.timings)
        if group.profiles:
            self.profiles.update(group.profiles)

    def group_deadline(self, group: Sequence[WorkUnit]) -> float:
        """Seconds a model child may take for *group* (0 = unbounded):
        each unit may time out once on its fast tier and once more on
        the re-armed oracle, plus a second of slack."""
        timeout = self.spec.unit_timeout
        return 2.0 * timeout * len(group) + 1.0 if timeout > 0 else 0.0

    def payload(self) -> _ShardResult:
        """The shard's merge payload (what is checkpointed and merged),
        holding the session's own traces: :func:`_lighten_payload` makes
        the copy that crosses a process boundary."""
        session = self.session
        failed = {key: _portable_failure(failure)
                  for key, failure in session._failed.items()}
        fragment = None
        if session.metrics is not None:
            session.collect_run_counters()
            fragment = session.metrics.fragment()
        return _ShardResult(
            benchmark=self.spec.benchmark,
            traces=dict(session._traces),
            annotated=dict(session._annotated),
            ppc_runs=session._ppc_runs,
            alpha_runs=session._alpha_runs,
            failed=failed,
            timings=self.timings,
            metrics=fragment,
            profiles=self.profiles,
            demotions=list(session.demotions),
        )


def _run_shard(spec: _ShardSpec) -> _ShardResult:
    """Worker entry point: run every unit of one benchmark."""
    shard = _Shard(spec)
    shard.run(spec.units)
    return _lighten_payload(shard.payload(), shard.session.cache, spec.scale)


# ---------------------------------------------------------------------------
# Parent side.
# ---------------------------------------------------------------------------
class EngineObserver:
    """Parent-side progress hooks (the run journal implements these).

    All methods are no-ops by default; the engine calls them from the
    parent process only, so implementations may do I/O freely.  A
    ``shard`` here is one benchmark's complete unit list.
    """

    def shard_started(self, spec: "_ShardSpec") -> None:
        """*spec* was handed to a worker (or the in-process runner)."""

    def shard_finished(self, spec: "_ShardSpec",
                       result: "_ShardResult") -> None:
        """*spec* completed; *result* is its full merge payload."""

    def shard_retry(self, benchmark: str, attempt: int,
                    delay: float, cause: BaseException) -> None:
        """*benchmark*'s worker died; it will be retried after *delay*."""

    def shard_lost(self, benchmark: str, cause: BaseException) -> None:
        """*benchmark* exhausted its attempts and is being footnoted."""


@dataclass
class EngineReport:
    """What one parallel warm run did, and how long each unit took."""

    jobs: int
    wall_seconds: float
    timings: list[UnitTiming] = field(default_factory=list)
    #: Benchmarks whose workers kept dying (footnoted, not fatal).
    crashed: tuple[str, ...] = ()
    #: Benchmarks retried after a pool breakage took their worker down.
    retried: tuple[str, ...] = ()
    #: unit label -> pstats text (populated when profiling was on).
    profiles: dict = field(default_factory=dict)

    @property
    def busy_seconds(self) -> float:
        """Summed per-unit compute time (the serial-equivalent cost)."""
        return sum(t.seconds for t in self.timings)

    @property
    def parallelism(self) -> float:
        """Observed speedup: busy seconds over wall seconds."""
        return self.busy_seconds / self.wall_seconds \
            if self.wall_seconds else 0.0

    def render(self) -> str:
        """Per-unit timing summary (one line per unit, slowest first)."""
        from repro.analysis.report import TextTable
        table = TextTable(["unit", "seconds", "worker", "status"],
                          title=f"Parallel timing summary ({self.jobs} jobs)")
        for timing in sorted(self.timings, key=lambda t: -t.seconds):
            table.add_row([timing.unit.label, f"{timing.seconds:.3f}",
                           timing.pid, "ok" if timing.ok else "FAILED"])
        lines = [table.render()]
        lines.append(
            f"{len(self.timings)} units in {self.wall_seconds:.2f}s wall "
            f"({self.busy_seconds:.2f}s busy, {self.parallelism:.2f}x "
            f"parallelism, {self.jobs} jobs)")
        if self.retried:
            lines.append("retried after worker loss: "
                         + ", ".join(self.retried))
        if self.crashed:
            lines.append("lost to crashed workers (footnoted): "
                         + ", ".join(self.crashed))
        return "\n".join(lines)


class ParallelEngine:
    """Shard a session's work units across worker processes.

    ``run()`` executes the workplan with ``jobs`` workers and merges
    every result (and failure) back into the parent *session*, ordered
    by benchmark name.  ``jobs=1`` executes the same shard/merge path
    in-process: that is the default journaled ``repro experiment`` path
    (:func:`~repro.harness.journal.run_journaled`), while
    :meth:`Session.warm` and the unjournaled CLI skip the engine at
    ``jobs=1`` and stay lazy.  In-process, each (benchmark, target)'s
    model units run in a forked child while the parent goes on, up to
    the number of usable CPUs (:mod:`repro.harness.children`); a shard
    is checkpointed only once all its model groups are in.

    ``max_attempts`` bounds how many times one benchmark may take a
    worker down (pool breakage) before it is recorded as a
    ``worker``-stage failure instead of retried; retry waves back off
    exponentially (seeded jitter) so a transiently overloaded machine
    is not hammered.  ``unit_timeout`` (seconds; default
    ``REPRO_UNIT_TIMEOUT``) arms the per-unit watchdog inside each
    worker.  ``preloaded`` maps benchmark names to already-computed
    shard payloads (checkpoints from a resumed run journal): those
    benchmarks are merged without being re-run.  ``observer`` receives
    parent-side progress callbacks (see :class:`EngineObserver`).
    """

    def __init__(self, session, jobs: int = 1,
                 units: Optional[Sequence[WorkUnit]] = None,
                 max_attempts: int = 2,
                 unit_timeout: Optional[float] = None,
                 observer: Optional[EngineObserver] = None,
                 preloaded: Optional[dict] = None,
                 profile: bool = False) -> None:
        self.session = session
        self.jobs = max(1, int(jobs))
        self.units = tuple(units) if units is not None \
            else default_workplan(session.benchmark_names)
        self.max_attempts = max(1, int(max_attempts))
        self.unit_timeout = unit_timeout if unit_timeout is not None \
            else unit_timeout_from_env()
        self.observer = observer or EngineObserver()
        self.preloaded = dict(preloaded or {})
        self.profile = bool(profile)

    # -- planning ------------------------------------------------------------
    def _shards(self) -> list[_ShardSpec]:
        """Group units by benchmark, preserving per-benchmark order
        (benchmarks with a preloaded payload are already done)."""
        grouped: dict[str, list[WorkUnit]] = {}
        for unit in self.units:
            if unit.benchmark in self.preloaded:
                continue
            grouped.setdefault(unit.benchmark, []).append(unit)
        session = self.session
        cache_dir = str(session.cache.directory) if session.cache else None
        metrics = getattr(session, "metrics", None) is not None
        return [
            _ShardSpec(benchmark=name, scale=session.scale,
                       verify=session.verify, cache_dir=cache_dir,
                       units=tuple(units), unit_timeout=self.unit_timeout,
                       metrics=metrics, profile=self.profile)
            for name, units in grouped.items()
        ]

    # -- execution -----------------------------------------------------------
    def run(self) -> EngineReport:
        """Execute the workplan; merge results into the parent session."""
        start = time.perf_counter()
        shards = self._shards()
        if self.jobs <= 1 or len(shards) <= 1:
            results = self._run_in_process(shards)
            lost: dict[str, BaseException] = {}
            retried: tuple[str, ...] = ()
        else:
            results, lost, retried = self._run_pool(shards)
        results.update(self.preloaded)
        report = EngineReport(jobs=self.jobs, wall_seconds=0.0,
                              crashed=tuple(sorted(lost)), retried=retried)
        self._merge(results, lost, report)
        report.wall_seconds = time.perf_counter() - start
        return report

    def _run_in_process(self, shards: list[_ShardSpec]) -> dict:
        """Run shards in this process, their model groups in forked
        children (:mod:`repro.harness.children`).

        The parent runs a shard's trace and annotate units, forks one
        child per model group and goes on with the next shard.  Shards
        finish (group results merged in workplan order, then payload and
        ``shard_finished``) in order, each once all its groups are in; a
        group whose child failed runs inline first.
        """
        from repro.harness.children import ModelChildren, usable_cpus
        cpus = usable_cpus() if hasattr(os, "fork") else 1
        children = ModelChildren(cpus, getattr(self.session, "metrics", None))
        results: dict[str, _ShardResult] = {}
        waiting: collections.deque = collections.deque()

        def finish(shard: _Shard, forked: list) -> None:
            for _, child in forked:
                children.settle(child)
            for group, child in forked:
                if child.result is None:
                    children.wait(cpus - 1)
                    shard.run(group)
                else:
                    shard.merge_group(child.result)
            result = shard.payload()
            results[shard.spec.benchmark] = result
            self.observer.shard_finished(shard.spec, result)

        try:
            for spec in shards:
                self.observer.shard_started(spec)
                children.wait(cpus - 1)
                shard = _Shard(spec)
                groups = _model_groups(spec.units) if cpus > 1 else []
                shard.run([unit for unit in spec.units
                           if not groups or unit.stage != "model"])
                for group in groups:
                    shard.resolve(group)
                forked = [
                    (group, children.fork(
                        spec.benchmark, functools.partial(shard.run_group,
                                                          group),
                        shard.group_deadline(group)))
                    for group in groups]
                waiting.append((shard, forked))
                children.poll()
                while waiting and all(child.done
                                      for _, child in waiting[0][1]):
                    finish(*waiting.popleft())
            while waiting:
                finish(*waiting.popleft())
        finally:
            children.close()
        return results

    def _run_pool(self, shards: list[_ShardSpec]):
        """Run shards under a process pool, rebuilding it on breakage."""
        from concurrent.futures import ProcessPoolExecutor, as_completed
        results: dict[str, _ShardResult] = {}
        lost: dict[str, BaseException] = {}
        attempts: dict[str, int] = {spec.benchmark: 0 for spec in shards}
        ever_retried: set[str] = set()
        backoff = RetryPolicy(attempts=self.max_attempts + 1).delays()
        pending = list(shards)
        isolate = False
        wave = 0
        while pending:
            retry: list[_ShardSpec] = []

            def _collect(futures) -> None:
                for future in as_completed(futures):
                    spec = futures[future]
                    try:
                        result = future.result()
                    except Exception as exc:
                        # A worker died: this future's shard either
                        # killed it or was collateral damage of the
                        # pool breaking.  Retry up to max_attempts.
                        attempts[spec.benchmark] += 1
                        if attempts[spec.benchmark] >= self.max_attempts:
                            lost[spec.benchmark] = exc
                            self.observer.shard_lost(spec.benchmark, exc)
                        else:
                            ever_retried.add(spec.benchmark)
                            retry.append(spec)
                            self.observer.shard_retry(
                                spec.benchmark, attempts[spec.benchmark],
                                backoff[min(wave, len(backoff) - 1)], exc)
                    else:
                        results[spec.benchmark] = result
                        self.observer.shard_finished(spec, result)

            if not isolate:
                workers = min(self.jobs, len(pending))
                with ProcessPoolExecutor(max_workers=workers) as pool:
                    futures = {}
                    for spec in pending:
                        self.observer.shard_started(spec)
                        futures[pool.submit(_run_shard, spec)] = spec
                    _collect(futures)
            else:
                # A previous wave broke the pool, so a deterministic
                # crasher may be among the survivors: give each shard
                # its own single-worker pool so one crash cannot take
                # innocent benchmarks (or their attempt budget) down
                # with it.
                for spec in pending:
                    self.observer.shard_started(spec)
                    with ProcessPoolExecutor(max_workers=1) as pool:
                        _collect({pool.submit(_run_shard, spec): spec})
            isolate = bool(retry)
            if retry:
                # Transient breakage (an OOM kill, a flaky node) often
                # clears if given a moment: back off before the next
                # wave, deterministically jittered.
                time.sleep(backoff[min(wave, len(backoff) - 1)])
                wave += 1
            pending = sorted(retry, key=lambda spec: spec.benchmark)
        return results, lost, tuple(sorted(ever_retried))

    # -- merging -------------------------------------------------------------
    def _resolve_ref(self, ref: _CachedTraceRef):
        """Memory-map one worker's trace ref through the parent cache
        (None when the bundle is gone or unreadable)."""
        cache = self.session.cache
        if cache is None:
            return None
        try:
            return cache.load(ref.name, ref.target, ref.scale)
        except Exception:
            return None

    def _merge_shard_memos(self, shard: _ShardResult) -> None:
        """Fold one shard's trace/annotation memos into the session,
        resolving :class:`_CachedTraceRef` stubs through the shared
        cache.  An unresolvable ref drops that trace AND its dependent
        annotations -- the session regenerates them lazily -- rather
        than planting a stub where exhibits expect arrays."""
        session = self.session
        resolved: dict = {}
        for key, value in shard.traces.items():
            if isinstance(value, _CachedTraceRef):
                value = self._resolve_ref(value)
                if value is None:
                    continue
            resolved[key] = value
        session._traces.update(resolved)
        for key, annotation in shard.annotated.items():
            ref = getattr(annotation, "trace", None)
            if isinstance(ref, _CachedTraceRef):
                trace = resolved.get((ref.name, ref.target))
                if trace is None:
                    continue
                annotation.trace = trace
            session._annotated[key] = annotation

    def _merge(self, results: dict[str, _ShardResult],
               lost: dict[str, BaseException],
               report: EngineReport) -> None:
        """Fold worker payloads into the parent session, by name."""
        session = self.session
        for name in sorted(results):
            shard = results[name]
            self._merge_shard_memos(shard)
            session._ppc_runs.update(shard.ppc_runs)
            session._alpha_runs.update(shard.alpha_runs)
            for key, failure in shard.failed.items():
                if key not in session._failed:
                    session._failed[key] = failure
                    session.failures.append(failure)
            report.timings.extend(shard.timings)
            # getattr: checkpoints pickled by older versions predate
            # the metrics/profiles fields.
            fragment = getattr(shard, "metrics", None)
            if fragment is not None and session.metrics is not None:
                session.metrics.merge_fragment(fragment)
            profiles = getattr(shard, "profiles", None)
            if profiles:
                report.profiles.update(profiles)
            demotions = getattr(shard, "demotions", None)
            if demotions:
                session.demotions.extend(demotions)
        for name in sorted(lost):
            exc = lost[name]
            cause = WorkerCrashError(
                f"worker process died while computing {name!r} "
                f"({type(exc).__name__}: {exc})")
            # Pin the failure on the trace stage of both targets: every
            # downstream stage starts from trace(), so all exhibits
            # degrade to a footnote exactly as for an in-band failure.
            for target in ("ppc", "alpha"):
                key = ("trace", (name, target))
                if key not in session._failed:
                    failure = BenchmarkFailure(name, "worker", target, cause)
                    session._failed[key] = failure
                    session.failures.append(failure)


def kill_model_children() -> None:
    """Kill and reap any model child still running (for signal handlers
    and crash drills; nothing to do unless the in-process engine has
    loaded :mod:`repro.harness.children`)."""
    children = sys.modules.get("repro.harness.children")
    if children is not None:
        children.kill_children()


def warm_session(session, jobs: int,
                 units: Optional[Sequence[WorkUnit]] = None,
                 unit_timeout: Optional[float] = None,
                 ) -> Optional[EngineReport]:
    """Precompute *session*'s workplan with *jobs* workers.

    ``jobs <= 1`` is a no-op returning None: the session stays lazy and
    serial, today's default path.
    """
    if jobs <= 1:
        return None
    return ParallelEngine(session, jobs=jobs, units=units,
                          unit_timeout=unit_timeout).run()
