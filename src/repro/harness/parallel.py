"""Parallel experiment engine.

One :class:`~repro.harness.session.Session` running 17 benchmarks x 2
codegen targets x several LVP configurations strictly serially is the
dominant wall-clock cost of ``experiment all``.  The work units --
(benchmark, stage, target, lvp-config) runs -- are embarrassingly
parallel, so this module shards them by benchmark, runs their model
stages in forked children and merges the results back into the parent
session.

Design rules (see ``docs/parallel.md`` for the full contract):

**Sharding.**  The unit of *scheduling* is one benchmark: a shard
receives every :class:`WorkUnit` for its benchmark and executes them in
dependency order against a private :class:`Session`.  Grouping by
benchmark means a trace is generated once per shard and reused by that
benchmark's annotate/model units.  Per-*unit* wall times are still
measured individually, so the timing summary reports at (benchmark,
stage, target, config) granularity.

**One process mechanism.**  The parent runs each shard's trace and
annotate units itself and forks one child per (benchmark, target)
model group through :mod:`repro.harness.children`, up to the usable
CPUs (``jobs=1``, the default) or *jobs* computing processes.  A child
that cannot fork, dies, exits non-zero, writes a bad payload or
overruns its deadline has its group re-run in the parent, so a failed
child changes wall time, never output.

**Determinism.**  Results are merged into the parent session ordered
by benchmark name -- never by completion order -- and each unit's
computation is independent of every other unit, so a parallel run
produces bit-identical traces, annotation statistics, cycle counts,
and speedups to a serial run.  The differential suite in
``tests/harness/test_parallel.py`` asserts this end to end.

**The parent keeps results, not intermediates.**  Once a shard's
model groups are in and its checkpoint is written, the parent keeps
only what the exhibits read (a
:class:`~repro.harness.session.TraceSummary` per trace unit, each
annotation's statistics, the model runs) and drops the shard's session
with its traces, annotations and decodes.  So the parent's memory is
bounded by the shards in flight, not by the suite.

**Checkpoints carry stubs.**  A shard's payload keeps the session's
own traces, so each cached bundle is loaded once.  What is pickled into
a checkpoint names each trace whose bundle is in the shared
:class:`~repro.harness.cache.TraceCache` by a tiny
:class:`_CachedTraceRef`; a resumed run memory-maps the bundle back to
summarize it.  A ref that no longer resolves (evicted, corrupted) gets
no summary, and the session recomputes it on demand.

**Graceful degradation.**  A benchmark that fails in a shard is
recorded as a :class:`~repro.errors.BenchmarkFailure` on the shard's
session and merged into the parent's negative-memoization table, so
exhibits footnote it exactly as a lazy session does.
"""

from __future__ import annotations

import collections
import contextlib
import copy
import functools
import os
import pickle
import signal
import threading
import time
import warnings
from dataclasses import dataclass, field, replace
from typing import Iterable, Optional, Sequence

from repro.errors import (
    BenchmarkFailure,
    MemoryBudgetError,
    UnitTimeoutError,
    WorkerCrashError,
)
from repro.lvp.config import CONSTANT, LIMIT, PERFECT, SIMPLE, config_by_name
from repro.trace.records import forget

#: Chaos knob: name a benchmark here and each of its model children
#: exits hard (``os._exit``) instead of computing, simulating a killed
#: child.  Used by the differential suite and CI to prove that a dead
#: child's group is re-run in the parent; never set in production.
CRASH_ENV = "REPRO_PARALLEL_CRASH"

#: Default job-count environment variable honoured by the CLI
#: (``1`` = one computing process per usable CPU).
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


def jobs_from_env() -> int:
    """The job count requested via ``REPRO_JOBS`` (default 1); a
    malformed or non-positive value raises :class:`ValueError`."""
    raw = os.environ.get(JOBS_ENV)
    if raw is None:
        return 1
    try:
        jobs = int(raw)
    except ValueError:
        raise ValueError(
            f"{JOBS_ENV} must be a positive integer, got {raw!r}"
        ) from None
    if jobs < 1:
        raise ValueError(f"{JOBS_ENV} must be >= 1, got {jobs}")
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
#: annotation) are intentionally absent: shards resolve them through
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
    """Run one unit against *session* (results land in its memos).  A
    trace unit also summarizes its trace while the decode it shares
    with the annotations is live."""
    if unit.stage == "trace":
        session.trace_summary(unit.benchmark, unit.target)
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
    """A copy of *failure* as it comes out of the pickle trip home.

    The copy carries no traceback, whose frames would pin the failed
    shard's traces in the parent.  Causes are ordinarily plain
    exceptions and pickle fine; an exotic unpicklable cause is replaced
    by a WorkerCrashError surrogate carrying its repr rather than
    poisoning the whole shard payload.
    """
    try:
        return pickle.loads(pickle.dumps(failure))
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
        if os.environ.get(CRASH_ENV) == self.spec.benchmark:
            os._exit(13)  # simulate a killed child
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
        """The shard's payload (what is checkpointed), holding the
        session's own traces: :func:`_lighten_payload` makes the copy
        that crosses a process boundary."""
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
        """*spec* is about to run."""

    def shard_finished(self, spec: "_ShardSpec",
                       result: "_ShardResult") -> None:
        """*spec* completed; *result* is its full payload (what is
        checkpointed), traces and annotations included."""


@dataclass
class EngineReport:
    """What one engine run did, and how long each unit took."""

    jobs: int
    wall_seconds: float
    timings: list[UnitTiming] = field(default_factory=list)
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
        return "\n".join([table.render(), (
            f"{len(self.timings)} units in {self.wall_seconds:.2f}s wall "
            f"({self.busy_seconds:.2f}s busy, {self.parallelism:.2f}x "
            f"parallelism, {self.jobs} jobs)")])


class ParallelEngine:
    """Run a session's work units, model groups in forked children.

    ``run()`` executes the workplan and merges every result (and
    failure) back into the parent *session*, ordered by benchmark name.
    Each (benchmark, target)'s model units run in a forked child while
    the parent goes on (:mod:`repro.harness.children`); a shard is
    checkpointed only once all its model groups are in.  At most
    ``jobs`` processes compute at once, or one per usable CPU at
    ``jobs=1``, the default.  Every CLI exhibit run goes through it:
    :func:`~repro.harness.experiments.run_experiments` for
    ``experiment`` and :meth:`Session.warm` for ``check`` and
    ``report``.  On one usable CPU everything runs inline and nothing
    forks.

    ``unit_timeout`` (seconds; default ``REPRO_UNIT_TIMEOUT``) arms the
    per-unit watchdog.  ``preloaded`` yields ``(benchmark, payload)``
    pairs of already-computed shards (checkpoints from a resumed run
    journal): each is reduced as it comes, and those benchmarks are
    merged without being re-run.
    ``observer`` receives parent-side progress callbacks (see
    :class:`EngineObserver`).
    """

    def __init__(self, session, jobs: int = 1,
                 units: Optional[Sequence[WorkUnit]] = None,
                 unit_timeout: Optional[float] = None,
                 observer: Optional[EngineObserver] = None,
                 preloaded: Optional[Iterable] = None,
                 profile: bool = False) -> None:
        self.session = session
        self.jobs = max(1, int(jobs))
        self.units = tuple(units) if units is not None \
            else default_workplan(session.benchmark_names)
        self.unit_timeout = unit_timeout if unit_timeout is not None \
            else unit_timeout_from_env()
        self.observer = observer or EngineObserver()
        self.preloaded = preloaded or ()
        self.profile = bool(profile)

    # -- planning ------------------------------------------------------------
    def _shards(self, done) -> list[_ShardSpec]:
        """Group units by benchmark, preserving per-benchmark order
        (benchmarks in *done*, preloaded, are skipped)."""
        grouped: dict[str, list[WorkUnit]] = {}
        for unit in self.units:
            if unit.benchmark in done:
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
        kept = {name: self._keep(result, self._summarize_checkpoint(result))
                for name, result in self.preloaded}
        self.preloaded = ()
        results = self._run_in_process(self._shards(kept))
        results.update(kept)
        report = EngineReport(jobs=self.jobs, wall_seconds=0.0)
        self._merge(results, report)
        report.wall_seconds = time.perf_counter() - start
        return report

    def _run_in_process(self, shards: list[_ShardSpec]) -> dict:
        """Run shards in this process, their model groups in forked
        children (:mod:`repro.harness.children`).

        The parent runs a shard's trace and annotate units, forks one
        child per model group and goes on with the next shard.  Shards
        finish (group results merged in workplan order, then payload and
        ``shard_finished``) in order, each once all its groups are in; a
        group whose child failed runs inline first.  A finished shard is
        reduced to what the parent keeps (:meth:`_keep`), and its
        session, with every trace and annotation, is dropped.
        """
        from repro.harness.children import Children, computing_processes
        cpus = computing_processes(self.jobs)
        children = Children(cpus, getattr(self.session, "metrics", None))
        results: dict[str, _ShardResult] = {}
        waiting: collections.deque = collections.deque()

        def finish(shard: _Shard, forked: list) -> None:
            for _, child in forked:
                children.settle(child)
            for group, child in forked:
                if child.result is None:
                    children.rerun_inline()
                    shard.run(group)
                else:
                    shard.merge_group(child.result)
            result = shard.payload()
            self.observer.shard_finished(shard.spec, result)
            results[shard.spec.benchmark] = self._keep(
                result, shard.session._summaries)

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
                # Children inherit the decodes; an inline re-run redoes them.
                for trace in shard.session._traces.values() if forked else ():
                    forget(trace)
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

    # -- merging -------------------------------------------------------------
    def _resolve_ref(self, ref: _CachedTraceRef):
        """Memory-map one checkpoint's trace ref through the parent
        cache (None when the bundle is gone or unreadable)."""
        cache = self.session.cache
        if cache is None:
            return None
        try:
            return cache.load(ref.name, ref.target, ref.scale)
        except Exception:
            return None

    def _keep(self, result: _ShardResult, summaries: dict) -> _ShardResult:
        """Reduce a finished shard to what the parent keeps: its trace
        *summaries* and annotation statistics go straight into the
        session, and the payload is kept without traces and
        annotations (docs/parallel.md, "What the parent keeps")."""
        session = self.session
        session._summaries.update(summaries)
        session._lvp_stats.update(
            (key, annotation.stats)
            for key, annotation in result.annotated.items())
        return replace(result, traces={}, annotated={})

    def _summarize_checkpoint(self, result: _ShardResult) -> dict:
        """The trace summaries of a resumed run's checkpoint, one per
        trace unit (a :class:`_CachedTraceRef` is memory-mapped back
        through the shared cache).  A ref that no longer resolves gets
        no summary: the session recomputes it on demand."""
        from repro.harness.session import summarize_trace
        wanted = {(unit.benchmark, unit.target) for unit in self.units
                  if unit.stage == "trace"}
        summaries: dict = {}
        for key, trace in result.traces.items():
            if key not in wanted:
                continue
            if isinstance(trace, _CachedTraceRef):
                trace = self._resolve_ref(trace)
                if trace is None:
                    continue
            summaries[key] = summarize_trace(trace)
        return summaries

    def _merge(self, results: dict[str, _ShardResult],
               report: EngineReport) -> None:
        """Fold shard payloads into the parent session, by name."""
        session = self.session
        for name in sorted(results):
            shard = results[name]
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

