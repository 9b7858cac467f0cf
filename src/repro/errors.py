"""Exception hierarchy for the repro package.

Every error raised by this library derives from :class:`ReproError` so
callers can catch library failures with a single ``except`` clause while
letting genuine bugs (``TypeError`` etc.) propagate.
"""

from __future__ import annotations

import errno

#: Errnos that mean "the machine ran out of a resource" (disk space,
#: quota, file descriptors), not "the code is wrong".  The guardrails
#: map these onto :class:`ResourceExhaustedError` so callers degrade
#: (evict, skip the cache, stop journalling) instead of crashing.
RESOURCE_ERRNOS = frozenset({
    errno.ENOSPC, errno.EDQUOT, errno.EMFILE, errno.ENFILE,
})


def is_resource_exhaustion(exc: BaseException) -> bool:
    """True when *exc* is an OSError caused by resource exhaustion."""
    return isinstance(exc, OSError) and exc.errno in RESOURCE_ERRNOS


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class AssemblyError(ReproError):
    """A program could not be assembled (bad operand, unknown opcode...)."""


class LinkError(ReproError):
    """Symbol resolution failed while finalizing a program."""


class ExecutionError(ReproError):
    """The functional simulator hit an illegal state (bad address, ...)."""


class ExecutionLimitExceeded(ExecutionError):
    """The functional simulator exceeded its instruction budget.

    Raised instead of looping forever when a workload fails to halt.
    """


class ConfigError(ReproError):
    """An LVP-unit or machine configuration is invalid."""


class TraceError(ReproError):
    """A trace is malformed or inconsistent with what a consumer expects."""


class FaultError(ReproError):
    """A fault-injection request is invalid or a deliberate fault fired.

    Raised by the harness when a sabotage knob (``REPRO_SABOTAGE``)
    deliberately fails a benchmark to exercise the degradation paths,
    and by fault injectors asked for a fault they cannot plant.
    """


class RetryableError(ReproError):
    """Base class for *transient* failures that are safe to retry.

    The split is the retry contract of the whole harness: an error
    deriving from this class (lock contention, a machine out of disk
    space or descriptors) may succeed on a clean re-execution, so the
    session retries the stage a bounded number of times
    (``repro.harness.session.RETRY_DELAYS``) before recording a
    :class:`BenchmarkFailure`.  Every other error is terminal: retrying
    would deterministically fail again, so it is recorded immediately.
    """


class CacheLockTimeout(RetryableError):
    """The trace cache's advisory lock could not be acquired in time.

    Raised instead of blocking forever when another process wedges while
    holding the cache directory lock (``REPRO_LOCK_TIMEOUT``, default
    60s).  Retryable: the holder usually finishes or dies, and the
    cache is an accelerator only -- a retried stage can also regenerate.
    """


class ResourceExhaustedError(RetryableError):
    """The machine ran out of disk space, quota, or file descriptors.

    Raised where an ``ENOSPC``/``EDQUOT``/``EMFILE``/``ENFILE`` from
    the operating system crosses a harness boundary (trace-cache
    store/load, journal checkpoints).  Retryable: space and descriptors
    are routinely freed by other processes, and the cache/journal
    layers additionally degrade (LRU eviction, journalling stops with
    a resume hint) before this escapes to the session's stage retry.
    """


class TierDivergenceError(ReproError):
    """A fast execution tier disagreed with its oracle tier.

    Raised by the divergence sentinel
    (:class:`repro.harness.guard.TierGuard`) when a sampled re-execution
    on the oracle tier (interpreter, general annotate kernel, reference
    timing loop) produces a different result field-for-field.  Terminal
    on purpose -- re-running the same deterministic fast tier would
    diverge again -- but the guard catches it itself and *demotes* the
    unit to the oracle tier instead of failing the benchmark.
    """

    def __init__(self, stage: str, unit: str,
                 differences: list[str]) -> None:
        preview = "; ".join(differences[:3])
        if len(differences) > 3:
            preview += f"; ... {len(differences) - 3} more"
        super().__init__(
            f"{stage} fast tier diverged from its oracle on {unit}: "
            f"{preview}")
        self.stage = stage
        self.unit = unit
        self.differences = list(differences)


class MemoryBudgetError(ReproError):
    """A worker's resident set exceeded ``REPRO_RSS_LIMIT_MB``.

    Terminal, like :class:`UnitTimeoutError`: a unit that blew the
    memory budget once is assumed to blow it again, so its benchmark
    is footnoted for this run instead of retried -- and, crucially,
    the worker survives to finish its other benchmarks instead of
    being OOM-killed with all of them.
    """


class UnitTimeoutError(ReproError):
    """A work unit exceeded the per-unit watchdog (``--unit-timeout``).

    Terminal, not retryable: a hung computation is assumed to hang
    again, so the unit's benchmark is footnoted for this run instead of
    burning the retry budget re-hanging.
    """


class JournalError(ReproError):
    """A run journal, manifest, or checkpoint is unusable.

    Raised when ``--resume`` names an unknown run, the manifest does not
    match the current suite/version, or a journal is damaged beyond the
    tolerated trailing truncation.
    """


class WorkerCrashError(ReproError):
    """Stands in for a failure's cause that cannot be pickled.

    A failure recorded in a forked child travels home pickled; when its
    original cause will not pickle, the engine records this surrogate,
    carrying the cause's type name and message, in its place.  Nothing
    retries it: a child that dies has its work re-run in the parent.
    """


class BenchmarkFailure(ReproError):
    """One benchmark failed at one pipeline stage.

    The harness records these instead of aborting a whole run: exhibits
    render with the failed benchmark footnoted, and ``experiment all``
    completes (with a non-zero exit status).  Carries the failing
    ``benchmark``, the ``stage`` (``trace``/``annotate``/``model``),
    the codegen ``target``, and the original exception as ``cause``.
    """

    def __init__(self, benchmark: str, stage: str, target: str,
                 cause: BaseException) -> None:
        super().__init__(
            f"{benchmark} [{target}] failed at the {stage} stage: "
            f"{type(cause).__name__}: {cause}"
        )
        self.benchmark = benchmark
        self.stage = stage
        self.target = target
        self.cause = cause

    def __reduce__(self):
        # BaseException's default reduce replays ``args`` (the formatted
        # message) into __init__, which takes four arguments; rebuild
        # from the structured fields so failures survive the pickle trip
        # back from parallel worker processes.
        return (type(self), (self.benchmark, self.stage, self.target,
                             self.cause))
