"""Experiment harness: memoized sessions, the exhibit registry, and
the parallel experiment engine."""

from repro.harness.experiments import (
    EXPERIMENTS,
    ExperimentResult,
    run_experiment,
    run_experiments,
)
from repro.harness.cache import TraceCache
from repro.harness.journal import RunJournal, find_run, new_run_id
from repro.harness.parallel import (
    EngineObserver,
    EngineReport,
    ParallelEngine,
    WorkUnit,
    default_workplan,
    jobs_from_env,
    unit_timeout_from_env,
    units_for_exhibits,
    warm_session,
)
from repro.harness.retry import RetryPolicy, call_with_retries
from repro.harness.session import Session

__all__ = ["EXPERIMENTS", "EngineObserver", "EngineReport",
           "ExperimentResult", "ParallelEngine", "RetryPolicy",
           "RunJournal", "Session", "TraceCache", "WorkUnit",
           "call_with_retries", "default_workplan", "find_run",
           "jobs_from_env", "new_run_id", "run_experiment",
           "run_experiments", "unit_timeout_from_env",
           "units_for_exhibits", "warm_session"]
