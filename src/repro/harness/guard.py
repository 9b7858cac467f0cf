"""Guarded tier execution: divergence sentinels + degradation ladder.

The fast tiers (compiled VRISC blocks, the vectorized annotate kernel,
the fast timing loops) are the default, with their original
implementations kept as differential oracles.  This module
puts those oracles to work *at run time*:

**Divergence sentinels.**  A seeded, label-keyed sampler re-executes a
configurable fraction of work units (``REPRO_SENTINEL_RATE``, default
5%) on the oracle tier and compares the results field-for-field.  A
mismatch raises :class:`~repro.errors.TierDivergenceError` -- which the
guard immediately catches itself, because the right response to a
wrong fast tier is not a failed benchmark but a *demotion*.

**Degradation ladder.**  On divergence, any fault, or a watchdog
timeout inside a fast tier, the guard demotes the unit's (benchmark,
stage, target) to its oracle tier -- compiled→interp, vector→general,
fast-model→reference -- retries in place, and records a
:class:`TierDemotion`: counted in the ``repro.obs`` benchmark scope
(``tier/<stage>/...``), journalled by the run journal, and rendered as
a "Tier notes" block under the exhibit.  The demotion is sticky for
the session, so a bad compiled block cannot keep corrupting its
benchmark's later units.

**Deferred model checks.**  On the in-process engine path the engine
lends the guard a :class:`~repro.harness.sentinels.DeferredChecks`
queue (:attr:`TierGuard.deferred`): a sampled model unit then returns
its fast result at once and is checked in a forked child, and a failed
check re-runs the benchmark's model stage through the inline path
below.  Everywhere else the check runs inline.

Sampling is keyed by ``crc32(seed:label)`` on the unit's stable label,
never by call order, so serial and parallel runs sample (and demote)
identically and the byte-identical-stdout contract holds.

When a tier is *pinned* via its environment knob (``REPRO_ENGINE``,
``REPRO_ANNOTATE_KERNEL``, ``REPRO_MODEL_ENGINE``) the guard steps
aside entirely: an explicitly requested tier is what the user measures
(the differential CI jobs rely on this), and pinning the oracle tier
is exactly how one produces the demotion-free comparison run.

Chaos knob: ``REPRO_TIER_FAULT=<benchmark>[:<stage>]`` deterministically
corrupts that benchmark's fast-tier result (via
:func:`repro.faults.inject.inject_tier_fault`) and forces the sentinel
to sample the unit, so the detect→demote→retry path can be drilled at
any sampling rate.
"""

from __future__ import annotations

import dataclasses
import os
import warnings
import zlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import (
    BenchmarkFailure,
    RetryableError,
    TierDivergenceError,
    UnitTimeoutError,
)
from repro.trace.records import TRACE_COLUMNS

#: Fraction of units the sentinel re-executes on the oracle tier.
SENTINEL_RATE_ENV = "REPRO_SENTINEL_RATE"
DEFAULT_SENTINEL_RATE = 0.05

#: Seed mixed into the per-label sampling hash.
SENTINEL_SEED_ENV = "REPRO_SENTINEL_SEED"

#: Chaos knob: corrupt one benchmark's fast-tier result at one stage
#: (default ``trace``) and force the sentinel to check that unit.
TIER_FAULT_ENV = "REPRO_TIER_FAULT"

#: stage -> (fast tier, oracle tier): the degradation ladder.
TIER_LADDER = {
    "trace": ("compiled", "interp"),
    "annotate": ("vector", "general"),
    "model": ("fast", "reference"),
}

#: stage -> the env knob that pins its tier (guard steps aside if set).
_PIN_ENVS = {
    "trace": "REPRO_ENGINE",
    "annotate": "REPRO_ANNOTATE_KERNEL",
    "model": "REPRO_MODEL_ENGINE",
}


def sentinel_rate() -> float:
    """The configured sampling fraction, clamped to [0, 1].

    A malformed ``REPRO_SENTINEL_RATE`` warns (naming the bad value)
    and falls back to the default rather than silently disarming the
    sentinels -- the same contract as
    :meth:`~repro.harness.retry.RetryPolicy.from_env`.
    """
    raw = os.environ.get(SENTINEL_RATE_ENV)
    if raw is None:
        return DEFAULT_SENTINEL_RATE
    try:
        rate = float(raw)
    except ValueError:
        warnings.warn(
            f"ignoring malformed {SENTINEL_RATE_ENV}={raw!r} "
            f"(expected a number); using the default",
            RuntimeWarning, stacklevel=2)
        return DEFAULT_SENTINEL_RATE
    return min(1.0, max(0.0, rate))


def sentinel_seed() -> int:
    try:
        return int(os.environ[SENTINEL_SEED_ENV])
    except (KeyError, ValueError):
        return 0


def sentinel_samples(label: str) -> bool:
    """Deterministic per-unit sampling decision.

    Keyed on the unit's stable label (never call order), so the same
    units are checked no matter how work is scheduled across workers.
    """
    rate = sentinel_rate()
    if rate <= 0.0:
        return False
    if rate >= 1.0:
        return True
    digest = zlib.crc32(f"{sentinel_seed()}:{label}".encode()) & 0xFFFFFFFF
    return digest / 2**32 < rate


def tier_fault_matches(benchmark: str, stage: str) -> bool:
    """Does ``REPRO_TIER_FAULT`` target this benchmark's stage?"""
    knob = os.environ.get(TIER_FAULT_ENV)
    if not knob:
        return False
    victim, _, victim_stage = knob.partition(":")
    return victim == benchmark and (victim_stage or "trace") == stage


@dataclass(frozen=True)
class TierDemotion:
    """One unit demoted from a fast tier to its oracle tier."""

    benchmark: str
    stage: str
    target: str
    unit: str  #: stable unit label, e.g. ``grep/annotate/ppc/Simple``
    from_tier: str
    to_tier: str
    reason: str

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)

    @property
    def note(self) -> str:
        """One exhibit-footnote line for this demotion."""
        reason = self.reason
        if len(reason) > 72:
            reason = reason[:69] + "..."
        return (f"  ~ {self.benchmark} [{self.target}] {self.stage} tier "
                f"demoted {self.from_tier} -> {self.to_tier} ({reason})")


#: The exhibit-text block header demotions render under.
_NOTES_HEADER = "\n\nTier notes:"


def tier_notes(demotions) -> str:
    """The "Tier notes" exhibit block (empty string if no demotions).

    Lines are de-duplicated and sorted so the block is identical no
    matter which scheduling order discovered the demotions.
    """
    if not demotions:
        return ""
    lines = sorted({d.note for d in demotions})
    return _NOTES_HEADER + "\n" + "\n".join(lines)


def strip_tier_notes(text: str) -> str:
    """Remove any "Tier notes" block from exhibit text.

    The block is strictly additive, so stripping it from a degraded
    run's output must yield the oracle-only run's bytes -- the property
    the chaos drills and the differential tests assert.
    """
    import re
    return re.sub(r"\n\nTier notes:(?:\n  ~ [^\n]*)+", "", text)


# ---------------------------------------------------------------------------
# Field-for-field comparators (one per stage).
# ---------------------------------------------------------------------------
def _diff_values(name: str, fast, oracle, problems: list) -> None:
    """Append a difference line if two field values disagree.

    numpy-aware: array fields compare element-wise; everything else
    falls back to ``==`` (dataclasses, dicts of ints, scalars).
    """
    if isinstance(fast, np.ndarray) or isinstance(oracle, np.ndarray):
        if not np.array_equal(fast, oracle):
            problems.append(f"field {name!r} differs")
        return
    try:
        equal = bool(fast == oracle)
    except Exception:
        equal = repr(fast) == repr(oracle)
    if not equal:
        problems.append(f"field {name!r} differs: {fast!r} != {oracle!r}")


def diff_executions(fast, oracle) -> list[str]:
    """Differences between two functional-sim ExecutionResults."""
    problems: list[str] = []
    _diff_values("instruction_count", fast.instruction_count,
                 oracle.instruction_count, problems)
    _diff_values("registers", list(fast.registers), list(oracle.registers),
                 problems)
    if len(fast.trace) != len(oracle.trace):
        problems.append(
            f"trace length differs: {len(fast.trace)} != "
            f"{len(oracle.trace)}")
        return problems
    for key, _ in TRACE_COLUMNS:
        if not np.array_equal(getattr(fast.trace, key),
                              getattr(oracle.trace, key)):
            problems.append(f"trace column {key!r} differs")
    return problems


def diff_annotations(fast, oracle) -> list[str]:
    """Differences between two AnnotatedTraces (outcomes + stats)."""
    problems: list[str] = []
    if not np.array_equal(fast.outcomes, oracle.outcomes):
        problems.append("per-load outcomes differ")
    for field in dataclasses.fields(fast.stats):
        _diff_values(f"stats.{field.name}",
                     getattr(fast.stats, field.name),
                     getattr(oracle.stats, field.name), problems)
    return problems


def diff_model_results(fast, oracle) -> list[str]:
    """Differences between two timing-model results, every field."""
    problems: list[str] = []
    for name in sorted(set(vars(fast)) | set(vars(oracle))):
        _diff_values(name, vars(fast).get(name), vars(oracle).get(name),
                     problems)
    return problems


_DIFFERS = {
    "trace": diff_executions,
    "annotate": diff_annotations,
    "model": diff_model_results,
}


# ---------------------------------------------------------------------------
# The guard.
# ---------------------------------------------------------------------------
class TierGuard:
    """Per-session sentinel + ladder for the three guarded stages.

    Holds the sticky demotion table: once a (benchmark, stage, target)
    is demoted, every later unit of that key runs straight on the
    oracle tier.
    """

    def __init__(self, session) -> None:
        self.session = session
        #: (benchmark, stage, target) -> TierDemotion
        self._demoted: dict = {}
        #: A :class:`~repro.harness.sentinels.DeferredChecks` queue lent
        #: by the in-process engine: sampled model units are then
        #: checked in a forked child instead of inline (None = inline).
        self.deferred = None

    # -- public stage runners ------------------------------------------------
    def run_trace(self, name: str, target: str, program):
        """Functional simulation with the compiled→interp ladder."""
        from repro.sim.functional import run_program

        def run(engine: str):
            return run_program(program, name=name, target=target,
                               engine=engine)

        return self._guarded(name, "trace", target,
                             f"{name}/trace/{target}", run)

    def run_annotate(self, name: str, target: str, trace, config):
        """Annotation with the vector→general ladder.

        Configurations the vector kernel cannot handle (profile
        filters) resolve to the general path anyway, so the guard runs
        them directly -- there is no faster tier to verify.
        """
        from repro.trace.annotate import annotate_trace, vector_eligible

        def run(kernel: str):
            return annotate_trace(trace, config, kernel=kernel)

        if not vector_eligible(config):
            return self._pinned(name, "annotate", run, None)
        return self._guarded(name, "annotate", target,
                             f"{name}/annotate/{target}/{config.name}", run)

    def run_model(self, name: str, target: str, label: str,
                  runner: Callable):
        """Timing model with the fast→reference ladder.

        *runner* is called as ``runner(engine)`` and must build a fresh
        model each time (models are cheap config holders; their state
        lives inside ``run``).
        """
        return self._guarded(name, "model", target, label, runner)

    @property
    def demotions(self) -> list:
        return list(self._demoted.values())

    def forget(self, stage: str) -> None:
        """Drop the sticky demotions of *stage* (it is being re-run)."""
        self._demoted = {key: demotion
                         for key, demotion in self._demoted.items()
                         if key[1] != stage}

    # -- internals -----------------------------------------------------------
    def _pinned(self, name: str, stage: str, run: Callable, pinned):
        """Run outside the guard (tier pinned by env or ineligible)."""
        return run(pinned)

    def _guarded(self, name: str, stage: str, target: str, label: str,
                 run: Callable):
        if self.deferred is not None:
            self.deferred.poll()
        if os.environ.get(_PIN_ENVS[stage]):
            # An explicitly pinned tier is what the user asked to
            # measure: no sentinel, no ladder.  (This is also how the
            # oracle-only comparison run is produced.)
            return self._pinned(name, stage, run, None)
        key = (name, stage, target)
        tiers = TIER_LADDER[stage]
        if key in self._demoted:
            # Sticky: a demoted key runs straight on the oracle tier.
            tiers = tiers[-1:]
        return self._run_ladder(key, label, run, tiers)

    def _run_ladder(self, key, label: str, run: Callable, tiers: tuple):
        """Run one unit on the fastest rung of *tiers*, sentinel-checked
        against the oracle (the last rung); demote one rung and retry in
        place on fault or divergence."""
        name, stage, target = key
        fast_tier = tiers[0]
        oracle_tier = tiers[-1]
        if len(tiers) == 1:
            return run(oracle_tier)
        forced = tier_fault_matches(name, stage)
        try:
            result = run(fast_tier)
        except (BenchmarkFailure, RetryableError,
                KeyboardInterrupt, SystemExit):
            raise
        except Exception as exc:
            # Fault or watchdog timeout inside the fast tier: demote
            # one rung and retry in place down the remaining ladder.
            # An oracle failure propagates normally (footnoted like
            # any failure).
            self._demote(key, label, fast_tier, tiers[1],
                         f"{type(exc).__name__}: {exc}")
            if isinstance(exc, UnitTimeoutError):
                # The watchdog alarm fired and was consumed -- re-arm
                # it around the retry so a unit that genuinely hangs
                # still stays bounded.
                return self._rearmed(
                    lambda: self._run_ladder(key, label, run, tiers[1:]),
                    name, stage, target)
            return self._run_ladder(key, label, run, tiers[1:])
        if forced:
            from repro.faults.inject import inject_tier_fault
            result = inject_tier_fault(stage, result)
        if forced or sentinel_samples(label):
            self._count(name, stage, "sentinel_checks")
            if stage == "model" and self.deferred is not None:
                # Checked in a forked child while the run goes on; a
                # failed check re-runs the shard's model stage through
                # the inline path below (repro.harness.sentinels).
                self.deferred.submit(name, run, oracle_tier, result,
                                     self.session.unit_timeout)
                return result
            oracle = run(oracle_tier)
            try:
                differences = _DIFFERS[stage](result, oracle)
                if differences:
                    raise TierDivergenceError(stage, label, differences)
            except TierDivergenceError as exc:
                self._count(name, stage, "divergences")
                self._demote(key, label, fast_tier, tiers[1], str(exc))
                return oracle  # already computed; the demotion is sticky
        return result

    def _rearmed(self, thunk: Callable, name: str, stage: str,
                 target: str):
        """Run *thunk* under a fresh unit watchdog (the previous alarm
        has already fired and been consumed)."""
        from repro.harness.parallel import WorkUnit, _unit_watchdog
        seconds = float(getattr(self.session, "unit_timeout", 0.0) or 0.0)
        unit = WorkUnit(name, stage, target)
        with _unit_watchdog(seconds, unit):
            return thunk()

    def _demote(self, key, label: str, from_tier: str, to_tier: str,
                reason: str) -> None:
        name, stage, target = key
        demotion = TierDemotion(
            benchmark=name, stage=stage, target=target, unit=label,
            from_tier=from_tier, to_tier=to_tier, reason=reason)
        self._demoted[key] = demotion
        self.session.demotions.append(demotion)
        self._count(name, stage, "demotions")

    def _count(self, name: str, stage: str, counter: str) -> None:
        metrics = getattr(self.session, "metrics", None)
        if metrics is not None:
            # Benchmark scope: sampling is label-keyed, so these are
            # scheduling-independent (the serial/parallel metrics
            # equality the obs suite asserts).
            metrics.inc(name, f"tier/{stage}/{counter}")
