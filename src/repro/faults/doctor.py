"""The fault-injection self-test campaign (``python -m repro doctor``).

The paper's central correctness argument is that load value prediction
is *speculative but safe*: every misprediction is caught by the
verification comparator or the CVU, so a wrong table entry can cost
cycles but never correctness.  The doctor turns that claim into a
tested property.  It plants a deterministic campaign of faults across
three layers -- in-memory trace columns, on-disk cache bundles, and
live LVP unit tables -- and asserts that every single one is either

* **detected** (``validate_trace`` flags the trace, or the cache's
  checksums reject and quarantine the bundle), or
* **recovered** (annotation completes and the audit log proves no
  wrong forwarded value was ever marked correct).

Any fault that is neither is **silent** -- the one outcome the design
must never produce -- and fails the campaign.

A fourth layer of deterministic **journal** self-tests (not drawn from
the seeded fault plan, so existing campaign seeds are unchanged)
exercises the crash-safety machinery: a write-replay round trip over
the run journal, tolerance of a truncated trailing line, rejection of
an interior tampered line, rejection of a checkpoint whose digest
disagrees with its ``done`` record, the per-unit watchdog, and the
retry backoff schedule's determinism and bounds.

A fifth layer of **engines** self-tests (also outside the seeded
plan) covers the tiered execution engines: each fast tier -- the
compiled simulator, the vectorized annotate kernel, the fast timing
loop -- re-runs one workload against its oracle tier and must agree
field for field, and a forced-demotion drill (``REPRO_TIER_FAULT``)
proves the divergence sentinel detects a corrupted fast tier, demotes
it, and serves the oracle's answer.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass
from typing import Optional

from repro.faults import inject
from repro.faults.plan import FaultPlan, FaultSpec
from repro.harness.cache import TraceCache
from repro.lvp.config import CONSTANT, SIMPLE
from repro.trace.annotate import annotate_trace
from repro.trace.records import TRACE_COLUMNS, Trace
from repro.trace.validate import validate_trace

#: Campaign outcome classifications.
DETECTED = "detected"
RECOVERED = "recovered"
SILENT = "silent"

#: The journal-layer self-tests run_doctor appends to every campaign.
JOURNAL_CHECKS = ("replay", "truncation", "tamper", "checkpoint",
                  "watchdog", "backoff")

#: The engines-layer self-tests (tier agreement + forced demotion).
ENGINE_CHECKS = ("trace_tier", "annotate_vector", "model_tier",
                 "forced_demotion")


@dataclass
class FaultOutcome:
    """One executed fault and how the system handled it."""

    spec: FaultSpec
    status: str  #: DETECTED / RECOVERED / SILENT
    detail: str


@dataclass
class DoctorReport:
    """Aggregated result of one doctor campaign."""

    seed: int
    benchmark: str
    scale: str
    outcomes: list

    @property
    def silent(self) -> list:
        """The faults nothing caught (must be empty)."""
        return [o for o in self.outcomes if o.status == SILENT]

    @property
    def ok(self) -> bool:
        return not self.silent

    def counts(self) -> dict:
        """``{layer: {status: count}}`` over all outcomes."""
        table: dict = {}
        for outcome in self.outcomes:
            row = table.setdefault(outcome.spec.layer,
                                   {DETECTED: 0, RECOVERED: 0, SILENT: 0})
            row[outcome.status] += 1
        return table

    def render(self) -> str:
        """Human-readable campaign report."""
        injected = sum(1 for o in self.outcomes
                       if o.spec.layer not in ("journal", "engines"))
        checks = len(self.outcomes) - injected
        lines = [
            "Fault-injection doctor",
            "======================",
            f"seed {self.seed} · {injected} faults + {checks} "
            f"self-checks · benchmark {self.benchmark} @ {self.scale}",
            "",
            f"{'layer':8s} {'injected':>8s} {'detected':>9s} "
            f"{'recovered':>10s} {'SILENT':>7s}",
        ]
        counts = self.counts()
        totals = {DETECTED: 0, RECOVERED: 0, SILENT: 0}
        for layer in ("trace", "cache", "lvp", "journal", "engines"):
            row = counts.get(layer)
            if row is None:
                continue
            injected = sum(row.values())
            lines.append(
                f"{layer:8s} {injected:8d} {row[DETECTED]:9d} "
                f"{row[RECOVERED]:10d} {row[SILENT]:7d}")
            for status in totals:
                totals[status] += row[status]
        lines.append(
            f"{'total':8s} {len(self.outcomes):8d} {totals[DETECTED]:9d} "
            f"{totals[RECOVERED]:10d} {totals[SILENT]:7d}")
        lines.append("")
        if self.ok:
            lines.append("verdict: OK — every fault was detected or "
                         "safely recovered")
        else:
            lines.append(f"verdict: FAIL — {len(self.silent)} silent "
                         "corruption(s):")
            for outcome in self.silent:
                lines.append(f"  !! [{outcome.spec.layer}/"
                             f"{outcome.spec.kind} seed="
                             f"{outcome.spec.seed}] {outcome.detail}")
        return "\n".join(lines)


def _columns_equal(a: Trace, b: Trace) -> bool:
    return len(a) == len(b) and all(
        (getattr(a, key) == getattr(b, key)).all()
        for key, _ in TRACE_COLUMNS
    )


def _run_trace_fault(spec: FaultSpec, trace: Trace) -> FaultOutcome:
    corrupt, expect_detected, what = inject.inject_trace_fault(
        trace, spec.kind, spec.rng())
    problems = validate_trace(corrupt)
    if expect_detected:
        if problems:
            return FaultOutcome(spec, DETECTED,
                                f"{what}; flagged: {problems[0]}")
        return FaultOutcome(spec, SILENT,
                            f"{what}; validate_trace saw nothing")
    # Well-formed corruption (a value flip): the trace must still
    # validate, and annotation must absorb it via the misprediction
    # path without ever letting a wrong forward stand.
    if problems:
        return FaultOutcome(spec, DETECTED,
                            f"{what}; flagged: {problems[0]}")
    annotated = annotate_trace(corrupt, SIMPLE, audit=True)
    violations = inject.audit_violations(annotated)
    if violations:
        return FaultOutcome(spec, SILENT, f"{what}; {violations[0]}")
    return FaultOutcome(spec, RECOVERED,
                        f"{what}; absorbed by the misprediction path")


def _run_cache_fault(spec: FaultSpec, trace: Trace, cache: TraceCache,
                     scale: str) -> FaultOutcome:
    what = inject.inject_cache_fault(cache, trace, scale, spec.kind,
                                     spec.rng())
    loaded = cache.load(trace.name, trace.target, scale)
    if loaded is None:
        return FaultOutcome(spec, DETECTED, f"{what}; treated as a miss")
    if _columns_equal(loaded, trace):
        return FaultOutcome(spec, RECOVERED,
                            f"{what}; bundle survived intact")
    return FaultOutcome(spec, SILENT,
                        f"{what}; a corrupted trace was served")


def _run_lvp_fault(spec: FaultSpec, trace: Trace) -> FaultOutcome:
    rng = spec.rng()
    config = rng.choice((SIMPLE, CONSTANT))
    n_events = int((trace.is_load | trace.is_store).sum())
    hook, what = inject.make_lvp_hook(spec.kind, rng, n_events)
    annotated = annotate_trace(trace, config, audit=True, fault_hook=hook)
    violations = inject.audit_violations(annotated)
    if violations:
        return FaultOutcome(spec, SILENT,
                            f"{what} ({config.name}); {violations[0]}")
    return FaultOutcome(spec, RECOVERED,
                        f"{what} ({config.name}); comparator held")


def _journal_self_tests() -> list[FaultOutcome]:
    """Deterministic drills over the crash-safety machinery.

    Each drill plants a specific kind of damage (or demand) and checks
    the journal/watchdog/backoff layer responds the designed way;
    anything else is reported SILENT and fails the campaign.
    """
    import time as time_mod

    from repro.errors import JournalError, UnitTimeoutError
    from repro.harness.journal import RunJournal, replay_journal
    from repro.harness.parallel import WorkUnit, _ShardResult, _unit_watchdog
    from repro.harness.retry import RetryPolicy

    outcomes: list[FaultOutcome] = []

    def record(kind: str, status: str, detail: str) -> None:
        outcomes.append(
            FaultOutcome(FaultSpec("journal", kind, 0), status, detail))

    with tempfile.TemporaryDirectory(prefix="repro-doctor-journal-") as tmp:
        journal = RunJournal.create(tmp, "selftest", {
            "version": "selftest", "exhibits": [], "scale": "tiny",
            "benchmarks": ["b1", "b2"], "verify": True,
        })
        journal.append({"type": "done", "benchmark": "b1",
                        "checkpoint": "0" * 64, "digests": {}})
        journal.close()
        path = journal.journal_path

        # 1. Write-replay round trip: every appended record comes back,
        # in order, CRC-verified.
        types = [r["type"] for r in replay_journal(path)]
        if types == ["run_started", "planned", "planned", "done"]:
            record("replay", RECOVERED, "write-replay round trip held")
        else:
            record("replay", SILENT,
                   f"replay returned {types!r}, not the written sequence")

        # 2. A truncated trailing line (crash mid-append) is dropped.
        whole = path.read_bytes()
        path.write_bytes(whole + b'{"rec":{"type":"done","benchm')
        truncated = [r["type"] for r in replay_journal(path)]
        if truncated == types:
            record("truncation", DETECTED,
                   "truncated trailing line dropped on replay")
        else:
            record("truncation", SILENT,
                   "a truncated trailing line leaked into replay")

        # 3. An interior tampered line refuses to replay at all.
        lines = whole.split(b"\n")
        lines[1] = lines[1].replace(b"planned", b"plonned")
        path.write_bytes(b"\n".join(lines))
        try:
            replay_journal(path)
        except JournalError:
            record("tamper", DETECTED,
                   "interior damage raised JournalError")
        else:
            record("tamper", SILENT,
                   "an interior tampered line replayed without complaint")

        # 4. A checkpoint whose bytes disagree with the journal's digest
        # is dropped (that benchmark re-runs).
        path.write_bytes(whole)
        empty = _ShardResult(benchmark="b1", traces={}, annotated={},
                             ppc_runs={}, alpha_runs={}, failed={},
                             timings=[])
        # Its digest differs from the "0"*64 on record.
        journal._write_checkpoint("b1", empty)
        if journal.load_checkpoints() == {}:
            record("checkpoint", DETECTED,
                   "digest-mismatching checkpoint dropped")
        else:
            record("checkpoint", SILENT,
                   "a checkpoint was loaded against a wrong digest")

    # 5. The per-unit watchdog interrupts a wedged unit.
    unit = WorkUnit("b1", "trace", "ppc")
    try:
        with _unit_watchdog(0.05, unit):
            time_mod.sleep(2.0)
    except UnitTimeoutError:
        record("watchdog", DETECTED, "watchdog interrupted a 2s hang")
    else:
        record("watchdog", RECOVERED,
               "watchdog disarmed on this platform/thread (documented)")

    # 6. The backoff schedule is deterministic, bounded, and growing.
    policy = RetryPolicy(attempts=5, base=0.1, seed=7)
    first, second = policy.delays(), policy.delays()
    bound = policy.cap * (1.0 + policy.jitter)
    if (first == second and len(first) == 4
            and all(0.0 <= d <= bound for d in first)
            and first[0] < bound):
        record("backoff", RECOVERED,
               "backoff schedule deterministic and bounded")
    else:
        record("backoff", SILENT,
               f"backoff schedule unsound: {first!r} vs {second!r}")
    return outcomes


def _engine_self_tests(trace: Trace, benchmark: str,
                       scale: str) -> list[FaultOutcome]:
    """Deterministic drills over the tiered execution engines.

    Three tier-agreement checks run one workload on a fast tier and
    its oracle and compare field for field (any disagreement here is
    exactly the silent corruption the divergence sentinel exists to
    catch, so it is reported SILENT).  The forced-demotion drill then
    plants ``REPRO_TIER_FAULT`` and proves the sentinel detects the
    corruption, demotes the unit, and serves the oracle's answer.
    """
    import os

    from repro.harness import guard
    from repro.sim.functional import run_program
    from repro.uarch.ppc620.config import PPC620
    from repro.uarch.ppc620.model import PPC620Model
    from repro.workloads.suite import get_benchmark

    outcomes: list[FaultOutcome] = []

    def record(kind: str, status: str, detail: str) -> None:
        outcomes.append(
            FaultOutcome(FaultSpec("engines", kind, 0), status, detail))

    def check(kind: str, what: str, differences: list) -> None:
        if differences:
            record(kind, SILENT, f"{what}; {differences[0]}")
        else:
            record(kind, RECOVERED, f"{what}; tiers agree")

    # These drills measure the unpinned tiers against each other, so
    # any inherited tier/sentinel knobs must not leak in (and the
    # forced-demotion drill sets its own).
    knobs = ("REPRO_ENGINE", "REPRO_ANNOTATE_KERNEL", "REPRO_MODEL_ENGINE",
             "REPRO_TIER_FAULT", "REPRO_SENTINEL_RATE", "REPRO_TRACE_CACHE")
    saved = {key: os.environ.pop(key, None) for key in knobs}
    try:
        bench = get_benchmark(benchmark)

        def execute(engine: str):
            return run_program(bench.build_program("ppc", scale),
                               name=benchmark, target="ppc", engine=engine)

        check("trace_tier", "compiled vs interp",
              guard.diff_executions(execute("compiled"), execute("interp")))
        check("annotate_vector", "vector vs general (Simple)",
              guard.diff_annotations(
                  annotate_trace(trace, SIMPLE, kernel="vector"),
                  annotate_trace(trace, SIMPLE, kernel="general")))
        annotated = annotate_trace(trace, SIMPLE)
        check("model_tier", "fast vs reference (PPC 620)",
              guard.diff_model_results(
                  PPC620Model(PPC620).run(annotated, engine="fast"),
                  PPC620Model(PPC620).run(annotated, engine="reference")))

        os.environ[guard.TIER_FAULT_ENV] = f"{benchmark}:trace"
        from repro.harness.session import Session
        session = Session(scale=scale, benchmarks=(benchmark,),
                          verify=False)
        demoted = session.trace(benchmark, "ppc")
        oracle = execute("interp").trace
        if session.demotions and _columns_equal(demoted, oracle):
            record("forced_demotion", DETECTED,
                   "planted divergence caught; unit demoted to the "
                   "oracle's exact answer")
        elif session.demotions:
            record("forced_demotion", SILENT,
                   "unit demoted but served a non-oracle trace")
        else:
            record("forced_demotion", SILENT,
                   "planted fast-tier corruption sailed past the sentinel")
    except Exception as exc:  # a crashed drill is itself a failure
        record("crashed", SILENT,
               f"engine drill raised {type(exc).__name__}: {exc}")
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
    return outcomes


def run_doctor(seed: int = 0, faults: int = 60,
               benchmark: str = "grep", scale: str = "tiny",
               trace: Optional[Trace] = None) -> DoctorReport:
    """Run a fault campaign; returns the report (never raises on
    silent corruption -- inspect ``report.ok``).

    Pass *trace* to reuse an already-generated trace (tests do);
    otherwise a fresh verifying session traces *benchmark* at *scale*.
    """
    if trace is None:
        from repro.harness.session import Session
        session = Session(scale=scale, benchmarks=(benchmark,))
        trace = session.trace(benchmark, "ppc")
    plan = FaultPlan(seed, faults)
    outcomes = []
    with tempfile.TemporaryDirectory(prefix="repro-doctor-") as tmp:
        cache = TraceCache(tmp)
        for spec in plan:
            if spec.layer == "trace":
                outcomes.append(_run_trace_fault(spec, trace))
            elif spec.layer == "cache":
                outcomes.append(_run_cache_fault(spec, trace, cache, scale))
            else:
                outcomes.append(_run_lvp_fault(spec, trace))
    outcomes.extend(_journal_self_tests())
    outcomes.extend(_engine_self_tests(trace, benchmark, scale))
    return DoctorReport(seed, trace.name or benchmark, scale, outcomes)
