"""Differential tests: parallel output must be bit-identical to serial.

The parallel engine's contract (docs/parallel.md) is that ``--jobs N``
changes wall-clock time and nothing else.  These tests run the same
tiny-scale three-benchmark session serially and through the engine and
assert equality at every stage -- raw trace columns, annotation
statistics, cycle counts, speedups, and the rendered exhibit text --
then repeat the comparison under REPRO_SABOTAGE (failure isolation and
footnoting survive parallel mode) and with model children that die
(their groups re-run in the parent, so the output does not change).
They also hold ``jobs`` to its cap on the computing processes.

The engine's parent keeps no trace or annotation (docs/parallel.md,
"What the parent keeps"), so its side of each comparison is what it
kept -- trace summaries, annotation statistics, model runs -- and the
trace digests its shards reported when they finished; a call to
``trace()`` on it would re-simulate and compare the serial path with
itself.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

import pytest

from repro.errors import BenchmarkFailure
from repro.harness import children
from repro.harness import (
    EXPERIMENTS,
    ParallelEngine,
    Session,
    WorkUnit,
    default_workplan,
    run_experiment,
    run_experiments,
)
from repro.harness import parallel
from repro.harness.journal import trace_digest
from repro.harness.parallel import CRASH_ENV, EngineObserver, jobs_from_env
from repro.lvp.config import CONSTANT, LIMIT, PERFECT, SIMPLE
from repro.uarch.ppc620.config import PPC620, PPC620_PLUS

BENCHES = ("grep", "compress", "quick")
CONFIGS = (SIMPLE, CONSTANT, LIMIT, PERFECT)
PPC_MODEL_LVPS = (None, SIMPLE, CONSTANT, LIMIT, PERFECT)
ALPHA_MODEL_LVPS = (None, SIMPLE, LIMIT, PERFECT)


class _TraceDigests(EngineObserver):
    """The trace digests of each finished shard's payload (those a
    journal's ``done`` record carries)."""

    def __init__(self) -> None:
        self.digests: dict = {}

    def shard_finished(self, spec, result) -> None:
        for key, trace in result.traces.items():
            self.digests[key] = trace_digest(trace)


def _clean_env(monkeypatch) -> None:
    for var in ("REPRO_SABOTAGE", "REPRO_TRACE_CACHE", "REPRO_JOBS",
                CRASH_ENV):
        monkeypatch.delenv(var, raising=False)


@pytest.fixture(scope="module")
def engine_digests():
    """Filled by ``sessions`` with its engine run's trace digests."""
    return _TraceDigests()


@pytest.fixture(scope="module")
def sessions(engine_digests):
    """(serial, parallel) fully-evaluated sessions over BENCHES."""
    mp = pytest.MonkeyPatch()
    _clean_env(mp)
    try:
        serial = Session(scale="tiny", benchmarks=BENCHES)
        serial_text = {exp_id: run_experiment(exp_id, serial).text
                       for exp_id in EXPERIMENTS}
        parallel = Session(scale="tiny", benchmarks=BENCHES)
        report = ParallelEngine(parallel, jobs=4,
                                observer=engine_digests).run()
        parallel_text = {exp_id: run_experiment(exp_id, parallel).text
                         for exp_id in EXPERIMENTS}
        return serial, serial_text, parallel, parallel_text, report
    finally:
        mp.undo()


class TestDifferential:
    def test_traces_bit_identical(self, sessions, engine_digests):
        serial, _, parallel, _, _ = sessions
        for name in BENCHES:
            for target in ("ppc", "alpha"):
                key = (name, target)
                assert engine_digests.digests[key] == \
                    trace_digest(serial.trace(name, target)), key
                assert parallel._summaries[key] == \
                    serial.trace_summary(name, target), key
        assert parallel._traces == {}

    def test_annotation_stats_identical(self, sessions):
        serial, _, parallel, _, _ = sessions
        for name in BENCHES:
            for target in ("ppc", "alpha"):
                for config in CONFIGS:
                    ss = serial.annotated(name, target, config).stats
                    ps = parallel._lvp_stats[(name, target, config.name)]
                    assert ss == ps, (name, target, config.name)
        assert parallel._annotated == {}

    def test_cycle_counts_identical(self, sessions):
        serial, _, parallel, _, _ = sessions
        for name in BENCHES:
            for machine in (PPC620, PPC620_PLUS):
                for lvp in PPC_MODEL_LVPS:
                    assert serial.ppc_result(name, machine, lvp).cycles == \
                        parallel.ppc_result(name, machine, lvp).cycles, \
                        (name, machine.name, lvp and lvp.name)
            for lvp in ALPHA_MODEL_LVPS:
                assert serial.alpha_result(name, lvp).cycles == \
                    parallel.alpha_result(name, lvp).cycles, \
                    (name, lvp and lvp.name)

    def test_speedups_identical(self, sessions):
        serial, _, parallel, _, _ = sessions
        for name in BENCHES:
            for machine in (PPC620, PPC620_PLUS):
                for lvp in CONFIGS:
                    assert serial.ppc_speedup(name, machine, lvp) == \
                        parallel.ppc_speedup(name, machine, lvp)
            for lvp in (SIMPLE, LIMIT, PERFECT):
                assert serial.alpha_speedup(name, lvp) == \
                    parallel.alpha_speedup(name, lvp)

    def test_every_exhibit_text_identical(self, sessions):
        _, serial_text, _, parallel_text, _ = sessions
        for exp_id in EXPERIMENTS:
            assert serial_text[exp_id] == parallel_text[exp_id], exp_id

    def test_no_failures_on_healthy_run(self, sessions):
        serial, _, parallel, _, _ = sessions
        assert serial.failures == []
        assert parallel.failures == []

    def test_timing_report_covers_every_unit(self, sessions):
        *_, report = sessions
        assert report is not None
        assert report.jobs == 4
        assert len(report.timings) == len(default_workplan(BENCHES))
        assert all(t.ok for t in report.timings)
        assert report.busy_seconds > 0
        rendered = report.render()
        for name in BENCHES:
            assert name in rendered
        assert "units in" in rendered


class TestSabotagedDifferential:
    @pytest.fixture(scope="class", params=["compress", "compress:model"])
    def sabotaged(self, request):
        """Serial and parallel sessions run under one sabotage knob."""
        mp = pytest.MonkeyPatch()
        _clean_env(mp)
        mp.setenv("REPRO_SABOTAGE", request.param)
        try:
            serial = Session(scale="tiny", benchmarks=BENCHES)
            serial_text = {exp_id: run_experiment(exp_id, serial).text
                           for exp_id in EXPERIMENTS}
            parallel = Session(scale="tiny", benchmarks=BENCHES)
            parallel.warm(jobs=4)
            parallel_text = {exp_id: run_experiment(exp_id, parallel).text
                             for exp_id in EXPERIMENTS}
            return serial, serial_text, parallel, parallel_text
        finally:
            mp.undo()

    def test_exhibit_text_identical_under_sabotage(self, sabotaged):
        _, serial_text, _, parallel_text = sabotaged
        for exp_id in EXPERIMENTS:
            assert serial_text[exp_id] == parallel_text[exp_id], exp_id

    def test_victim_footnoted_and_survivors_intact(self, sabotaged):
        _, _, parallel, parallel_text = sabotaged
        assert parallel.failures
        assert {f.benchmark for f in parallel.failures} == {"compress"}
        assert "Footnotes:" in parallel_text["fig6"]
        assert "compress" in parallel_text["fig6"]
        # Survivors still produced full results.
        for name in ("grep", "quick"):
            assert parallel._summaries[(name, "ppc")].stats.instructions > 0

    def test_failures_merged_as_benchmark_failures(self, sabotaged):
        _, _, parallel, _ = sabotaged
        for failure in parallel.failures:
            assert isinstance(failure, BenchmarkFailure)
            # The cause survived the pickle trip with its type intact.
            assert type(failure.cause).__name__ == "FaultError"


class TestWorkerCrash:
    @pytest.fixture(scope="class")
    def crashed(self):
        """A session warmed at two jobs whose 'compress' model children
        die hard, with its exhibit texts."""
        mp = pytest.MonkeyPatch()
        _clean_env(mp)
        mp.setenv(CRASH_ENV, "compress")
        try:
            session = Session(scale="tiny", benchmarks=BENCHES, metrics=True)
            report = session.warm(jobs=2)
            texts = {exp_id: run_experiment(exp_id, session).text
                     for exp_id in EXPERIMENTS}
            return session, report, texts
        finally:
            mp.undo()

    def test_crash_recorded_never_fatal(self, crashed):
        session, report, _ = crashed
        assert session.failures == []
        run = session.metrics.run_counters()
        # compress's two groups (ppc, alpha) died and re-ran inline.
        assert run["children/rerun_inline"] == 2
        assert run["children/processes"] == 2 * len(BENCHES)
        assert len(report.timings) == len(default_workplan(BENCHES))
        assert all(t.ok for t in report.timings)

    def test_innocent_benchmarks_survive_child_death(self, crashed):
        session, _, _ = crashed
        for name in BENCHES:
            for target in ("ppc", "alpha"):
                summary = session._summaries[(name, target)]
                assert summary.stats.instructions > 0
            assert session.ppc_result(name, PPC620, SIMPLE).cycles > 0
            assert session.alpha_result(name, SIMPLE).cycles > 0
        assert session._traces == {}

    def test_crashed_benchmark_exhibits_equal_clean_session(self, sessions,
                                                            crashed):
        _, serial_text, _, _, _ = sessions
        _, _, texts = crashed
        for exp_id in EXPERIMENTS:
            assert texts[exp_id] == serial_text[exp_id], exp_id
        assert "Footnotes:" not in texts["fig6"]

    def test_serial_engine_ignores_crash_knob_consistently(
            self, monkeypatch, sessions):
        # Only model children honour the knob: at one usable CPU
        # nothing forks, so the knob must change nothing.
        serial, *_ = sessions
        _clean_env(monkeypatch)
        monkeypatch.setenv(CRASH_ENV, "compress")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        session = Session(scale="tiny", benchmarks=("compress",),
                          metrics=True)
        report = ParallelEngine(session, jobs=1).run()
        assert session.failures == []
        assert not any(name.startswith("children/")
                       for name in session.metrics.run_counters())
        assert len(report.timings) == len(default_workplan(("compress",)))
        assert all(t.ok for t in report.timings)
        for lvp in PPC_MODEL_LVPS:
            assert session.ppc_result("compress", PPC620, lvp).cycles == \
                serial.ppc_result("compress", PPC620, lvp).cycles


class TestJobsCap:
    @pytest.mark.parametrize("jobs", [2, 3])
    def test_at_most_jobs_processes_compute(self, monkeypatch, jobs):
        """At ``jobs=N`` no more than N - 1 children are running when
        the parent forks another: N computing processes, the parent
        counted.  Eight usable CPUs, so only ``jobs`` can be the cap;
        each child sleeps first, so a missing cap would show."""
        _clean_env(monkeypatch)
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(8)), raising=False)
        running_at_fork = []
        real_fork = os.fork

        def fork():
            running_at_fork.append(len(children._LIVE))
            return real_fork()

        run_group = parallel._Shard.run_group

        def slow_run_group(self, group):
            time.sleep(1.0)
            return run_group(self, group)

        monkeypatch.setattr(os, "fork", fork)
        monkeypatch.setattr(parallel._Shard, "run_group", slow_run_group)
        session = Session(scale="tiny", benchmarks=BENCHES, metrics=True)
        session.warm(jobs)
        assert len(running_at_fork) == 2 * len(BENCHES)
        assert max(running_at_fork) == jobs - 1
        assert session.metrics.run_counters()["children/processes"] == \
            2 * len(BENCHES)
        assert "children/rerun_inline" not in \
            session.metrics.run_counters()


class TestCLIByteEquivalence:
    """Acceptance: `experiment all --jobs 4` == `--jobs 1`, byte for byte."""

    @staticmethod
    def _run(jobs: int, extra_env=None):
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        env.update(extra_env or {})
        return subprocess.run(
            [sys.executable, "-m", "repro", "experiment", "all",
             "--scale", "tiny", "--benchmarks", ",".join(BENCHES),
             "--jobs", str(jobs)],
            capture_output=True, env=env, timeout=600)

    def test_stdout_byte_identical(self):
        serial = self._run(1)
        parallel = self._run(4)
        assert serial.returncode == 0, serial.stderr.decode()
        assert parallel.returncode == 0, parallel.stderr.decode()
        assert serial.stdout == parallel.stdout
        # The timing summary goes to stderr, and only in parallel mode.
        assert b"Parallel timing summary" not in serial.stderr
        assert b"Parallel timing summary" in parallel.stderr

    def test_sabotaged_stdout_byte_identical_and_nonzero(self):
        env = {"REPRO_SABOTAGE": "compress"}
        serial = self._run(1, env)
        parallel = self._run(4, env)
        assert serial.returncode == 1
        assert parallel.returncode == 1
        assert serial.stdout == parallel.stdout
        assert b"Footnotes:" in parallel.stdout


class TestRunExperiments:
    def test_helper_warms_and_returns_all(self, monkeypatch):
        _clean_env(monkeypatch)
        session = Session(scale="tiny", benchmarks=("grep",))
        results = run_experiments(("tab1", "tab2"), session, jobs=2)
        assert [r.exp_id for r in results] == ["tab1", "tab2"]
        assert session.last_warm_report is not None
        assert session.last_warm_report.jobs == 2

    def test_jobs_from_env(self, monkeypatch):
        _clean_env(monkeypatch)
        assert jobs_from_env() == 1
        monkeypatch.setenv("REPRO_JOBS", "6")
        assert jobs_from_env() == 6
        for bad in ("0", "banana"):
            monkeypatch.setenv("REPRO_JOBS", bad)
            with pytest.raises(ValueError, match="REPRO_JOBS"):
                jobs_from_env()
