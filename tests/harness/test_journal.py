"""Unit tests for the write-ahead run journal, the session's stage
retry, cache lock bounding, and the --jobs/--unit-timeout validation
layer.

The journal primitive's cases (replay, truncation, tamper, manifest
refusal, what a finished unit leaves durable) run over both unit kinds
-- experiment runs, whose units are checkpoint files, and sweeps,
whose ``done`` records carry their cells -- inside each test, so the
suite's test ids stay one per case."""

from __future__ import annotations

import json
import os

import pytest

from repro.cli import main
from repro.errors import (
    BenchmarkFailure,
    CacheLockTimeout,
    JournalError,
    RetryableError,
    TraceError,
    UnitTimeoutError,
)
from repro.harness.cache import TraceCache
from repro.harness.journal import (
    RunJournal,
    build_manifest,
    find_run,
    new_run_id,
    prune_runs,
    replay_journal,
    shard_digests,
)
from repro.harness.parallel import (
    WorkUnit,
    _ShardResult,
    default_workplan,
    jobs_from_env,
    unit_timeout_from_env,
    units_for_exhibits,
)
from repro.harness import session as session_module
from repro.harness.experiments import run_experiment
from repro.harness.session import RETRY_DELAYS, Session
from repro.harness.sweep import (
    SweepJournal,
    _SweepChunkSpec,
    build_sweep_manifest,
)
from repro.lvp import sensitivity_grid
from repro.trace.records import TRACE_COLUMNS

try:
    import fcntl
except ImportError:  # pragma: no cover
    fcntl = None


def _clean_env(monkeypatch):
    for var in list(os.environ):
        if var.startswith("REPRO_"):
            monkeypatch.delenv(var, raising=False)


def _empty_shard(benchmark="b1") -> _ShardResult:
    return _ShardResult(benchmark=benchmark, traces={}, annotated={},
                        ppc_runs={}, alpha_runs={}, failed={}, timings=[])


def _manifest(**overrides) -> dict:
    from repro import __version__
    manifest = {"version": __version__, "exhibits": ["tab1"],
                "scale": "tiny", "benchmarks": ["b1", "b2"],
                "verify": True, "jobs": 1, "unit_timeout": 0.0,
                "cache_dir": None}
    manifest.update(overrides)
    return manifest


class RunKind:
    """An experiment run: units are benchmarks, payloads pickled to
    checkpoint files."""

    name = "run"
    journal = RunJournal
    unit = "b1"

    @staticmethod
    def manifest() -> dict:
        return _manifest()

    @staticmethod
    def planned() -> list[dict]:
        return [{"type": "planned", "benchmark": b} for b in ("b1", "b2")]

    @staticmethod
    def payload():
        return _empty_shard()

    @staticmethod
    def done(digest: str, payload=None) -> dict:
        return {"type": "done", "benchmark": "b1", "checkpoint": digest,
                "digests": shard_digests(payload or _empty_shard())}

    @staticmethod
    def finish(journal, payload) -> None:
        digest = journal._write_checkpoint("b1", payload)
        journal.append(RunKind.done(digest, payload))

    @staticmethod
    def load(journal) -> dict:
        return journal.load_checkpoints()

    @staticmethod
    def damage(journal) -> None:
        """Rot the finished unit's checkpoint file."""
        journal._checkpoint_path("b1").write_bytes(b"rotten")


class SweepKind:
    """A sweep: units are grid chunks, payloads JSON cell lists carried
    by their ``done`` records."""

    name = "sweep"
    journal = SweepJournal
    unit = 0

    @staticmethod
    def manifest() -> dict:
        return build_sweep_manifest("compress", "ppc", "tiny",
                                    sensitivity_grid()[:8],
                                    chunk_size=4, jobs=1)

    @staticmethod
    def planned() -> list[dict]:
        return [{"type": "planned", "chunk": c} for c in (0, 1)]

    @staticmethod
    def payload():
        return [{"name": "x"}]

    @staticmethod
    def done(digest: str, payload=None) -> dict:
        """A ``done`` record naming a checkpoint file by digest: the
        shape sweeps wrote before cells moved into the record."""
        return {"type": "done", "chunk": 0, "digest": digest}

    @staticmethod
    def finish(journal, payload) -> None:
        journal.chunk_finished(
            (_SweepChunkSpec(chunk_id=0, configs=()), payload))

    @staticmethod
    def load(journal) -> dict:
        return journal.load_cells()

    @staticmethod
    def damage(journal) -> None:
        """Flip a byte of the trailing ``done`` line's cells, keeping
        the line valid JSON: only its CRC can tell."""
        path = journal.journal_path
        head, last = path.read_bytes().rstrip(b"\n").rsplit(b"\n", 1)
        assert b'"cells":[{"name":"x"}]' in last
        path.write_bytes(head + b"\n"
                         + last.replace(b'"name":"x"', b'"name":"y"'))


KINDS = (RunKind, SweepKind)


def _create(kind, tmp_path, run_id="r1"):
    """A fresh journal of *kind* under its own runs directory."""
    return kind.journal.create(tmp_path / kind.name, run_id,
                               kind.manifest())


class TestJournalLines:
    def test_write_replay_round_trip(self, tmp_path):
        for kind in KINDS:
            journal = _create(kind, tmp_path)
            journal.append(kind.done("x"))
            journal.close()
            types = [r["type"] for r in replay_journal(journal.journal_path)]
            assert types == ["run_started", "planned", "planned", "done"], \
                kind.name

    def test_opening_records_one_write_one_fsync(self, tmp_path,
                                                  monkeypatch):
        from repro.harness import journal as journal_mod
        writes, fsyncs = [], []
        real_write, real_fsync = os.write, os.fsync
        monkeypatch.setattr(journal_mod.os, "write", lambda fd, data: (
            writes.append(data), real_write(fd, data))[1])
        monkeypatch.setattr(journal_mod.os, "fsync", lambda fd: (
            fsyncs.append(fd), real_fsync(fd))[1])
        # The latest-run pointer is a separate file with its own write.
        monkeypatch.setattr(journal_mod, "publish_latest", lambda *args: None)
        for kind in KINDS:
            writes.clear()
            fsyncs.clear()
            journal = _create(kind, tmp_path)
            journal.close()
            records = [{"type": "run_started", "run_id": "r1"},
                       *kind.planned()]
            expected = b"".join(journal_mod._encode_record(r)
                                for r in records)
            assert writes == [expected], kind.name
            assert len(fsyncs) == 1, kind.name
            assert journal.journal_path.read_bytes() == expected

    def test_truncated_trailing_line_tolerated(self, tmp_path):
        for kind in KINDS:
            journal = _create(kind, tmp_path)
            journal.close()
            path = journal.journal_path
            before = [r["type"] for r in replay_journal(path)]
            path.write_bytes(path.read_bytes() + b'{"rec":{"type":"done"')
            assert [r["type"] for r in replay_journal(path)] == before
            assert [r["type"] for r in journal.replay()] == before

    def test_interior_damage_raises(self, tmp_path):
        for kind in KINDS:
            journal = _create(kind, tmp_path)
            journal.close()
            path = journal.journal_path
            lines = path.read_bytes().split(b"\n")
            lines[0] = lines[0].replace(b"run_started", b"run_stirred")
            path.write_bytes(b"\n".join(lines))
            with pytest.raises(JournalError):
                replay_journal(path)
            with pytest.raises(JournalError):
                kind.load(journal)

    def test_crc_protects_payload(self, tmp_path):
        for kind in KINDS:
            journal = _create(kind, tmp_path)
            journal.close()
            path = journal.journal_path
            # Flip a byte inside the first record's payload but keep the
            # line syntactically valid JSON: the CRC must catch it.
            lines = path.read_bytes().split(b"\n")
            tampered = lines[0].replace(b'"run_id":"r1"', b'"run_id":"rX"')
            assert tampered != lines[0]
            path.write_bytes(b"\n".join([tampered] + lines[1:]))
            with pytest.raises(JournalError):
                replay_journal(path)

    def test_damaged_single_line_journal_replays_empty(self, tmp_path):
        # With only one (damaged) line, it IS the trailing line: the
        # truncation tolerance applies and replay yields nothing.
        path = tmp_path / "journal.jsonl"
        path.write_bytes(b'{"rec":{"type":"run_started"},"crc":1}\n')
        assert replay_journal(path) == []


class TestCheckpoints:
    """What a finished unit leaves durable: a run's checkpoint file, a
    sweep's ``done`` record with its cells."""

    def test_finished_shard_checkpoints_and_resumes(self, tmp_path):
        for kind in KINDS:
            journal = _create(kind, tmp_path)
            payload = kind.payload()
            kind.finish(journal, payload)
            journal.close()
            reopened = kind.journal.open(tmp_path / kind.name, "r1")
            loaded = kind.load(reopened)
            assert list(loaded) == [kind.unit], kind.name
            assert loaded[kind.unit] == payload

    def test_tampered_checkpoint_dropped(self, tmp_path):
        for kind in KINDS:
            journal = _create(kind, tmp_path)
            kind.finish(journal, kind.payload())
            kind.damage(journal)
            assert kind.load(journal) == {}, kind.name

    def test_missing_checkpoint_dropped(self, tmp_path):
        # A sweep's old-shape done record has no cells: not done.
        for kind in KINDS:
            journal = _create(kind, tmp_path)
            journal.append(kind.done("0" * 64))
            assert kind.load(journal) == {}, kind.name


def _edit_manifest(journal, **changes) -> None:
    path = journal.directory / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest.update(changes)
    path.write_text(json.dumps(manifest))


class TestManifest:
    def test_version_mismatch_refuses_resume(self, tmp_path):
        for kind in KINDS:
            journal = _create(kind, tmp_path)
            journal.close()
            manifest = dict(journal.manifest, version="0.0.0-other")
            # A consistent fingerprint: the version check alone refuses.
            _edit_manifest(journal, version="0.0.0-other",
                           fingerprint=kind.journal.fingerprint(manifest))
            with pytest.raises(JournalError, match="0.0.0-other"):
                kind.journal.open(tmp_path / kind.name, "r1")

    def test_fingerprint_mismatch_refuses_resume(self, tmp_path):
        for kind in KINDS:
            journal = _create(kind, tmp_path)
            journal.close()
            _edit_manifest(journal, scale="small")
            with pytest.raises(JournalError, match="fingerprint"):
                kind.journal.open(tmp_path / kind.name, "r1")

    def test_build_manifest_records_identity(self):
        session = Session(scale="tiny", benchmarks=("grep",))
        manifest = build_manifest(["tab1"], session, jobs=2,
                                  unit_timeout=1.5)
        assert manifest["scale"] == "tiny"
        assert manifest["benchmarks"] == ["grep"]
        assert manifest["jobs"] == 2
        assert manifest["unit_timeout"] == 1.5


class TestRunDirectories:
    def test_find_run_latest_and_missing(self, tmp_path):
        RunJournal.create(tmp_path, "2025-a", _manifest()).close()
        RunJournal.create(tmp_path, "2025-b", _manifest()).close()
        assert find_run(tmp_path, "latest").name == "2025-b"
        assert find_run(tmp_path, "2025-a").name == "2025-a"
        with pytest.raises(JournalError):
            find_run(tmp_path, "nope")

    def test_prune_keeps_newest_and_protected(self, tmp_path):
        for name in ("r1", "r2", "r3", "r4"):
            RunJournal.create(tmp_path, name, _manifest()).close()
        removed = prune_runs(tmp_path, keep=2, protect="r1")
        # The LATEST pointer file lives beside the run directories and
        # is never pruned.
        survivors = sorted(p.name for p in tmp_path.iterdir()
                           if p.is_dir())
        assert removed == 1
        assert survivors == ["r1", "r3", "r4"]

    def test_new_run_ids_are_distinct_across_processes(self):
        assert f"-{os.getpid()}-" in new_run_id()

    def test_new_run_ids_distinct_within_one_second(self):
        # The timestamp is second-granular: a scripted sweep (or this
        # test suite) creates several runs in one second, and the ids
        # must not collide into a shared run directory.
        ids = [new_run_id() for _ in range(20)]
        assert len(set(ids)) == len(ids)


@pytest.fixture
def planted(monkeypatch, tmp_path):
    """``planted(fails, error)``: a grep session whose first *fails*
    trace-cache loads raise *error*; returns the session, the load
    count and the sleeps the retry took."""
    _clean_env(monkeypatch)
    sleeps: list = []
    monkeypatch.setattr(session_module.time, "sleep", sleeps.append)
    original = TraceCache.load

    def make(fails, error=CacheLockTimeout("cache lock held")):
        loads: list = []

        def load(cache, *args):
            loads.append(args)
            if len(loads) <= fails:
                raise error
            return original(cache, *args)

        monkeypatch.setattr(TraceCache, "load", load)
        session = Session(scale="tiny", benchmarks=("grep",),
                          cache_dir=str(tmp_path / "cache"))
        return session, loads, sleeps

    return make


def _flaky(fails, error=CacheLockTimeout("cache lock held")):
    """A stage body that raises *error* on its first *fails* calls and
    then returns ``"done"``; returns the body and its call list."""
    calls: list = []

    def body():
        calls.append(None)
        if len(calls) <= fails:
            raise error
        return "done"

    return body, calls


class TestRetryPolicy:
    """``Session._run_stage`` retries a stage body that raised a
    RetryableError after each of RETRY_DELAYS, then records the
    failure; a terminal error is recorded on the first strike."""

    def test_retries_transient_then_succeeds(self, planted):
        session, _, sleeps = planted(0)
        body, calls = _flaky(2)
        assert session._run_stage("grep", "trace", "ppc", "key",
                                  body) == "done"
        assert len(calls) == 3
        assert sleeps == list(RETRY_DELAYS)
        assert session.failures == []

    def test_final_attempt_reraises(self, planted):
        session, _, sleeps = planted(0)
        body, calls = _flaky(3)
        with pytest.raises(BenchmarkFailure) as caught:
            session._run_stage("grep", "trace", "ppc", "key", body)
        assert isinstance(caught.value.cause, CacheLockTimeout)
        assert len(calls) == len(RETRY_DELAYS) + 1
        assert sleeps == list(RETRY_DELAYS)
        assert session.failures == [caught.value]

    def test_terminal_errors_propagate_immediately(self, planted):
        session, loads, sleeps = planted(1, TraceError("bad bundle"))
        with pytest.raises(BenchmarkFailure) as caught:
            session.trace("grep", "ppc")
        assert isinstance(caught.value.cause, TraceError)
        assert len(loads) == 1
        assert sleeps == []

    def test_schedule_deterministic_and_bounded(self, planted):
        schedules = []
        for _ in range(2):
            session, loads, sleeps = planted(99)
            with pytest.raises(BenchmarkFailure):
                session.trace("grep", "ppc")
            assert len(loads) == len(RETRY_DELAYS) + 1
            schedules.append(list(sleeps))
            sleeps.clear()
        assert schedules == [list(RETRY_DELAYS)] * 2
        assert RETRY_DELAYS == (0.05, 0.1)


class TestTransientKnob:
    """A session survives real transient faults, here CacheLockTimeouts
    planted in the trace cache's load, and footnotes a benchmark whose
    retries run out."""

    def test_session_survives_transient_faults(self, planted, grep_trace):
        session, loads, _ = planted(2)
        trace = session.trace("grep", "ppc")
        assert session.failures == []
        assert len(loads) == 3
        assert len(trace) == len(grep_trace)
        for key, _ in TRACE_COLUMNS:
            assert (getattr(trace, key) == getattr(grep_trace, key)).all()

    def test_transient_budget_exhaustion_is_recorded(self, planted):
        session, loads, _ = planted(3)
        with pytest.raises(BenchmarkFailure) as caught:
            session.trace("grep", "ppc")
        assert isinstance(caught.value.cause, CacheLockTimeout)
        assert len(loads) == 3
        assert session.failures == [caught.value]
        text = run_experiment("tab1", session).text
        assert "Footnotes:" in text
        assert ("grep [ppc] omitted -- trace stage failed "
                "(CacheLockTimeout: cache lock held)") in text


class TestCacheResilience:
    @pytest.mark.skipif(fcntl is None, reason="fcntl-less platform")
    def test_lock_timeout_is_bounded_and_retryable(self, tmp_path):
        cache = TraceCache(tmp_path, lock_timeout=0.1)
        with open(tmp_path / ".lock", "a") as holder:
            fcntl.flock(holder, fcntl.LOCK_EX)
            try:
                with pytest.raises(CacheLockTimeout) as excinfo:
                    cache.clear()
            finally:
                fcntl.flock(holder, fcntl.LOCK_UN)
        assert isinstance(excinfo.value, RetryableError)

    def test_quarantine_growth_is_capped(self, tmp_path):
        cache = TraceCache(tmp_path, quarantine_keep=2)
        for i in range(5):
            bundle = tmp_path / f"bundle{i}.rtc"
            bundle.write_bytes(b"junk")
            cache.quarantine(bundle)
        survivors = list((tmp_path / "quarantine").iterdir())
        assert len(survivors) == 2


class TestWorkplanFiltering:
    def test_single_exhibit_plan_is_smaller(self):
        full = default_workplan(("grep",))
        tab1 = units_for_exhibits(["tab1"], ("grep",))
        assert set(tab1) < set(full)
        assert tab1 == tuple(u for u in full if u.stage == "trace")

    def test_unknown_exhibit_falls_back_to_full_plan(self):
        assert units_for_exhibits(["mystery"], ("grep",)) == \
            default_workplan(("grep",))

    def test_static_exhibits_need_nothing(self):
        assert units_for_exhibits(["tab2", "tab5"], ("grep",)) == ()

    def test_all_exhibits_cover_every_model_unit(self):
        # Annotate units an exhibit never reads directly are resolved
        # implicitly by workers, so the union of per-exhibit plans
        # covers every trace and model unit (annotations ride along).
        from repro.harness import EXPERIMENTS
        full = set(default_workplan(("grep",)))
        union = set()
        for exp_id in EXPERIMENTS:
            union |= set(units_for_exhibits([exp_id], ("grep",)))
        assert union <= full
        assert {u for u in full if u.stage != "annotate"} <= union


class TestKnobValidation:
    def test_jobs_from_env_strict(self, monkeypatch):
        _clean_env(monkeypatch)
        monkeypatch.setenv("REPRO_JOBS", "banana")
        with pytest.raises(ValueError):
            jobs_from_env()
        monkeypatch.setenv("REPRO_JOBS", "0")
        with pytest.raises(ValueError):
            jobs_from_env()
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert jobs_from_env() == 3

    def test_unit_timeout_from_env(self, monkeypatch):
        _clean_env(monkeypatch)
        assert unit_timeout_from_env() == 0.0
        monkeypatch.setenv("REPRO_UNIT_TIMEOUT", "2.5")
        assert unit_timeout_from_env() == 2.5
        monkeypatch.setenv("REPRO_UNIT_TIMEOUT", "banana")
        assert unit_timeout_from_env() == 0.0

    def test_cli_rejects_bad_jobs(self):
        for bad in ("0", "-2", "banana"):
            with pytest.raises(SystemExit) as excinfo:
                main(["experiment", "all", "--jobs", bad])
            assert excinfo.value.code == 2

    def test_cli_rejects_bad_unit_timeout(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["experiment", "all", "--unit-timeout", "-1"])
        assert excinfo.value.code == 2

    def test_cli_rejects_bad_env_jobs(self, monkeypatch, capsys):
        _clean_env(monkeypatch)
        monkeypatch.setenv("REPRO_JOBS", "banana")
        with pytest.raises(SystemExit) as excinfo:
            main(["experiment", "all", "--scale", "tiny",
                  "--benchmarks", "grep", "--no-journal"])
        assert excinfo.value.code == 2
        assert "REPRO_JOBS" in capsys.readouterr().err

    def test_cli_requires_id_or_resume(self, capsys):
        assert main(["experiment"]) == 2
        assert "exhibit id" in capsys.readouterr().err


class TestInProcessJournaledRuns:
    def test_journaled_run_then_resume_is_identical(self, tmp_path,
                                                    capsys, monkeypatch):
        _clean_env(monkeypatch)
        args = ["--scale", "tiny", "--benchmarks", "grep",
                "--runs-dir", str(tmp_path)]
        assert main(["experiment", "tab1", "--run-id", "r1"] + args) == 0
        first = capsys.readouterr().out
        assert main(["experiment", "--resume", "r1",
                     "--runs-dir", str(tmp_path)]) == 0
        second = capsys.readouterr().out
        assert first == second
        records = replay_journal(tmp_path / "r1" / "journal.jsonl")
        assert [r["type"] for r in records].count("done") >= 1

    def test_no_journal_flag_writes_nothing(self, tmp_path, capsys,
                                            monkeypatch):
        _clean_env(monkeypatch)
        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path))
        assert main(["experiment", "tab1", "--scale", "tiny",
                     "--benchmarks", "grep", "--no-journal"]) == 0
        capsys.readouterr()
        assert list(tmp_path.iterdir()) == []

    def test_resume_unknown_run_is_a_clean_error(self, tmp_path, capsys,
                                                 monkeypatch):
        _clean_env(monkeypatch)
        code = main(["experiment", "--resume", "ghost",
                     "--runs-dir", str(tmp_path)])
        assert code == 2
        assert "ghost" in capsys.readouterr().err


class TestWatchdogUnit:
    def test_watchdog_interrupts_hang(self):
        import time

        from repro.harness.parallel import _unit_watchdog
        unit = WorkUnit("b1", "trace", "ppc")
        with pytest.raises(UnitTimeoutError):
            with _unit_watchdog(0.05, unit):
                time.sleep(5)

    def test_watchdog_disarmed_when_zero(self):
        from repro.harness.parallel import _unit_watchdog
        unit = WorkUnit("b1", "trace", "ppc")
        with _unit_watchdog(0.0, unit):
            pass
