"""Unit tests for the write-ahead run journal, retry policy, cache
lock bounding, and the --jobs/--unit-timeout validation layer.

The journal primitive's cases (replay, truncation, tamper, manifest
refusal, checkpoint digests) run over both unit kinds -- experiment
runs and sweeps -- inside each test, so the suite's test ids stay one
per case."""

from __future__ import annotations

import json
import os

import pytest

from repro.cli import main
from repro.errors import (
    CacheLockTimeout,
    JournalError,
    RetryableError,
    TransientFaultError,
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
from repro.harness.retry import RetryPolicy, call_with_retries
from repro.harness.session import Session
from repro.harness.sweep import SweepJournal, build_sweep_manifest
from repro.lvp import sensitivity_grid

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
    """An experiment run: units are benchmarks, payloads pickled."""

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


class SweepKind:
    """A sweep: units are grid chunks, payloads JSON cell lists."""

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
        return {"type": "done", "chunk": 0, "digest": digest}


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
                journal.load_checkpoints()

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
    def test_finished_shard_checkpoints_and_resumes(self, tmp_path):
        for kind in KINDS:
            journal = _create(kind, tmp_path)
            payload = kind.payload()
            digest = journal._write_checkpoint(kind.unit, payload)
            journal.append(kind.done(digest, payload))
            journal.close()
            reopened = kind.journal.open(tmp_path / kind.name, "r1")
            loaded = reopened.load_checkpoints()
            assert list(loaded) == [kind.unit], kind.name
            assert loaded[kind.unit] == payload

    def test_tampered_checkpoint_dropped(self, tmp_path):
        for kind in KINDS:
            journal = _create(kind, tmp_path)
            payload = kind.payload()
            digest = journal._write_checkpoint(kind.unit, payload)
            journal.append(kind.done(digest, payload))
            journal._checkpoint_path(kind.unit).write_bytes(b"rotten")
            assert journal.load_checkpoints() == {}, kind.name

    def test_missing_checkpoint_dropped(self, tmp_path):
        for kind in KINDS:
            journal = _create(kind, tmp_path)
            journal.append(kind.done("0" * 64))
            assert journal.load_checkpoints() == {}, kind.name


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


class TestRetryPolicy:
    def test_schedule_deterministic_and_bounded(self):
        policy = RetryPolicy(attempts=5, base=0.1, seed=3)
        first, second = policy.delays(), policy.delays()
        assert first == second
        assert len(first) == 4
        # Regression: the cap bounds the post-jitter sleep itself.  The
        # old code clamped before jittering, so sleeps could exceed the
        # cap by up to the jitter fraction (50%).
        assert all(0 <= d <= policy.cap for d in first)

    def test_cap_applies_after_jitter(self):
        # base * multiplier**i reaches the cap from i=1 on; with the
        # old clamp-then-jitter order every one of those delays would
        # (almost surely) exceed the cap.
        policy = RetryPolicy(attempts=6, base=1.0, multiplier=4.0,
                             cap=1.5, jitter=0.5, seed=7)
        delays = policy.delays()
        assert all(d <= policy.cap for d in delays)
        # Jitter still does its de-synchronization job below the cap.
        small = RetryPolicy(attempts=2, base=0.1, cap=10.0, jitter=0.5,
                            seed=7).delays()[0]
        assert 0.1 <= small <= 0.15

    def test_env_overrides(self, monkeypatch):
        _clean_env(monkeypatch)
        monkeypatch.setenv("REPRO_RETRIES", "5")
        monkeypatch.setenv("REPRO_RETRY_BASE", "0")
        policy = RetryPolicy.from_env(seed=1)
        assert policy.attempts == 5
        assert policy.base == 0.0

    def test_malformed_env_warns_and_falls_back(self, monkeypatch):
        _clean_env(monkeypatch)
        monkeypatch.setenv("REPRO_RETRIES", "three")
        monkeypatch.setenv("REPRO_RETRY_BASE", "fast")
        with pytest.warns(RuntimeWarning) as caught:
            policy = RetryPolicy.from_env()
        assert policy.attempts == RetryPolicy().attempts
        assert policy.base == RetryPolicy().base
        messages = [str(w.message) for w in caught]
        assert any("REPRO_RETRIES" in m and "'three'" in m
                   for m in messages)
        assert any("REPRO_RETRY_BASE" in m and "'fast'" in m
                   for m in messages)

    def test_unset_env_stays_silent(self, monkeypatch):
        _clean_env(monkeypatch)
        import warnings as warnings_module
        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error")
            policy = RetryPolicy.from_env()
        assert policy == RetryPolicy()

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base=-1.0)

    def test_retries_transient_then_succeeds(self):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise CacheLockTimeout("busy")
            return "ok"

        result = call_with_retries(flaky, RetryPolicy(attempts=3, base=0),
                                   sleep=lambda s: None)
        assert result == "ok"
        assert len(calls) == 3

    def test_terminal_errors_propagate_immediately(self):
        calls = []

        def broken():
            calls.append(1)
            raise ValueError("terminal")

        with pytest.raises(ValueError):
            call_with_retries(broken, RetryPolicy(attempts=3, base=0),
                              sleep=lambda s: None)
        assert len(calls) == 1

    def test_final_attempt_reraises(self):
        def always():
            raise CacheLockTimeout("busy")

        with pytest.raises(CacheLockTimeout):
            call_with_retries(always, RetryPolicy(attempts=2, base=0),
                              sleep=lambda s: None)


class TestTransientKnob:
    def test_session_survives_transient_faults(self, monkeypatch):
        _clean_env(monkeypatch)
        import repro.harness.session as session_mod
        monkeypatch.setattr(session_mod, "_TRANSIENT_FIRED", {})
        monkeypatch.setenv("REPRO_TRANSIENT", "grep:trace:2")
        monkeypatch.setenv("REPRO_RETRY_BASE", "0")
        session = Session(scale="tiny", benchmarks=("grep",))
        trace = session.trace("grep", "ppc")
        assert trace.num_instructions > 0
        assert session.failures == []

    def test_transient_budget_exhaustion_is_recorded(self, monkeypatch):
        _clean_env(monkeypatch)
        import repro.harness.session as session_mod
        monkeypatch.setattr(session_mod, "_TRANSIENT_FIRED", {})
        # More injected failures than the 3-attempt default budget.
        monkeypatch.setenv("REPRO_TRANSIENT", "grep:trace:99")
        monkeypatch.setenv("REPRO_RETRY_BASE", "0")
        session = Session(scale="tiny", benchmarks=("grep",))
        with pytest.raises(Exception):
            session.trace("grep", "ppc")
        assert len(session.failures) == 1
        assert isinstance(session.failures[0].cause, TransientFaultError)


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
            jobs_from_env(strict=True)
        monkeypatch.setenv("REPRO_JOBS", "0")
        with pytest.raises(ValueError):
            jobs_from_env(strict=True)
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert jobs_from_env(strict=True) == 3

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
