"""Tests for the resource guardrails: cache budgets, disk-full
degradation in cache and journal, and the per-worker RSS watchdog."""

from __future__ import annotations

import errno
import os

import numpy as np
import pytest

from repro.errors import (
    JournalError,
    MemoryBudgetError,
    ResourceExhaustedError,
    is_resource_exhaustion,
)
from repro.harness.cache import TraceCache
from repro.harness.journal import RunJournal
from repro.harness.parallel import (
    WorkUnit,
    _check_rss,
    _ShardResult,
    _ShardSpec,
    current_rss_mb,
    rss_limit_from_env,
)
from repro.harness.sweep import SweepJournal, _SweepChunkSpec


def _enospc(*args, **kwargs):
    raise OSError(errno.ENOSPC, "No space left on device")


class TestErrnoTaxonomy:
    def test_resource_errnos_recognized(self):
        for code in (errno.ENOSPC, errno.EDQUOT, errno.EMFILE,
                     errno.ENFILE):
            assert is_resource_exhaustion(OSError(code, "x"))

    def test_other_errors_are_not_resource_exhaustion(self):
        assert not is_resource_exhaustion(OSError(errno.EIO, "x"))
        assert not is_resource_exhaustion(ValueError("x"))
        assert not is_resource_exhaustion(OSError("no errno"))


class TestCacheBudget:
    def test_lru_eviction_keeps_within_budget(self, tmp_path, grep_trace,
                                              compress_trace):
        cache = TraceCache(tmp_path, budget=1)
        cache.store(grep_trace, "tiny")
        cache.store(compress_trace, "tiny")
        bundles = list(tmp_path.glob("*.rtc"))
        assert len(bundles) == 1
        # The newest store survives; the LRU bundle was evicted.
        assert bundles[0] == cache.path_for("compress", "ppc", "tiny")
        assert cache.counters.evictions == 1

    def test_loads_refresh_recency(self, tmp_path, grep_trace,
                                   compress_trace):
        cache = TraceCache(tmp_path, budget=10 ** 9)
        cache.store(grep_trace, "tiny")
        cache.store(compress_trace, "tiny")
        grep_path = cache.path_for("grep", "ppc", "tiny")
        compress_path = cache.path_for("compress", "ppc", "tiny")
        # Make grep look stale, then read it: the load must bump its
        # recency so compress becomes the eviction victim.
        os.utime(grep_path, (1, 1))
        os.utime(compress_path, (2, 2))
        assert cache.load("grep", "ppc", "tiny") is not None
        cache.budget = grep_path.stat().st_size
        cache._enforce_budget()
        assert grep_path.exists()
        assert not compress_path.exists()

    def test_budget_env_knob(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_BUDGET", "123")
        assert TraceCache(tmp_path).budget == 123
        monkeypatch.setenv("REPRO_CACHE_BUDGET", "junk")
        assert TraceCache(tmp_path).budget == 0

    def test_zero_budget_means_unlimited(self, tmp_path, grep_trace,
                                         compress_trace):
        cache = TraceCache(tmp_path, budget=0)
        cache.store(grep_trace, "tiny")
        cache.store(compress_trace, "tiny")
        assert len(list(tmp_path.glob("*.rtc"))) == 2
        assert cache.counters.evictions == 0


class TestCacheResourceExhaustion:
    def test_store_on_full_disk_raises_retryable(self, tmp_path,
                                                 grep_trace, monkeypatch):
        cache = TraceCache(tmp_path)
        monkeypatch.setattr(TraceCache, "_write_bundle",
                            lambda self, *args: _enospc())
        with pytest.raises(ResourceExhaustedError):
            cache.store(grep_trace, "tiny")
        # No debris: the temp file never survives a failed store.
        assert list(tmp_path.glob("*.tmp.rtc")) == []

    def test_store_evicts_and_retries_before_raising(self, tmp_path,
                                                     grep_trace,
                                                     compress_trace,
                                                     monkeypatch):
        cache = TraceCache(tmp_path)
        cache.store(grep_trace, "tiny")
        real = TraceCache._write_bundle
        calls = {"n": 0}

        def once(self, temporary, path, trace):
            calls["n"] += 1
            if calls["n"] == 1:
                raise OSError(errno.ENOSPC, "No space left on device")
            return real(self, temporary, path, trace)

        monkeypatch.setattr(TraceCache, "_write_bundle", once)
        cache.store(compress_trace, "tiny")  # succeeds on the retry
        assert calls["n"] == 2
        # Emergency eviction sacrificed the other bundle for room.
        assert not cache.path_for("grep", "ppc", "tiny").exists()
        assert cache.path_for("compress", "ppc", "tiny").exists()

    def test_load_resource_error_does_not_quarantine(self, tmp_path,
                                                     grep_trace,
                                                     monkeypatch):
        cache = TraceCache(tmp_path)
        cache.store(grep_trace, "tiny")

        def emfile(self, *args, **kwargs):
            raise OSError(errno.EMFILE, "Too many open files")

        monkeypatch.setattr(TraceCache, "_read_v2", emfile)
        with pytest.raises(ResourceExhaustedError):
            cache.load("grep", "ppc", "tiny")
        assert cache.path_for("grep", "ppc", "tiny").exists()
        assert not (tmp_path / "quarantine").exists()

    def test_session_degrades_store_failures(self, tmp_path, grep_trace,
                                             monkeypatch, capsys):
        from repro.harness.session import Session
        session = Session(scale="tiny", benchmarks=("grep",),
                          cache_dir=str(tmp_path))
        monkeypatch.setattr(TraceCache, "_write_bundle",
                            lambda self, *args: _enospc())
        session._store_trace(grep_trace)  # must not raise
        assert "trace cache store skipped" in capsys.readouterr().err


def _run_journal(tmp_path):
    return RunJournal.create(tmp_path / "run", "run", {
        "version": "t", "exhibits": [], "scale": "tiny",
        "benchmarks": ["b1"], "verify": True})


def _sweep_journal(tmp_path):
    from repro import __version__
    return SweepJournal.create(tmp_path / "sweep", "run", {
        "version": __version__, "bench": "compress", "chunks": 1})


def _empty_result(benchmark="b1") -> _ShardResult:
    return _ShardResult(benchmark=benchmark, traces={}, annotated={},
                        ppc_runs={}, alpha_runs={}, failed={}, timings=[])


def _finish_unit(journal) -> None:
    """Hand *journal* one finished unit of its kind."""
    if isinstance(journal, RunJournal):
        journal.shard_finished(
            _ShardSpec(benchmark="b1", scale="tiny", verify=True,
                       cache_dir=None, units=(), unit_timeout=0.0),
            _empty_result())
    else:
        journal.chunk_finished((_SweepChunkSpec(chunk_id=0, configs=()),
                                [{"name": "x"}]))


def _fill_disk(patch, journal) -> None:
    """Make the disk full under whatever makes *journal*'s finished
    unit durable: a run's checkpoint temp file, a sweep's ``done``
    append."""
    if isinstance(journal, RunJournal):
        patch.setattr(os, "open", _enospc_on_temp(os.open))
    else:
        patch.setattr(os, "write", _enospc)


def _enospc_on_temp(real_open):
    def enospc_open(path, *args, **kwargs):
        if str(path).endswith(".tmp"):
            raise OSError(errno.ENOSPC, "No space left on device")
        return real_open(path, *args, **kwargs)
    return enospc_open


#: Both journal kinds: every disk-full case below runs on each.
JOURNALS = (_run_journal, _sweep_journal)


class TestJournalDegradation:
    def test_append_survives_disk_full(self, tmp_path, monkeypatch,
                                       capsys):
        for make in JOURNALS:
            journal = make(tmp_path)
            monkeypatch.setattr(os, "write", _enospc)
            journal.append({"type": "done"})  # no raise
            err = capsys.readouterr().err
            assert journal.resume_command in err, make.__name__
            # Degraded: later appends are silent no-ops, hint prints once.
            journal.append({"type": "done"})
            assert capsys.readouterr().err == ""
            monkeypatch.undo()
            journal.close()
            # Everything before the failure replays cleanly.
            types = [r["type"] for r in journal.replay()]
            assert types == ["run_started", "planned"], make.__name__

    def test_append_reraises_real_errors(self, tmp_path, monkeypatch):
        def eio(*args, **kwargs):
            raise OSError(errno.EIO, "I/O error")

        for make in JOURNALS:
            journal = make(tmp_path)
            with monkeypatch.context() as patch:
                patch.setattr(os, "write", eio)
                with pytest.raises(OSError):
                    journal.append({"type": "done"})

    def test_checkpoint_failure_skips_done_record(self, tmp_path,
                                                  monkeypatch, capsys):
        for make in JOURNALS:
            journal = make(tmp_path)
            with monkeypatch.context() as patch:
                _fill_disk(patch, journal)
                _finish_unit(journal)  # no raise
            journal.close()
            types = [r["type"] for r in journal.replay()]
            if isinstance(journal, RunJournal):
                assert "checkpoint_failed" in types
                assert list((journal.directory / "checkpoints")
                            .iterdir()) == []
            else:
                # The done append itself failed: the journal degraded.
                assert journal._degraded
                assert sorted(os.listdir(journal.directory)) == [
                    "journal.jsonl", "manifest.json"]
            assert "done" not in types, make.__name__
            # A unit the journal could not attest simply re-runs.
            assert journal.completed() == {}

    def test_checkpoint_write_cleans_temp_on_enospc(self, tmp_path,
                                                    monkeypatch):
        """A full disk leaves nothing half-written that a resume trusts.
        A run's checkpoint temp file is removed.  A sweep's ``done``
        line torn by the disk filling mid-write is dropped on replay,
        and a resume cuts it off before appending: appended after, it
        would be interior damage, which refuses to resume."""
        journal = _run_journal(tmp_path)
        with monkeypatch.context() as patch:
            patch.setattr(os, "open", _enospc_on_temp(os.open))
            with pytest.raises(ResourceExhaustedError):
                journal._write_checkpoint("b1", _empty_result())
        assert list((journal.directory / "checkpoints").iterdir()) == []

        journal = _sweep_journal(tmp_path)
        real_write, taken = os.write, []

        def fill_up(fd, data):
            if taken:
                raise OSError(errno.ENOSPC, "No space left on device")
            taken.append(len(data) // 2)
            return real_write(fd, data[:taken[0]])

        with monkeypatch.context() as patch:
            patch.setattr(os, "write", fill_up)
            _finish_unit(journal)  # no raise
        journal.close()
        torn = journal.journal_path.read_bytes()
        assert taken and not torn.endswith(b"\n")
        assert journal.completed() == {}
        appended = SweepJournal(journal.directory, journal.manifest)
        appended.append({"type": "started", "chunk": 0},
                        {"type": "started", "chunk": 0})
        with pytest.raises(JournalError):
            appended.replay()
        journal.journal_path.write_bytes(torn)
        resumed = SweepJournal.open(tmp_path / "sweep", "run")
        _finish_unit(resumed)
        resumed.close()
        assert resumed.load_cells() == {0: [{"name": "x"}]}

    def test_demotions_are_journalled(self, tmp_path):
        from repro.harness.guard import TierDemotion
        journal = _run_journal(tmp_path)
        demotion = TierDemotion(
            benchmark="b1", stage="trace", target="ppc",
            unit="b1/trace/ppc", from_tier="compiled", to_tier="interp",
            reason="test")
        result = _ShardResult(benchmark="b1", traces={}, annotated={},
                              ppc_runs={}, alpha_runs={}, failed={},
                              timings=[], demotions=[demotion])
        spec = _ShardSpec(benchmark="b1", scale="tiny", verify=True,
                          cache_dir=None, units=(), unit_timeout=0.0)
        journal.shard_finished(spec, result)
        journal.close()
        demoted = [r for r in journal.replay()
                   if r["type"] == "demoted"]
        assert len(demoted) == 1
        assert demoted[0]["from_tier"] == "compiled"
        assert demoted[0]["unit"] == "b1/trace/ppc"


class TestRssWatchdog:
    def test_current_rss_is_sane(self):
        rss = current_rss_mb()
        assert rss is None or 1.0 < rss < 1_000_000.0

    def test_limit_from_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_RSS_LIMIT_MB", raising=False)
        assert rss_limit_from_env() == 0.0
        monkeypatch.setenv("REPRO_RSS_LIMIT_MB", "512")
        assert rss_limit_from_env() == 512.0

    def test_malformed_limit_warns_and_defaults(self, monkeypatch):
        monkeypatch.setenv("REPRO_RSS_LIMIT_MB", "junk")
        with pytest.warns(RuntimeWarning,
                          match="REPRO_RSS_LIMIT_MB='junk'"):
            assert rss_limit_from_env() == 0.0
        with pytest.warns(RuntimeWarning, match="using the default"):
            assert rss_limit_from_env(256.0) == 256.0

    def test_check_raises_over_budget(self):
        unit = WorkUnit("grep", "trace", "ppc")
        with pytest.raises(MemoryBudgetError) as caught:
            _check_rss(0.001, unit)
        message = str(caught.value)
        assert "grep" in message and "REPRO_RSS_LIMIT_MB" in message

    def test_check_disarmed_at_zero(self):
        _check_rss(0.0, WorkUnit("grep", "trace", "ppc"))  # no raise
