"""The engine's parent keeps results, not traces (docs/parallel.md,
"What the parent keeps").

Every exhibit run goes through the engine, which keeps, of each
finished shard, only what the exhibits read: a trace summary per trace
unit, each annotation's statistics and the model runs.  These tests run
three benchmarks with a trace cache -- through the journal, without
one, and through ``Session.warm(1)`` -- and hold the parent to that:
after the run and its exhibits, no trace or annotation a shard (or a
resumed checkpoint) held is still alive; the exhibits equal a lazy
session's byte for byte; and rendering neither re-simulates nor
reloads a trace, so the cache counters are those of the shards alone.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.harness import EXPERIMENTS, Session, run_experiment
from repro.harness import parallel, run_experiments
from repro.harness.cache import TraceCache
from repro.harness.journal import RunJournal, build_manifest
from repro.harness.parallel import CRASH_ENV

BENCHES = ("grep", "compress", "quick")
EXHIBITS = tuple(EXPERIMENTS)


@pytest.fixture(autouse=True)
def _no_ambient_chaos(monkeypatch):
    for var in ("REPRO_SABOTAGE", "REPRO_TRACE_CACHE", "REPRO_JOBS",
                "REPRO_TIER_FAULT", CRASH_ENV):
        monkeypatch.delenv(var, raising=False)


@pytest.fixture(scope="module")
def lazy_texts():
    """Every exhibit from a lazy session: the engine's reference."""
    session = Session(scale="tiny", benchmarks=BENCHES, metrics=False)
    return {exp_id: run_experiment(exp_id, session).text
            for exp_id in EXHIBITS}


def _spy(monkeypatch) -> list:
    """Weak references to every trace and annotation a shard payload
    holds, and to every trace the cache loads."""
    refs: list = []
    payload = parallel._Shard.payload
    load = TraceCache.load

    def spy_payload(self):
        result = payload(self)
        refs.extend(weakref.ref(trace) for trace in result.traces.values())
        refs.extend(weakref.ref(annotation)
                    for annotation in result.annotated.values())
        return result

    def spy_load(self, *args, **kwargs):
        trace = load(self, *args, **kwargs)
        if trace is not None:
            refs.append(weakref.ref(trace))
        return trace

    monkeypatch.setattr(parallel._Shard, "payload", spy_payload)
    monkeypatch.setattr(TraceCache, "load", spy_load)
    return refs


def _session(tmp_path) -> Session:
    return Session(scale="tiny", benchmarks=BENCHES, metrics=True,
                   cache_dir=str(tmp_path / "cache"))


def _run(tmp_path, run_id: str, resume: bool = False):
    """One journaled run of every exhibit; (session, exhibit texts)."""
    session = _session(tmp_path)
    runs = tmp_path / "runs"
    journal = RunJournal.open(runs, run_id) if resume else \
        RunJournal.create(runs, run_id,
                          build_manifest(EXHIBITS, session, 1, 0.0))
    try:
        results = run_experiments(EXHIBITS, session, journal=journal,
                                  resume=resume)
        journal.finished(0)
    finally:
        journal.close()
    return session, {result.exp_id: result.text for result in results}


def _assert_all_dead(refs: list) -> None:
    gc.collect()
    alive = [ref() for ref in refs if ref() is not None]
    assert not alive, [type(obj).__name__ for obj in alive]


def test_parent_keeps_no_trace_and_renders_the_same(tmp_path, monkeypatch,
                                                    lazy_texts):
    refs = _spy(monkeypatch)
    session, texts = _run(tmp_path, "fresh")
    # Two traces and eight annotations per benchmark were live in the
    # shards; none outlives its shard.
    assert len(refs) == len(BENCHES) * (2 + 8)
    _assert_all_dead(refs)
    assert session._traces == {} and session._annotated == {}
    assert texts == lazy_texts
    run = session.metrics.run_counters()
    # Each trace missed the empty cache once and was stored; rendering
    # read the kept summaries, so nothing was loaded or simulated again.
    assert run["cache/misses"] == 2 * len(BENCHES)
    assert run["cache/hits"] == 0
    assert run["parent/peak_rss_mb"] > 0
    assert session.failures == []


@pytest.mark.parametrize("path", ["no-journal", "warm"])
def test_unjournaled_runs_keep_no_trace(tmp_path, monkeypatch, lazy_texts,
                                        path):
    """``experiment --no-journal`` (``run_experiments`` without a
    journal) and ``check``/``report`` (``Session.warm(1)``) go through
    the engine too, so their parent keeps no trace either."""
    refs = _spy(monkeypatch)
    session = _session(tmp_path)
    if path == "warm":
        session.warm(1)
        texts = {exp_id: run_experiment(exp_id, session).text
                 for exp_id in EXHIBITS}
    else:
        texts = {result.exp_id: result.text
                 for result in run_experiments(EXHIBITS, session)}
    assert len(refs) == len(BENCHES) * (2 + 8)
    _assert_all_dead(refs)
    assert session._traces == {} and session._annotated == {}
    assert texts == lazy_texts
    assert session.metrics.run_counters()["cache/misses"] == \
        2 * len(BENCHES)
    assert session.failures == []


def test_resumed_run_reduces_its_checkpoints(tmp_path, monkeypatch,
                                             lazy_texts):
    _run(tmp_path, "resumed")
    refs = _spy(monkeypatch)
    decode = RunJournal._decode
    decoded: list = []

    def spy_decode(self, *args):
        # Checkpoints load as the engine reduces them, not all at once:
        # while one is decoded, at most the one before is still held.
        _assert_all_dead([ref for refs in decoded[:-1] for ref in refs])
        result = decode(self, *args)
        decoded.append([weakref.ref(annotation)
                        for annotation in result.annotated.values()])
        return result

    monkeypatch.setattr(RunJournal, "_decode", spy_decode)
    session, texts = _run(tmp_path, "resumed", resume=True)
    # Every benchmark came back from its checkpoint: its cached traces
    # were memory-mapped to be digested and summarized, then dropped.
    assert len(decoded) == len(BENCHES)
    assert refs
    _assert_all_dead(refs + [ref for refs in decoded for ref in refs])
    assert session._traces == {} and session._annotated == {}
    assert texts == lazy_texts
    assert session.failures == []


def test_failed_benchmark_pins_no_trace(tmp_path, monkeypatch):
    # A failure recorded in the parent keeps its cause, not the
    # traceback whose frames would hold the shard's traces.
    monkeypatch.setenv("REPRO_SABOTAGE", "compress:annotate")
    refs = _spy(monkeypatch)
    session, texts = _run(tmp_path, "sabotaged")
    assert {failure.benchmark for failure in session.failures} == \
        {"compress"}
    assert "compress [ppc] omitted -- annotate stage failed" in texts["tab3"]
    _assert_all_dead(refs)


def test_waiting_shard_holds_no_decode(tmp_path, monkeypatch, lazy_texts):
    """Once a shard's model groups are forked, the children hold what its
    traces memoize (their decodes, say), so the parent drops its copy
    while the shard waits for them."""
    from repro.harness import children
    from repro.trace import records
    monkeypatch.setattr(children, "usable_cpus", lambda: 2)
    held = []
    payload = parallel._Shard.payload

    def spy_payload(self):
        held.extend(trace in records._MEMO
                    for trace in self.session._traces.values())
        return payload(self)

    monkeypatch.setattr(parallel._Shard, "payload", spy_payload)
    session, texts = _run(tmp_path, "waiting")
    assert held == [False] * 2 * len(BENCHES)
    assert texts == lazy_texts
