"""The sweep engine's differential and resilience suite.

The one claim everything here defends: a sweep cell is *bit-identical*
to a standalone ``annotate_trace`` run of the same configuration --
outcomes array, outcome mix, and every LVP counter.  The differential
tests sweep a deliberately mixed mini-grid (deep history, stride, fcm,
lastn, hybrid, gshare, tagged, 1-bit LCT, zero CVU) against the
reference unit; the CLI drills reuse the ``test_resume.py`` pattern --
crash a journaled sweep with ``REPRO_JOURNAL_CRASH_AFTER``, resume it,
and diff against an uninterrupted control run, serially and under
``--jobs 4``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import multiprocessing
import os
import signal
import subprocess
import sys

import numpy as np
import pytest

from repro.errors import (
    BenchmarkFailure,
    ConfigError,
    JournalError,
)
from repro.harness.journal import replay_journal
from repro.harness.sweep import (
    StageMemo,
    SweepJournal,
    SweepObserver,
    _SweepChunkSpec,
    build_sweep_manifest,
    decode_events,
    evaluate_configs,
    lct_key,
    plan_chunks,
    predictor_key,
    render_exhibits,
    render_sweep,
    run_journaled_sweep,
    run_sweep,
    validate_sweep,
)
from repro.lvp import (
    LVPConfig,
    PERFECT,
    expand_grid,
    grid_from_args,
    parse_grid_spec,
    sensitivity_grid,
)
from repro.lvp.unit import LVPStats
from repro.trace.annotate import annotate_trace

SRC = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "..", "src"))

#: Every structural corner of the factored data flow in one mini-grid.
MIXED_GRID = (
    LVPConfig(name="m/simple"),
    LVPConfig(name="m/deep", history_depth=4, lvpt_entries=256),
    LVPConfig(name="m/bits1", lct_bits=1, cvu_entries=128),
    LVPConfig(name="m/nocvu", cvu_entries=0),
    LVPConfig(name="m/stride", predictor="stride", cvu_entries=128),
    LVPConfig(name="m/fcm", predictor="fcm", history_depth=4),
    LVPConfig(name="m/lastn", predictor="lastn", history_depth=4),
    LVPConfig(name="m/hybrid", predictor="hybrid"),
    LVPConfig(name="m/gshare", index_mode="gshare", ghr_bits=8),
    LVPConfig(name="m/tagged", lvpt_tagged=True),
    LVPConfig(name="m/oracle", selection="perfect", history_depth=16,
              lvpt_entries=4096),
    # Shapes whose canonical keys merge with another pass (deep MRU is
    # depth 1, last-N at depth 1 is last value) or whose CVU replay is
    # shared (a CVU larger than any trace's constant set never evicts;
    # a two-entry one always does).
    LVPConfig(name="m/gshare-deep", index_mode="gshare", ghr_bits=8,
              history_depth=4),
    LVPConfig(name="m/tagged-deep", lvpt_tagged=True, history_depth=4),
    LVPConfig(name="m/gshare-tagged", index_mode="gshare",
              lvpt_tagged=True, history_depth=2),
    LVPConfig(name="m/lastn1", predictor="lastn", history_depth=1),
    LVPConfig(name="m/cvu-huge", cvu_entries=8192),
    LVPConfig(name="m/cvu2", cvu_entries=2),
    # Perfect selection on tagged/gshare tables (a restarting or
    # gshare grouping under the forward-fill rounds).
    LVPConfig(name="m/oracle-tagged", selection="perfect",
              history_depth=4, lvpt_tagged=True),
    LVPConfig(name="m/oracle-gshare", selection="perfect",
              history_depth=4, index_mode="gshare"),
)

#: Counter fields whose equality the differential suite asserts.
COUNTER_FIELDS = (
    "predictable_predicted", "predictable_not_predicted",
    "unpredictable_predicted", "unpredictable_not_predicted",
    "cvu_insertions", "cvu_store_invalidations",
    "cvu_demotions", "cvu_stale_hits",
)


def _assert_cell_matches(cell, annotated) -> None:
    reference: LVPStats = annotated.stats
    assert np.array_equal(cell.outcomes, annotated.outcomes), \
        cell.config.name
    assert cell.stats.outcomes == reference.outcomes, cell.config.name
    assert cell.stats.loads == reference.loads
    assert cell.stats.stores == reference.stores
    for field in COUNTER_FIELDS:
        assert getattr(cell.stats, field) == getattr(reference, field), \
            f"{cell.config.name}: {field}"


class TestDifferential:
    def test_mixed_grid_matches_annotate_trace(self, compress_trace):
        cells = evaluate_configs(compress_trace, MIXED_GRID,
                                 keep_outcomes=True)
        for cell, config in zip(cells, MIXED_GRID):
            _assert_cell_matches(cell, annotate_trace(
                compress_trace, config, kernel="general"))

    def test_grep_trace_too(self, grep_trace):
        cells = evaluate_configs(grep_trace, MIXED_GRID,
                                 keep_outcomes=True)
        for cell, config in zip(cells, MIXED_GRID):
            _assert_cell_matches(cell, annotate_trace(
                grep_trace, config, kernel="general"))

    def test_shared_decode_is_reused(self, compress_trace):
        events = decode_events(compress_trace)
        direct = evaluate_configs(compress_trace, MIXED_GRID[:3])
        shared = evaluate_configs(compress_trace, MIXED_GRID[:3],
                                  memo=StageMemo(events))
        assert [c.outcome_digest for c in direct] == \
            [c.outcome_digest for c in shared]

    def test_perfect_config_is_rejected(self, compress_trace):
        with pytest.raises(ConfigError):
            evaluate_configs(compress_trace, [PERFECT])


class TestGrid:
    def test_sensitivity_grid_is_large_and_unique(self):
        grid = sensitivity_grid()
        assert len(grid) >= 100
        names = [config.name for config in grid]
        assert len(names) == len(set(names))

    def test_expand_skips_invalid_combinations(self):
        configs = expand_grid({"predictor": ["stride", "history"],
                               "depth": [1, 4]})
        # stride rejects depth 4: three valid cells survive, no raise.
        assert len(configs) == 3

    def test_parse_grid_spec(self):
        dims = parse_grid_spec("lvpt=256,1024;bits=1,2;cvu=0")
        assert dims == {"lvpt_entries": [256, 1024],
                        "lct_bits": [1, 2], "cvu_entries": [0]}

    @pytest.mark.parametrize("spec", [
        "", "nonsense", "lvpt=", "wat=3", "lvpt=abc",
        "predictor=bogus",
    ])
    def test_bad_specs_raise(self, spec):
        with pytest.raises(ConfigError):
            parse_grid_spec(spec)

    def test_grid_from_args_limit(self):
        assert len(grid_from_args(None, 7)) == 7
        assert len(grid_from_args("lvpt=256,1024,4096", 2)) == 2

    def test_grid_spec_cells_carry_digests(self, compress_trace):
        grid = grid_from_args("lvpt=256,1024;bits=1,2", None)
        cells = evaluate_configs(compress_trace, grid)
        assert len(cells) == 4
        assert all(cell.outcome_digest for cell in cells)

    def test_chunk_plan_covers_every_index_once(self):
        grid = sensitivity_grid()
        chunks = plan_chunks(grid, 16)
        flat = sorted(i for chunk in chunks for i in chunk)
        assert flat == list(range(len(grid)))


class TestRunSweep:
    def test_serial_vs_parallel_identical(self, tmp_path):
        grid = grid_from_args("lvpt=256,1024;bits=1,2;cvu=0,32", None)
        serial = run_sweep("compress", grid, scale="tiny", jobs=1,
                           cache_dir=str(tmp_path), chunk_size=3)
        parallel = run_sweep("compress", grid, scale="tiny", jobs=4,
                             cache_dir=str(tmp_path), chunk_size=3)
        for doc in (serial, parallel):
            assert validate_sweep(doc) == []
            for volatile in ("wall_s", "jobs"):
                doc.pop(volatile)
        assert serial == parallel

    def test_renderers_cover_all_families(self, tmp_path):
        grid = list(MIXED_GRID)
        document = run_sweep("compress", grid, scale="tiny", jobs=1,
                             cache_dir=str(tmp_path))
        summary = render_sweep(document)
        assert f"{len(MIXED_GRID)} configurations" in summary
        exhibits = render_exhibits(document)
        assert "Figure 6 family" in exhibits
        assert "Table 3 family" in exhibits
        assert "Table 4 family" in exhibits
        assert "gshare" in exhibits
        assert "history/oracle" in exhibits

    def test_validate_flags_damage(self):
        assert validate_sweep({"schema": "wrong"})
        assert validate_sweep({"schema": "repro.sweep/v1", "cells": []})


#: A small grid that still spans several chunks and both decode shapes.
CHUNKED_GRID = MIXED_GRID[:4] + MIXED_GRID[8:10]


@pytest.fixture
def clean_env(monkeypatch):
    """No REPRO_* knob leaks in: auto tiers, no cache, no sabotage."""
    for key in list(os.environ):
        if key.startswith("REPRO_"):
            monkeypatch.delenv(key)
    return monkeypatch


def _volatile_free(document: dict) -> str:
    document = {key: value for key, value in document.items()
                if key not in ("wall_s", "jobs", "run_id")}
    return json.dumps(document, sort_keys=True)


class _Recorder(SweepObserver):
    def __init__(self):
        self.payloads = {}

    def chunk_finished(self, *finished):
        for spec, cells in finished:
            self.payloads[spec.chunk_id] = cells


class TestTraceOncePerSweep:
    """``run_sweep`` simulates, sentinel-checks and decodes each trace
    once per call, however many chunks the grid splits into."""

    @pytest.fixture
    def counts(self, clean_env, one_cpu):
        import repro.harness.sweep as sweep_module
        import repro.sim.functional as functional
        counts = {"compiled": 0, "interp": 0, "decode": 0}
        parent = os.getpid()
        run_program, decode = functional.run_program, \
            sweep_module.decode_events

        def counted_run_program(*args, **kwargs):
            assert os.getpid() == parent, "a sweep worker simulated"
            counts[kwargs.get("engine")] += 1
            return run_program(*args, **kwargs)

        def counted_decode(*args, **kwargs):
            counts["decode"] += 1
            return decode(*args, **kwargs)

        # The guard imports run_program at call time, and forked share
        # children inherit both wrappers.
        clean_env.setattr(functional, "run_program", counted_run_program)
        clean_env.setattr(sweep_module, "decode_events", counted_decode)
        clean_env.setenv("REPRO_SENTINEL_RATE", "1")
        return counts

    def test_serial_sweep_simulates_and_decodes_each_trace_once(
            self, counts):
        benches = ("grep", "compress")
        for bench in benches:
            run_sweep(bench, CHUNKED_GRID, scale="tiny", chunk_size=2)
        # One compiled run and one sentinel re-run per trace, not per
        # chunk (three chunks each).
        assert counts == {"compiled": len(benches),
                          "interp": len(benches),
                          "decode": len(benches)}

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="counting inside workers relies on forked wrappers")
    @pytest.mark.parametrize("cached", [False, True])
    def test_parallel_workers_never_simulate(self, counts, tmp_path,
                                             cached):
        run_sweep("compress", CHUNKED_GRID, scale="tiny", jobs=2,
                  chunk_size=2,
                  cache_dir=str(tmp_path) if cached else None)
        assert counts["compiled"] == 1 and counts["interp"] == 1

    def test_fully_preloaded_resume_makes_no_calls(self, counts):
        recorder = _Recorder()
        control = run_sweep("compress", CHUNKED_GRID, scale="tiny",
                            chunk_size=2, observer=recorder)
        counts.update(compiled=0, interp=0, decode=0)
        resumed = run_sweep("compress", CHUNKED_GRID, scale="tiny",
                            chunk_size=2, preloaded=recorder.payloads)
        assert counts == {"compiled": 0, "interp": 0, "decode": 0}
        assert _volatile_free(resumed) == _volatile_free(control)


class TestSweepFailureAndResume:
    def test_sabotaged_trace_fails_once_then_resumes(self, clean_env,
                                                     tmp_path):
        grid = list(CHUNKED_GRID)
        manifest = build_sweep_manifest("compress", "ppc", "tiny", grid,
                                        chunk_size=2, jobs=1)
        journal = SweepJournal.create(tmp_path, "broken", manifest)
        clean_env.setenv("REPRO_SABOTAGE", "compress:trace")
        with pytest.raises(BenchmarkFailure):
            run_journaled_sweep("compress", grid, journal=journal,
                                scale="tiny")
        kinds = [record["type"]
                 for record in replay_journal(journal.journal_path)]
        assert kinds == ["run_started"] + ["planned"] * manifest["chunks"]

        clean_env.delenv("REPRO_SABOTAGE")
        resumed = run_journaled_sweep(
            "compress", grid, journal=SweepJournal.open(tmp_path, "broken"),
            scale="tiny", resume=True)
        control = run_sweep("compress", grid, scale="tiny", chunk_size=2)
        assert _volatile_free(resumed) == _volatile_free(control)

    def test_failed_checkpoint_chunk_is_recomputed_on_resume(
            self, clean_env, tmp_path):
        """A full disk under chunk 1's ``done`` append does not stop the
        sweep: the journal degrades and stops there.  Resuming
        recomputes just the chunks it could not attest, and both
        documents equal an uninterrupted run."""
        import errno
        _pin_cpus(clean_env, 2)
        grid = list(CHUNKED_GRID)
        manifest = build_sweep_manifest("compress", "ppc", "tiny", grid,
                                        chunk_size=2, jobs=1)
        journal = SweepJournal.create(tmp_path, "full", manifest)
        real_write = os.write

        def enospc_chunk_1(fd, data):
            if fd == journal._fd \
                    and b'"chunk":1,"type":"done"' in bytes(data):
                raise OSError(errno.ENOSPC, "No space left on device")
            return real_write(fd, data)

        with clean_env.context() as patch:
            patch.setattr(os, "write", enospc_chunk_1)
            first = run_journaled_sweep("compress", grid, journal=journal,
                                        scale="tiny")
        journal.finished(0)
        assert journal._degraded
        # Three chunks in two shares: chunk 0 here, chunks 1 and 2 in a
        # child, journalled done in one append that the disk refused.
        assert sorted(journal.completed()) == [0]

        reopened = SweepJournal.open(tmp_path, "full")
        recomputed = _Recorder()
        reopened_finished = reopened.chunk_finished

        def observe(*finished):
            recomputed.chunk_finished(*finished)
            reopened_finished(*finished)

        reopened.chunk_finished = observe
        resumed = run_journaled_sweep("compress", grid, journal=reopened,
                                      scale="tiny", resume=True)
        assert list(recomputed.payloads) == [1, 2]
        assert sorted(reopened.completed()) == [0, 1, 2]
        control = run_sweep("compress", grid, scale="tiny", chunk_size=2)
        assert _volatile_free(first) == _volatile_free(control)
        assert _volatile_free(resumed) == _volatile_free(control)

    def test_resume_ignores_checkpoints_of_another_chunk_order(
            self, clean_env, tmp_path, compress_trace):
        """Chunks journalled under a different chunk order (an older
        planner) must not land on the current plan's rows: a chunk whose
        cell names differ from its planned configurations is re-run."""
        grid = list(CHUNKED_GRID)
        manifest = build_sweep_manifest("compress", "ppc", "tiny", grid,
                                        chunk_size=2, jobs=1)
        journal = SweepJournal.create(tmp_path, "old", manifest)
        plan = plan_chunks(grid, 2)
        assert len(plan) == 3
        # The old planner's chunk k is the current plan's chunk k + 1.
        for chunk_id in (0, 1):
            configs = tuple(grid[j] for j in plan[chunk_id + 1])
            cells = [cell.as_dict() for cell in
                     evaluate_configs(compress_trace, configs)]
            journal.chunk_finished(
                (_SweepChunkSpec(chunk_id=chunk_id, configs=configs), cells))
        resumed = run_journaled_sweep(
            "compress", grid, journal=SweepJournal.open(tmp_path, "old"),
            scale="tiny", resume=True)
        control = run_sweep("compress", grid, scale="tiny", chunk_size=2)
        assert _volatile_free(resumed) == _volatile_free(control)

    def test_serial_and_parallel_with_and_without_cache_agree(
            self, clean_env, tmp_path):
        grid = list(CHUNKED_GRID)
        documents = [
            run_sweep("compress", grid, scale="tiny", chunk_size=2),
            run_sweep("compress", grid, scale="tiny", chunk_size=2,
                      jobs=2),
            run_sweep("compress", grid, scale="tiny", chunk_size=2,
                      jobs=2, cache_dir=str(tmp_path)),
        ]
        assert (tmp_path / "compress-ppc-tiny.rtc").exists()
        first = _volatile_free(documents[0])
        assert all(_volatile_free(doc) == first for doc in documents[1:])


class TestChunkChildren:
    """The chunks left to run are cut into contiguous shares, one per
    computing process (*jobs*, or every usable CPU at ``jobs=1``): the
    parent evaluates the first and forks a child, inheriting its trace,
    decode and memo, for each of the others.  Every chunk is journalled
    ``started`` in one append before any share runs, each share's
    ``done`` records in one append, in chunk order, and a share whose
    child died is evaluated in the parent."""

    def test_killed_chunk_child_is_rerun_inline(self, clean_env):
        import repro.harness.sweep as sweep_module
        grid = list(CHUNKED_GRID)
        with clean_env.context() as patch:
            _pin_cpus(patch, 1)
            serial = run_sweep("compress", grid, scale="tiny", chunk_size=2)
        # Three chunks in two shares: chunk 0, evaluated here, then
        # chunks 1 and 2.  The second share's child dies on its last
        # cell, after finishing chunk 1, and the parent evaluates that
        # whole share again.
        plan = plan_chunks(grid, 2)
        victim = grid[plan[2][-1]].name
        parent = os.getpid()
        inline = []
        original = sweep_module._Replay.cell

        def cell(self, config):
            if os.getpid() != parent:
                if config.name == victim:
                    os.kill(os.getpid(), signal.SIGKILL)
            else:
                inline.append(config.name)
            return original(self, config)

        clean_env.setattr(sweep_module._Replay, "cell", cell)
        parallel = run_sweep("compress", grid, scale="tiny", chunk_size=2,
                             jobs=2)
        assert inline == [grid[j].name
                          for j in plan[0] + plan[1] + plan[2]]
        assert _volatile_free(parallel) == _volatile_free(serial)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_at_most_jobs_children_and_ordered_journal(self, clean_env,
                                                       tmp_path):
        forks = _count_forks(clean_env)
        grid = list(CHUNKED_GRID)
        journal = SweepJournal.create(tmp_path, "run", build_sweep_manifest(
            "compress", "ppc", "tiny", grid, chunk_size=2, jobs=2))
        run_journaled_sweep("compress", grid, journal=journal, scale="tiny",
                            jobs=2)
        # Three chunks, two shares: the parent evaluates the first and
        # forks one child for the second.
        assert forks == [0]
        # Every chunk starts before any share runs; done records follow
        # in chunk order.
        records = replay_journal(journal.journal_path)
        assert [(r["type"], r["chunk"]) for r in records
                if r["type"] in ("started", "done")] == [
            ("started", 0), ("started", 1), ("started", 2),
            ("done", 0), ("done", 1), ("done", 2)]

    @pytest.mark.parametrize("chunk_size, children", [(2, 1), (3, 1),
                                                      (6, 0)])
    def test_default_sweep_forks_one_child_per_other_cpu(
            self, clean_env, chunk_size, children):
        """At two usable CPUs a default sweep computes in min(2, chunks)
        processes, this one included: one child at two or more chunks,
        none for a single chunk."""
        _pin_cpus(clean_env, 2)
        forks = _count_forks(clean_env)
        document = run_sweep("compress", list(CHUNKED_GRID), scale="tiny",
                             chunk_size=chunk_size)
        assert len(forks) == children
        assert document["jobs"] == children + 1

    def test_journaled_sweep_io_budget(self, clean_env, tmp_path):
        """At two CPUs a journaled sweep writes two files, forks one
        child and fsyncs once per batch of records: the opening records
        and ``LATEST``, every chunk's ``started``, each share's ``done``
        records, and ``run_finished``."""
        grid = list(CHUNKED_GRID)
        with clean_env.context() as patch:
            _pin_cpus(patch, 1)
            serial = run_sweep("compress", grid, scale="tiny", chunk_size=2)
        _pin_cpus(clean_env, 2)
        forks = _count_forks(clean_env)
        fsyncs, real_fsync = [], os.fsync
        clean_env.setattr(os, "fsync", lambda fd: (
            fsyncs.append(fd), real_fsync(fd))[1])
        manifest = build_sweep_manifest("compress", "ppc", "tiny", grid,
                                        chunk_size=2, jobs=1)
        assert manifest["chunks"] == 3
        journal = SweepJournal.create(tmp_path, "run", manifest)
        document = run_journaled_sweep("compress", grid, journal=journal,
                                       scale="tiny")
        journal.finished(0)
        assert sorted(os.listdir(journal.directory)) == [
            "journal.jsonl", "manifest.json"]
        shares = 2
        assert len(fsyncs) == 2 + 1 + shares + 1
        assert len(forks) == 1
        assert _volatile_free(document) == _volatile_free(serial)


def _pin_cpus(monkeypatch, cpus: int) -> None:
    """Make the sweep see *cpus* usable CPUs."""
    from repro.harness import children
    monkeypatch.setattr(children, "usable_cpus", lambda: cpus)


def _count_forks(monkeypatch) -> list:
    """Children already running at each ``os.fork``, as a list."""
    from repro.harness import children
    running_at_fork = []
    real_fork = os.fork

    def fork():
        running_at_fork.append(len(children._LIVE))
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    return running_at_fork


@pytest.fixture
def one_cpu(monkeypatch):
    """Evaluate every chunk in this process: spies that count calls in
    the parent would miss those a share child makes."""
    _pin_cpus(monkeypatch, 1)


def _expected_replays(trace, grid) -> int:
    """Stage-C replays the sharing rule allows for *grid* over *trace*.

    Per stage-B key, let P be the CAM's peak occupancy with unbounded
    capacity.  A replay at any capacity >= P never evicts and serves
    all of them; each smaller capacity (zero included, when any load is
    classified constant) replays on its own.
    """
    from repro.trace import kernels
    events = decode_events(trace, branches=True)
    groups: dict = {}
    for config in grid:
        groups.setdefault(lct_key(config), []).append(config)
    expected = 0
    for configs in groups.values():
        config = configs[0]
        hits, idxs = kernels.run_stage_a(events, config)
        context = kernels.LctContext(hits, kernels.run_stage_b(
            events, hits, config.lct_entries, config.lct_bits))
        unbounded = dataclasses.replace(config, cvu_entries=events.n_loads)
        peak = kernels.run_stage_c(events, hits, idxs, context,
                                   unbounded)[2]
        capacities = {c.cvu_entries for c in configs}
        expected += len({c for c in capacities if c < peak})
        expected += any(c >= peak for c in capacities)
    return expected


@pytest.mark.usefixtures("one_cpu")
class TestStageMemo:
    @pytest.mark.parametrize("chunk_size", [1, 3, 16])
    def test_chunked_with_shared_memo_matches_one_call(
            self, compress_trace, chunk_size, monkeypatch):
        import repro.harness.sweep as sweep_module
        grid = sensitivity_grid()
        whole = evaluate_configs(compress_trace, grid, keep_outcomes=True)
        expected_c = _expected_replays(compress_trace, grid)

        passes = {"a": 0, "b": 0, "c": 0}

        def count(stage, function):
            def counted(*args, **kwargs):
                passes[stage] += 1
                return function(*args, **kwargs)
            return counted

        for stage in ("a", "b", "c"):
            name = f"run_stage_{stage}"
            monkeypatch.setattr(sweep_module, name,
                                count(stage, getattr(sweep_module, name)))
        memo = StageMemo(decode_events(compress_trace, branches=True))
        chunked = {}
        for indices in plan_chunks(grid, chunk_size):
            configs = [grid[i] for i in indices]
            memo.retain(configs)
            cells = evaluate_configs(compress_trace, configs,
                                     keep_outcomes=True, memo=memo)
            chunked.update(zip(indices, cells))

        for i, cell in enumerate(whole):
            other = chunked[i]
            assert other.as_dict() == cell.as_dict(), cell.config.name
            assert np.array_equal(other.outcomes, cell.outcomes)
        # Chunking never repeats a stage pass: one per distinct
        # canonical key, and one CVU replay per capacity class the
        # sharing rule leaves (a deterministic count: 38 of the grid's
        # 102 cells on the compress tiny trace).
        assert passes == {"a": len({predictor_key(c) for c in grid}),
                          "b": len({lct_key(c) for c in grid}),
                          "c": expected_c}
        assert expected_c == 38

    def test_shared_cells_do_not_alias(self, compress_trace):
        small, large = (LVPConfig(name=f"cvu{n}", cvu_entries=n)
                        for n in (4096, 8192))
        first, second = evaluate_configs(compress_trace, [small, large],
                                         keep_outcomes=True)
        assert first.outcome_digest == second.outcome_digest
        assert first.stats is not second.stats
        assert first.stats.outcomes is not second.stats.outcomes
        assert not np.shares_memory(first.outcomes, second.outcomes)

    def test_canonical_keys_merge_provably_equal_shapes(self):
        base = LVPConfig(name="base")
        for other in (
                LVPConfig(name="deep", history_depth=8),
                LVPConfig(name="one", selection="perfect"),
                LVPConfig(name="lastn1", predictor="lastn")):
            assert predictor_key(other) == predictor_key(base), other.name
        gshare = LVPConfig(name="g", index_mode="gshare", lvpt_tagged=True)
        deep = LVPConfig(name="gd", index_mode="gshare", lvpt_tagged=True,
                         history_depth=4)
        assert predictor_key(deep) == predictor_key(gshare)
        # Perfect selection over a deep history is a different predictor.
        oracle = LVPConfig(name="o", selection="perfect", history_depth=4)
        assert predictor_key(oracle) != predictor_key(base)


class TestSweepJournalUnit:
    def _manifest(self, grid):
        return build_sweep_manifest("compress", "ppc", "tiny", grid,
                                    chunk_size=4, jobs=1)

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
        grid = sensitivity_grid()[:8]
        journal = SweepJournal.create(tmp_path, "run", self._manifest(grid))
        records = [{"type": "run_started", "run_id": "run"},
                   {"type": "planned", "chunk": 0},
                   {"type": "planned", "chunk": 1}]
        expected = b"".join(journal_mod._encode_record(r) for r in records)
        assert writes == [expected]
        assert len(fsyncs) == 1
        assert journal.journal_path.read_bytes() == expected

    def test_fingerprint_detects_tampering(self, tmp_path):
        grid = sensitivity_grid()[:8]
        journal = SweepJournal.create(tmp_path, "run", self._manifest(grid))
        manifest_path = journal.directory / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["bench"] = "grep"
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(JournalError):
            SweepJournal.open(tmp_path, "run")

    def test_version_mismatch_refuses_resume(self, tmp_path):
        grid = sensitivity_grid()[:8]
        journal = SweepJournal.create(tmp_path, "run", self._manifest(grid))
        manifest_path = journal.directory / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["version"] = "0.0.0-ancient"
        manifest["fingerprint"] = SweepJournal.fingerprint(manifest)
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(JournalError):
            SweepJournal.open(tmp_path, "run")

    def test_damaged_checkpoint_is_not_loaded(self, tmp_path):
        """A chunk's cells live in its ``done`` line, under the line's
        CRC: tampered cells in the trailing line are dropped, so the
        chunk re-runs."""
        grid = sensitivity_grid()[:8]
        journal = SweepJournal.create(tmp_path, "run", self._manifest(grid))
        spec_cells = [{"name": "x"}]
        spec = _SweepChunkSpec(chunk_id=0, configs=())
        journal.chunk_finished((spec, spec_cells))
        assert journal.load_cells() == {0: spec_cells}
        assert sorted(os.listdir(journal.directory)) == [
            "journal.jsonl", "manifest.json"]
        path = journal.journal_path
        path.write_bytes(path.read_bytes().replace(
            b'"name":"x"', b'"name":"tampered"'))
        assert journal.load_cells() == {}

    def test_latest_follows_pointer_not_sort_order(self, tmp_path):
        """``latest`` is the newest *created* run, resolved through the
        locked pointer: a run directory whose id sorts after it (one
        still being created, or copied in) must not win, as it did
        when ``latest`` was the last name of a sorted scan."""
        grid = sensitivity_grid()[:8]
        SweepJournal.create(tmp_path, "20260101-000000-1-000",
                            self._manifest(grid))
        stray = tmp_path / "zz-in-flight"
        stray.mkdir()
        (stray / "manifest.json").write_text(
            (tmp_path / "20260101-000000-1-000" / "manifest.json")
            .read_text())
        journal = SweepJournal.open(tmp_path, "latest")
        assert journal.directory.name == "20260101-000000-1-000"

    def test_missing_run_errors(self, tmp_path):
        with pytest.raises(JournalError):
            SweepJournal.open(tmp_path, "latest")
        with pytest.raises(JournalError):
            SweepJournal.open(tmp_path, "nope")

    def test_journaled_sweep_opens_its_journal_once(self, clean_env,
                                                    tmp_path):
        real_open, opened = os.open, []

        def counting_open(path, *args, **kwargs):
            if str(path).endswith("journal.jsonl"):
                opened.append(path)
            return real_open(path, *args, **kwargs)

        grid = list(CHUNKED_GRID)
        manifest = build_sweep_manifest("compress", "ppc", "tiny", grid,
                                        chunk_size=4, jobs=1)
        assert manifest["chunks"] == 2
        clean_env.setattr(os, "open", counting_open)
        journal = SweepJournal.create(tmp_path, "run", manifest)
        run_journaled_sweep("compress", grid, journal=journal,
                            scale="tiny")
        journal.finished(0)
        assert len(opened) == 1
        kinds = [record["type"] for record in journal.replay()]
        assert kinds.count("done") == 2 and kinds[-1] == "run_finished"

    def test_finished_leaves_no_descriptor_open(self, tmp_path):
        def journal_fds(journal) -> list:
            fds = []
            for name in os.listdir("/proc/self/fd"):
                with contextlib.suppress(OSError):
                    if os.readlink(f"/proc/self/fd/{name}") == \
                            str(journal.journal_path):
                        fds.append(name)
            return fds

        if not os.path.isdir("/proc/self/fd"):
            pytest.skip("no /proc/self/fd on this platform")
        grid = sensitivity_grid()[:8]
        journal = SweepJournal.create(tmp_path, "run", self._manifest(grid))
        journal.chunk_finished((_SweepChunkSpec(chunk_id=0, configs=()),
                                [{"name": "x"}]))
        assert len(journal_fds(journal)) == 1
        journal.finished(0)
        assert journal_fds(journal) == []
        assert [r["type"] for r in journal.replay()][-1] == "run_finished"

    def test_resume_hint_names_the_sweep(self, tmp_path, monkeypatch,
                                         capfd):
        """The disk-full warning and the SIGINT/SIGTERM handler both
        print the journal's own resume command: ``repro sweep BENCH``,
        not ``repro experiment``."""
        import errno
        import signal

        from repro import cli
        grid = sensitivity_grid()[:8]
        journal = SweepJournal.create(tmp_path, "run", self._manifest(grid))
        hint = "repro sweep compress --resume run"
        assert journal.resume_command == hint

        def enospc(*args, **kwargs):
            raise OSError(errno.ENOSPC, "No space left on device")

        with monkeypatch.context() as patch:
            patch.setattr(os, "write", enospc)
            journal.append({"type": "started", "chunk": 0})
        assert f"\n  {hint}" in capfd.readouterr().err

        class Exited(Exception):
            pass

        def fake_exit(code):
            raise Exited(code)

        previous = cli._install_interrupt_handlers(journal)
        try:
            handler = signal.getsignal(signal.SIGINT)
            monkeypatch.setattr(cli.os, "_exit", fake_exit)
            with pytest.raises(Exited) as exited:
                handler(signal.SIGINT, None)
        finally:
            cli._restore_handlers(previous)
        assert exited.value.args == (128 + signal.SIGINT,)
        err = capfd.readouterr().err
        assert f"resume with:\n  {hint}\n" in err
        assert "repro experiment" not in err


# ---------------------------------------------------------------------------
# CLI crash/resume drills (whole-process, like tests/harness/test_resume).
# ---------------------------------------------------------------------------
SWEEP_ARGS = ("sweep", "compress", "--scale", "tiny",
              "--grid", "lvpt=256,1024;bits=1,2;cvu=0,32",
              "--chunk-size", "4")


def _env(extra=None):
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    env.update(extra or {})
    return env


def _cli(*argv, cwd, extra_env=None, timeout=600):
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True, env=_env(extra_env), cwd=cwd, timeout=timeout)


class TestCliCrashResume:
    @pytest.fixture(scope="class")
    def control(self, tmp_path_factory):
        """Uninterrupted journaled sweep stdout (the oracle)."""
        cwd = tmp_path_factory.mktemp("control")
        done = _cli(*SWEEP_ARGS, "--run-id", "control", cwd=cwd)
        assert done.returncode == 0, done.stderr.decode()
        return done.stdout

    def test_crash_then_resume_is_identical(self, tmp_path, control):
        crashed = _cli(*SWEEP_ARGS, "--run-id", "crash", cwd=tmp_path,
                       extra_env={"REPRO_JOURNAL_CRASH_AFTER": "1"})
        assert crashed.returncode == 23, crashed.stderr.decode()
        run = tmp_path / ".repro" / "sweeps" / "crash"
        done = [record for record in replay_journal(run / "journal.jsonl")
                if record["type"] == "done"]
        assert len(done) == 1 and done[0]["cells"]
        assert not (run / "checkpoints").exists()
        resumed = _cli(*SWEEP_ARGS, "--resume", "crash", cwd=tmp_path)
        assert resumed.returncode == 0, resumed.stderr.decode()
        assert resumed.stdout == control
        assert b"chunk" in resumed.stderr  # some chunks really re-ran

    def test_crash_resume_parallel(self, tmp_path, control):
        crashed = _cli(*SWEEP_ARGS, "--run-id", "crash", "--jobs", "4",
                       cwd=tmp_path,
                       extra_env={"REPRO_JOURNAL_CRASH_AFTER": "1"})
        assert crashed.returncode == 23, crashed.stderr.decode()
        resumed = _cli(*SWEEP_ARGS, "--resume", "crash", "--jobs", "4",
                       cwd=tmp_path)
        assert resumed.returncode == 0, resumed.stderr.decode()
        assert resumed.stdout == control

    def test_resume_recomputes_chunks_of_an_old_run_directory(
            self, tmp_path, control):
        """A run directory written when a chunk's cells lived in
        ``checkpoints/chunk-<id>.json``, named by digest from its
        ``done`` record: such a chunk counts as not done, and
        ``--resume`` recomputes it."""
        import hashlib

        from repro.harness.journal import _encode_record
        first = _cli(*SWEEP_ARGS, "--run-id", "old", cwd=tmp_path)
        assert first.returncode == 0, first.stderr.decode()
        run = tmp_path / ".repro" / "sweeps" / "old"
        (run / "checkpoints").mkdir()
        records = []
        for record in replay_journal(run / "journal.jsonl"):
            if record["type"] == "run_finished":
                continue  # the old run was interrupted
            if record["type"] == "done":
                data = json.dumps(record["cells"], sort_keys=True,
                                  separators=(",", ":")).encode()
                name = f"chunk-{record['chunk']}.json"
                (run / "checkpoints" / name).write_bytes(data)
                record = {"type": "done", "chunk": record["chunk"],
                          "digest": hashlib.sha256(data).hexdigest()}
            records.append(record)
        assert [r["chunk"] for r in records if r["type"] == "done"] == [0, 1]
        (run / "journal.jsonl").write_bytes(
            b"".join(_encode_record(record) for record in records))
        resumed = _cli(*SWEEP_ARGS, "--resume", "old", cwd=tmp_path)
        assert resumed.returncode == 0, resumed.stderr.decode()
        assert resumed.stdout == control
        assert b"chunk 1/2" in resumed.stderr
        assert b"chunk 2/2" in resumed.stderr

    def test_resume_with_different_grid_refuses(self, tmp_path):
        crashed = _cli(*SWEEP_ARGS, "--run-id", "crash", cwd=tmp_path,
                       extra_env={"REPRO_JOURNAL_CRASH_AFTER": "1"})
        assert crashed.returncode == 23
        resumed = _cli("sweep", "compress", "--scale", "tiny",
                       "--grid", "lvpt=256", "--resume", "crash",
                       cwd=tmp_path)
        assert resumed.returncode == 2
        assert b"different grid" in resumed.stderr

    def test_no_journal_matches_journaled_output(self, tmp_path, control):
        bare = _cli(*SWEEP_ARGS, "--no-journal", cwd=tmp_path)
        assert bare.returncode == 0, bare.stderr.decode()
        assert bare.stdout == control
