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

import json
import multiprocessing
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.errors import (
    BenchmarkFailure,
    ConfigError,
    JournalError,
    ProtocolError,
)
from repro.harness.journal import replay_journal
from repro.harness.sweep import (
    StageMemo,
    SweepJournal,
    SweepObserver,
    build_sweep_manifest,
    compare_sweep_bench,
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
    validate_sweep_bench,
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
            _assert_cell_matches(cell, annotate_trace(compress_trace,
                                                      config))

    def test_grep_trace_too(self, grep_trace):
        cells = evaluate_configs(grep_trace, MIXED_GRID,
                                 keep_outcomes=True)
        for cell, config in zip(cells, MIXED_GRID):
            _assert_cell_matches(cell, annotate_trace(grep_trace, config))

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
        assert "11 configurations" in summary
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

    def chunk_finished(self, spec, cells):
        self.payloads[spec.chunk_id] = cells


class TestTraceOncePerSweep:
    """``run_sweep`` simulates, sentinel-checks and decodes each trace
    once per call, however many chunks the grid splits into."""

    @pytest.fixture
    def counts(self, clean_env):
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

        # The guard imports run_program at call time, and forked pool
        # workers inherit both wrappers.
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


class TestStageMemo:
    @pytest.mark.parametrize("chunk_size", [1, 3, 16])
    def test_chunked_with_shared_memo_matches_one_call(
            self, compress_trace, chunk_size, monkeypatch):
        import repro.harness.sweep as sweep_module
        grid = sensitivity_grid()
        whole = evaluate_configs(compress_trace, grid, keep_outcomes=True)

        passes = {"a": 0, "b": 0}
        stage_a, stage_b = sweep_module.run_stage_a, \
            sweep_module.run_stage_b

        def count(stage, function):
            def counted(*args, **kwargs):
                passes[stage] += 1
                return function(*args, **kwargs)
            return counted

        monkeypatch.setattr(sweep_module, "run_stage_a",
                            count("a", stage_a))
        monkeypatch.setattr(sweep_module, "run_stage_b",
                            count("b", stage_b))
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
        # Chunking no longer repeats a stage pass: one per distinct key.
        assert passes == {"a": len({predictor_key(c) for c in grid}),
                          "b": len({lct_key(c) for c in grid})}


class TestSweepJournalUnit:
    def _manifest(self, grid):
        return build_sweep_manifest("compress", "ppc", "tiny", grid,
                                    chunk_size=4, jobs=1)

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
        grid = sensitivity_grid()[:8]
        journal = SweepJournal.create(tmp_path, "run", self._manifest(grid))
        spec_cells = [{"name": "x"}]
        from repro.harness.sweep import _SweepChunkSpec
        spec = _SweepChunkSpec(chunk_id=0, configs=())
        journal.chunk_finished(spec, spec_cells)
        assert journal.load_checkpoints() == {0: spec_cells}
        checkpoint = journal.directory / "checkpoints" / "chunk-0.json"
        checkpoint.write_text("[{\"name\": \"tampered\"}]")
        assert journal.load_checkpoints() == {}

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


class TestSweepBenchDocuments:
    GOOD = {
        "schema": "repro.sweep-bench/v1", "bench": "compress",
        "scale": "tiny", "configs": 100, "baseline_s": 0.8,
        "sweep_s": 0.2, "speedup": 4.0,
    }

    def test_valid_document_passes(self):
        assert validate_sweep_bench(dict(self.GOOD)) == []

    def test_small_grid_fails_validation(self):
        assert validate_sweep_bench(dict(self.GOOD, configs=50))

    def test_nonpositive_timing_fails(self):
        assert validate_sweep_bench(dict(self.GOOD, sweep_s=0.0))

    def test_floor_gate(self):
        document = dict(self.GOOD, speedup=2.5)
        regressions = compare_sweep_bench(document, dict(self.GOOD))
        assert any("floor" in r for r in regressions)

    def test_relative_gate(self):
        document = dict(self.GOOD, speedup=3.5)
        baseline = dict(self.GOOD, speedup=9.0)
        regressions = compare_sweep_bench(document, baseline,
                                          threshold=2.0)
        assert any("regressed" in r for r in regressions)
        assert compare_sweep_bench(document, baseline,
                                   threshold=3.0) == []


class TestServeSweepOp:
    def test_normalize_fills_defaults(self):
        from repro.serve.scheduler import normalize_params
        params = normalize_params("sweep", {"bench": "compress"},
                                  default_scale="tiny")
        assert params == {"bench": "compress", "scale": "tiny",
                          "target": "ppc", "grid": None, "limit": None}

    @pytest.mark.parametrize("params", [
        {"bench": "nope"},
        {"bench": "compress", "grid": 7},
        {"bench": "compress", "grid": "wat=3"},
        {"bench": "compress", "limit": 0},
        {"bench": "compress", "limit": 513},
        {"bench": "compress", "limit": True},
    ])
    def test_normalize_rejects(self, params):
        from repro.serve.scheduler import normalize_params
        with pytest.raises(ProtocolError):
            normalize_params("sweep", params, default_scale="tiny")

    def test_compute_sweep_op(self):
        from repro.serve.scheduler import _compute_sim_op
        payload = _compute_sim_op("sweep", {
            "bench": "compress", "scale": "tiny", "target": "ppc",
            "grid": "lvpt=256,1024;bits=1,2", "limit": None,
        })
        result = payload["result"]
        assert result["configs"] == 4
        assert len(result["cells"]) == 4
        assert all(cell["outcome_digest"] for cell in result["cells"])


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
        checkpoints = (tmp_path / ".repro" / "sweeps" / "crash"
                       / "checkpoints")
        assert len(list(checkpoints.glob("chunk-*.json"))) == 1
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
