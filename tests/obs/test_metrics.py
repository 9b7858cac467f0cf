"""Unit tests for repro.obs: registry, schema, rendering, counters."""

from __future__ import annotations

import json
import time
from types import SimpleNamespace

import pytest

from repro.lvp.config import SIMPLE
from repro.lvp.unit import LoadOutcome
from repro.obs.metrics import (
    METRICS_ENV,
    MetricsRegistry,
    RUN_SCOPE,
    SCHEMA_ID,
    Span,
    load_metrics,
    metrics_enabled_from_env,
    write_metrics,
)
from repro.obs.render import SLOWEST_MARK, render_stats
from repro.obs.schema import validate_metrics


def _registry_with_content() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.add_many("grep", "sim/ppc/", {"instructions": 100, "loads": 20})
    registry.add_many("grep", "sim/alpha/", {"instructions": 101})
    registry.inc("quick", "sim/ppc/instructions", 7)
    registry.inc_run("cache/hits", 3)
    registry.record_span(Span("grep", "trace", "trace/grep/ppc",
                              10.0, 11.5, 42))
    registry.record_span(Span("grep", "model", "model/ppc/grep/620/base",
                              11.5, 12.0, 42))
    registry.record_span(Span(None, "report", "fig1", 12.0, 12.25, 42))
    return registry


class TestRegistry:
    def test_counters_accumulate(self):
        registry = MetricsRegistry()
        registry.inc("b", "x")
        registry.inc("b", "x", 4)
        registry.add_many("b", "pre/", {"x": 2})
        assert registry.benchmark_counters() == {"b": {"x": 5, "pre/x": 2}}

    def test_span_context_records_even_on_failure(self):
        registry = MetricsRegistry()
        with pytest.raises(RuntimeError):
            with registry.span("b", "trace", "trace/b/ppc"):
                raise RuntimeError("stage blew up")
        assert len(registry.spans) == 1
        span = registry.spans[0]
        assert (span.benchmark, span.phase) == ("b", "trace")
        assert span.end >= span.start

    def test_fragment_merge_is_order_independent(self):
        source_a = MetricsRegistry()
        source_a.inc("b1", "x", 2)
        source_a.inc_run("hits", 1)
        source_a.record_span(Span("b1", "trace", "t", 0.0, 1.0, 1))
        source_b = MetricsRegistry()
        source_b.inc("b1", "x", 3)
        source_b.inc("b2", "y", 5)

        forward = MetricsRegistry()
        forward.merge_fragment(source_a.fragment())
        forward.merge_fragment(source_b.fragment())
        backward = MetricsRegistry()
        backward.merge_fragment(source_b.fragment())
        backward.merge_fragment(source_a.fragment())
        assert forward.benchmark_counters() == backward.benchmark_counters()
        assert forward.benchmark_counters() == {"b1": {"x": 5},
                                                "b2": {"y": 5}}
        assert forward.run_counters() == {"hits": 1}

    def test_fragment_survives_pickling(self):
        import pickle
        fragment = _registry_with_content().fragment()
        restored = pickle.loads(pickle.dumps(fragment))
        merged = MetricsRegistry()
        merged.merge_fragment(restored)
        assert merged.benchmark_counters()["grep"]["sim/ppc/loads"] == 20
        assert len(merged.spans) == 3

    def test_phase_seconds_aggregates_by_scope(self):
        phases = _registry_with_content().phase_seconds()
        assert phases["grep"]["trace"] == pytest.approx(1.5)
        assert phases["grep"]["model"] == pytest.approx(0.5)
        assert phases[RUN_SCOPE]["report"] == pytest.approx(0.25)

    def test_env_knob(self, monkeypatch):
        monkeypatch.delenv(METRICS_ENV, raising=False)
        assert metrics_enabled_from_env() is False
        assert metrics_enabled_from_env(default=True) is True
        monkeypatch.setenv(METRICS_ENV, "0")
        assert metrics_enabled_from_env(default=True) is False
        monkeypatch.setenv(METRICS_ENV, "1")
        assert metrics_enabled_from_env() is True


class TestDocument:
    def test_round_trip_and_schema(self, tmp_path):
        document = _registry_with_content().to_document(
            run_id="r1", manifest={"scale": "tiny", "jobs": 2,
                                   "benchmarks": ["grep", "quick"],
                                   "exhibits": ["fig1"]})
        assert validate_metrics(document) == []
        assert document["schema"] == SCHEMA_ID
        assert document["context"]["scale"] == "tiny"
        path = write_metrics(tmp_path, document)
        assert path.name == "metrics.json"
        assert load_metrics(tmp_path) == json.loads(json.dumps(document))

    def test_load_missing_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_metrics(tmp_path)

    def test_validator_catches_damage(self):
        document = _registry_with_content().to_document(run_id="r1")
        assert validate_metrics(document) == []
        assert validate_metrics("not a mapping")
        assert validate_metrics({})
        broken = dict(document, schema="repro.obs/v999")
        assert any("schema" in e for e in validate_metrics(broken))
        broken = json.loads(json.dumps(document))
        broken["benchmarks"]["grep"]["sim/ppc/loads"] = "many"
        assert any("integer" in e for e in validate_metrics(broken))
        broken = json.loads(json.dumps(document))
        broken["spans"][0]["end"] = broken["spans"][0]["start"] - 1
        assert any("ends before" in e for e in validate_metrics(broken))
        broken = json.loads(json.dumps(document))
        del broken["spans"][0]["pid"]
        assert any("missing keys" in e for e in validate_metrics(broken))


class TestRender:
    def test_stats_render_marks_slowest_phase(self):
        document = _registry_with_content().to_document(run_id="r1")
        text = render_stats(document)
        assert "r1" in text
        assert SLOWEST_MARK.strip() in text
        assert "grep" in text
        # The run-scope counter section surfaces cache statistics.
        assert "cache/hits" in text

    def test_full_dump_lists_every_counter(self):
        document = _registry_with_content().to_document(run_id="r1")
        full = render_stats(document, full=True)
        assert "sim/alpha/instructions" in full
        assert "sim/ppc/instructions" in render_stats(document, full=True)

    def test_render_tolerates_empty_document(self):
        document = MetricsRegistry().to_document(run_id="empty")
        assert validate_metrics(document) == []
        text = render_stats(document)
        assert "no phase spans recorded" in text
        assert "no counters recorded" in text


class TestSourceCounters:
    def test_sim_counters_match_trace_totals(self, grep_trace):
        from repro.sim.functional import sim_counters
        counters = sim_counters(grep_trace)
        assert counters["instructions"] == grep_trace.num_instructions
        assert counters["loads"] == grep_trace.num_loads
        assert counters["stores"] == grep_trace.num_stores
        opcode_total = sum(v for k, v in counters.items()
                           if k.startswith("op/"))
        assert opcode_total == counters["instructions"]
        assert all(isinstance(v, int) for v in counters.values())

    def test_lvp_counters_are_consistent(self, grep_trace):
        from repro.trace.annotate import annotate_trace
        stats = annotate_trace(grep_trace, SIMPLE).stats
        counters = stats.counters()
        assert counters["loads"] == stats.loads
        assert counters["lvpt_hits"] + counters["lvpt_misses"] \
            == stats.loads
        assert counters["lct_hits"] + counters["lct_misses"] == stats.loads
        assert counters["mispredicts"] \
            == stats.outcomes[LoadOutcome.INCORRECT]
        outcome_total = (counters["predicted_correct"]
                         + counters["mispredicts"]
                         + counters["no_prediction"]
                         + counters["constant_loads"])
        assert outcome_total == stats.loads

    def test_model_counters(self, tiny_session):
        ppc = tiny_session.ppc_result("grep")
        counters = ppc.counters()
        assert counters["cycles"] == ppc.cycles
        assert counters["l1_hits"] \
            == ppc.l1_stats.accesses - ppc.l1_stats.misses
        alpha = tiny_session.alpha_result("grep")
        alpha_counters = alpha.counters()
        assert alpha_counters["instructions"] == alpha.instructions
        assert alpha_counters["value_mispredicts"] \
            == alpha.value_mispredicts

    def test_cache_counters(self, tmp_path, grep_trace):
        from repro.harness.cache import TraceCache
        cache = TraceCache(tmp_path)
        assert cache.load("grep", "ppc", "tiny") is None
        cache.store(grep_trace, "tiny")
        assert cache.load("grep", "ppc", "tiny") is not None
        snapshot = cache.counters.as_dict()
        assert snapshot["misses"] == 1
        assert snapshot["stores"] == 1
        assert snapshot["hits"] == 1
        assert snapshot["quarantined"] == 0

    def test_cache_counts_quarantine_as_miss(self, tmp_path, grep_trace):
        from repro.harness.cache import TraceCache
        cache = TraceCache(tmp_path)
        cache.store(grep_trace, "tiny")
        bundle = cache.path_for("grep", "ppc", "tiny")
        bundle.write_bytes(b"garbage, not a zip")
        assert cache.load("grep", "ppc", "tiny") is None
        snapshot = cache.counters.as_dict()
        assert snapshot["misses"] == 1
        assert snapshot["quarantined"] == 1


class TestSentinelCost:
    """``sentinel/<stage>/oracle_s``: the wall seconds of the tier
    guard's oracle re-runs, summed in the run scope."""

    class _Session:
        def __init__(self):
            self.metrics = MetricsRegistry()
            self.demotions = []

    def _guard(self, monkeypatch):
        from repro.harness.guard import TierGuard
        for knob in ("REPRO_MODEL_ENGINE", "REPRO_TIER_FAULT",
                     "REPRO_SENTINEL_SEED"):
            monkeypatch.delenv(knob, raising=False)
        session = self._Session()
        return TierGuard(session), session.metrics

    def test_oracle_wall_seconds_accumulate(self, monkeypatch):
        guard, metrics = self._guard(monkeypatch)
        monkeypatch.setenv("REPRO_SENTINEL_RATE", "1")

        def runner(engine):
            if engine == "reference":
                time.sleep(0.02)
            return SimpleNamespace(cycles=7)

        for unit in ("u1", "u2"):
            assert guard.run_model("b", "ppc", f"b/model/ppc/{unit}",
                                   runner).cycles == 7
        run = metrics.run_counters()
        assert run["sentinel/model/oracle_s"] >= 0.04
        assert metrics.benchmark_counters()["b"][
            "tier/model/sentinel_checks"] == 2

    def test_failed_oracle_still_counts(self, monkeypatch):
        guard, metrics = self._guard(monkeypatch)
        monkeypatch.setenv("REPRO_SENTINEL_RATE", "1")

        def runner(engine):
            if engine == "reference":
                time.sleep(0.02)
                raise ValueError("oracle fault")
            return 1

        with pytest.raises(ValueError):
            guard.run_model("b", "ppc", "b/model/ppc/u", runner)
        assert metrics.run_counters()["sentinel/model/oracle_s"] >= 0.02

    def test_stats_renders_it_beside_the_children(self):
        registry = _registry_with_content()
        registry.inc_run("children/processes", 2)
        registry.inc_run("children/cpu_s", 1.5)
        registry.inc_run("sentinel/model/oracle_s", 1.25)
        registry.inc_run("sentinel/trace/oracle_s", 0.125)
        document = registry.to_document(run_id="r1")
        assert validate_metrics(document) == []
        text = render_stats(document)
        children = text.index("model children")
        line = ("sentinel oracle re-runs (wall, children included): "
                "model 1.250s, trace 0.125s")
        assert text.index(line) > children
        # Shown once, not again among the generic run-scope counters.
        assert "sentinel/model/oracle_s" not in text

    def test_parent_peak_renders_before_the_children(self):
        registry = _registry_with_content()
        registry.inc_run("children/processes", 2)
        registry.max_run("parent/peak_rss_mb", 51.625)
        registry.max_run("parent/peak_rss_mb", 40.0)  # a peak only rises
        document = registry.to_document(run_id="r1")
        assert validate_metrics(document) == []
        text = render_stats(document)
        parent = text.index("parent process: peak RSS 51.6 MB")
        assert parent < text.index("model children")
        assert "parent/peak_rss_mb" not in text

    def test_validator_rejects_a_non_positive_peak(self):
        for gauge in ("parent/peak_rss_mb", "children/peak_rss_mb"):
            document = _registry_with_content().to_document(run_id="r1")
            document["run"][gauge] = 0
            assert any(gauge in error
                       for error in validate_metrics(document)), gauge

    def test_model_children_send_it_home(self, monkeypatch, tmp_path,
                                         capsys):
        from repro.cli import main
        for knob in ("REPRO_MODEL_ENGINE", "REPRO_TIER_FAULT",
                     "REPRO_SENTINEL_RATE", "REPRO_SENTINEL_SEED",
                     "REPRO_JOBS", "REPRO_TRACE_CACHE"):
            monkeypatch.delenv(knob, raising=False)
        monkeypatch.setattr("os.sched_getaffinity",
                            lambda pid: {0, 1}, raising=False)
        runs = str(tmp_path / "runs")
        # gperf/model/ppc/620/Constant is its one sampled model unit.
        assert main(["experiment", "fig6", "--scale", "tiny",
                     "--benchmarks", "gperf", "--runs-dir", runs,
                     "--run-id", "r"]) == 0
        document = load_metrics(tmp_path / "runs" / "r")
        run = document["run"]
        assert run["children/processes"] == 2
        assert run["sentinel/model/oracle_s"] > 0
        assert document["benchmarks"]["gperf"][
            "tier/model/sentinel_checks"] == 1
        assert main(["stats", "r", "--runs-dir", runs, "--validate"]) == 0
        capsys.readouterr()
        assert main(["stats", "r", "--runs-dir", runs]) == 0
        assert "sentinel oracle re-runs" in capsys.readouterr().out
