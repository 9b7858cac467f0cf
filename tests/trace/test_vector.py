"""Differential suite: the vector annotation kernel vs the general one.

The vector tier runs the shared staged kernels (a vectorized stage-A
pass per predictor family, stage-B LCT counters, stage-C CVU replay),
or the Perfect oracle's fixed result, for every configuration but
profile filters, without audit logs or fault hooks; it exists only for
speed and must be bit-identical to the general kernel on every config
it accepts, and must refuse (or be auto-routed away from) every case it
cannot faithfully annotate.
"""

from dataclasses import replace

import pytest

from repro.errors import ConfigError
from repro.lvp.config import (
    CONSTANT,
    EXTENSION_CONFIGS,
    GSHARE,
    LIMIT,
    PAPER_CONFIGS,
    PERFECT,
    SIMPLE,
    STRIDE,
)
from repro.sim import run_program
from repro.trace.annotate import (
    KERNELS,
    annotate_trace,
    resolve_kernel,
    vector_eligible,
)
from repro.trace.kernels import trace_events
from repro.workloads.suite import NAMES, get_benchmark

#: History shapes with no stock config: perfect selection on a tagged
#: or gshare table, and a tagged MRU table.
TAGGED_LIMIT = replace(LIMIT, name="TaggedLimit", lvpt_tagged=True)
GSHARE_LIMIT = replace(LIMIT, name="GshareLimit", index_mode="gshare",
                       ghr_bits=6)
TAGGED = replace(SIMPLE, name="Tagged", lvpt_tagged=True)
#: Every stock config the vector kernel accepts -- derived, not listed,
#: so a new eligible config automatically joins the suite -- plus the
#: shapes above.
ELIGIBLE = tuple(
    config for config in PAPER_CONFIGS + EXTENSION_CONFIGS
    if vector_eligible(config)
) + (TAGGED_LIMIT, GSHARE_LIMIT, TAGGED)
#: Eligible configs beyond the untagged, pc-indexed MRU tables: deep
#: perfect selection, stride, gshare and tagged tables.
WIDENED = (LIMIT, STRIDE, GSHARE, TAGGED_LIMIT, GSHARE_LIMIT, TAGGED)
FILTERED = replace(SIMPLE, name="Filtered", profile_filter=frozenset())


def _hook(unit, index):
    return None


#: (config, audit, fault_hook) cases the vector kernel refuses.
INELIGIBLE = (
    pytest.param(SIMPLE, True, None, id="audit"),
    pytest.param(SIMPLE, False, _hook, id="hook"),
    pytest.param(FILTERED, False, None, id="filter"),
)

STATS_FIELDS = (
    "loads", "stores", "predictable_predicted",
    "predictable_not_predicted", "unpredictable_predicted",
    "unpredictable_not_predicted", "cvu_insertions",
    "cvu_store_invalidations", "cvu_demotions", "cvu_stale_hits",
)


def assert_annotations_equal(a, b):
    assert (a.outcomes == b.outcomes).all()
    assert a.stats.outcomes == b.stats.outcomes
    for field in STATS_FIELDS:
        assert getattr(a.stats, field) == getattr(b.stats, field), field


@pytest.fixture(scope="module")
def tiny_traces():
    """Lazily built, memoized tiny traces (ppc unless a target is
    given) for the whole suite."""
    cache = {}

    def get(name, target="ppc"):
        if (name, target) not in cache:
            program = get_benchmark(name).build_program(target, "tiny")
            cache[name, target] = run_program(
                program, name=name, target=target).trace
        return cache[name, target]

    return get


class TestEligibility:
    def test_stock_eligible_set_is_nonempty(self):
        names = {config.name for config in ELIGIBLE}
        assert SIMPLE.name in names
        assert CONSTANT.name in names

    @pytest.mark.parametrize("config", WIDENED, ids=lambda c: c.name)
    def test_eligible(self, config):
        assert vector_eligible(config)
        assert resolve_kernel("vector", config, False, None) == "vector"

    @pytest.mark.parametrize("config, audit, hook", INELIGIBLE)
    def test_ineligible(self, config, audit, hook):
        assert not vector_eligible(config, audit, hook)

    def test_audit_and_fault_hook_disqualify(self):
        assert not vector_eligible(SIMPLE, audit=True)
        assert not vector_eligible(SIMPLE, fault_hook=lambda *a: None)

    @pytest.mark.parametrize("config, audit, hook", INELIGIBLE)
    def test_forced_vector_on_ineligible_config_refused(self, config,
                                                        audit, hook):
        with pytest.raises(ConfigError, match="vector"):
            resolve_kernel("vector", config, audit, hook)

    def test_auto_prefers_vector(self):
        assert resolve_kernel("auto", SIMPLE, False, None) == "vector"
        # The Limit study's deep perfect selection runs on vector too.
        assert resolve_kernel("auto", LIMIT, False, None) == "vector"

    def test_env_pin(self, monkeypatch):
        monkeypatch.setenv("REPRO_ANNOTATE_KERNEL", "vector")
        assert resolve_kernel("general", SIMPLE, False, None) == "vector"


class TestKernelResolution:
    def test_kernels_tuple(self):
        assert KERNELS == ("auto", "general", "vector")

    def test_auto_routes_perfect_to_vector(self):
        assert vector_eligible(PERFECT)
        assert resolve_kernel("auto", PERFECT, False, None) == "vector"
        assert resolve_kernel("vector", PERFECT, False, None) == "vector"

    def test_auto_falls_back_for_audit_and_hook(self):
        assert resolve_kernel("auto", SIMPLE, True, None) == "general"
        assert resolve_kernel("auto", SIMPLE, False, _hook) == "general"

    @pytest.mark.parametrize("kernel", ("simd", "mono"))
    def test_unknown_kernel_rejected(self, kernel):
        with pytest.raises(ConfigError, match="unknown"):
            resolve_kernel(kernel, SIMPLE, False, None)

    def test_env_overrides_argument(self, monkeypatch):
        monkeypatch.setenv("REPRO_ANNOTATE_KERNEL", "general")
        assert resolve_kernel("vector", SIMPLE, False, None) == "general"


@pytest.mark.parametrize("name", NAMES)
def test_vector_bit_identical_simple(tiny_traces, name):
    """Every benchmark, the paper's Simple config: vector == general."""
    trace = tiny_traces(name)
    general = annotate_trace(trace, SIMPLE, kernel="general")
    vector = annotate_trace(trace, SIMPLE, kernel="vector")
    assert_annotations_equal(general, vector)


@pytest.mark.parametrize("target", ("ppc", "alpha"))
@pytest.mark.parametrize("name", NAMES)
def test_vector_bit_identical_perfect(tiny_traces, name, target):
    """Every benchmark on both targets, the Perfect oracle: the vector
    tier's fixed result == the general kernel's per-load replay."""
    trace = tiny_traces(name, target)
    general = annotate_trace(trace, PERFECT, kernel="general")
    vector = annotate_trace(trace, PERFECT, kernel="vector")
    assert_annotations_equal(general, vector)
    assert vector.outcomes.dtype == general.outcomes.dtype


@pytest.mark.parametrize("config", ELIGIBLE, ids=lambda c: c.name)
@pytest.mark.parametrize("name", ("compress", "eqntott"))
def test_vector_bit_identical_all_eligible_configs(tiny_traces, name,
                                                   config):
    """Two traces x every eligible config, against the general tier."""
    trace = tiny_traces(name)
    general = annotate_trace(trace, config, kernel="general")
    vector = annotate_trace(trace, config, kernel="vector")
    assert_annotations_equal(general, vector)


@pytest.mark.parametrize("config", ELIGIBLE, ids=lambda c: c.name)
def test_auto_routes_to_vector_and_matches(tiny_traces, config):
    """The production default (auto) runs the vector tier on eligible
    configs and stays bit-identical to the oracle."""
    assert resolve_kernel("auto", config, False, None) == "vector"
    trace = tiny_traces("xlisp")
    general = annotate_trace(trace, config, kernel="general")
    auto = annotate_trace(trace, config)
    assert_annotations_equal(general, auto)


@pytest.mark.parametrize(
    "config", PAPER_CONFIGS + EXTENSION_CONFIGS, ids=lambda c: c.name)
def test_auto_matches_general_everywhere(tiny_traces, config):
    """The production default (auto) is bit-identical to the oracle on
    every stock config."""
    trace = tiny_traces("compress")
    general = annotate_trace(trace, config, kernel="general")
    auto = annotate_trace(trace, config)
    assert_annotations_equal(general, auto)


def test_audit_mode_still_works(tiny_traces):
    """audit=True silently routes around the vector kernel."""
    trace = tiny_traces("grep")
    audited = annotate_trace(trace, SIMPLE, audit=True)
    plain = annotate_trace(trace, SIMPLE, kernel="general")
    assert (audited.outcomes == plain.outcomes).all()
    assert audited.audit_log is not None


def test_trace_events_decoded_once_and_read_only(tiny_traces):
    """Every vector annotation of one trace shares one read-only decode
    per branch-stream flag."""
    trace = tiny_traces("grep").materialize()  # a fresh memo key
    events = trace_events(trace, branches=False)
    assert trace_events(trace, branches=False) is events
    assert trace_events(trace, branches=True) is not events
    assert not events.load_values.flags.writeable
    assert not events.segments(1024).order.flags.writeable


def test_vector_on_cached_readonly_trace(tmp_path, tiny_traces):
    """The vector kernel annotates a zero-copy mmap-backed trace
    (read-only columns) without materializing it."""
    from repro.harness.cache import TraceCache

    trace = tiny_traces("grep")
    cache = TraceCache(tmp_path)
    cache.store(trace, "tiny")
    mapped = cache.load("grep", trace.target, "tiny")
    assert not mapped.value.flags.writeable
    general = annotate_trace(trace, SIMPLE, kernel="general")
    vector = annotate_trace(mapped, SIMPLE, kernel="vector")
    assert_annotations_equal(general, vector)
