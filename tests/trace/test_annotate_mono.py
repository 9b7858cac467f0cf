"""Differential suite: the monomorphic annotation kernel vs the general one.

The mono kernel exists only for speed; it must be bit-identical to the
general kernel on every config it accepts, and must refuse (or be
auto-routed away from) every config it cannot faithfully annotate.
"""

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
    mono_eligible,
    resolve_kernel,
)
from repro.workloads.suite import NAMES, get_benchmark

#: Configs the mono kernel can take (history predictor, pc index,
#: untagged, unfiltered, not perfect).
ELIGIBLE = (SIMPLE, CONSTANT, LIMIT)
INELIGIBLE = (PERFECT, STRIDE, GSHARE)

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


class TestEligibility:
    @pytest.mark.parametrize("config", ELIGIBLE, ids=lambda c: c.name)
    def test_eligible(self, config):
        assert mono_eligible(config)

    @pytest.mark.parametrize("config", INELIGIBLE, ids=lambda c: c.name)
    def test_ineligible(self, config):
        assert not mono_eligible(config)

    def test_audit_and_fault_hook_disqualify(self):
        assert not mono_eligible(SIMPLE, audit=True)
        assert not mono_eligible(SIMPLE, fault_hook=lambda *a: None)


class TestKernelResolution:
    def test_kernels_tuple(self):
        assert KERNELS == ("auto", "general", "mono", "vector")

    @pytest.mark.parametrize("config", ELIGIBLE, ids=lambda c: c.name)
    def test_mono_runs_only_when_asked_for(self, config):
        # The vector tier's domain contains mono's (the Limit study's
        # deep perfect selection included), so auto prefers vector.
        assert resolve_kernel("auto", config, False, None) == "vector"
        assert resolve_kernel(None, config, False, None) == "vector"
        assert resolve_kernel("mono", config, False, None) == "mono"

    @pytest.mark.parametrize("config", (PERFECT,), ids=lambda c: c.name)
    def test_auto_falls_back_to_general(self, config):
        # Stride and gshare are mono-ineligible but vector-eligible;
        # only the Perfect oracle falls all the way back.
        assert resolve_kernel("auto", config, False, None) == "general"

    def test_auto_falls_back_for_audit_and_hook(self):
        assert resolve_kernel("auto", SIMPLE, True, None) == "general"
        hook = lambda *a: None  # noqa: E731
        assert resolve_kernel("auto", SIMPLE, False, hook) == "general"

    @pytest.mark.parametrize("config", INELIGIBLE, ids=lambda c: c.name)
    def test_forced_mono_on_ineligible_config_refused(self, config):
        with pytest.raises(ConfigError, match="mono"):
            resolve_kernel("mono", config, False, None)

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            resolve_kernel("simd", SIMPLE, False, None)

    def test_env_overrides_argument(self, monkeypatch):
        monkeypatch.setenv("REPRO_ANNOTATE_KERNEL", "general")
        assert resolve_kernel("mono", SIMPLE, False, None) == "general"


@pytest.fixture(scope="module")
def tiny_traces():
    """Lazily built, memoized tiny ppc traces for the whole suite."""
    cache = {}

    def get(name):
        if name not in cache:
            program = get_benchmark(name).build_program("ppc", "tiny")
            cache[name] = run_program(program, name=name).trace
        return cache[name]

    return get


@pytest.mark.parametrize("name", NAMES)
def test_mono_bit_identical_simple(tiny_traces, name):
    trace = tiny_traces(name)
    general = annotate_trace(trace, SIMPLE, kernel="general")
    mono = annotate_trace(trace, SIMPLE, kernel="mono")
    assert_annotations_equal(general, mono)


@pytest.mark.parametrize("config", ELIGIBLE, ids=lambda c: c.name)
@pytest.mark.parametrize("name", ("compress", "eqntott", "xlisp",
                                  "tomcatv"))
def test_mono_bit_identical_all_eligible_configs(tiny_traces, name,
                                                 config):
    trace = tiny_traces(name)
    general = annotate_trace(trace, config, kernel="general")
    mono = annotate_trace(trace, config, kernel="mono")
    assert_annotations_equal(general, mono)


@pytest.mark.parametrize(
    "config", PAPER_CONFIGS + EXTENSION_CONFIGS, ids=lambda c: c.name)
def test_auto_matches_general_everywhere(tiny_traces, config):
    """The production default (auto) is bit-identical to the oracle."""
    trace = tiny_traces("compress")
    general = annotate_trace(trace, config, kernel="general")
    auto = annotate_trace(trace, config)
    assert_annotations_equal(general, auto)


def test_audit_mode_still_works(tiny_traces):
    """audit=True silently routes around the mono kernel."""
    trace = tiny_traces("grep")
    audited = annotate_trace(trace, SIMPLE, audit=True)
    plain = annotate_trace(trace, SIMPLE, kernel="general")
    assert (audited.outcomes == plain.outcomes).all()
    assert audited.audit_log is not None
