"""Tests for the single-fault injectors and the audit oracle."""

import random

import numpy as np
import pytest

from repro.errors import FaultError
from repro.harness.cache import TraceCache
from repro.lvp.config import SIMPLE
from repro.trace import validate_trace
from repro.trace.annotate import annotate_trace
from tests.faults.campaign import (
    CACHE_FAULTS,
    LVP_FAULTS,
    TRACE_FAULTS,
    audit_violations,
    copy_trace,
    inject_cache_fault,
    inject_trace_fault,
    make_lvp_hook,
)


class TestCopyTrace:
    def test_copy_is_independent(self, grep_trace):
        clone = copy_trace(grep_trace)
        clone.value[0] ^= np.uint64(1)
        assert grep_trace.value[0] != clone.value[0]

    def test_copy_preserves_metadata(self, grep_trace):
        clone = copy_trace(grep_trace)
        assert clone.name == grep_trace.name
        assert clone.target == grep_trace.target


class TestTraceFaults:
    @pytest.mark.parametrize("kind", [k for k in TRACE_FAULTS
                                      if k != "value_flip"])
    def test_structural_faults_are_detected(self, grep_trace, kind):
        corrupt, expect_detected, what = inject_trace_fault(
            grep_trace, kind, random.Random(1))
        assert expect_detected
        assert what
        assert validate_trace(corrupt), kind
        # The original trace is untouched.
        assert validate_trace(grep_trace) == []

    def test_value_flip_is_well_formed_and_absorbed(self, grep_trace):
        corrupt, expect_detected, _ = inject_trace_fault(
            grep_trace, "value_flip", random.Random(2))
        assert not expect_detected
        assert validate_trace(corrupt) == []
        annotated = annotate_trace(corrupt, SIMPLE, audit=True)
        assert audit_violations(annotated) == []

    def test_unknown_kind_rejected(self, grep_trace):
        with pytest.raises(FaultError):
            inject_trace_fault(grep_trace, "nonesuch", random.Random(0))


class TestCacheFaults:
    @pytest.mark.parametrize("kind", CACHE_FAULTS)
    def test_every_cache_fault_is_a_miss(self, tmp_path, grep_trace, kind):
        cache = TraceCache(tmp_path / kind)
        what = inject_cache_fault(cache, grep_trace, "tiny", kind,
                                  random.Random(3))
        assert what
        assert cache.load("grep", "ppc", "tiny") is None

    def test_stale_version_is_not_quarantined(self, tmp_path, grep_trace):
        cache = TraceCache(tmp_path)
        inject_cache_fault(cache, grep_trace, "tiny", "version_bump",
                           random.Random(4))
        assert cache.load("grep", "ppc", "tiny") is None
        assert not (tmp_path / "quarantine").exists()

    def test_garbage_is_quarantined(self, tmp_path, grep_trace):
        cache = TraceCache(tmp_path)
        inject_cache_fault(cache, grep_trace, "tiny", "garbage",
                           random.Random(5))
        assert cache.load("grep", "ppc", "tiny") is None
        assert list((tmp_path / "quarantine").iterdir())


class TestLVPFaults:
    @pytest.mark.parametrize("kind", LVP_FAULTS)
    def test_unit_corruption_never_silently_wrong(self, grep_trace, kind):
        rng = random.Random(6)
        n_events = int((grep_trace.is_load | grep_trace.is_store).sum())
        hook, what = make_lvp_hook(kind, rng, n_events)
        assert kind in what
        annotated = annotate_trace(grep_trace, SIMPLE,
                                   audit=True, fault_hook=hook)
        assert audit_violations(annotated) == []

    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultError):
            make_lvp_hook("nonesuch", random.Random(0), 10)


class TestAuditOracle:
    def test_requires_audit_mode(self, grep_trace):
        annotated = annotate_trace(grep_trace, SIMPLE)
        assert audit_violations(annotated) == [
            "annotation was not run with audit=True"]

    def test_clean_annotation_has_no_violations(self, grep_trace):
        annotated = annotate_trace(grep_trace, SIMPLE, audit=True)
        assert audit_violations(annotated) == []

    def test_doctored_log_is_flagged(self, grep_trace):
        annotated = annotate_trace(grep_trace, SIMPLE, audit=True)
        from repro.lvp.unit import LoadOutcome
        # Forge a "correct" forward of the wrong value.
        annotated.audit_log[0] = (0x100, 1, 2, LoadOutcome.CORRECT)
        violations = audit_violations(annotated)
        assert any("forwarded" in v for v in violations)
