"""The fault campaign: whatever the seed, every planted trace, cache
and LVP fault is detected or recovered, never silent.

Each campaign plants one fault of every kind (``len(FAULT_KINDS)``
specs drawn from one seeded :class:`FaultPlan`) against the grep trace
at tiny scale; a failing example names its plan seed and the fault's
``[layer/kind seed=N]`` tag, which replay it exactly.
"""

from __future__ import annotations

from collections import Counter

from hypothesis import given, settings, strategies as st

from tests.faults import campaign
from tests.faults.campaign import (
    DETECTED,
    FAULT_KINDS,
    RECOVERED,
    SILENT,
    FaultPlan,
    plant,
)


def run_campaign(seed: int, trace, faults: int = len(FAULT_KINDS)):
    """Plant every spec of one seeded plan; ``[(spec, status, detail)]``."""
    return [(spec, *plant(spec, trace))
            for spec in FaultPlan(seed, faults=faults)]


def silent_tags(outcomes) -> list[str]:
    """The ``[layer/kind seed=N]`` tag and detail of every silent fault."""
    return [f"[{spec.layer}/{spec.kind} seed={spec.seed}] {detail}"
            for spec, status, detail in outcomes if status == SILENT]


class TestDoctorCampaign:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_campaign_has_no_silent_corruption(self, grep_trace, seed):
        outcomes = run_campaign(seed, grep_trace)
        assert silent_tags(outcomes) == []
        # Every structural trace fault and every cache fault is caught
        # outright; only a value flip and the LVP faults are absorbed.
        for spec, status, detail in outcomes:
            absorbed = spec.layer == "lvp" or spec.kind == "value_flip"
            assert status == (RECOVERED if absorbed else DETECTED), detail

    def test_campaign_is_deterministic(self, grep_trace):
        first = run_campaign(11, grep_trace)
        second = run_campaign(11, grep_trace)
        assert [(spec, status) for spec, status, _ in first] == \
            [(spec, status) for spec, status, _ in second]

    def test_counts_cover_all_layers(self, grep_trace):
        outcomes = run_campaign(0, grep_trace)
        assert {(spec.layer, spec.kind) for spec, _, _ in outcomes} == \
            set(FAULT_KINDS)
        counts = Counter((spec.layer, status)
                         for spec, status, _ in outcomes)
        assert set(layer for layer, _ in counts) == {"trace", "cache",
                                                     "lvp"}
        assert sum(counts.values()) == len(FAULT_KINDS)

    def test_silent_outcome_fails_report(self, grep_trace, monkeypatch):
        # With the trace validator blinded, every structural trace
        # fault goes unseen: the campaign must report it as SILENT,
        # tagged so the failing fault can be replayed.
        monkeypatch.setattr(campaign, "validate_trace", lambda trace: [])
        outcomes = run_campaign(0, grep_trace)
        tags = silent_tags(outcomes)
        assert tags
        assert all(tag.startswith("[trace/") and " seed=" in tag
                   for tag in tags)
        assert "[trace/opcode_zero seed=" in "".join(tags)
