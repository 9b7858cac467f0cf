"""Tests for deterministic fault-campaign planning."""

import pytest

from repro.errors import FaultError
from tests.faults.campaign import (
    CACHE_FAULTS,
    FaultPlan,
    FaultSpec,
    LVP_FAULTS,
    TRACE_FAULTS,
)


class TestFaultPlan:
    def test_same_seed_same_plan(self):
        first = list(FaultPlan(seed=7, faults=40))
        second = list(FaultPlan(seed=7, faults=40))
        assert first == second

    def test_different_seed_different_spec_seeds(self):
        first = list(FaultPlan(seed=1, faults=12))
        second = list(FaultPlan(seed=2, faults=12))
        assert [s.seed for s in first] != [s.seed for s in second]

    def test_sixty_faults_cover_every_kind(self):
        combos = {(s.layer, s.kind) for s in FaultPlan(seed=0, faults=60)}
        expected = (
            {("trace", k) for k in TRACE_FAULTS}
            | {("cache", k) for k in CACHE_FAULTS}
            | {("lvp", k) for k in LVP_FAULTS}
        )
        assert combos == expected

    def test_length(self):
        plan = FaultPlan(seed=0, faults=17)
        assert len(plan) == 17
        assert len(list(plan)) == 17

    def test_rejects_empty_campaign(self):
        with pytest.raises(FaultError):
            FaultPlan(seed=0, faults=0)

    def test_spec_rng_reproducible(self):
        spec = FaultSpec("trace", "value_flip", seed=123)
        assert spec.rng().random() == spec.rng().random()
