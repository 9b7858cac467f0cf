"""Unit tests for the LVP trace-annotation phase."""

from dataclasses import replace

import numpy as np
import pytest

from repro.lvp import CONSTANT, LIMIT, LoadOutcome, LVPConfig, PERFECT, SIMPLE
from repro.trace import NOT_A_LOAD, annotate_trace
from repro.trace.annotate import vector_eligible


class TestAnnotationShape:
    def test_outcomes_parallel_to_trace(self, compress_trace):
        annotated = annotate_trace(compress_trace, SIMPLE)
        assert len(annotated.outcomes) == len(compress_trace)

    def test_loads_get_outcomes_others_sentinel(self, compress_trace):
        annotated = annotate_trace(compress_trace, SIMPLE)
        is_load = compress_trace.is_load
        assert (annotated.outcomes[~is_load] == NOT_A_LOAD).all()
        assert (annotated.outcomes[is_load] != NOT_A_LOAD).all()

    def test_outcome_values_valid(self, compress_trace):
        annotated = annotate_trace(compress_trace, SIMPLE)
        load_outcomes = annotated.outcomes[compress_trace.is_load]
        assert set(np.unique(load_outcomes)) <= {
            int(o) for o in LoadOutcome}

    def test_stats_match_annotations(self, compress_trace):
        annotated = annotate_trace(compress_trace, SIMPLE)
        load_outcomes = annotated.outcomes[compress_trace.is_load]
        for outcome in LoadOutcome:
            assert annotated.stats.outcomes[outcome] == \
                int((load_outcomes == int(outcome)).sum())

    def test_loads_counted(self, compress_trace):
        annotated = annotate_trace(compress_trace, SIMPLE)
        assert annotated.stats.loads == compress_trace.num_loads
        assert annotated.stats.stores == compress_trace.num_stores


class TestConfigBehaviours:
    def test_perfect_all_correct(self, compress_trace):
        annotated = annotate_trace(compress_trace, PERFECT)
        outcomes = annotated.stats.outcomes
        assert outcomes[LoadOutcome.CORRECT] == compress_trace.num_loads
        assert outcomes[LoadOutcome.CONSTANT] == 0

    def test_limit_at_least_as_accurate_as_simple(self, compress_trace):
        simple = annotate_trace(compress_trace, SIMPLE).stats
        limit = annotate_trace(compress_trace, LIMIT).stats
        assert limit.prediction_accuracy >= simple.prediction_accuracy * 0.95

    def test_constant_config_finds_more_constants(self, compress_trace):
        """The Constant config's 1-bit LCT + big CVU targets constants."""
        simple = annotate_trace(compress_trace, SIMPLE).stats
        constant = annotate_trace(compress_trace, CONSTANT).stats
        assert constant.constant_fraction >= simple.constant_fraction * 0.5

    def test_determinism(self, compress_trace):
        a = annotate_trace(compress_trace, SIMPLE)
        b = annotate_trace(compress_trace, SIMPLE)
        assert (a.outcomes == b.outcomes).all()

    def test_repr(self, compress_trace):
        annotated = annotate_trace(compress_trace, SIMPLE)
        assert "Simple" in repr(annotated)


class TestDeepMruOnVectorTier:
    """An MRU entry's head is the last value written at any depth, so
    deep MRU histories run on the vector tier, bit-identical to the
    general kernel."""

    @pytest.mark.parametrize("depth", [2, 4, 16])
    def test_matches_general(self, compress_trace, depth):
        config = LVPConfig(name=f"mru{depth}", history_depth=depth,
                           lvpt_entries=256)
        assert vector_eligible(config)
        vector = annotate_trace(compress_trace, config, kernel="vector")
        general = annotate_trace(compress_trace, config, kernel="general")
        assert np.array_equal(vector.outcomes, general.outcomes)
        assert vector.stats == general.stats


class TestCvuCapacityIsNotMonotone:
    """A documented non-invariant (docs/sweep.md): CONSTANT outcomes
    are not monotone in CVU capacity.  A mispredicted
    constant-classified load that hits the CAM removes its entry, but
    one that misses the CAM is inserted anyway, so a small CAM that
    evicted an entry can hold it again where a large CAM has just
    dropped it: LRU inclusion fails."""

    def test_xlisp_simple_loses_constants_from_32_to_64(self, tiny_session):
        trace = tiny_session.trace("xlisp", "ppc")
        constants = {
            entries: annotate_trace(
                trace, replace(SIMPLE, cvu_entries=entries),
                kernel="general").stats.outcomes[LoadOutcome.CONSTANT]
            for entries in (32, 64)}
        assert constants == {32: 1479, 64: 1474}
