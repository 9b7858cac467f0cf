"""Unit tests for the value-locality measurement (Figures 1-2)."""

import pytest

from repro.harness import Session
from repro.isa import OpClass, ValueKind
from repro.lvp import LVPT, measure_locality_by_kind, measure_value_locality
from repro.workloads.suite import NAMES

from tests.trace.test_records import make_trace


def load_trace(pc_value_pairs):
    """Trace of just loads from (pc, value) pairs."""
    return make_trace([
        (pc, OpClass.LOAD, 0x2000, value) for pc, value in pc_value_pairs
    ])


class TestDepthOne:
    def test_constant_stream_near_perfect(self):
        trace = load_trace([(0x100, 7)] * 10)
        result = measure_value_locality(trace, depth=1)
        assert result.hits == 9  # all but the cold first
        assert result.total_loads == 10

    def test_fresh_values_zero(self):
        trace = load_trace([(0x100, i) for i in range(10)])
        assert measure_value_locality(trace, depth=1).hits == 0

    def test_alternating_zero_at_depth_one(self):
        trace = load_trace([(0x100, i % 2) for i in range(10)])
        assert measure_value_locality(trace, depth=1).hits == 0

    def test_per_static_load_isolation(self):
        trace = load_trace([(0x100, 1), (0x104, 2)] * 5)
        result = measure_value_locality(trace, depth=1)
        assert result.hits == 8  # both streams constant after cold start

    def test_empty_trace(self):
        result = measure_value_locality(load_trace([]), depth=1)
        assert result.locality == 0.0

    def test_percent_property(self):
        trace = load_trace([(0x100, 7)] * 4)
        result = measure_value_locality(trace, depth=1)
        assert result.percent == 75.0


class TestDepthSixteen:
    def test_alternation_caught(self):
        trace = load_trace([(0x100, i % 4) for i in range(20)])
        d1 = measure_value_locality(trace, depth=1)
        d16 = measure_value_locality(trace, depth=16)
        assert d1.hits == 0
        assert d16.hits == 16  # all after the 4 cold values

    def test_depth_monotonicity(self, compress_trace):
        """Deeper history can only help (paper Figure 1's two bars)."""
        previous = -1.0
        for depth in (1, 2, 4, 8, 16):
            locality = measure_value_locality(compress_trace, depth).locality
            assert locality >= previous
            previous = locality

    def test_interference_between_aliasing_pcs(self):
        """PCs 1024 instructions apart share a table entry."""
        stride = 1024 * 4
        trace = load_trace(
            [(0x100, 1), (0x100 + stride, 2)] * 8
        )
        d1 = measure_value_locality(trace, depth=1, entries=1024)
        # Destructive interference: each load sees the other's value.
        assert d1.hits == 0
        big = measure_value_locality(trace, depth=1, entries=4096)
        assert big.hits == 14


class TestByKind:
    def test_kinds_partition_loads(self):
        trace = make_trace([
            (0x100, OpClass.LOAD, 0x2000, 1),
            (0x104, OpClass.LOAD, 0x2008, 2),
        ])
        trace.kind[0] = int(ValueKind.DATA_ADDR)
        trace.kind[1] = int(ValueKind.FP_DATA)
        by_kind = measure_locality_by_kind(trace, depth=1)
        totals = sum(r.total_loads for r in by_kind.values())
        assert totals == 2
        assert by_kind[ValueKind.DATA_ADDR].total_loads == 1
        assert by_kind[ValueKind.FP_DATA].total_loads == 1

    def test_real_trace_partition(self, compress_trace):
        by_kind = measure_locality_by_kind(compress_trace, depth=1)
        assert sum(r.total_loads for r in by_kind.values()) == \
            compress_trace.num_loads

    def test_hits_bounded_by_totals(self, grep_trace):
        for result in measure_locality_by_kind(grep_trace, 16).values():
            assert 0 <= result.hits <= result.total_loads


def lvpt_loop(trace, depth, entries=1024):
    """Per-kind (totals, hits) from one per-load pass over an untagged,
    pc-indexed, perfect-selection LVPT: the oracle of the vector pass."""
    table = LVPT(entries, history_depth=depth, selection="perfect")
    loads = trace.loads()
    totals = dict.fromkeys(ValueKind, 0)
    hits = dict.fromkeys(ValueKind, 0)
    for pc, value, kind in zip(loads.pc.tolist(), loads.value.tolist(),
                               loads.kind.tolist()):
        kind = ValueKind(kind)
        totals[kind] += 1
        if table.would_be_correct(pc, value):
            hits[kind] += 1
        table.update(pc, value)
    return totals, hits


@pytest.fixture(scope="module")
def suite_session():
    return Session(scale="tiny")


class TestMatchesLVPTLoop:
    @pytest.mark.parametrize("target", ("ppc", "alpha"))
    @pytest.mark.parametrize("name", NAMES)
    def test_every_tiny_trace(self, suite_session, name, target):
        trace = suite_session.trace(name, target)
        for depth in (1, 16):
            totals, hits = lvpt_loop(trace, depth)
            overall = measure_value_locality(trace, depth)
            assert overall.total_loads == sum(totals.values())
            assert overall.hits == sum(hits.values())
            by_kind = measure_locality_by_kind(trace, depth)
            assert {k: r.total_loads for k, r in by_kind.items()} == totals
            assert {k: r.hits for k, r in by_kind.items()} == hits

    def test_small_table_interference(self, compress_trace):
        totals, hits = lvpt_loop(compress_trace, 4, entries=16)
        result = measure_value_locality(compress_trace, 4, entries=16)
        assert result.hits == sum(hits.values())
