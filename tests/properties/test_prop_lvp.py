"""Property-based tests for the LVP structures (hypothesis)."""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.isa.opcodes import OpClass
from repro.lvp import CVU, LCT, LVPT, LVPUnit, LoadClass, LoadOutcome, SIMPLE
from repro.lvp.config import LVPConfig
from repro.lvp.context import ContextLVPT
from repro.lvp.fcm import FCMPredictor
from repro.lvp.hybrid import HybridPredictor
from repro.lvp.lastn import LastNPredictor
from repro.lvp.stride import StridePredictor
from repro.trace.kernels import (
    LctContext,
    decode_events,
    run_stage_b,
    run_stage_c,
    stage_a_fcm,
    stage_a_history,
    stage_a_hybrid,
    stage_a_lastn,
    stage_a_stride,
)
from repro.trace.records import TRACE_COLUMNS, Trace

pcs = st.integers(min_value=0, max_value=1 << 20).map(lambda x: x * 4)
values = st.integers(min_value=0, max_value=(1 << 64) - 1)
addrs = st.integers(min_value=0, max_value=1 << 24).map(lambda x: x * 8)


class TestLvptProperties:
    @given(st.lists(st.tuples(pcs, values), max_size=200))
    def test_history_bounded_and_unique(self, updates):
        table = LVPT(64, history_depth=4)
        for pc, value in updates:
            table.update(pc, value)
            history = table.lookup(pc)
            assert len(history) <= 4
            assert len(set(history)) == len(history)

    @given(st.lists(st.tuples(pcs, values), max_size=200))
    def test_mru_is_last_update(self, updates):
        table = LVPT(64, history_depth=4)
        for pc, value in updates:
            table.update(pc, value)
            assert table.predict(pc) == value

    @given(st.lists(values, min_size=1, max_size=50), pcs)
    def test_perfect_selection_remembers_recent(self, stream, pc):
        """Any of the last `depth` distinct values must hit."""
        depth = 8
        table = LVPT(64, history_depth=depth, selection="perfect")
        for value in stream:
            table.update(pc, value)
        distinct_recent = []
        for value in reversed(stream):
            if value not in distinct_recent:
                distinct_recent.append(value)
            if len(distinct_recent) == depth:
                break
        for value in distinct_recent:
            assert table.would_be_correct(pc, value)

    @given(st.lists(st.tuples(pcs, values), max_size=100))
    def test_tagged_never_crosses_pcs(self, updates):
        table = LVPT(16, history_depth=2, tagged=True)
        last_by_pc = {}
        for pc, value in updates:
            table.update(pc, value)
            last_by_pc[pc] = value
            # A tagged entry either misses or belongs to this pc.
            prediction = table.predict(pc)
            assert prediction == value


class TestLctProperties:
    @given(st.lists(st.tuples(pcs, st.booleans()), max_size=300),
           st.sampled_from([1, 2, 3]))
    def test_counter_always_in_range(self, updates, bits):
        lct = LCT(32, bits=bits)
        top = (1 << bits) - 1
        for pc, correct in updates:
            lct.update(pc, correct)
            assert 0 <= lct.counter(pc) <= top

    @given(st.lists(st.booleans(), max_size=100))
    def test_classification_consistent_with_counter(self, outcomes):
        lct = LCT(16, bits=2)
        for correct in outcomes:
            lct.update(0x100, correct)
            counter = lct.counter(0x100)
            classification = lct.classify(0x100)
            if counter == 3:
                assert classification is LoadClass.CONSTANT
            elif counter == 2:
                assert classification is LoadClass.PREDICT
            else:
                assert classification is LoadClass.DONT_PREDICT


class TestCvuProperties:
    @given(st.lists(st.one_of(
        st.tuples(st.just("insert"), addrs, st.integers(0, 1023)),
        st.tuples(st.just("store"), addrs, st.integers(1, 8)),
    ), max_size=300))
    def test_capacity_never_exceeded(self, ops):
        cvu = CVU(16)
        for op, addr, arg in ops:
            if op == "insert":
                cvu.insert(addr, arg)
            else:
                cvu.snoop_store(addr, arg)
            assert len(cvu) <= 16

    @given(st.lists(st.tuples(addrs, st.integers(0, 63)), max_size=100),
           addrs)
    def test_store_kills_every_overlapping_entry(self, inserts, store_addr):
        """The CVU coherence invariant: after a store, no entry for the
        stored word can match."""
        cvu = CVU(64)
        for addr, index in inserts:
            cvu.insert(addr, index)
        cvu.snoop_store(store_addr, 8)
        for addr, index in inserts:
            if addr & ~7 == store_addr & ~7:
                assert not cvu.match(addr, index)


class TestUnitProperties:
    @given(st.lists(st.one_of(
        st.tuples(st.just("load"), st.integers(0, 31),
                  st.integers(0, 7), st.integers(0, 3)),
        st.tuples(st.just("store"), st.integers(0, 7),
                  st.integers(0, 3), st.just(0)),
    ), max_size=400))
    @settings(deadline=None)
    def test_constant_outcomes_always_coherent(self, ops):
        """The paper's CVU guarantee: a CONSTANT load's forwarded value
        equals what memory holds, under any load/store interleaving."""
        unit = LVPUnit(SIMPLE)
        memory = {}
        for op in ops:
            if op[0] == "load":
                _, pc_index, word, _ = op
                pc = pc_index * 4
                addr = 0x2000 + word * 8
                value = memory.get(addr, 0)
                outcome = unit.process_load(pc, addr, value)
                if outcome is LoadOutcome.CONSTANT:
                    assert unit.lvpt.predict(pc) == value
            else:
                _, word, value, _ = op
                addr = 0x2000 + word * 8
                memory[addr] = value
                unit.process_store(addr, 8)

    @given(st.lists(st.tuples(st.integers(0, 15), st.integers(0, 3)),
                    max_size=300))
    @settings(deadline=None)
    def test_outcome_totals_invariant(self, loads):
        unit = LVPUnit(SIMPLE)
        for pc_index, value in loads:
            unit.process_load(pc_index * 4, 0x1000 + pc_index * 8, value)
        assert sum(unit.stats.outcomes.values()) == len(loads)
        quadrants = (unit.stats.predictable_predicted
                     + unit.stats.predictable_not_predicted
                     + unit.stats.unpredictable_predicted
                     + unit.stats.unpredictable_not_predicted)
        assert quadrants == len(loads)


# ---------------------------------------------------------------------------
# The shared kernels against the predictor objects.
# ---------------------------------------------------------------------------
def _trace(ops) -> Trace:
    """A trace of ``("load", pc, addr, value)``, ``("store", addr,
    size)`` and ``("branch", taken)`` records, in order."""
    columns = {name: [0] * len(ops) for name, _ in TRACE_COLUMNS}
    for i, op in enumerate(ops):
        if op[0] == "load":
            columns["opclass"][i] = int(OpClass.LOAD)
            columns["pc"][i] = op[1]
            columns["addr"][i] = op[2]
            columns["value"][i] = op[3]
            columns["size"][i] = 8
        elif op[0] == "store":
            columns["opclass"][i] = int(OpClass.STORE)
            columns["addr"][i] = op[1]
            columns["size"][i] = op[2]
        else:
            columns["opclass"][i] = int(OpClass.BRANCH)
            columns["taken"][i] = int(op[1])
    return Trace({name: np.asarray(column, dtype="<" + code)
                  for (name, code), column in zip(TRACE_COLUMNS,
                                                  columns.values())})


def _object_pass(ops, table):
    """``(would_hit, index)`` per load from a predictor object."""
    hits, idxs = [], []
    for op in ops:
        if op[0] == "branch":
            if isinstance(table, ContextLVPT):
                table.record_branch(op[1])
            continue
        pc, value = op[1], op[3]
        hits.append(table.would_be_correct(pc, value))
        idxs.append(table.index_of(pc))
        table.update(pc, value)
    return hits, idxs


def _assert_pass_equals(result, expected):
    hits, idxs = result
    assert hits.tolist() == expected[0]
    assert np.asarray(idxs).tolist() == expected[1]


#: Few pcs, words and values, so tables alias, hit and saturate.
_load = st.tuples(st.just("load"), st.integers(0, 15).map(lambda x: x * 4),
                  st.integers(0, 7).map(lambda x: 0x1000 + x * 8),
                  st.integers(0, 3))
_store = st.tuples(st.just("store"),
                   st.integers(0, 9).map(lambda x: 0x1000 + x * 4),
                   st.sampled_from([1, 4, 8, 16]))
_branch = st.tuples(st.just("branch"), st.booleans())


class TestMruPassProperties:
    @given(st.lists(st.one_of(_load, _branch), max_size=300),
           st.sampled_from([1, 2, 4, 8]), st.integers(1, 8),
           st.booleans(), st.integers(0, 5))
    @settings(deadline=None, max_examples=150)
    def test_vector_pass_equals_the_table_objects(self, ops, entries, depth,
                                                  tagged, ghr_bits):
        """At any depth, an MRU table (pc- or gshare-indexed, tagged or
        not) hits exactly where the vectorized pass says, at the index
        it reports."""
        events = decode_events(_trace(ops), branches=True)
        if ghr_bits:
            table = ContextLVPT(entries, depth, "mru", tagged=tagged,
                                ghr_bits=ghr_bits)
        else:
            table = LVPT(entries, depth, "mru", tagged=tagged)
        _assert_pass_equals(
            stage_a_history(events, entries, 1, tagged, ghr_bits),
            _object_pass(ops, table))


_U64 = (1 << 64) - 1
#: Stage-A streams: six pcs and four small values, so tiny tables alias,
#: VPT slots collide and last-N votes tie, plus arithmetic runs of one
#: pc (wrapping at 2**64), so strides build confidence and break.
_pc = st.integers(0, 5).map(lambda x: x * 4)
_single = st.builds(lambda pc, value: [("load", pc, 0x1000, value)],
                    _pc, st.integers(0, 3))
_run = st.builds(
    lambda pc, first, stride, length: [
        ("load", pc, 0x1000, (first + k * stride) & _U64)
        for k in range(length)],
    _pc, st.sampled_from([0, 2, _U64]), st.sampled_from([0, 1, 3, _U64]),
    st.integers(2, 6))
_taken = st.builds(lambda taken: [("branch", taken)], st.booleans())


def _streams(*chunks):
    return st.lists(st.one_of(*chunks), max_size=40).map(
        lambda parts: [op for part in parts for op in part])


def _walk(steps):
    """Loads of two pcs whose values each take a random walk: strides
    hold, break and resume, which steps the hybrid's chooser both ways."""
    last: dict = {}
    ops = []
    for pc, delta in steps:
        last[pc] = (last.get(pc, 0) + delta) & _U64
        ops.append(("load", pc, 0x1000, last[pc]))
    return ops


_walks = st.lists(st.tuples(st.sampled_from([0, 4]),
                            st.sampled_from([0, 1, 1, 3, _U64])),
                  max_size=60).map(_walk)
_loads = st.one_of(_streams(_single, _run), _walks)
_loads_and_branches = _streams(_single, _run, _taken)
_ONE_LOAD = [("load", 4, 0x1000, 1)]
#: A stride that wins the chooser over, breaks on a repeated value
#: (stepping the chooser back) and resumes: the next confident load is
#: decided by the chooser.
_BREAK_AND_RESUME = [("load", 4, 0x1000, value)
                     for value in (0, 1, 2, 3, 3, 2, 3, 4, 5)]


class TestStageAPassProperties:
    """Each family's vectorized stage-A pass against its predictor
    object."""

    @given(_loads, st.sampled_from([1, 2, 4, 8]), st.integers(1, 4))
    @example([], 1, 1)
    @example(_ONE_LOAD, 4, 1)
    @settings(deadline=None, max_examples=200)
    def test_fcm(self, ops, entries, order):
        events = decode_events(_trace(ops), branches=False)
        _assert_pass_equals(stage_a_fcm(events, entries, order),
                            _object_pass(ops, FCMPredictor(entries, order)))

    @given(_loads, st.sampled_from([1, 2, 4, 8]), st.integers(1, 8))
    @example([], 1, 1)
    @example(_ONE_LOAD, 4, 3)
    @settings(deadline=None, max_examples=200)
    def test_lastn(self, ops, entries, depth):
        events = decode_events(_trace(ops), branches=False)
        _assert_pass_equals(
            stage_a_lastn(events, entries, depth),
            _object_pass(ops, LastNPredictor(entries, depth)))

    @given(_loads, st.sampled_from([1, 2, 4, 8]))
    @example([], 1)
    @example(_ONE_LOAD, 4)
    @settings(deadline=None, max_examples=200)
    def test_stride(self, ops, entries):
        events = decode_events(_trace(ops), branches=False)
        _assert_pass_equals(stage_a_stride(events, entries),
                            _object_pass(ops, StridePredictor(entries)))

    @given(_loads, st.sampled_from([1, 2, 4, 8]))
    @example([], 1)
    @example(_ONE_LOAD, 4)
    @example(_BREAK_AND_RESUME, 1)
    @settings(deadline=None, max_examples=300)
    def test_hybrid(self, ops, entries):
        events = decode_events(_trace(ops), branches=False)
        _assert_pass_equals(stage_a_hybrid(events, entries),
                            _object_pass(ops, HybridPredictor(entries)))

    @given(_loads_and_branches, st.sampled_from([1, 2, 4, 8]),
           st.integers(1, 16), st.booleans(), st.integers(0, 5))
    @example([], 1, 16, False, 0)
    @example(_ONE_LOAD, 4, 16, True, 3)
    @settings(deadline=None, max_examples=300)
    def test_perfect_selection(self, ops, entries, depth, tagged,
                               ghr_bits):
        """The paper's LVPT under perfect selection, pc- or
        gshare-indexed, tagged or not."""
        events = decode_events(_trace(ops), branches=True)
        if ghr_bits:
            table = ContextLVPT(entries, depth, "perfect", tagged=tagged,
                                ghr_bits=ghr_bits)
        else:
            table = LVPT(entries, depth, "perfect", tagged=tagged)
        _assert_pass_equals(
            stage_a_history(events, entries, depth, tagged, ghr_bits),
            _object_pass(ops, table))


class TestCvuSharingProperties:
    @given(st.lists(st.one_of(_load, _store), max_size=300),
           st.integers(1, 24), st.sampled_from([1, 2]))
    @settings(deadline=None, max_examples=150)
    def test_capacity_above_a_non_evicting_peak_equals_a_replay(
            self, ops, capacity, lct_bits):
        """A CVU replay that never evicted stands for every capacity at
        or above its peak occupancy: replaying any such capacity gives
        the same outcomes, statistics and peak."""
        events = decode_events(_trace(ops), branches=False)
        hits, idxs = stage_a_history(events, 4)
        classes = run_stage_b(events, hits, 4, lct_bits)

        def replay(entries):
            config = LVPConfig(name="p", lvpt_entries=4, lct_entries=4,
                               lct_bits=lct_bits, cvu_entries=entries)
            return run_stage_c(events, hits, idxs,
                               LctContext(hits, classes), config)

        outcomes, stats, peak = replay(capacity)
        if peak is None:
            return
        assert peak <= capacity
        for other in range(peak, capacity + 8):
            other_outcomes, other_stats, other_peak = replay(other)
            assert np.array_equal(other_outcomes, outcomes)
            assert other_stats == stats
            assert other_peak == peak
