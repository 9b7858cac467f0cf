"""Shared annotation kernels: the factored LVP data flow.

The sweep engine proved that one trace decode plus three factored
stages -- a value-predictor pass, an LCT classifier pass, and a CVU
replay over only the constant-classified loads -- reproduces
``annotate_trace`` bit-for-bit while sharing almost all of the work.
This module is that machinery, kept below ``repro.harness.sweep`` so
the standard annotation path can use it too: the ``vector`` kernel in
:mod:`repro.trace.annotate` runs exactly one configuration through the
same stages, and the sweep engine amortizes them across a grid.

Stage A has no per-load Python loop.  Every predictor family is a
numpy pass over the loads grouped by table entry (:class:`Segments`, a
stable argsort the decode memoizes per table size):

* the paper's LVPT under perfect selection over a depth-N history is N
  forward-fill rounds that build each load's MRU list slot by slot
  (:func:`stage_a_history`).  At depth 1 this is the MRU test "same
  value as the previous load of the entry", and it serves every MRU
  table at any depth too, since an MRU entry's head is always the last
  value written to it.  Gshare indexing and tags only change the
  grouping: in a tagged table a pc change restarts the entry;
* stride and hybrid follow from the per-entry value deltas: the stride
  in force is the previous delta and its confidence a run length
  (:func:`stage_a_stride`); the hybrid's chooser is a saturating
  counter (:func:`stage_a_hybrid`);
* FCM folds shifted views of the entry's values into a VPT slot and
  groups the loads once more by slot (:func:`stage_a_fcm`);
* last-N votes over shifted views of the entry's values
  (:func:`stage_a_lastn`).

Stage B's LCT and the hybrid's chooser share one segmented scan of
saturating counters (:func:`saturating_counters`).  Stage C replays the
CVU's LRU CAM over only the constant-classified loads and the stores
that may alias them.

Layering: this module sits *below* both ``repro.trace.annotate`` and
``repro.harness.sweep`` and must import from neither (it is the reason
:data:`NOT_A_LOAD` lives here and is re-exported upward).

Every fast path below must stay bit-identical to the corresponding
predictor/LCT/CVU class; the differential suites in
``tests/harness/test_sweep.py``, ``tests/trace/test_vector.py`` and
``tests/properties/test_prop_lvp.py`` enforce it against the general
:class:`~repro.lvp.unit.LVPUnit` path.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from repro.errors import ConfigError
from repro.lvp.config import LVPConfig
from repro.lvp.fcm import _HASH_MULT
from repro.lvp.hybrid import HybridPredictor
from repro.lvp.lct import LoadClass
from repro.lvp.stride import StridePredictor
from repro.lvp.unit import LoadOutcome, LVPStats
from repro.trace.records import Trace, memoized

#: Sentinel in the per-instruction outcome column for "not a load".
NOT_A_LOAD = 255


# ---------------------------------------------------------------------------
# Shared trace decode.
# ---------------------------------------------------------------------------
class Segments(NamedTuple):
    """Loads grouped by a direct-mapped table index (a stable argsort).

    ``order`` sorts the loads by ``index`` keeping program order within
    an entry; ``head`` marks (in sorted order) each entry's first load
    and ``start`` gives each sorted load its entry's first sorted
    position.  The stage-A passes and the LCT scan group this way.
    """

    index: np.ndarray  # int64 table index per load, program order
    order: np.ndarray
    head: np.ndarray  # bool, sorted order
    start: np.ndarray  # int32, sorted order


def group_by_index(index: np.ndarray) -> Segments:
    """Group loads by table *index* (see :class:`Segments`)."""
    order = np.argsort(index, kind="stable")
    seg = index[order]
    head = np.ones(len(index), dtype=bool)
    np.not_equal(seg[1:], seg[:-1], out=head[1:])
    pos = np.arange(len(index), dtype=np.int32)
    start = np.maximum.accumulate(np.where(head, pos, 0))
    return Segments(index, order, head, start)


@dataclass
class SweepEvents:
    """One trace, decoded once, in the shapes the three stages consume."""

    n_records: int
    #: Per dynamic load, in program order.
    load_pcs: np.ndarray
    load_values: np.ndarray
    #: Trace positions of the loads (for outcome-array reconstruction).
    load_positions: np.ndarray
    #: Memory events (loads + stores) in program order.
    mem_is_store: np.ndarray  # bool
    mem_load_ord: np.ndarray  # int64; -1 for stores
    #: The CVU's view of each memory event: the 8-byte word it starts
    #: in and the word it ends in (stores snoop the whole span).
    mem_words: np.ndarray  # int64
    mem_last_words: np.ndarray  # int64
    #: gshare's view: every branch outcome in program order, and for
    #: each load how many branches precede it.  None unless decoded
    #: with ``branches=True``.
    branch_takens: Optional[np.ndarray] = None  # bool
    load_branches: Optional[np.ndarray] = None  # int64
    _segments: dict = field(default_factory=dict, repr=False)
    _word_ids: Optional[tuple] = field(default=None, repr=False)

    @property
    def n_loads(self) -> int:
        return len(self.load_values)

    @property
    def n_stores(self) -> int:
        return int(np.count_nonzero(self.mem_is_store))

    def segments(self, entries: int) -> Segments:
        """Loads grouped by their pc index into an *entries*-entry
        table, computed once per decode (every pc-indexed stage-A pass
        and stage B's LCT scan use it)."""
        grouped = self._segments.get(entries)
        if grouped is None:
            grouped = self._segments[entries] = group_by_index(
                pc_indices(self.load_pcs, entries))
            _read_only(*grouped)
        return grouped

    def word_ids(self) -> tuple[np.ndarray, int]:
        """A dense id per distinct start word of the memory events (so
        stage C tests "is this word held by a constant load" with one
        flag array instead of a sort), and the number of ids."""
        if self._word_ids is None:
            unique, inverse = np.unique(self.mem_words, return_inverse=True)
            ids = inverse.reshape(-1)
            _read_only(ids)
            self._word_ids = (ids, len(unique))
        return self._word_ids


def decode_events(trace: Trace, branches: bool = True) -> SweepEvents:
    """Decode *trace* into the event streams every stage shares.

    This is the cost the sweep amortizes: numpy masks and fancy
    indexing once, instead of once per configuration.  *branches*
    may be False when no gshare configuration is in the grid.
    """
    from repro.isa.opcodes import OpClass

    is_load = trace.is_load
    is_store = trace.is_store
    mem_mask = is_load | is_store
    mem_positions = np.nonzero(mem_mask)[0]
    mem_is_store = is_store[mem_positions]
    mem_is_load = ~mem_is_store
    mem_load_ord = np.cumsum(mem_is_load) - 1
    mem_load_ord[mem_is_store] = -1

    load_positions = mem_positions[mem_is_load]
    addrs = trace.addr[mem_positions].astype(np.int64)
    sizes = np.maximum(trace.size[mem_positions].astype(np.int64), 1)

    events = SweepEvents(
        n_records=len(trace),
        load_pcs=trace.pc[load_positions],
        load_values=trace.value[load_positions],
        load_positions=load_positions,
        mem_is_store=mem_is_store,
        mem_load_ord=mem_load_ord,
        mem_words=addrs & ~7,
        mem_last_words=(addrs + sizes - 1) & ~7,
    )
    if branches:
        is_branch = trace.opclass == int(OpClass.BRANCH)
        events.branch_takens = trace.taken[is_branch] != 0
        # A load is never a branch, so the inclusive count at its
        # position counts the branches strictly before it.
        events.load_branches = np.cumsum(is_branch)[load_positions]
    _read_only(*(value for value in vars(events).values()
                 if isinstance(value, np.ndarray)))
    return events


def trace_events(trace: Trace, branches: bool = True) -> SweepEvents:
    """:func:`decode_events`, once per (trace, *branches*) while the
    trace lives: every annotation and locality pass over one trace
    shares the decode and the groupings cached on it."""
    return memoized(trace, ("events", branches),
                    lambda: decode_events(trace, branches))


def _read_only(*arrays: np.ndarray) -> None:
    """Freeze *arrays* in place: decoded events are shared."""
    for array in arrays:
        array.flags.writeable = False


# ---------------------------------------------------------------------------
# Stage A: the value-predictor pass.
# ---------------------------------------------------------------------------
def pc_indices(pcs: np.ndarray, entries: int) -> np.ndarray:
    """Direct-mapped table indices for an array of instruction PCs."""
    return (pcs.astype(np.int64) >> 2) & (entries - 1)


def _branch_stream(events: SweepEvents) -> tuple[np.ndarray, np.ndarray]:
    if events.branch_takens is None:
        raise ConfigError(
            "gshare configurations need a branch-aware decode "
            "(decode_events(..., branches=True))")
    return events.branch_takens, events.load_branches


def load_ghr(events: SweepEvents, ghr_bits: int) -> np.ndarray:
    """The global history register each load sees (gshare indexing).

    After k branches the GHR holds the last ``ghr_bits`` outcomes, the
    newest in bit 0; built by ``ghr_bits`` shifted ORs over the branch
    stream instead of a per-branch loop.
    """
    takens, load_branches = _branch_stream(events)
    takens = takens.astype(np.int64)
    n = len(takens)
    ghr = np.zeros(n + 1, dtype=np.int64)
    for bit in range(min(ghr_bits, n)):
        ghr[bit + 1:] |= takens[:n - bit] << bit
    return ghr[load_branches]


def _scatter(grouped: Segments, sorted_hits: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray]:
    """Program-order hits from hits in *grouped*'s sorted order."""
    hits = np.empty(len(sorted_hits), dtype=bool)
    hits[grouped.order] = sorted_hits
    return hits, grouped.index


def _history_hits(svals: np.ndarray, head: np.ndarray,
                  depth: int) -> np.ndarray:
    """Perfect selection over a depth-*depth* MRU list, in sorted order.

    A load hits when its value is among the entry's *depth* most
    recently used distinct values.  Slot 1 before load k is the value
    of load k-1.  Slot j+1 before load k+1 is slot j before the last
    load m <= k whose value was not already in slots 1..j: such a load
    pushes slot j down one place, and any other load leaves slot j+1
    where it is.  So each round is one forward fill over positions
    (``ptr``, -1 for an empty slot), and an entry's first load -- whose
    slots are all empty -- always stops the fill.  At depth 1 this is
    the MRU test "same value as the previous load of the entry".
    """
    n = len(svals)
    found = np.zeros(n, dtype=bool)
    np.equal(svals[1:], svals[:-1], out=found[1:])
    found &= ~head
    if depth == 1 or n == 0:
        return found
    pos = np.arange(n, dtype=np.int64)
    ptr = pos - 1
    ptr[head] = -1
    for _ in range(depth - 1):
        last = np.maximum.accumulate(np.where(found, 0, pos))
        ptr[1:] = ptr[last[:-1]]
        ptr[head] = -1
        filled = ptr >= 0
        if not filled.any():
            break
        found |= filled & (svals[ptr] == svals)
    return found


def stage_a_history(events: SweepEvents, entries: int, depth: int = 1,
                    tagged: bool = False, ghr_bits: int = 0
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized pass for the paper's LVPT under perfect selection
    over *depth* values -- and, at depth 1, for every MRU table, whose
    head is the last value written to it at any depth.

    ``ghr_bits`` > 0 selects gshare indexing: the pc index XOR the GHR
    the load sees.  In a tagged table a tag miss refills the entry, so
    a pc change restarts the entry's history like its first load does.
    """
    if ghr_bits:
        grouped = group_by_index(
            (pc_indices(events.load_pcs, entries)
             ^ load_ghr(events, ghr_bits)) & (entries - 1))
    else:
        grouped = events.segments(entries)
    head = grouped.head
    if tagged:
        spcs = events.load_pcs[grouped.order]
        head = head.copy()
        head[1:] |= spcs[1:] != spcs[:-1]
    return _scatter(grouped, _history_hits(
        events.load_values[grouped.order], head, depth))


def _stride_tests(svals: np.ndarray, head: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Per sorted load: would the last value hit, and would the
    :class:`~repro.lvp.stride.StridePredictor`'s prediction hit (the
    stride when confident, else the last value).

    The stride in force before load k is the delta into load k-1 (0
    before the entry's second load), so the stride hits exactly when
    load k repeats that delta.  The confidence after load k is the
    length of its run of equal deltas -- counting the entry's initial
    0 stride, and starting from 0 for a run of zero deltas; the
    predictor's cap at 3 never changes the ``>= 2`` test.  Both results
    are meaningless for an entry's first load.
    """
    n = len(svals)
    delta = np.zeros(n, dtype=np.uint64)
    np.subtract(svals[1:], svals[:-1], out=delta[1:])
    delta[head] = 0
    repeat = np.zeros(n, dtype=bool)
    np.equal(delta[1:], delta[:-1], out=repeat[1:])
    repeat &= ~head
    pos = np.arange(n, dtype=np.int64)
    run = np.maximum.accumulate(np.where(repeat, 0, pos))
    confidence = (delta[run] != 0) + (pos - run)
    confident = np.zeros(n, dtype=bool)
    np.greater_equal(confidence[:-1], StridePredictor.CONFIDENT,
                     out=confident[1:])
    value_ok = delta == 0
    return value_ok, np.where(confident, repeat, value_ok)


def stage_a_stride(events: SweepEvents,
                   entries: int) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized :class:`~repro.lvp.stride.StridePredictor` pass."""
    grouped = events.segments(entries)
    _, stride_ok = _stride_tests(events.load_values[grouped.order],
                                 grouped.head)
    return _scatter(grouped, stride_ok & ~grouped.head)


def stage_a_hybrid(events: SweepEvents,
                   entries: int) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized :class:`~repro.lvp.hybrid.HybridPredictor` pass.

    The components are the stride pass's two tests; the chooser is a
    saturating counter stepped up where only the stride component was
    right and down where only the last value was, so it is one
    segmented scan from its initial 1.
    """
    grouped = events.segments(entries)
    head = grouped.head
    value_ok, stride_ok = _stride_tests(events.load_values[grouped.order],
                                        head)
    up = stride_ok & ~value_ok & ~head
    down = value_ok & ~stride_ok & ~head
    top = HybridPredictor._CHOOSER_MAX
    step = up.astype(np.int32) - down.astype(np.int32)
    chooser = saturating_counters(step, up.astype(np.int32),
                                  top - down.astype(np.int32),
                                  head, grouped.start, 1)
    use_stride = chooser >= HybridPredictor._CHOOSE_STRIDE
    return _scatter(grouped, np.where(use_stride, stride_ok, value_ok)
                    & ~head)


def stage_a_fcm(events: SweepEvents, entries: int,
                order: int) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized :class:`~repro.lvp.fcm.FCMPredictor` pass.

    A load whose entry has seen *order* earlier loads folds their
    values (shifted views of the sorted values, wrapping uint64
    arithmetic) into a VPT slot.  The VPT is shared by every entry, so
    such a load hits when the previous such load, in program order,
    that wrote the same slot carried the same value: the depth-1
    history test over those loads grouped by slot.
    """
    grouped = events.segments(entries)
    svals = events.load_values[grouped.order]
    n = len(svals)
    folded = np.zeros(n, dtype=np.uint64)
    mult = np.uint64(_HASH_MULT)
    for lag in range(order, 0, -1):
        folded *= mult
        folded[lag:] += svals[:-lag]
    slots = ((folded ^ (folded >> np.uint64(32)))
             & np.uint64(entries - 1)).astype(np.int64)
    rank = np.arange(n, dtype=np.int32) - grouped.start
    warm = np.zeros(n, dtype=bool)
    warm[grouped.order] = rank >= order
    slot_of = np.empty(n, dtype=np.int64)
    slot_of[grouped.order] = slots
    loads = np.nonzero(warm)[0]
    by_slot = group_by_index(slot_of[loads])
    hits = np.zeros(n, dtype=bool)
    hits[loads[by_slot.order]] = _history_hits(
        events.load_values[loads[by_slot.order]], by_slot.head, 1)
    return hits, grouped.index


def stage_a_lastn(events: SweepEvents, entries: int,
                  depth: int) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized :class:`~repro.lvp.lastn.LastNPredictor` pass.

    The buffer before a load holds the values of the entry's previous
    ``min(rank, depth)`` loads.  Each buffered value's vote count is
    an O(depth**2) sweep of equality tests over shifted views, and
    ``argmax`` over lags 1..depth picks the first maximum, which is the
    most recent of the most frequent values -- the predictor's tie
    rule.
    """
    grouped = events.segments(entries)
    svals = events.load_values[grouped.order]
    n = len(svals)
    rank = np.arange(n, dtype=np.int32) - grouped.start
    padded = np.concatenate([np.zeros(depth, dtype=svals.dtype), svals])
    # lag j (1..depth) -> the value j loads back, where rank >= j.
    back = [padded[depth - lag:depth - lag + n]
            for lag in range(1, depth + 1)]
    votes = np.zeros((depth, n), dtype=np.min_scalar_type(depth))
    for j in range(depth):
        held = rank > j
        votes[j] += held
        for i in range(j):
            agree = held & (back[i] == back[j])
            votes[i] += agree
            votes[j] += agree
    winner = np.argmax(votes, axis=0)
    sorted_hits = np.zeros(n, dtype=bool)
    for j in range(depth):
        sorted_hits |= (winner == j) & (back[j] == svals)
    return _scatter(grouped, sorted_hits & (rank > 0))


def run_stage_a(events: SweepEvents,
                config: LVPConfig) -> tuple[np.ndarray, np.ndarray]:
    """Dispatch one configuration to its family's stage-A pass.

    Returns each load's ``would_hit`` flag and its LVPT index at event
    time (the CVU key's second half).  Only the paper's history LVPT
    reads the tag and index-mode fields; the other families ignore
    them, as :func:`~repro.lvp.unit.build_predictor` does.
    """
    predictor = config.predictor
    entries = config.lvpt_entries
    if predictor == "history":
        depth = 1 if config.selection == "mru" else config.history_depth
        return stage_a_history(
            events, entries, depth, config.lvpt_tagged,
            config.ghr_bits if config.index_mode == "gshare" else 0)
    if predictor == "stride":
        return stage_a_stride(events, entries)
    if predictor == "hybrid":
        return stage_a_hybrid(events, entries)
    if predictor == "fcm":
        return stage_a_fcm(events, entries, config.history_depth)
    if predictor == "lastn":
        return stage_a_lastn(events, entries, config.history_depth)
    raise ConfigError(f"{config.name}: no stage-A pass for predictor "
                      f"{predictor!r}")


# ---------------------------------------------------------------------------
# Stage B: the classifier pass.
# ---------------------------------------------------------------------------
_DONT = int(LoadClass.DONT_PREDICT)
_PREDICT = int(LoadClass.PREDICT)
_CONST = int(LoadClass.CONSTANT)


def saturating_counters(step: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                        head: np.ndarray, start: np.ndarray,
                        initial: int) -> np.ndarray:
    """Evolve one saturating counter per segment; returns the value
    each element sees BEFORE its own step.

    Element k applies the clip-affine map ``c -> min(hi, max(lo, c +
    step))`` (a saturating +-1 is written tight, so saturation shows as
    ``lo >= hi``), and such maps are closed under composition, so each
    segment's counter stream is a segmented inclusive prefix scan over
    ``(step, lo, hi)`` triples.  Segments are runs of a sorted order
    (``head`` marks their first elements, ``start`` gives each element
    its segment's first position); every segment starts at *initial*.
    The scan runs Hillis-Steele doubling with a segment guard -- O(n
    log n) numpy work, no per-element Python loop -- and stops as soon
    as every element that still has earlier elements of its segment to
    compose holds a constant map (``lo >= hi``): a constant map absorbs
    whatever is composed before it.  int32 is ample: ``|step| <= n <
    2**31`` and lo/hi stay within it too.
    """
    n = len(step)
    comp_a, comp_lo, comp_hi = step, lo, hi
    # Segmented inclusive scan: compose element k with k-o (applied
    # first) while k-o is still inside k's segment.  Composition law
    # for f=(a1,lo1,hi1) then g=(a2,lo2,hi2):
    #   a = a1+a2; lo = max(lo2, lo1+a2); hi = min(hi2, max(lo2, hi1+a2))
    pos = np.arange(n, dtype=np.int32)
    back = pos - start
    offset = 1
    while True:
        can = back >= offset
        if not (can & (comp_lo < comp_hi)).any():
            break
        src = np.where(can, pos - offset, pos)
        prev_a = comp_a[src]
        prev_lo = comp_lo[src]
        prev_hi = comp_hi[src]
        new_a = prev_a + comp_a
        new_lo = np.maximum(comp_lo, prev_lo + comp_a)
        new_hi = np.minimum(comp_hi, np.maximum(comp_lo, prev_hi + comp_a))
        comp_a = np.where(can, new_a, comp_a)
        comp_lo = np.where(can, new_lo, comp_lo)
        comp_hi = np.where(can, new_hi, comp_hi)
        offset <<= 1

    # Counter AFTER element k (applied to the segment's initial value),
    # shifted: each element sees the counter BEFORE its step.
    after = np.minimum(comp_hi, np.maximum(comp_lo, comp_a + initial))
    before = np.empty(n, dtype=np.int64)
    before[1:] = after[:-1]
    before[head] = initial
    return before


def run_stage_b(events: SweepEvents, hits: np.ndarray,
                lct_entries: int, lct_bits: int) -> np.ndarray:
    """Evolve the LCT counters over the ``would_hit`` stream; returns
    each load's classification code (uint8 LoadClass values).

    Fully vectorized: an LCT entry is a saturating counter starting at
    0, so the loads grouped per entry with the decode's stable argsort
    (:meth:`SweepEvents.segments`) run through one
    :func:`saturating_counters` scan.
    """
    n = events.n_loads
    lct_max = (1 << lct_bits) - 1
    # Counter value -> LoadClass code.
    class_of = np.full(lct_max + 1, _DONT, dtype=np.uint8)
    class_of[lct_max] = _CONST
    if lct_bits > 1:
        class_of[lct_max - 1] = _PREDICT
    if n == 0:
        return np.empty(0, dtype=np.uint8)

    order, head, start = events.segments(lct_entries)[1:]
    # A hit is clip(c + 1, 1, lct_max), a miss clip(c - 1, 0,
    # lct_max - 1).
    sorted_hits = hits[order]
    step = np.where(sorted_hits, 1, -1).astype(np.int32)
    lo = sorted_hits.astype(np.int32)
    before = saturating_counters(step, lo, lo + (lct_max - 1), head,
                                 start, 0)
    classes = np.empty(n, dtype=np.uint8)
    classes[order] = class_of[before]
    return classes


class LctContext:
    """Per-(predictor, LCT) shared state stage C reuses across every
    CVU capacity: the classification masks, the Table 3 tallies, the
    non-constant outcome template, and the compact CVU event stream."""

    __slots__ = ("const_mask", "n_const", "base_out",
                 "pp", "pnp", "up", "unp", "_streams")

    def __init__(self, hits: np.ndarray, classes: np.ndarray) -> None:
        self.const_mask = classes == _CONST
        self.n_const = int(np.count_nonzero(self.const_mask))
        self.base_out = np.where(
            classes == _PREDICT,
            np.where(hits, int(LoadOutcome.CORRECT),
                     int(LoadOutcome.INCORRECT)),
            int(LoadOutcome.NO_PREDICTION)).astype(np.uint8)
        dont = classes == _DONT
        self.pnp = int(np.count_nonzero(dont & hits))
        self.unp = int(np.count_nonzero(dont & ~hits))
        self.pp = int(np.count_nonzero(~dont & hits))
        self.up = int(np.count_nonzero(~dont & ~hits))
        self._streams: Optional[tuple] = None

    def relevant_streams(self, events: SweepEvents, idxs: np.ndarray,
                         shift: int, hits: np.ndarray) -> tuple:
        """The CVU-visible event stream: constant-classified loads and
        aliasing stores, in program order, as compact parallel lists.

        Loads carry ``(cam_key, would_hit)``, stores carry their
        snooped ``(first_word, last_word)`` span -- precomputed here
        once per classifier shape instead of once per CVU capacity
        (every configuration sharing this context shares its predictor,
        hence its ``idxs`` and LVPT ``shift``).
        """
        if self._streams is None:
            mem_ord = events.mem_load_ord
            mem_store = events.mem_is_store
            words = events.mem_words
            last_words = events.mem_last_words
            word_ids, n_words = events.word_ids()
            const_load = np.zeros(len(mem_ord), dtype=bool)
            const_load[~mem_store] = self.const_mask
            # The CAM only ever holds words of constant-classified
            # loads, so a single-word store whose word is not among
            # them can never invalidate anything -- drop it here
            # instead of replaying it.  Multi-word stores are rare;
            # keep them all rather than testing their whole span.
            const_word = np.zeros(n_words, dtype=bool)
            const_word[word_ids[const_load]] = True
            aliasing = mem_store & (
                (words != last_words) | const_word[word_ids])
            positions = np.nonzero(const_load | aliasing)[0]
            store_flags = mem_store[positions]
            load_sel = ~store_flags
            load_ord = mem_ord[positions][load_sel]
            load_words = words[positions][load_sel]
            firsts = np.where(store_flags, words[positions], 0)
            seconds = np.where(store_flags, last_words[positions], 0)
            seconds[load_sel] = hits[load_ord]
            if load_ord.size and (load_words.min() < 0
                                  or (int(load_words.max())
                                      >> (62 - shift))):
                # Degenerate address range: pack the CAM keys with
                # Python ints (exact at any width).
                first_list = firsts.tolist()
                for i, w, o in zip(np.nonzero(load_sel)[0].tolist(),
                                   load_words.tolist(),
                                   load_ord.tolist()):
                    first_list[i] = (int(w) << shift) | int(idxs[o])
            else:
                firsts[load_sel] = (load_words << shift) | idxs[load_ord]
                first_list = firsts.tolist()
            self._streams = (store_flags.tolist(), first_list,
                             seconds.tolist())
        return self._streams


# ---------------------------------------------------------------------------
# Stage C: the CVU pass + outcome/stats assembly.
# ---------------------------------------------------------------------------
def run_stage_c(events: SweepEvents, hits: np.ndarray, idxs: np.ndarray,
                context: LctContext, config: LVPConfig
                ) -> tuple[np.ndarray, LVPStats, Optional[int]]:
    """Simulate the CVU over the constant-classified loads and
    assemble one configuration's full per-record outcome array and
    :class:`~repro.lvp.unit.LVPStats` -- bit-identical to a standalone
    :func:`~repro.trace.annotate.annotate_trace` run.

    The third result is the CAM's peak occupancy after an insertion,
    or None if the replay ever evicted.  A replay that never evicted is
    the replay of every capacity at or above that peak: the eviction
    test ``len(cam) >= capacity`` can never fire there, and nothing
    else reads the capacity.
    """
    n_const = context.n_const
    cvu_entries = config.cvu_entries
    out = context.base_out.copy()

    cvu_ins = cvu_sinv = cvu_dem = cvu_stale = 0
    peak: Optional[int] = 0
    if n_const and cvu_entries == 0:
        # A zero-entry CVU can never match: every constant-classified
        # load demotes to ordinary verification, and the refused
        # insertions are not counted (the counter bugfix the sweep
        # engine's differential suite locks in).
        cvu_dem = n_const
        peak = None
        out[context.const_mask] = np.where(
            hits[context.const_mask], int(LoadOutcome.CORRECT),
            int(LoadOutcome.INCORRECT))
    elif n_const:
        # CAM keys pack (word, lvpt_index) into one int -- int keys
        # hash faster than tuples and allocate nothing.  The word
        # survives in the high bits for eviction bookkeeping.
        shift = (config.lvpt_entries - 1).bit_length()
        rel_store, rel_first, rel_second = \
            context.relevant_streams(events, idxs, shift, hits)
        cam: OrderedDict = OrderedDict()
        by_addr: dict[int, set] = {}
        cam_move = cam.move_to_end
        cam_pop_lru = cam.popitem
        const_out = bytearray()
        emit = const_out.append
        evicted = False
        for is_store, first, second in zip(rel_store, rel_first,
                                           rel_second):
            if not is_store:
                # A constant-classified load: first=key, second=hit.
                if first in cam:
                    if second:
                        cam_move(first)
                        emit(3)
                    else:
                        cvu_stale += 1
                        del cam[first]
                        word = first >> shift
                        holders = by_addr.get(word)
                        if holders is not None:
                            holders.discard(first)
                            if not holders:
                                del by_addr[word]
                        emit(1)
                else:
                    cvu_dem += 1
                    occupied = len(cam)
                    if occupied >= cvu_entries:
                        evicted = True
                        victim = cam_pop_lru(last=False)[0]
                        victims = by_addr.get(victim >> shift)
                        if victims is not None:
                            victims.discard(victim)
                            if not victims:
                                del by_addr[victim >> shift]
                    elif occupied >= peak:
                        peak = occupied + 1
                    cam[first] = None
                    word = first >> shift
                    holders = by_addr.get(word)
                    if holders is None:
                        by_addr[word] = {first}
                    else:
                        holders.add(first)
                    cvu_ins += 1
                    emit(2 if second else 1)
            elif first == second:
                # A store within one word (the common case).
                holders = by_addr.pop(first, None)
                if holders:
                    for key in holders:
                        del cam[key]
                    cvu_sinv += len(holders)
            else:
                for word in range(first, second + 8, 8):
                    holders = by_addr.pop(word, None)
                    if holders:
                        for key in holders:
                            del cam[key]
                        cvu_sinv += len(holders)
        out[context.const_mask] = np.frombuffer(const_out, dtype=np.uint8)
        if evicted:
            peak = None

    counts = np.bincount(out, minlength=4)
    stats = LVPStats(
        loads=events.n_loads, stores=events.n_stores,
        outcomes={
            LoadOutcome.NO_PREDICTION: int(counts[0]),
            LoadOutcome.INCORRECT: int(counts[1]),
            LoadOutcome.CORRECT: int(counts[2]),
            LoadOutcome.CONSTANT: int(counts[3]),
        },
        predictable_predicted=context.pp,
        predictable_not_predicted=context.pnp,
        unpredictable_predicted=context.up,
        unpredictable_not_predicted=context.unp,
        cvu_insertions=cvu_ins,
        cvu_store_invalidations=cvu_sinv,
        cvu_demotions=cvu_dem,
        cvu_stale_hits=cvu_stale,
    )
    full = np.full(events.n_records, NOT_A_LOAD, dtype=np.uint8)
    full[events.load_positions] = out
    return full, stats, peak
