"""Shared annotation kernels: the factored LVP data flow.

The sweep engine proved that one trace decode plus three factored
stages -- a value-predictor pass, an LCT classifier pass, and a CVU
replay over only the constant-classified loads -- reproduces
``annotate_trace`` bit-for-bit while sharing almost all of the work.
This module is that machinery, kept below ``repro.harness.sweep`` so
the standard annotation path can use it too: the ``vector`` kernel in
:mod:`repro.trace.annotate` runs exactly one configuration through the
same stages, and the sweep engine amortizes them across a grid.

Every table with MRU selection -- the paper's LVPT at any history
depth, pc- or gshare-indexed, tagged or not, and last-N at depth 1 --
goes through one vectorized pass (:func:`stage_a_mru`): an MRU entry's
head is always the last value written to it, so a load hits exactly
when the previous load at its index carried the same value (and, when
tagged, the same pc).  Perfect selection and the stride/FCM/last-N/
hybrid families run as flat loops over table lists, and anything else
goes through the real predictor objects (:func:`stage_a_generic`).

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
from repro.lvp.lct import LoadClass
from repro.lvp.unit import LoadOutcome, LVPStats, build_predictor
from repro.trace.records import Trace

#: Sentinel in the per-instruction outcome column for "not a load".
NOT_A_LOAD = 255

_U64 = (1 << 64) - 1


# ---------------------------------------------------------------------------
# Shared trace decode.
# ---------------------------------------------------------------------------
class Segments(NamedTuple):
    """Loads grouped by a direct-mapped table index (a stable argsort).

    ``order`` sorts the loads by ``index`` keeping program order within
    an entry; ``head`` marks (in sorted order) each entry's first load
    and ``start`` gives each sorted load its entry's first sorted
    position.  The MRU pass and the LCT scan both group this way.
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
    #: Per dynamic load, in program order (Python lists for the stage
    #: loops, numpy for the vectorized paths).
    load_pcs: list
    load_values: list
    load_pcs_np: np.ndarray
    load_values_np: np.ndarray
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
        return len(self.load_pcs)

    @property
    def n_stores(self) -> int:
        return int(np.count_nonzero(self.mem_is_store))

    def segments(self, entries: int) -> Segments:
        """Loads grouped by their pc index into an *entries*-entry
        table, computed once per decode (stage A's pc-indexed MRU pass
        and stage B's LCT scan both use it)."""
        grouped = self._segments.get(entries)
        if grouped is None:
            grouped = self._segments[entries] = group_by_index(
                pc_indices(self.load_pcs_np, entries))
        return grouped

    def word_ids(self) -> tuple[np.ndarray, int]:
        """A dense id per distinct start word of the memory events (so
        stage C tests "is this word held by a constant load" with one
        flag array instead of a sort), and the number of ids."""
        if self._word_ids is None:
            unique, inverse = np.unique(self.mem_words, return_inverse=True)
            self._word_ids = (inverse.reshape(-1), len(unique))
        return self._word_ids


def decode_events(trace: Trace, branches: bool = True) -> SweepEvents:
    """Decode *trace* into the event streams every stage shares.

    This is the cost the sweep amortizes: numpy mask + fancy-index +
    ``tolist`` once, instead of once per configuration.  *branches*
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
    load_pcs_np = trace.pc[load_positions]
    load_values_np = trace.value[load_positions]
    addrs = trace.addr[mem_positions].astype(np.int64)
    sizes = np.maximum(trace.size[mem_positions].astype(np.int64), 1)

    events = SweepEvents(
        n_records=len(trace),
        load_pcs=load_pcs_np.tolist(),
        load_values=load_values_np.tolist(),
        load_pcs_np=load_pcs_np,
        load_values_np=load_values_np,
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
    return events


# ---------------------------------------------------------------------------
# Stage A: the value-predictor pass.
# ---------------------------------------------------------------------------
def pc_indices(pcs_np: np.ndarray, entries: int) -> np.ndarray:
    """Direct-mapped table indices for an array of instruction PCs."""
    return (pcs_np.astype(np.int64) >> 2) & (entries - 1)


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


def stage_a_mru(events: SweepEvents, entries: int, tagged: bool = False,
                ghr_bits: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized pass for every MRU-selection table.

    An MRU entry's head is the last value written to it at any history
    depth, so a load hits iff the previous load mapping to the same
    index carried the same value -- and, in a tagged table (where a tag
    miss refills the entry), the same pc.  ``ghr_bits`` > 0 selects
    gshare indexing: the pc index XOR the GHR the load sees.
    """
    if ghr_bits:
        index = (pc_indices(events.load_pcs_np, entries)
                 ^ load_ghr(events, ghr_bits)) & (entries - 1)
        grouped = group_by_index(index)
    else:
        grouped = events.segments(entries)
    order = grouped.order
    svals = events.load_values_np[order]
    same = ~grouped.head[1:] & (svals[1:] == svals[:-1])
    if tagged:
        spcs = events.load_pcs_np[order]
        same &= spcs[1:] == spcs[:-1]
    hits = np.zeros(len(order), dtype=bool)
    hits[order[1:]] = same
    return hits, grouped.index


def stage_a_history_perfect(events: SweepEvents, entries: int,
                            depth: int) -> tuple[np.ndarray, np.ndarray]:
    """Inline pass for the paper's PC-indexed untagged LVPT under the
    perfect-selection oracle (mirrors the monomorphic kernel's LVPT
    half exactly): a load hits if any stored value matches."""
    mask = entries - 1
    table: list[list[int]] = [[] for _ in range(entries)]
    hits = np.empty(events.n_loads, dtype=bool)
    for i, (pc, value) in enumerate(zip(events.load_pcs,
                                        events.load_values)):
        hist = table[(pc >> 2) & mask]
        if hist:
            hits[i] = value in hist
            if hist[0] != value:
                try:
                    hist.remove(value)
                except ValueError:
                    pass
                hist.insert(0, value)
                if len(hist) > depth:
                    hist.pop()
        else:
            hits[i] = False
            hist.append(value)
    return hits, pc_indices(events.load_pcs_np, entries)


def stage_a_stride(events: SweepEvents,
                   entries: int) -> tuple[np.ndarray, np.ndarray]:
    """Inline :class:`~repro.lvp.stride.StridePredictor` pass."""
    mask = entries - 1
    last: list = [None] * entries
    stride = [0] * entries
    conf = [0] * entries
    hits = np.empty(events.n_loads, dtype=bool)
    for i, (pc, value) in enumerate(zip(events.load_pcs,
                                        events.load_values)):
        idx = (pc >> 2) & mask
        prev = last[idx]
        if prev is None:
            hits[i] = False
            last[idx] = value
            continue
        if conf[idx] >= 2:
            hits[i] = ((prev + stride[idx]) & _U64) == value
        else:
            hits[i] = prev == value
        delta = (value - prev) & _U64
        if delta == stride[idx]:
            if conf[idx] < 3:
                conf[idx] += 1
        else:
            stride[idx] = delta
            conf[idx] = 1 if delta else 0
        last[idx] = value
    return hits, pc_indices(events.load_pcs_np, entries)


def stage_a_fcm(events: SweepEvents, entries: int,
                order: int) -> tuple[np.ndarray, np.ndarray]:
    """Inline :class:`~repro.lvp.fcm.FCMPredictor` pass.

    The unit hashes the context twice per load (once predicting, once
    training); here prediction and the VPT write share one hash, which
    is legal because nothing shifts the context in between.
    """
    mask = entries - 1
    vht: list[list[int]] = [[] for _ in range(entries)]
    vpt: list = [None] * entries
    hits = np.empty(events.n_loads, dtype=bool)
    for i, (pc, value) in enumerate(zip(events.load_pcs,
                                        events.load_values)):
        ctx = vht[(pc >> 2) & mask]
        if len(ctx) >= order:
            folded = 0
            for v in ctx:
                folded = ((folded * _HASH_MULT) + v) & _U64
            slot = (folded ^ (folded >> 32)) & mask
            hits[i] = vpt[slot] == value
            vpt[slot] = value
            ctx.append(value)
            ctx.pop(0)
        else:
            hits[i] = False
            ctx.append(value)
    return hits, pc_indices(events.load_pcs_np, entries)


def stage_a_lastn(events: SweepEvents, entries: int,
                  depth: int) -> tuple[np.ndarray, np.ndarray]:
    """Inline :class:`~repro.lvp.lastn.LastNPredictor` pass."""
    mask = entries - 1
    buffers: list[list[int]] = [[] for _ in range(entries)]
    hits = np.empty(events.n_loads, dtype=bool)
    for i, (pc, value) in enumerate(zip(events.load_pcs,
                                        events.load_values)):
        buffer = buffers[(pc >> 2) & mask]
        if buffer:
            counts: dict[int, int] = {}
            for v in buffer:
                counts[v] = counts.get(v, 0) + 1
            best = None
            best_count = 0
            for v in reversed(buffer):
                count = counts[v]
                if count > best_count:
                    best = v
                    best_count = count
            hits[i] = best == value
        else:
            hits[i] = False
        buffer.append(value)
        if len(buffer) > depth:
            buffer.pop(0)
    return hits, pc_indices(events.load_pcs_np, entries)


def stage_a_hybrid(events: SweepEvents,
                   entries: int) -> tuple[np.ndarray, np.ndarray]:
    """Inline :class:`~repro.lvp.hybrid.HybridPredictor` pass."""
    mask = entries - 1
    last: list = [None] * entries
    stride = [0] * entries
    conf = [0] * entries
    chooser = [1] * entries
    hits = np.empty(events.n_loads, dtype=bool)
    for i, (pc, value) in enumerate(zip(events.load_pcs,
                                        events.load_values)):
        idx = (pc >> 2) & mask
        prev = last[idx]
        if prev is None:
            hits[i] = False
            last[idx] = value
            continue
        if conf[idx] >= 2:
            value_pred = prev
            stride_pred = (prev + stride[idx]) & _U64
        else:
            value_pred = stride_pred = prev
        hits[i] = (stride_pred if chooser[idx] >= 2
                   else value_pred) == value
        value_ok = value_pred == value
        stride_ok = stride_pred == value
        if stride_ok and not value_ok:
            if chooser[idx] < 3:
                chooser[idx] += 1
        elif value_ok and not stride_ok:
            if chooser[idx] > 0:
                chooser[idx] -= 1
        delta = (value - prev) & _U64
        if delta == stride[idx]:
            if conf[idx] < 3:
                conf[idx] += 1
        else:
            stride[idx] = delta
            conf[idx] = 1 if delta else 0
        last[idx] = value
    return hits, pc_indices(events.load_pcs_np, entries)


def stage_a_generic(events: SweepEvents,
                    config: LVPConfig) -> tuple[np.ndarray, np.ndarray]:
    """Object-based pass through the real predictor classes.

    Using :func:`~repro.lvp.unit.build_predictor` -- the same factory
    the LVP unit uses -- guarantees identical table semantics for every
    family without duplicating their update rules here.  Only shapes
    with no inline pass come here (perfect selection on a tagged or
    gshare-indexed LVPT, or a future family).
    """
    table = build_predictor(config)
    hits = np.empty(events.n_loads, dtype=bool)
    idxs = np.empty(events.n_loads, dtype=np.int64)
    would = table.would_be_correct
    index_of = table.index_of
    update = table.update
    gshare = config.index_mode == "gshare"
    if gshare:
        record_branch = table.record_branch
        takens, befores = (column.tolist()
                           for column in _branch_stream(events))
        seen = 0
    for i, (pc, value) in enumerate(zip(events.load_pcs,
                                        events.load_values)):
        if gshare:
            for taken in takens[seen:befores[i]]:
                record_branch(taken)
            seen = befores[i]
        hits[i] = would(pc, value)
        idxs[i] = index_of(pc)
        update(pc, value)
    return hits, idxs


def run_stage_a(events: SweepEvents,
                config: LVPConfig) -> tuple[np.ndarray, np.ndarray]:
    """Dispatch one configuration to its fastest exact stage-A pass.

    Returns each load's ``would_hit`` flag and its LVPT index at event
    time (the CVU key's second half).
    """
    predictor = config.predictor
    if (predictor == "history"
            and (config.selection == "mru" or config.history_depth == 1)):
        return stage_a_mru(
            events, config.lvpt_entries, config.lvpt_tagged,
            config.ghr_bits if config.index_mode == "gshare" else 0)
    if predictor == "lastn" and config.history_depth == 1:
        return stage_a_mru(events, config.lvpt_entries)
    if config.index_mode == "gshare" or config.lvpt_tagged:
        return stage_a_generic(events, config)
    if predictor == "history":
        return stage_a_history_perfect(events, config.lvpt_entries,
                                       config.history_depth)
    if predictor == "stride":
        return stage_a_stride(events, config.lvpt_entries)
    if predictor == "fcm":
        return stage_a_fcm(events, config.lvpt_entries,
                           config.history_depth)
    if predictor == "lastn":
        return stage_a_lastn(events, config.lvpt_entries,
                             config.history_depth)
    if predictor == "hybrid":
        return stage_a_hybrid(events, config.lvpt_entries)
    # A predictor family this engine has no fast path for yet: the
    # object path is always correct.
    return stage_a_generic(events, config)


# ---------------------------------------------------------------------------
# Stage B: the classifier pass.
# ---------------------------------------------------------------------------
_DONT = int(LoadClass.DONT_PREDICT)
_PREDICT = int(LoadClass.PREDICT)
_CONST = int(LoadClass.CONSTANT)


def run_stage_b(events: SweepEvents, hits: np.ndarray,
                lct_entries: int, lct_bits: int) -> np.ndarray:
    """Evolve the LCT counters over the ``would_hit`` stream; returns
    each load's classification code (uint8 LoadClass values).

    Fully vectorized.  An LCT entry is a saturating counter: each load
    applies ``c -> clip(c +- 1, 0, max)``, and clip-affine maps
    ``c -> min(hi, max(lo, c + a))`` are closed under composition, so
    the per-entry counter stream is a segmented inclusive prefix scan
    over ``(a, lo, hi)`` triples.  Loads are grouped per entry with the
    decode's stable argsort (:meth:`SweepEvents.segments`) and the scan
    runs Hillis-Steele doubling with a segment guard -- O(n log n)
    numpy work, no per-load Python loop.  The doubling stops as soon as
    every load that still has earlier loads of its entry to compose
    holds a constant map (``lo >= hi``): a constant map absorbs
    whatever is composed before it, so those loads are already final.
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
    # Per-load step function on the counter range [0, lct_max], written
    # tight so saturation shows as lo >= hi: a hit is clip(c + 1, 1,
    # lct_max), a miss clip(c - 1, 0, lct_max - 1).  int32 is ample:
    # |a| <= n < 2**31 and lo/hi stay within it too.
    sorted_hits = hits[order]
    comp_a = np.where(sorted_hits, 1, -1).astype(np.int32)
    comp_lo = sorted_hits.astype(np.int32)
    comp_hi = comp_lo + (lct_max - 1)

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

    # Counter AFTER load k (applied to the entry's initial 0), then
    # shifted: the classification reads the counter BEFORE the update.
    after = np.minimum(comp_hi, np.maximum(comp_lo, comp_a))
    before = np.empty(n, dtype=np.int64)
    before[0] = 0
    before[1:] = after[:-1]
    before[head] = 0

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
