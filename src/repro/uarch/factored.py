"""LVP-invariant machine state, computed once per trace.

Both fast timing-model loops (``repro.uarch.ppc620.model`` and
``repro.uarch.axp21164.model``) consume a trace in three stages:

* **Stage 1 -- the front end**, once per (trace, front-end geometry):
  the I-cache is accessed in program order over the PCs, and the 2-bit
  BHT and last-target BTB are trained in program order on the trace's
  actual outcomes.  Neither depends on the LVP configuration or on the
  scheduler, so each instruction's I-cache miss bit and each branch's
  mispredict bit are the same in every run of the trace.
* **Stage 2 -- the data cache**, once per (trace, cache geometry,
  CONSTANT-load mask): loads and stores walk the L1/L2 in program
  order, and the only LVP dependence is that CVU-verified CONSTANT
  loads skip the cache.  Each load's service level (L1, L2, memory) is
  therefore a function of the mask alone.
* **Stage 3 -- the scheduler**, per run, in the machine's own module.

Stage 1 and 2 results are memoized per :class:`~repro.trace.records.Trace`
object in a :class:`weakref.WeakKeyDictionary`, so they live exactly as
long as the trace.  Traces are immutable: code that edits records
works on a ``Trace.materialize()`` copy, which is a separate key.  The
memo keeps only the rare events (I-cache misses, branch
mispredictions, L1-missing loads) as ``uint32`` instruction positions;
each run expands them into the lists its loop indexes.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from repro.isa.opcodes import Opcode, OpClass
from repro.lvp.unit import LoadOutcome
from repro.trace.annotate import NOT_A_LOAD, AnnotatedTrace
from repro.trace.records import Trace
from repro.uarch.components.branch import BranchPredictor, BranchStats
from repro.uarch.components.cache import Cache, CacheStats

_MEMO: "weakref.WeakKeyDictionary[Trace, dict]" = weakref.WeakKeyDictionary()


def _memoized(trace: Trace, key: tuple, compute):
    """``compute()``, once per (trace, key)."""
    entry = _MEMO.get(trace)
    if entry is None:
        entry = _MEMO[trace] = {}
    result = entry.get(key)
    if result is None:
        result = entry[key] = compute()
    return result


def _positions(flags: list[bool], where) -> np.ndarray:
    """The entries of *where* whose flag is set, as a read-only array
    (memo values are shared by every run of a trace)."""
    positions = np.asarray(where, dtype=np.uint32)[
        np.array(flags, dtype=bool)]
    positions.flags.writeable = False
    return positions


def _expand(count: int, positions: np.ndarray, value: int) -> list[int]:
    """A per-instruction list: *value* at *positions*, 0 elsewhere."""
    dense = [0] * count
    for position in positions.tolist():
        dense[position] = value
    return dense


@dataclass(frozen=True)
class FrontEnd:
    """Stage 1: the front-end events of one trace.

    Events are rare, so they are kept as instruction positions; a run
    expands them into per-instruction lists.
    """

    count: int
    #: Positions of fetches that missed the I-cache.
    icache_misses: np.ndarray
    #: Positions of branches the BHT/BTB mispredicted.
    mispredicts: np.ndarray
    branch_stats: BranchStats

    def icache_stalls(self, l2_latency: int) -> list[int]:
        """Per-instruction fetch stall (0, or the L2 trip on a miss)."""
        return _expand(self.count, self.icache_misses, l2_latency)

    def mispredicted(self) -> list[int]:
        """Per-instruction flag: 1 for a mispredicted branch."""
        return _expand(self.count, self.mispredicts, 1)


@dataclass(frozen=True)
class DataCache:
    """Stage 2: the loads that miss the L1, and the L1 counts, of one
    trace under one CONSTANT-load mask."""

    count: int
    #: Positions of loads that miss the L1 and hit the L2.
    l2_loads: np.ndarray
    #: Positions of loads that miss both levels.
    memory_loads: np.ndarray
    l1_stats: CacheStats
    #: CONSTANT loads whose line was absent from the L1 (21164 metric).
    constant_past_miss: int

    def add_penalties(self, latencies: list[int], l2_latency: int,
                      memory_latency: int) -> list[int]:
        """Add each missing load's extra latency to its entry of the
        per-instruction *latencies* (in place; returned for chaining)."""
        for position in self.l2_loads.tolist():
            latencies[position] += l2_latency
        for position in self.memory_loads.tolist():
            latencies[position] += l2_latency + memory_latency
        return latencies

    def l1_missed(self) -> np.ndarray:
        """Per-instruction bool: a load that missed the L1."""
        missed = np.zeros(self.count, dtype=bool)
        missed[self.l2_loads] = True
        missed[self.memory_loads] = True
        return missed


def _front_end(trace: Trace, icache_size: int, icache_assoc: int,
               line_size: int) -> FrontEnd:
    """Stage 1 for one front-end geometry (``icache_size=0``: perfect)."""
    count = len(trace)
    pcs = trace.pc
    icache_misses = np.zeros(0, dtype=np.uint32)
    if icache_size and count:
        icache = Cache(icache_size, icache_assoc, line_size)
        lines = pcs // line_size
        # Re-fetching the line just fetched is a hit on the MRU way and
        # leaves the LRU order unchanged, so only line changes matter.
        starts = np.flatnonzero(np.concatenate(
            ([True], lines[1:] != lines[:-1])))
        icache_misses = _positions(
            [not icache.access(pc) for pc in pcs[starts].tolist()], starts)

    branches = np.flatnonzero((trace.opclass == int(OpClass.BRANCH))
                              & (trace.opcode != int(Opcode.HALT)))
    # An indirect branch's actual target is the next instruction's PC.
    targets = np.zeros(len(branches), dtype=pcs.dtype)
    has_next = branches + 1 < count
    targets[has_next] = pcs[branches[has_next] + 1]
    predictor = BranchPredictor()
    missed = [not predictor.predict_and_update(opcode, pc, taken, target)
              for opcode, pc, taken, target in zip(
                  trace.opcode[branches].tolist(), pcs[branches].tolist(),
                  trace.taken[branches].tolist(), targets.tolist())]
    return FrontEnd(
        count=count,
        icache_misses=icache_misses,
        mispredicts=_positions(missed, branches),
        branch_stats=predictor.stats,
    )


def precompute(annotated: AnnotatedTrace, config,
               use_lvp: bool) -> tuple[FrontEnd, DataCache]:
    """Stage 1 and 2 results for one run of a machine *config* (either
    model's config: both name their cache geometry alike)."""
    trace = annotated.trace
    front = (config.icache_size, config.icache_assoc, config.l1_line)
    data = (config.l1_size, config.l1_assoc, config.l1_line,
            config.l2_size, config.l2_assoc)
    constant = _constant_mask(annotated, use_lvp)
    mask_key = (None if constant is None
                else np.packbits(constant).tobytes())
    return (
        _memoized(trace, ("front",) + front,
                  lambda: _front_end(trace, *front)),
        _memoized(trace, ("data",) + data + (mask_key,),
                  lambda: _data_cache(trace, *data, constant)),
    )


def _constant_mask(annotated: AnnotatedTrace,
                   use_lvp: bool) -> np.ndarray | None:
    """Loads the CVU verified as CONSTANT in this run (None: no such load)."""
    if not use_lvp:
        return None
    mask = annotated.outcomes == int(LoadOutcome.CONSTANT)
    mask &= annotated.trace.opclass == int(OpClass.LOAD)
    return mask if mask.any() else None


def _data_cache(trace: Trace, l1_size: int, l1_assoc: int, line_size: int,
                l2_size: int, l2_assoc: int,
                constant: np.ndarray | None) -> DataCache:
    """Stage 2 for one cache geometry and CONSTANT-load mask."""
    opclass = trace.opclass
    is_load = opclass == int(OpClass.LOAD)
    memory_ops = np.flatnonzero(is_load | (opclass == int(OpClass.STORE)))
    # Per memory op: 0 store, 1 load, 2 CONSTANT load (skips the cache).
    role = is_load[memory_ops].astype(np.uint8)
    if constant is not None:
        role[constant[memory_ops]] = 2
    l1 = Cache(l1_size, l1_assoc, line_size)
    l2 = Cache(l2_size, l2_assoc, line_size)
    # Per load that misses the L1: True if the L2 holds its line.
    l2_hit: list[bool] = []
    missing: list[int] = []
    constant_past_miss = 0
    for position, op, addr in zip(memory_ops.tolist(), role.tolist(),
                                  trace.addr[memory_ops].tolist()):
        if op == 1:
            if not l1.access(addr):
                missing.append(position)
                l2_hit.append(l2.access(addr))
        elif op == 2:
            if not l1.probe(addr):
                constant_past_miss += 1
        else:
            l1.access(addr, is_store=True)
            l2.access(addr, is_store=True)
    return DataCache(
        count=len(trace),
        l2_loads=_positions(l2_hit, missing),
        memory_loads=_positions([not hit for hit in l2_hit], missing),
        l1_stats=l1.stats,
        constant_past_miss=constant_past_miss,
    )


def load_outcome_counts(annotated: AnnotatedTrace, use_lvp: bool,
                        unpredicted: np.ndarray | None = None,
                        ) -> dict[LoadOutcome, int]:
    """A run's per-outcome load counts (all zero without LVP).

    Loads flagged in *unpredicted* count as ``NO_PREDICTION`` (the 21164
    abandons the prediction of a load that misses the L1).
    """
    counts = [0, 0, 0, 0]
    if use_lvp:
        is_load = annotated.trace.is_load
        outcomes = annotated.outcomes[is_load]
        if unpredicted is not None:
            outcomes = np.where(unpredicted[is_load],
                                int(LoadOutcome.NO_PREDICTION), outcomes)
        counts = np.bincount(outcomes[outcomes != NOT_A_LOAD],
                             minlength=4).tolist()
    return {outcome: counts[int(outcome)] for outcome in LoadOutcome}
