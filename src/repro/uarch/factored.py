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
  therefore a function of the mask alone.  The walk inlines
  :class:`~repro.uarch.components.cache.Cache` (per-set LRU lists over
  line and set numbers computed with numpy);
  ``tests/uarch/test_data_cache_walk.py`` holds it to the same walk
  through ``Cache`` objects.
* **Stage 3 -- the scheduler**, per run, in the machine's own module.

Stage 1 and 2 results are memoized per :class:`~repro.trace.records.Trace`
object (:func:`~repro.trace.records.memoized`), so they live exactly as
long as the trace.  The memo keeps only the rare events (I-cache
misses, branch mispredictions, L1-missing loads) as ``uint32``
instruction positions; each run expands them into the numpy columns
its loop zips over.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.isa.opcodes import Opcode, OpClass
from repro.lvp.unit import LoadOutcome
from repro.trace.annotate import NOT_A_LOAD, AnnotatedTrace
from repro.trace.records import Trace, memoized
from repro.uarch.components.branch import BranchPredictor, BranchStats
from repro.uarch.components.cache import Cache, CacheStats


def _positions(positions: list[int]) -> np.ndarray:
    """Instruction positions as a read-only array (memo values are
    shared by every run of a trace)."""
    array = np.array(positions, dtype=np.uint32)
    array.flags.writeable = False
    return array


def _expand(count: int, positions: np.ndarray, value: int) -> np.ndarray:
    """A per-instruction column: *value* at *positions*, 0 elsewhere."""
    dense = np.zeros(count, dtype=np.int32)
    dense[positions] = value
    return dense


@dataclass(frozen=True, eq=False)
class FrontEnd:
    """Stage 1: the front-end events of one trace.

    Events are rare, so they are kept as instruction positions; a run
    expands them into per-instruction columns.  Hashed by identity, so
    state derived from it can be memoized under it.
    """

    count: int
    #: Positions of fetches that missed the I-cache.
    icache_misses: np.ndarray
    #: Positions of branches the BHT/BTB mispredicted.
    mispredicts: np.ndarray
    branch_stats: BranchStats

    def icache_stalls(self, l2_latency: int) -> np.ndarray:
        """Per-instruction fetch stall (0, or the L2 trip on a miss)."""
        return _expand(self.count, self.icache_misses, l2_latency)


@dataclass(frozen=True, eq=False)
class DataCache:
    """Stage 2: the loads that miss the L1, and the L1 counts, of one
    trace under one CONSTANT-load mask (hashed by identity, like
    :class:`FrontEnd`)."""

    count: int
    #: Positions of loads that miss the L1 and hit the L2.
    l2_loads: np.ndarray
    #: Positions of loads that miss both levels.
    memory_loads: np.ndarray
    l1_stats: CacheStats
    #: CONSTANT loads whose line was absent from the L1 (21164 metric).
    constant_past_miss: int

    def add_penalties(self, latencies: np.ndarray, l2_latency: int,
                      memory_latency: int) -> np.ndarray:
        """Add each missing load's extra latency to its entry of the
        per-instruction *latencies* (in place; returned for chaining)."""
        latencies[self.l2_loads] += l2_latency
        latencies[self.memory_loads] += l2_latency + memory_latency
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
            [start for start, pc in zip(starts.tolist(), pcs[starts].tolist())
             if not icache.access(pc)])

    branches = np.flatnonzero((trace.opclass == int(OpClass.BRANCH))
                              & (trace.opcode != int(Opcode.HALT)))
    # An indirect branch's actual target is the next instruction's PC.
    targets = np.zeros(len(branches), dtype=pcs.dtype)
    has_next = branches + 1 < count
    targets[has_next] = pcs[branches[has_next] + 1]
    predictor = BranchPredictor()
    missed = [branch for branch, opcode, pc, taken, target in zip(
                  branches.tolist(), trace.opcode[branches].tolist(),
                  pcs[branches].tolist(), trace.taken[branches].tolist(),
                  targets.tolist())
              if not predictor.predict_and_update(opcode, pc, taken, target)]
    return FrontEnd(
        count=count,
        icache_misses=icache_misses,
        mispredicts=_positions(missed),
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
        memoized(trace, ("front",) + front,
                  lambda: _front_end(trace, *front)),
        memoized(trace, ("data",) + data + (mask_key,),
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
    """Stage 2 for one cache geometry and CONSTANT-load mask.

    The walk is :class:`Cache` inlined: each level is a list of per-set
    LRU lists of line numbers (most recent last), and every memory op's
    line and set numbers are computed up front with numpy.  Loads
    allocate on a miss; write-through stores only refresh a resident
    line; CONSTANT loads only probe the L1.
    """
    opclass = trace.opclass
    is_load = opclass == int(OpClass.LOAD)
    memory_ops = np.flatnonzero(is_load | (opclass == int(OpClass.STORE)))
    # Per memory op: 0 store, 1 load, 2 CONSTANT load (skips the cache).
    role = is_load[memory_ops].astype(np.uint8)
    if constant is not None:
        role[constant[memory_ops]] = 2
    # The Cache constructor validates each geometry.
    num_sets1 = Cache(l1_size, l1_assoc, line_size).num_sets
    num_sets2 = Cache(l2_size, l2_assoc, line_size).num_sets
    l1_sets: list[list[int]] = [[] for _ in range(num_sets1)]
    l2_sets: list[list[int]] = [[] for _ in range(num_sets2)]
    lines = trace.addr[memory_ops] // line_size
    # Positions of the loads that miss the L1, by the level that has them.
    l2_loads: list[int] = []
    memory_loads: list[int] = []
    constant_past_miss = 0
    for position, op, line, set1, set2 in zip(
            memory_ops.tolist(), role.tolist(), lines.tolist(),
            (lines % num_sets1).tolist(), (lines % num_sets2).tolist()):
        lru = l1_sets[set1]
        if op == 1:
            if line in lru:
                if lru[-1] != line:
                    lru.remove(line)
                    lru.append(line)
                continue
            lru.append(line)
            if len(lru) > l1_assoc:
                del lru[0]
            lru = l2_sets[set2]
            if line in lru:
                l2_loads.append(position)
                if lru[-1] != line:
                    lru.remove(line)
                    lru.append(line)
            else:
                memory_loads.append(position)
                lru.append(line)
                if len(lru) > l2_assoc:
                    del lru[0]
        elif op == 2:
            if line not in lru:
                constant_past_miss += 1
        else:
            if line in lru and lru[-1] != line:
                lru.remove(line)
                lru.append(line)
            lru = l2_sets[set2]
            if line in lru and lru[-1] != line:
                lru.remove(line)
                lru.append(line)
    loads = int(np.count_nonzero(role == 1))
    return DataCache(
        count=len(trace),
        l2_loads=_positions(l2_loads),
        memory_loads=_positions(memory_loads),
        l1_stats=CacheStats(
            accesses=loads, misses=len(l2_loads) + len(memory_loads),
            store_accesses=int(np.count_nonzero(role == 0))),
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
