"""Trace-driven timing model of the Alpha AXP 21164 (paper Section 4.2).

A strictly in-order, 4-wide issue model ("speed demon"):

* per-cycle slotting limits: 2 integer pipes, 2 FP pipes, a dual-ported
  L1 (2 loads), 1 store, 1 branch;
* issue is in order -- a stalled instruction blocks everything younger;
* no MAF: an L1 miss blocks issue until serviced (the paper removes the
  miss address file from both baseline and LVP configurations);
* 2-bit BHT branch prediction with a 4-cycle misprediction penalty.

LVP behaviour follows the paper:

* predicted loads forward their value at issue -- a "zero-cycle load" --
  so dependents issue without waiting for the cache;
* loads that miss the L1 cannot be predicted; the machine returns to
  the non-speculative state before the miss is serviced, so there is no
  penalty (the load simply behaves unpredicted) -- **except** loads the
  CVU verifies as constants, which proceed despite the miss and skip
  the memory system entirely;
* a value misprediction squashes every in-flight instruction (the whole
  dispatch group and younger) and redispatches from the reissue buffer
  with a single-cycle penalty beyond the compare stage.
"""

from __future__ import annotations

from copy import copy
from dataclasses import dataclass, field

import numpy as np

from repro.isa.opcodes import Opcode, OpClass
from repro.isa.registers import NUM_REGS
from repro.lvp.unit import LoadOutcome
from repro.trace.annotate import NOT_A_LOAD, AnnotatedTrace
from repro.uarch.axp21164.config import AXP21164Config
from repro.uarch.components.branch import BranchPredictor, BranchStats
from repro.uarch.components.cache import Cache, CacheStats, MemoryHierarchy
from repro.uarch.components.latencies import AXP21164_LATENCY
from repro.uarch.engine import latency_arrays, resolve_model_engine
from repro.uarch.factored import load_outcome_counts, precompute

# Flat lookup tables for the fast scheduling loop.
_LAT_RESULT = latency_arrays(AXP21164_LATENCY)[1]


def _slot_kinds() -> list[int]:
    """Per-opclass issue-slot category: int/fp/load/store/branch."""
    kinds = [4] * (max(int(c) for c in OpClass) + 1)
    for cls in OpClass:
        if cls in (OpClass.SIMPLE_INT, OpClass.COMPLEX_INT):
            kinds[int(cls)] = 0
        elif cls in (OpClass.FP_SIMPLE, OpClass.FP_COMPLEX):
            kinds[int(cls)] = 1
        elif cls is OpClass.LOAD:
            kinds[int(cls)] = 2
        elif cls is OpClass.STORE:
            kinds[int(cls)] = 3
    return kinds


_SLOT_KIND = _slot_kinds()


@dataclass
class AXP21164Result:
    """Measurements of one 21164 run."""

    config_name: str
    lvp_name: str
    instructions: int
    cycles: int
    l1_stats: CacheStats
    branch_stats: BranchStats
    loads: int = 0
    load_outcomes: dict = field(default_factory=dict)
    constant_past_miss: int = 0  # CVU saves across an L1 miss
    value_mispredicts: int = 0

    @property
    def ipc(self) -> float:
        """Instructions per cycle."""
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def l1_miss_rate_per_instruction(self) -> float:
        """L1 misses per instruction (the paper quotes this metric)."""
        if not self.instructions:
            return 0.0
        return self.l1_stats.misses / self.instructions

    def counters(self) -> dict[str, int]:
        """Observability counters (see docs/observability.md)."""
        l1 = self.l1_stats
        branches = self.branch_stats
        return {
            "cycles": self.cycles,
            "instructions": self.instructions,
            "loads": self.loads,
            "l1_accesses": l1.accesses,
            "l1_misses": l1.misses,
            "l1_hits": l1.accesses - l1.misses,
            "branches": branches.conditional + branches.indirect,
            "branch_mispredicts": branches.mispredicts,
            "value_mispredicts": self.value_mispredicts,
            "constant_past_miss": self.constant_past_miss,
        }


class AXP21164Model:
    """In-order 21164 pipeline model with optional LVP annotations."""

    def __init__(self, config: AXP21164Config = AXP21164Config()) -> None:
        self.config = config

    def run(self, annotated: AnnotatedTrace, use_lvp: bool = True,
            engine: str | None = None) -> AXP21164Result:
        """Schedule the whole trace; returns the run's measurements.

        ``engine`` selects the scheduling loop: ``"reference"`` is the
        original component-object implementation, ``"fast"`` inlines
        the same arithmetic (bit-identical; held so by the differential
        suite in ``tests/uarch``), and ``"auto"`` (default) picks the
        fast loop.  ``REPRO_MODEL_ENGINE`` overrides.
        """
        if resolve_model_engine(engine) == "fast":
            return self._run_fast(annotated, use_lvp)
        return self._run_reference(annotated, use_lvp)

    def _run_reference(self, annotated: AnnotatedTrace,
                       use_lvp: bool = True) -> AXP21164Result:
        """The original scheduling loop (the oracle for ``fast``)."""
        config = self.config
        trace = annotated.trace
        opcodes = trace.opcode.tolist()
        opclasses = trace.opclass.tolist()
        dsts = trace.dst.tolist()
        src1s = trace.src1.tolist()
        src2s = trace.src2.tolist()
        addrs = trace.addr.tolist()
        takens = trace.taken.tolist()
        pcs = trace.pc.tolist()
        outcome_list = annotated.outcomes.tolist()
        count = len(opcodes)

        latency = AXP21164_LATENCY
        opcode_enum = [Opcode(o) for o in range(1, len(Opcode) + 1)]

        hierarchy = MemoryHierarchy(
            Cache(config.l1_size, config.l1_assoc, config.l1_line),
            Cache(config.l2_size, config.l2_assoc, config.l1_line),
            l2_latency=config.l2_latency,
            memory_latency=config.memory_latency,
        )
        icache = (Cache(config.icache_size, config.icache_assoc,
                        config.l1_line)
                  if config.icache_size else None)
        predictor = BranchPredictor()

        reg_ready: dict[int, int] = {}
        store_ready: dict[int, int] = {}

        cycle = 0  # current issue cycle
        slots_total = 0
        slots_int = 0
        slots_fp = 0
        slots_load = 0
        slots_store = 0
        slots_branch = 0
        stall_until = 0  # blocking miss / squash / branch redirect
        last_issue = 0
        last_result = 0

        outcome_counts = {o: 0 for o in LoadOutcome}
        num_loads = 0
        constant_past_miss = 0
        value_mispredicts = 0

        INT_CLASSES = (int(OpClass.SIMPLE_INT), int(OpClass.COMPLEX_INT))
        FP_CLASSES = (int(OpClass.FP_SIMPLE), int(OpClass.FP_COMPLEX))

        for i in range(count):
            opclass = opclasses[i]
            opcode = opcode_enum[opcodes[i] - 1]
            lat = latency[opcode]

            # operand readiness (dependents of predicted loads see the
            # forwarded value "at zero cycles", handled at the producer)
            ready = 0
            for src in (src1s[i], src2s[i]):
                if src > 0:
                    ready = max(ready, reg_ready.get(src, 0))
            if opclass == int(OpClass.LOAD):
                dep = store_ready.get(addrs[i] & ~7, 0)
                ready = max(ready, dep)

            candidate = max(cycle, ready, stall_until, last_issue)
            if icache is not None and not icache.access(pcs[i]):
                # Instruction-cache miss: the in-order front end stalls.
                candidate += config.l2_latency
            # in-order slotting
            while True:
                if candidate > cycle:
                    cycle = candidate
                    slots_total = slots_int = slots_fp = 0
                    slots_load = slots_store = slots_branch = 0
                full = slots_total >= config.issue_width
                if not full:
                    if opclass in INT_CLASSES:
                        full = slots_int >= config.int_per_cycle
                    elif opclass in FP_CLASSES:
                        full = slots_fp >= config.fp_per_cycle
                    elif opclass == int(OpClass.LOAD):
                        full = slots_load >= config.loads_per_cycle
                    elif opclass == int(OpClass.STORE):
                        full = slots_store >= config.stores_per_cycle
                    else:
                        full = slots_branch >= config.branches_per_cycle
                if not full:
                    break
                candidate += 1
            issue = candidate
            slots_total += 1
            if opclass in INT_CLASSES:
                slots_int += 1
            elif opclass in FP_CLASSES:
                slots_fp += 1
            elif opclass == int(OpClass.LOAD):
                slots_load += 1
            elif opclass == int(OpClass.STORE):
                slots_store += 1
            else:
                slots_branch += 1
            last_issue = issue

            # ---- execute ----------------------------------------------------
            result_time = issue + lat.result
            if opclass == int(OpClass.LOAD):
                num_loads += 1
                outcome = outcome_list[i]
                if use_lvp and outcome == int(LoadOutcome.CONSTANT):
                    # CVU-verified: skip the memory system; proceed even
                    # if the line is absent.  (Bandwidth benefit.)
                    if not hierarchy.l1.probe(addrs[i]):
                        constant_past_miss += 1
                    result_time = issue  # zero-cycle load
                    outcome_counts[LoadOutcome.CONSTANT] += 1
                else:
                    penalty = hierarchy.load_penalty(addrs[i])
                    if penalty:
                        # Miss: prediction abandoned with no penalty.
                        # Without a MAF (the paper's modification) the
                        # whole pipeline stalls; with one, only
                        # dependents wait for the returning line.
                        result_time = issue + lat.result + penalty
                        if not config.maf:
                            stall_until = max(stall_until, result_time)
                        if use_lvp and outcome != NOT_A_LOAD:
                            outcome_counts[LoadOutcome.NO_PREDICTION] += 1
                    elif use_lvp and outcome == int(LoadOutcome.CORRECT):
                        result_time = issue  # zero-cycle load
                        outcome_counts[LoadOutcome.CORRECT] += 1
                    elif use_lvp and outcome == int(LoadOutcome.INCORRECT):
                        # Squash everything in flight; redispatch after
                        # the compare stage with a one-cycle penalty.
                        value_mispredicts += 1
                        restart = (issue + lat.result
                                   + config.value_mispredict_penalty)
                        stall_until = max(stall_until, restart)
                        result_time = issue + lat.result
                        outcome_counts[LoadOutcome.INCORRECT] += 1
                    elif use_lvp and outcome != NOT_A_LOAD:
                        outcome_counts[LoadOutcome(outcome)] += 1
            elif opclass == int(OpClass.STORE):
                hierarchy.store_access(addrs[i])
                store_ready[addrs[i] & ~7] = issue + lat.result
            elif opclass == int(OpClass.BRANCH) and opcode != Opcode.HALT:
                target = pcs[i + 1] if i + 1 < count else 0
                correct = predictor.predict_and_update(
                    opcode, pcs[i], bool(takens[i]), target)
                if not correct:
                    stall_until = max(
                        stall_until,
                        issue + 1 + config.mispredict_penalty,
                    )

            dst = dsts[i]
            if dst > 0:
                reg_ready[dst] = result_time
            last_result = max(last_result, result_time)
            if len(store_ready) > 4096:
                store_ready.clear()

        # drain the pipe (writeback stages)
        cycles = max(last_issue, last_result) + 4
        return AXP21164Result(
            config_name=config.name,
            lvp_name=annotated.config.name if use_lvp else "none",
            instructions=count,
            cycles=cycles,
            l1_stats=hierarchy.l1.stats,
            branch_stats=predictor.stats,
            loads=num_loads,
            load_outcomes=outcome_counts,
            constant_past_miss=constant_past_miss,
            value_mispredicts=value_mispredicts,
        )

    def _run_fast(self, annotated: AnnotatedTrace,
                  use_lvp: bool = True) -> AXP21164Result:
        """The factored scheduling loop (bit-identical to ``reference``).

        I-cache misses, branch mispredictions and each load's cache
        service level come from :mod:`repro.uarch.factored`, computed
        once per trace and shared by every run; this loop is only the
        in-order issue logic, with latency and slot-category lookups
        flattened to lists and the register scoreboard as a list.
        """
        config = self.config
        trace = annotated.trace
        front, data = precompute(annotated, config, use_lvp)

        opcodes = trace.opcode.tolist()
        opclasses = trace.opclass.tolist()
        dsts = trace.dst.tolist()
        src1s = trace.src1.tolist()
        src2s = trace.src2.tolist()
        addrs = trace.addr.tolist()
        outcome_list = annotated.outcomes.tolist() if use_lvp else None
        icache_stalls = front.icache_stalls(config.l2_latency)
        mispredicts = front.mispredicted()
        load_penalty = data.add_penalties([0] * len(trace),
                                          config.l2_latency,
                                          config.memory_latency)
        count = len(opcodes)

        lat_result = _LAT_RESULT
        slot_kind = _SLOT_KIND
        # Per slot kind (int, fp, load, store, branch): issues per cycle.
        slot_limit = (config.int_per_cycle, config.fp_per_cycle,
                      config.loads_per_cycle, config.stores_per_cycle,
                      config.branches_per_cycle)
        slots = [0, 0, 0, 0, 0]
        slots_total = 0

        reg_ready = [0] * NUM_REGS
        store_ready: dict[int, int] = {}
        store_get = store_ready.get

        # ``cycle`` is also the last issue cycle: issue is in order.
        cycle = 0
        stall_until = 0  # blocking miss / squash / branch redirect
        last_result = 0

        issue_width = config.issue_width
        mispredict_penalty = config.mispredict_penalty
        vm_penalty = config.value_mispredict_penalty
        maf = config.maf

        for i in range(count):
            opclass = opclasses[i]
            kind = slot_kind[opclass]

            ready = 0
            s = src1s[i]
            if s > 0:
                ready = reg_ready[s]
            s = src2s[i]
            if s > 0:
                v = reg_ready[s]
                if v > ready:
                    ready = v
            if kind == 2:
                dep = store_get(addrs[i] & ~7, 0)
                if dep > ready:
                    ready = dep

            candidate = cycle
            if ready > candidate:
                candidate = ready
            if stall_until > candidate:
                candidate = stall_until
            candidate += icache_stalls[i]
            # In-order slotting: a full cycle pushes the instruction to
            # the next one, whose slots are all free.
            if candidate == cycle and (slots_total >= issue_width
                                       or slots[kind] >= slot_limit[kind]):
                candidate += 1
            if candidate > cycle:
                cycle = candidate
                slots_total = 0
                slots = [0, 0, 0, 0, 0]
            slots_total += 1
            slots[kind] += 1

            # ---- execute -----------------------------------------------
            result_time = cycle + lat_result[opcodes[i]]
            if kind == 2:
                penalty = load_penalty[i]
                if penalty:
                    # Miss: prediction abandoned with no penalty; without
                    # a MAF the whole pipeline stalls.
                    result_time += penalty
                    if not maf and result_time > stall_until:
                        stall_until = result_time
                elif use_lvp:
                    outcome = outcome_list[i]
                    if outcome == 3 or outcome == 2:
                        result_time = cycle  # zero-cycle load
                    elif outcome == 1:  # squash and redispatch
                        restart = result_time + vm_penalty
                        if restart > stall_until:
                            stall_until = restart
            elif kind == 3:
                store_ready[addrs[i] & ~7] = result_time
                if len(store_ready) > 4096:
                    store_ready.clear()
            elif mispredicts[i]:
                v = cycle + 1 + mispredict_penalty
                if v > stall_until:
                    stall_until = v

            dst = dsts[i]
            if dst > 0:
                reg_ready[dst] = result_time
            if result_time > last_result:
                last_result = result_time

        # Loads that missed the L1 lose their prediction.
        missed = data.l1_missed()
        value_mispredicts = 0
        if use_lvp:
            value_mispredicts = int(np.count_nonzero(
                (annotated.outcomes == int(LoadOutcome.INCORRECT))
                & trace.is_load & ~missed))
        return AXP21164Result(
            config_name=config.name,
            lvp_name=annotated.config.name if use_lvp else "none",
            instructions=count,
            cycles=(cycle if cycle >= last_result else last_result) + 4,
            l1_stats=copy(data.l1_stats),
            branch_stats=copy(front.branch_stats),
            loads=trace.num_loads,
            load_outcomes=load_outcome_counts(annotated, use_lvp, missed),
            constant_past_miss=data.constant_past_miss,
            value_mispredicts=value_mispredicts,
        )
