"""Trace-driven timing model of the PowerPC 620 / 620+ (paper Section 4.1).

The model is an *analytic scheduler*: it walks the annotated trace in
program order and computes, for every instruction, its fetch, dispatch,
issue, execute-done, verification, and completion times, subject to all
the machine's constraints:

* 4-wide fetch into a small instruction buffer, stalled by branch
  mispredictions (2-bit BHT + last-target BTB),
* 4-wide in-order dispatch gated by reservation-station, rename-buffer,
  and completion-buffer availability,
* out-of-order issue per functional-unit pool with per-instance
  occupancy (non-pipelined MCFX divide and FPU divide),
* non-blocking loads through a banked L1/L2 hierarchy with
  store-to-load forwarding and load/store bank-conflict retries,
* in-order completion, 4 per cycle.

Load value prediction follows the paper exactly: predicted values
forward at dispatch; dependents may issue speculatively but hold their
reservation stations and cannot complete until the load verifies (one
cycle after the actual value returns); a misprediction makes dependents
that issued early reissue one cycle *later* than they would have
executed with no prediction; CVU-verified constant loads never access
the cache at all.

Scheduling each instruction in program order (rather than simulating
every cycle) keeps the model fast enough to sweep 17 benchmarks times
ten configurations in pure Python; every constraint above is enforced
through explicit time arithmetic, so the model remains cycle-accurate
with respect to its own machine definition.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from collections import deque
from copy import copy
from dataclasses import dataclass, field
from heapq import heapreplace

import numpy as np

from repro.isa.opcodes import Opcode, OpClass
from repro.isa.registers import NUM_REGS
from repro.lvp.unit import LoadOutcome
from repro.trace.annotate import NOT_A_LOAD, AnnotatedTrace
from repro.uarch.components.branch import BranchPredictor, BranchStats
from repro.uarch.components.cache import (
    BankTracker,
    Cache,
    CacheStats,
    MemoryHierarchy,
)
from repro.uarch.components.latencies import PPC620_LATENCY
from repro.uarch.engine import (
    fu_of_class_array,
    latency_arrays,
    resolve_model_engine,
)
from repro.uarch.factored import (
    DataCache,
    FrontEnd,
    load_outcome_counts,
    precompute,
)
from repro.uarch.ppc620.config import PPC620Config

#: Functional-unit pool ids.
FU_SCFX = 0
FU_MCFX = 1
FU_FPU = 2
FU_LSU = 3
FU_BRU = 4

FU_NAMES = ("SCFX", "MCFX", "FPU", "LSU", "BRU")

_FU_OF_CLASS = {
    int(OpClass.SIMPLE_INT): FU_SCFX,
    int(OpClass.COMPLEX_INT): FU_MCFX,
    int(OpClass.FP_SIMPLE): FU_FPU,
    int(OpClass.FP_COMPLEX): FU_FPU,
    int(OpClass.LOAD): FU_LSU,
    int(OpClass.STORE): FU_LSU,
    int(OpClass.BRANCH): FU_BRU,
}

#: Figure 7 verification-latency buckets.
VERIFY_BUCKETS = ("<4", "4", "5", "6", "7", ">7")

# Flat lookup tables for the fast scheduling loop.
_FU_OF_CLASS_LIST_NP = np.array(fu_of_class_array(_FU_OF_CLASS),
                                dtype=np.uint8)
_LAT_ISSUE, _LAT_RESULT = (np.array(table, dtype=np.int32)
                           for table in latency_arrays(PPC620_LATENCY))

#: Scheduling kinds of the fast loop.  The first four are plain
#: instructions of one functional unit; a mispredicted branch, a store,
#: and a load per LVP outcome (``_K_LOAD + LoadOutcome``; a run without
#: LVP has only ``_K_LOAD``) each have their own, so the loop branches
#: on one int.
_K_SCFX, _K_MCFX, _K_FPU, _K_BRU, _K_MISPREDICT, _K_STORE, _K_LOAD = \
    range(7)
_K_INCORRECT = _K_LOAD + int(LoadOutcome.INCORRECT)
_K_CORRECT = _K_LOAD + int(LoadOutcome.CORRECT)
_K_CONSTANT = _K_LOAD + int(LoadOutcome.CONSTANT)
#: Functional unit of each kind: the loop indexes pools and units by
#: kind, and every kind of one unit aliases that unit's state.
_KIND_FU = (FU_SCFX, FU_MCFX, FU_FPU, FU_BRU, FU_BRU, FU_LSU,
            FU_LSU, FU_LSU, FU_LSU, FU_LSU)
_KIND_OF_CLASS = np.array(fu_of_class_array({
    int(OpClass.SIMPLE_INT): _K_SCFX,
    int(OpClass.COMPLEX_INT): _K_MCFX,
    int(OpClass.FP_SIMPLE): _K_FPU,
    int(OpClass.FP_COMPLEX): _K_FPU,
    int(OpClass.BRANCH): _K_BRU,
    int(OpClass.STORE): _K_STORE,
    int(OpClass.LOAD): _K_LOAD,
}), dtype=np.uint8)
#: Clears an address's low three bits: the store map's word.
_WORD_MASK = ~np.uint64(7)


@dataclass
class PPC620Result:
    """Everything the paper's 620 experiments measure, for one run."""

    config_name: str
    lvp_name: str
    instructions: int
    cycles: int
    l1_stats: CacheStats
    branch_stats: BranchStats
    bank_conflicts: int
    bank_conflict_cycles: int
    #: Correct-prediction verification-latency histogram (Figure 7).
    verify_histogram: dict[str, int]
    #: Per-FU (sum of operand wait cycles, instruction count) (Figure 8).
    fu_wait: dict[str, tuple[int, int]]
    loads: int = 0
    load_outcomes: dict = field(default_factory=dict)

    @property
    def ipc(self) -> float:
        """Instructions per cycle."""
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def bank_conflict_cycle_fraction(self) -> float:
        """Fraction of all cycles with a bank conflict (Figure 9)."""
        return self.bank_conflict_cycles / self.cycles if self.cycles else 0.0

    def average_wait(self, fu_name: str) -> float:
        """Average reservation-station operand wait for one FU class."""
        total, count = self.fu_wait[fu_name]
        return total / count if count else 0.0

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
            "bank_conflicts": self.bank_conflicts,
            "bank_conflict_cycles": self.bank_conflict_cycles,
            "rs_wait_cycles": sum(total for total, _ in
                                  self.fu_wait.values()),
        }


class _Pool:
    """A reservation-station pool: bounded slots with release times."""

    __slots__ = ("size", "releases")

    def __init__(self, size: int) -> None:
        self.size = size
        #: Release times of the occupied slots, in ascending order.
        self.releases: list[int] = []

    def earliest_slot(self, candidate: int) -> int:
        """Earliest cycle >= candidate at which a slot is free."""
        releases = self.releases
        excess = len(releases) - self.size
        if excess < 0:
            return candidate
        # Slot frees when the oldest-releasing occupant leaves.
        return max(candidate, releases[excess])

    def allocate(self, release: int, now: int) -> None:
        """Occupy a slot until *release*, dropping entries freed by *now*."""
        releases = self.releases
        del releases[:bisect_right(releases, now)]
        insort(releases, release)


class _Units:
    """Functional-unit instances with per-instance next-free times."""

    __slots__ = ("free",)

    def __init__(self, count: int) -> None:
        self.free = [0] * count

    def issue_at(self, candidate: int, occupancy: int) -> int:
        """Issue on the earliest-free instance; returns the issue cycle."""
        free = self.free
        best = free.index(min(free))  # the first of equally free ones
        cycle = max(candidate, free[best])
        free[best] = cycle + occupancy
        return cycle


class PPC620Model:
    """Cycle-level model of the 620/620+ with optional LVP annotations."""

    def __init__(self, config: PPC620Config) -> None:
        self.config = config

    def run(self, annotated: AnnotatedTrace, use_lvp: bool = True,
            engine: str | None = None) -> PPC620Result:
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
                       use_lvp: bool = True) -> PPC620Result:
        """The original scheduling loop (the oracle for ``fast``).

        It drives the component objects (caches, bank tracker, branch
        predictor, reservation-station pools, functional units) one
        instruction at a time.  What does not depend on the instruction
        is read once before the loop: enum values as ints, the latency
        and functional-unit tables as int-indexed lists, and the
        configuration's fields.
        """
        config = self.config
        trace = annotated.trace
        pcs = trace.pc.tolist()
        count = len(pcs)
        # Without LVP no load carries an outcome.
        outcome_list = (annotated.outcomes.tolist() if use_lvp
                        else [NOT_A_LOAD] * count)
        # A branch's actual target is the next instruction's pc.
        columns = zip(trace.opcode.tolist(), trace.opclass.tolist(),
                      trace.dst.tolist(), trace.src1.tolist(),
                      trace.src2.tolist(), trace.addr.tolist(),
                      trace.taken.tolist(), pcs, pcs[1:] + [0],
                      outcome_list)

        issue_latency, result_latency = latency_arrays(PPC620_LATENCY)
        fu_of_class = fu_of_class_array(_FU_OF_CLASS)
        opcode_enum = [Opcode(o) for o in range(1, len(Opcode) + 1)]
        halt = int(Opcode.HALT)
        load_class = int(OpClass.LOAD)
        store_class = int(OpClass.STORE)
        branch_class = int(OpClass.BRANCH)
        constant = int(LoadOutcome.CONSTANT)
        correct = int(LoadOutcome.CORRECT)
        incorrect = int(LoadOutcome.INCORRECT)

        hierarchy = MemoryHierarchy(
            Cache(config.l1_size, config.l1_assoc, config.l1_line),
            Cache(config.l2_size, config.l2_assoc, config.l1_line),
            l2_latency=config.l2_latency,
            memory_latency=config.memory_latency,
        )
        banks = BankTracker(config.l1_banks, config.l1_line)
        # icache_size=0 models a perfect front end (used by unit tests
        # that pin down scheduling arithmetic).
        icache = (Cache(config.icache_size, config.icache_assoc,
                        config.l1_line)
                  if config.icache_size else None)
        predictor = BranchPredictor()
        load_penalty = hierarchy.load_penalty
        store_access = hierarchy.store_access
        bank_access = banks.access
        predict_and_update = predictor.predict_and_update
        icache_access = icache.access if icache is not None else None

        # Indexed by functional-unit id.
        pools = [_Pool(config.rs_scfx), _Pool(config.rs_mcfx),
                 _Pool(config.rs_fpu), _Pool(config.rs_lsu),
                 _Pool(config.rs_bru)]
        units = [_Units(config.num_scfx), _Units(config.num_mcfx),
                 _Units(config.num_fpu), _Units(config.num_lsu),
                 _Units(config.num_bru)]

        # Per-architectural-register producer state:
        #   avail_spec: earliest a dependent may consume (possibly a
        #       speculative predicted value),
        #   avail_real: when the true value is available,
        #   spec_until: verification time the consumer inherits,
        #   mispredicted: consumer must reissue if it consumed early.
        reg_spec = {}
        reg_real = {}
        reg_verify = {}
        reg_misp = {}

        # Store-to-load memory dependences (word granularity).
        store_ready: dict[int, int] = {}

        # In-order machine state.
        fetch_cycle = 0
        fetch_count = 0
        fetch_blocked_until = 0
        dispatch_cycle = 0
        dispatch_count = 0
        mem_dispatch_count = 0
        complete_cycle = 0
        complete_count = 0
        last_completion = 0
        # Ring buffers for structural resources freed at completion.
        dispatch_window: deque = deque()  # completion times, len <= cbuf
        gpr_ring: deque = deque()
        fpr_ring: deque = deque()
        # Instruction-buffer: dispatch times of last `ibuf` instructions.
        ibuf_ring: deque = deque(maxlen=config.instruction_buffer)

        verify_hist = {bucket: 0 for bucket in VERIFY_BUCKETS}
        store_commits: list[tuple[int, int]] = []
        fu_wait_sum = [0, 0, 0, 0, 0]
        fu_wait_count = [0, 0, 0, 0, 0]
        outcome_tally = [0] * len(LoadOutcome)
        num_loads = 0

        fetch_width = config.fetch_width
        instruction_buffer = config.instruction_buffer
        dispatch_width = config.dispatch_width
        mem_per_cycle = config.mem_per_cycle
        completion_buffer = config.completion_buffer
        gpr_rename = config.gpr_rename
        fpr_rename = config.fpr_rename
        complete_width = config.complete_width
        l2_latency = config.l2_latency
        mispredict_penalty = config.mispredict_penalty
        rs_retention = config.rs_retention

        for opcode, opclass, dst, src1, src2, addr, taken, pc, next_pc, \
                outcome in columns:
            fu = fu_of_class[opclass]

            # ---- fetch -------------------------------------------------
            candidate = max(fetch_cycle, fetch_blocked_until)
            if candidate == fetch_cycle and fetch_count >= fetch_width:
                candidate += 1
            if len(ibuf_ring) >= instruction_buffer:
                candidate = max(candidate, ibuf_ring[0])
            if icache_access is not None and not icache_access(pc):
                # Instruction-cache miss: fetch stalls for the L2 trip.
                candidate += l2_latency
            if candidate != fetch_cycle:
                fetch_cycle = candidate
                fetch_count = 0
            fetch_time = fetch_cycle
            fetch_count += 1

            # ---- dispatch ----------------------------------------------
            candidate = max(fetch_time + 1, dispatch_cycle)
            is_mem = fu == FU_LSU
            while True:
                if candidate > dispatch_cycle:
                    width_used = 0
                    mem_used = 0
                else:
                    width_used = dispatch_count
                    mem_used = mem_dispatch_count
                if width_used >= dispatch_width or (
                        is_mem and mem_used >= mem_per_cycle):
                    candidate += 1
                    continue
                break
            # Completion buffer slot (freed at completion).
            if len(dispatch_window) >= completion_buffer:
                candidate = max(candidate, dispatch_window[0])
                while (len(dispatch_window) >= completion_buffer
                        and dispatch_window[0] <= candidate):
                    dispatch_window.popleft()
            # Rename buffer for the destination register.
            ring = None
            if dst > 0:
                if dst < 32:
                    ring = gpr_ring
                    limit = gpr_rename
                elif dst < 64:
                    ring = fpr_ring
                    limit = fpr_rename
            if ring is not None and len(ring) >= limit:
                candidate = max(candidate, ring[0])
                while len(ring) >= limit and ring[0] <= candidate:
                    ring.popleft()
            # Reservation-station slot.
            pool = pools[fu]
            candidate = pool.earliest_slot(candidate)
            if candidate > dispatch_cycle:
                dispatch_cycle = candidate
                dispatch_count = 0
                mem_dispatch_count = 0
            dispatch_time = dispatch_cycle
            dispatch_count += 1
            if is_mem:
                mem_dispatch_count += 1
            ibuf_ring.append(dispatch_time)

            # ---- operands ------------------------------------------------
            ready_spec = dispatch_time
            ready_real = dispatch_time
            spec_until = 0
            has_misp_source = False
            for src in (src1, src2):
                if src <= 0:
                    continue
                ready_spec = max(ready_spec, reg_spec.get(src, 0))
                ready_real = max(ready_real, reg_real.get(src, 0))
                spec_until = max(spec_until, reg_verify.get(src, 0))
                if reg_misp.get(src, False):
                    has_misp_source = True

            wait = max(0, ready_spec - dispatch_time)
            fu_wait_sum[fu] += wait
            fu_wait_count[fu] += 1

            # Mispredicted-load sources: if this instruction would have
            # issued speculatively before the true value returned, it
            # reissues one cycle after the value comes back (the paper's
            # worst-case one-cycle penalty); otherwise no penalty.
            operand_time = ready_spec
            if has_misp_source:
                would_issue = max(dispatch_time + 1, ready_spec)
                if would_issue < ready_real:
                    operand_time = ready_real + 1
                else:
                    operand_time = ready_real

            # ---- issue / execute ------------------------------------------
            occupancy = issue_latency[opcode]
            result = result_latency[opcode]
            issue_candidate = max(dispatch_time + 1, operand_time)
            issue_time = units[fu].issue_at(issue_candidate, occupancy)

            verify_time = 0
            predicted = mispredicted = False
            if opclass == load_class:
                num_loads += 1
                word = addr & ~7
                # store-to-load dependence (forwarding at no extra cost)
                dep = store_ready.get(word, 0)
                if dep > issue_time:
                    issue_time = units[fu].issue_at(dep, occupancy)
                if outcome == constant:
                    # CVU-verified: no cache access at all.
                    exec_done = issue_time + result
                    verify_time = exec_done
                else:
                    access_cycle = issue_time + 1
                    bank_access(access_cycle, addr, can_defer=False)
                    penalty = load_penalty(addr)
                    exec_done = issue_time + result + penalty
                    # Only loads whose value was actually forwarded
                    # need the extra value-comparison stage.
                    if outcome == correct or outcome == incorrect:
                        verify_time = exec_done + 1
                if outcome != NOT_A_LOAD:
                    outcome_tally[outcome] += 1
                predicted = outcome == correct or outcome == constant
                mispredicted = outcome == incorrect
            elif opclass == store_class:
                # Stores enter the store queue at execute and access the
                # cache banks when they commit; a committing store that
                # collides with a load's bank must retry (Section 6.5).
                store_access(addr)
                exec_done = issue_time + result
                store_ready[addr & ~7] = exec_done
                # Keep the store-dependence map bounded.
                if len(store_ready) > 4096:
                    store_ready.clear()
            else:
                exec_done = issue_time + result

            # ---- branches --------------------------------------------------
            if opclass == branch_class and opcode != halt:
                if not predict_and_update(opcode_enum[opcode - 1], pc,
                                          bool(taken), next_pc):
                    fetch_blocked_until = max(
                        fetch_blocked_until,
                        exec_done + mispredict_penalty,
                    )

            # ---- producer bookkeeping ---------------------------------------
            if predicted:
                avail_spec = dispatch_time  # forwarded at dispatch
                avail_real = dispatch_time
                my_verify = max(spec_until, verify_time)
                bucket = verify_time - dispatch_time
                if bucket < 4:
                    verify_hist["<4"] += 1
                elif bucket > 7:
                    verify_hist[">7"] += 1
                else:  # "4" .. "7"
                    verify_hist[VERIFY_BUCKETS[bucket - 3]] += 1
            elif mispredicted:
                avail_spec = exec_done  # consumers wait for the real value
                avail_real = exec_done
                my_verify = max(spec_until, verify_time)
            else:
                avail_spec = exec_done
                avail_real = exec_done
                my_verify = spec_until

            if dst > 0:
                reg_spec[dst] = avail_spec
                reg_real[dst] = avail_real
                reg_verify[dst] = my_verify
                reg_misp[dst] = mispredicted

            # ---- reservation-station release ---------------------------------
            # Normal: the RS frees the cycle after issue.  Speculative
            # consumers hold theirs until their sources verify; loads
            # hold until their own verification (paper Section 4.1).
            if rs_retention:
                rs_release = max(issue_time + 1, spec_until, verify_time)
            else:
                rs_release = issue_time + 1
            pool.allocate(rs_release, dispatch_time)

            # ---- in-order completion -------------------------------------------
            finish = max(exec_done, my_verify, verify_time)
            candidate = max(finish + 1, last_completion)
            if candidate == complete_cycle:
                if complete_count >= complete_width:
                    candidate += 1
            if candidate > complete_cycle:
                complete_cycle = candidate
                complete_count = 0
            completion = complete_cycle
            complete_count += 1
            last_completion = completion
            if opclass == store_class:
                store_commits.append((completion, addr))
            dispatch_window.append(completion)
            if ring is not None:
                ring.append(completion)

        # Stores commit against the full load bank-usage ledger: a
        # committing store that finds its bank busy (with a load from
        # either side of it in program order) retries next cycle.
        for commit_cycle, addr in store_commits:
            bank_access(commit_cycle, addr, can_defer=True)

        cycles = last_completion
        return PPC620Result(
            config_name=config.name,
            lvp_name=annotated.config.name if use_lvp else "none",
            instructions=count,
            cycles=cycles,
            l1_stats=hierarchy.l1.stats,
            branch_stats=predictor.stats,
            bank_conflicts=banks.conflicts,
            bank_conflict_cycles=banks.conflict_cycle_count,
            verify_histogram=verify_hist,
            fu_wait={
                FU_NAMES[f]: (fu_wait_sum[f], fu_wait_count[f])
                for f in range(5)
            },
            loads=num_loads,
            load_outcomes={o: outcome_tally[o] for o in LoadOutcome},
        )

    def _run_fast(self, annotated: AnnotatedTrace,
                  use_lvp: bool = True) -> PPC620Result:
        """The factored scheduling loop (bit-identical to ``reference``).

        I-cache misses, branch mispredictions and each load's cache
        service level come from :mod:`repro.uarch.factored`, computed
        once per trace and shared by every run; this loop is only the
        scheduler.  It keeps the reference arithmetic on leaner state:
        one ``zip`` over per-instruction columns built with numpy
        (:func:`_columns`; the scheduling kind folds in the functional
        unit, a mispredicted branch and a load's LVP outcome), list
        scoreboards, fixed-length rings and heaps for the structural
        resources, and a set of ``cycle * l1_banks + bank`` ints as the
        bank ledger.  Its state is bounded by the machine, except the
        ledger and the store-commit list the reference keeps too.
        """
        config = self.config
        trace = annotated.trace
        front, data = precompute(annotated, config, use_lvp)
        num_banks = config.l1_banks
        columns, store_banks = _columns(annotated, front, data, config,
                                        use_lvp)

        # Bank-usage ledger of cycle * num_banks + bank keys (BankTracker
        # inlined; banks have one port, so a key is either free or
        # taken, and loads own a port, so only the store-commit pass
        # below can conflict).
        bank_used: set[int] = set()
        bank_add = bank_used.add

        # Structural resources as fixed-length state pre-filled with
        # cycle 0, so a slot not yet used never binds:
        # * completion-buffer, rename and instruction-buffer slots free
        #   in order (completion is in order), so each is a FIFO ring
        #   and a full one bounds dispatch by ring[0];
        # * reservation stations free out of order, so each pool is a
        #   min-heap of release times.  Invariant: a reference pool
        #   never holds more than `size` entries -- dispatch to a full
        #   pool waits for the earliest release, and allocation then
        #   drops every release at or before dispatch, so at least
        #   len - size + 1 entries.  So "full" is len == size and the
        #   bound is the heap root.  Here each heap keeps exactly `size`
        #   entries: a freed slot stays as a release no later than the
        #   last dispatch, which never binds, and allocation replaces
        #   the root, which is always such a slot;
        # * functional-unit instances are heaps of free times likewise.
        # Pools and units are indexed by kind: every kind of one
        # functional unit aliases that unit's heap.
        dispatch_window = deque([0] * config.completion_buffer,
                                maxlen=config.completion_buffer)
        gpr_ring = deque([0] * config.gpr_rename, maxlen=config.gpr_rename)
        fpr_ring = deque([0] * config.fpr_rename, maxlen=config.fpr_rename)
        ibuf_ring = deque([0] * config.instruction_buffer,
                          maxlen=config.instruction_buffer)
        pool_of_fu = ([0] * config.rs_scfx, [0] * config.rs_mcfx,
                      [0] * config.rs_fpu, [0] * config.rs_lsu,
                      [0] * config.rs_bru)
        units_of_fu = ([0] * config.num_scfx, [0] * config.num_mcfx,
                       [0] * config.num_fpu, [0] * config.num_lsu,
                       [0] * config.num_bru)
        pool_rel = [pool_of_fu[fu] for fu in _KIND_FU]
        unit_free = [units_of_fu[fu] for fu in _KIND_FU]

        # A register's speculative and real availability always coincide
        # (the reference loop writes both from one value), so one
        # scoreboard carries them and a mispredicted source never delays
        # its consumer past the real value.
        reg_ready = [0] * NUM_REGS
        reg_verify = [0] * NUM_REGS

        store_ready: dict[int, int] = {}
        store_get = store_ready.get

        fetch_cycle = 0
        fetch_count = 0
        fetch_blocked_until = 0
        dispatch_cycle = 0
        dispatch_count = 0
        mem_dispatch_count = 0
        # In-order completion: the last completion is the current cycle.
        complete_cycle = 0
        complete_count = 0

        vh0 = vh1 = vh2 = vh3 = vh4 = vh5 = 0
        store_commits: list[int] = []
        wait_sum = [0] * len(_KIND_FU)

        fetch_width = config.fetch_width
        dispatch_width = config.dispatch_width
        complete_width = config.complete_width
        mem_per_cycle = config.mem_per_cycle
        mispredict_penalty = config.mispredict_penalty
        rs_retention = config.rs_retention

        for kind, dst, src1, src2, occupancy, latency, stall, word, \
                bank in columns:
            # ---- fetch -------------------------------------------------
            if fetch_blocked_until > fetch_cycle:
                candidate = fetch_blocked_until
            elif fetch_count >= fetch_width:
                candidate = fetch_cycle + 1
            else:
                candidate = fetch_cycle
            first = ibuf_ring[0]
            if first > candidate:
                candidate = first
            candidate += stall
            if candidate != fetch_cycle:
                fetch_cycle = candidate
                fetch_count = 0
            fetch_count += 1

            # ---- dispatch ----------------------------------------------
            # A full dispatch group pushes by one cycle, whose group is
            # empty.
            if dispatch_cycle > fetch_cycle:
                candidate = dispatch_cycle
                if dispatch_count >= dispatch_width or (
                        kind >= _K_STORE
                        and mem_dispatch_count >= mem_per_cycle):
                    candidate += 1
            else:
                candidate = fetch_cycle + 1
            first = dispatch_window[0]
            if first > candidate:
                candidate = first
            ring = None
            if dst > 0:
                if dst < 32:
                    ring = gpr_ring
                elif dst < 64:
                    ring = fpr_ring
                if ring is not None:
                    first = ring[0]
                    if first > candidate:
                        candidate = first
            rel = pool_rel[kind]
            first = rel[0]
            if first > candidate:
                candidate = first
            if candidate > dispatch_cycle:
                dispatch_cycle = candidate
                dispatch_count = 0
                mem_dispatch_count = 0
            dispatch_count += 1
            if kind >= _K_STORE:
                mem_dispatch_count += 1
            ibuf_ring.append(dispatch_cycle)

            # ---- operands ----------------------------------------------
            ready = dispatch_cycle
            spec_until = 0
            if src1 > 0:
                v = reg_ready[src1]
                if v > ready:
                    ready = v
                spec_until = reg_verify[src1]
            if src2 > 0:
                v = reg_ready[src2]
                if v > ready:
                    ready = v
                v = reg_verify[src2]
                if v > spec_until:
                    spec_until = v
            wait_sum[kind] += ready - dispatch_cycle

            # ---- issue / execute ---------------------------------------
            free = unit_free[kind]
            issue_time = free[0]
            if issue_time <= dispatch_cycle:
                issue_time = dispatch_cycle + 1
            if ready > issue_time:
                issue_time = ready
            heapreplace(free, issue_time + occupancy)
            exec_done = avail = issue_time + latency

            verify_time = 0
            my_verify = spec_until
            if kind > _K_STORE:  # a load
                dep = store_get(word, 0)
                if dep > issue_time:
                    issue_time = free[0]
                    if dep > issue_time:
                        issue_time = dep
                    heapreplace(free, issue_time + occupancy)
                    exec_done = avail = issue_time + latency
                # Stage 2 already left CVU-verified loads out of the cache.
                if kind == _K_CONSTANT:  # no cache access
                    verify_time = exec_done
                else:
                    bank_add(issue_time * num_banks + bank)
                    if kind != _K_LOAD:
                        verify_time = exec_done + 1
                if kind >= _K_CORRECT:
                    # Predicted: the value forwards at dispatch.
                    avail = dispatch_cycle
                    if verify_time > spec_until:
                        my_verify = verify_time
                    bucket = verify_time - dispatch_cycle
                    if bucket < 4:
                        vh0 += 1
                    elif bucket > 7:
                        vh5 += 1
                    elif bucket == 4:
                        vh1 += 1
                    elif bucket == 5:
                        vh2 += 1
                    elif bucket == 6:
                        vh3 += 1
                    else:
                        vh4 += 1
                elif kind == _K_INCORRECT and verify_time > spec_until:
                    my_verify = verify_time
            elif kind == _K_STORE:
                store_ready[word] = exec_done
                if len(store_ready) > 4096:
                    store_ready.clear()
            elif kind == _K_MISPREDICT:
                v = exec_done + mispredict_penalty
                if v > fetch_blocked_until:
                    fetch_blocked_until = v

            if dst > 0:
                reg_ready[dst] = avail
                reg_verify[dst] = my_verify

            # ---- reservation-station release ---------------------------
            rs_release = issue_time + 1
            if rs_retention:
                if spec_until > rs_release:
                    rs_release = spec_until
                if verify_time > rs_release:
                    rs_release = verify_time
            heapreplace(rel, rs_release)

            # ---- in-order completion -----------------------------------
            # my_verify >= verify_time whenever the load was predicted.
            candidate = (exec_done if exec_done >= my_verify
                         else my_verify) + 1
            if candidate > complete_cycle:
                complete_cycle = candidate
                complete_count = 1
            elif complete_count >= complete_width:
                complete_cycle += 1
                complete_count = 1
            else:
                complete_count += 1
            if kind == _K_STORE:
                store_commits.append(complete_cycle)
            dispatch_window.append(complete_cycle)
            if ring is not None:
                ring.append(complete_cycle)

        # Store-commit bank retries (single-ported banks for stores).
        conflicts = 0
        conflict_cycles: set = set()
        for commit_cycle, bank in zip(store_commits, store_banks):
            key = commit_cycle * num_banks + bank
            while key in bank_used:
                conflicts += 1
                conflict_cycles.add(key // num_banks)
                key += num_banks
            bank_add(key)

        fu_wait_sum = [0] * 5
        for kind, fu in enumerate(_KIND_FU):
            fu_wait_sum[fu] += wait_sum[kind]
        fu_count = np.bincount(_FU_OF_CLASS_LIST_NP[trace.opclass],
                               minlength=5).tolist()
        return PPC620Result(
            config_name=config.name,
            lvp_name=annotated.config.name if use_lvp else "none",
            instructions=len(trace),
            cycles=complete_cycle,
            l1_stats=copy(data.l1_stats),
            branch_stats=copy(front.branch_stats),
            bank_conflicts=conflicts,
            bank_conflict_cycles=len(conflict_cycles),
            verify_histogram={
                "<4": vh0, "4": vh1, "5": vh2, "6": vh3,
                "7": vh4, ">7": vh5,
            },
            fu_wait={
                FU_NAMES[f]: (fu_wait_sum[f], fu_count[f])
                for f in range(5)
            },
            loads=trace.num_loads,
            load_outcomes=load_outcome_counts(annotated, use_lvp),
        )


def _columns(annotated: AnnotatedTrace, front: FrontEnd, data: DataCache,
             config: PPC620Config, use_lvp: bool) -> tuple[zip, list[int]]:
    """The fast loop's per-instruction columns, zipped, and the bank of
    each store in program order.

    The columns are the scheduling kind, the destination and source
    registers, the issue occupancy, the result latency plus the cache
    trip of a load that makes one, the fetch stall, the store map's
    word, and for a load ``bank + l1_banks``, so that its ledger key
    ``(issue + 1) * l1_banks + bank`` is one multiply-add.  Built with
    numpy; the temporaries die here, before the loop runs.
    """
    trace = annotated.trace
    num_banks = config.l1_banks
    kinds = _KIND_OF_CLASS[trace.opclass]
    kinds[front.mispredicts] = _K_MISPREDICT
    loads = trace.is_load
    if use_lvp:
        kinds[loads] += annotated.outcomes[loads]
    latencies = data.add_penalties(_LAT_RESULT[trace.opcode],
                                   config.l2_latency, config.memory_latency)
    banks = (trace.addr // config.l1_line) % num_banks
    columns = zip(kinds.tolist(), trace.dst.tolist(), trace.src1.tolist(),
                  trace.src2.tolist(), _LAT_ISSUE[trace.opcode].tolist(),
                  latencies.tolist(),
                  front.icache_stalls(config.l2_latency).tolist(),
                  (trace.addr & _WORD_MASK).tolist(),
                  np.where(loads, banks + num_banks, 0).tolist())
    return columns, banks[trace.is_store].tolist()

