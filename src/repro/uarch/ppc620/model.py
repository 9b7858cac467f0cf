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
from repro.uarch.factored import load_outcome_counts, precompute
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
_FU_OF_CLASS_LIST = fu_of_class_array(_FU_OF_CLASS)
_FU_OF_CLASS_LIST_NP = np.array(_FU_OF_CLASS_LIST, dtype=np.uint8)
_LAT_ISSUE, _LAT_RESULT = (np.array(table, dtype=np.int16)
                           for table in latency_arrays(PPC620_LATENCY))


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
        self.releases: list[int] = []

    def earliest_slot(self, candidate: int) -> int:
        """Earliest cycle >= candidate at which a slot is free."""
        releases = self.releases
        if len(releases) < self.size:
            return candidate
        # Slot frees when the oldest-releasing occupant leaves.
        bound = sorted(releases)[len(releases) - self.size]
        return max(candidate, bound)

    def allocate(self, release: int, now: int) -> None:
        """Occupy a slot until *release*, dropping entries freed by *now*."""
        self.releases = [r for r in self.releases if r > now]
        self.releases.append(release)


class _Units:
    """Functional-unit instances with per-instance next-free times."""

    __slots__ = ("free",)

    def __init__(self, count: int) -> None:
        self.free = [0] * count

    def issue_at(self, candidate: int, occupancy: int) -> int:
        """Issue on the earliest-free instance; returns the issue cycle."""
        best = min(range(len(self.free)), key=lambda i: self.free[i])
        cycle = max(candidate, self.free[best])
        self.free[best] = cycle + occupancy
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
        """The original scheduling loop (the oracle for ``fast``)."""
        config = self.config
        trace = annotated.trace
        outcomes = annotated.outcomes

        opcodes = trace.opcode.tolist()
        opclasses = trace.opclass.tolist()
        dsts = trace.dst.tolist()
        src1s = trace.src1.tolist()
        src2s = trace.src2.tolist()
        addrs = trace.addr.tolist()
        takens = trace.taken.tolist()
        pcs = trace.pc.tolist()
        outcome_list = outcomes.tolist()
        count = len(opcodes)

        latency = PPC620_LATENCY
        opcode_enum = [Opcode(o) for o in range(1, len(Opcode) + 1)]

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

        pools = {
            FU_SCFX: _Pool(config.rs_scfx),
            FU_MCFX: _Pool(config.rs_mcfx),
            FU_FPU: _Pool(config.rs_fpu),
            FU_LSU: _Pool(config.rs_lsu),
            FU_BRU: _Pool(config.rs_bru),
        }
        units = {
            FU_SCFX: _Units(config.num_scfx),
            FU_MCFX: _Units(config.num_mcfx),
            FU_FPU: _Units(config.num_fpu),
            FU_LSU: _Units(config.num_lsu),
            FU_BRU: _Units(config.num_bru),
        }

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
        ibuf_ring: deque = deque()

        verify_hist = {bucket: 0 for bucket in VERIFY_BUCKETS}
        store_commits: list[tuple[int, int]] = []
        fu_wait_sum = [0, 0, 0, 0, 0]
        fu_wait_count = [0, 0, 0, 0, 0]
        outcome_counts = {o: 0 for o in LoadOutcome}
        num_loads = 0

        mispredict_penalty = config.mispredict_penalty

        for i in range(count):
            opcode_value = opcodes[i]
            opcode = opcode_enum[opcode_value - 1]
            opclass = opclasses[i]
            fu = _FU_OF_CLASS[opclass]
            lat = latency[opcode]

            # ---- fetch -------------------------------------------------
            candidate = max(fetch_cycle, fetch_blocked_until)
            if candidate == fetch_cycle and fetch_count >= config.fetch_width:
                candidate += 1
            if len(ibuf_ring) >= config.instruction_buffer:
                candidate = max(candidate, ibuf_ring[0])
            if icache is not None and not icache.access(pcs[i]):
                # Instruction-cache miss: fetch stalls for the L2 trip.
                candidate += config.l2_latency
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
                if width_used >= config.dispatch_width or (
                        is_mem and mem_used >= config.mem_per_cycle):
                    candidate += 1
                    continue
                break
            # Completion buffer slot (freed at completion).
            if len(dispatch_window) >= config.completion_buffer:
                candidate = max(candidate, dispatch_window[0])
                while (len(dispatch_window) >= config.completion_buffer
                        and dispatch_window[0] <= candidate):
                    dispatch_window.popleft()
            # Rename buffer for the destination register.
            dst = dsts[i]
            ring = None
            if dst > 0:
                if dst < 32:
                    ring = gpr_ring
                    limit = config.gpr_rename
                elif dst < 64:
                    ring = fpr_ring
                    limit = config.fpr_rename
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
            if len(ibuf_ring) > config.instruction_buffer:
                ibuf_ring.popleft()

            # ---- operands ------------------------------------------------
            ready_spec = dispatch_time
            ready_real = dispatch_time
            spec_until = 0
            has_misp_source = False
            for src in (src1s[i], src2s[i]):
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
            issue_candidate = max(dispatch_time + 1, operand_time)
            issue_time = units[fu].issue_at(issue_candidate, lat.issue)

            verify_time = 0
            outcome = outcome_list[i] if opclass == int(OpClass.LOAD) \
                else NOT_A_LOAD
            if opclass == int(OpClass.LOAD):
                num_loads += 1
                addr = addrs[i]
                word = addr & ~7
                # store-to-load dependence (forwarding at no extra cost)
                dep = store_ready.get(word, 0)
                if dep > issue_time:
                    issue_time = units[fu].issue_at(dep, lat.issue)
                if use_lvp and outcome == int(LoadOutcome.CONSTANT):
                    # CVU-verified: no cache access at all.
                    exec_done = issue_time + lat.result
                    verify_time = exec_done
                else:
                    access_cycle = issue_time + 1
                    banks.access(access_cycle, addr, can_defer=False)
                    penalty = hierarchy.load_penalty(addr)
                    exec_done = issue_time + lat.result + penalty
                    # Only loads whose value was actually forwarded
                    # need the extra value-comparison stage.
                    if use_lvp and outcome in (int(LoadOutcome.CORRECT),
                                               int(LoadOutcome.INCORRECT)):
                        verify_time = exec_done + 1
                if use_lvp and outcome != NOT_A_LOAD:
                    outcome_counts[LoadOutcome(outcome)] += 1
            elif opclass == int(OpClass.STORE):
                # Stores enter the store queue at execute and access the
                # cache banks when they commit; a committing store that
                # collides with a load's bank must retry (Section 6.5).
                addr = addrs[i]
                hierarchy.store_access(addr)
                exec_done = issue_time + lat.result
                store_ready[addr & ~7] = exec_done
            else:
                exec_done = issue_time + lat.result

            # ---- branches --------------------------------------------------
            if opclass == int(OpClass.BRANCH) and opcode != Opcode.HALT:
                target = pcs[i + 1] if i + 1 < count else 0
                correct = predictor.predict_and_update(
                    opcode, pcs[i], bool(takens[i]), target)
                if not correct:
                    fetch_blocked_until = max(
                        fetch_blocked_until,
                        exec_done + mispredict_penalty,
                    )

            # ---- producer bookkeeping ---------------------------------------
            is_load = opclass == int(OpClass.LOAD)
            predicted = (
                use_lvp and is_load and outcome in (
                    int(LoadOutcome.CORRECT), int(LoadOutcome.CONSTANT))
            )
            mispredicted = (
                use_lvp and is_load and outcome == int(LoadOutcome.INCORRECT)
            )
            if predicted:
                avail_spec = dispatch_time  # forwarded at dispatch
                avail_real = dispatch_time
                my_verify = max(spec_until, verify_time)
                bucket = verify_time - dispatch_time
                if bucket < 4:
                    verify_hist["<4"] += 1
                elif bucket > 7:
                    verify_hist[">7"] += 1
                else:
                    verify_hist[str(bucket)] += 1
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
            if config.rs_retention:
                rs_release = max(issue_time + 1, spec_until, verify_time)
            else:
                rs_release = issue_time + 1
            pool.allocate(rs_release, dispatch_time)

            # ---- in-order completion -------------------------------------------
            finish = max(exec_done, my_verify, verify_time)
            candidate = max(finish + 1, last_completion)
            if candidate == complete_cycle:
                if complete_count >= config.complete_width:
                    candidate += 1
            if candidate > complete_cycle:
                complete_cycle = candidate
                complete_count = 0
            completion = complete_cycle
            complete_count += 1
            last_completion = completion
            if opclass == int(OpClass.STORE):
                store_commits.append((completion, addrs[i]))
            dispatch_window.append(completion)
            if ring is not None:
                ring.append(completion)

            # Keep the store-dependence map bounded.
            if len(store_ready) > 4096:
                store_ready.clear()

        # Stores commit against the full load bank-usage ledger: a
        # committing store that finds its bank busy (with a load from
        # either side of it in program order) retries next cycle.
        for commit_cycle, addr in store_commits:
            banks.access(commit_cycle, addr, can_defer=True)

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
            load_outcomes=outcome_counts,
        )

    def _run_fast(self, annotated: AnnotatedTrace,
                  use_lvp: bool = True) -> PPC620Result:
        """The factored scheduling loop (bit-identical to ``reference``).

        I-cache misses, branch mispredictions and each load's cache
        service level come from :mod:`repro.uarch.factored`, computed
        once per trace and shared by every run; this loop is only the
        scheduler.  It keeps the reference arithmetic on leaner state:
        per-instruction latency lists, list scoreboards, fixed-length
        rings and heaps for the structural resources, and a set as the
        bank ledger.
        """
        config = self.config
        trace = annotated.trace
        front, data = precompute(annotated, config, use_lvp)

        opclasses = trace.opclass.tolist()
        dsts = trace.dst.tolist()
        src1s = trace.src1.tolist()
        src2s = trace.src2.tolist()
        addrs = trace.addr.tolist()
        outcome_list = annotated.outcomes.tolist() if use_lvp else None
        icache_stalls = front.icache_stalls(config.l2_latency)
        mispredicts = front.mispredicted()
        occupancies = _LAT_ISSUE[trace.opcode].tolist()
        # Result latency, plus the cache trip for loads that make one.
        latencies = data.add_penalties(_LAT_RESULT[trace.opcode].tolist(),
                                       config.l2_latency,
                                       config.memory_latency)
        count = len(opclasses)

        fu_of_class = _FU_OF_CLASS_LIST
        cls_load = int(OpClass.LOAD)
        cls_store = int(OpClass.STORE)

        # Bank-usage ledger of (cycle, bank) pairs (BankTracker inlined;
        # banks have one port, so a pair is either free or taken, and
        # loads own a port, so only the store-commit pass below can
        # conflict).
        l1_line = config.l1_line
        num_banks = config.l1_banks
        bank_used: set[tuple[int, int]] = set()

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
        dispatch_window = deque([0] * config.completion_buffer,
                                maxlen=config.completion_buffer)
        gpr_ring = deque([0] * config.gpr_rename, maxlen=config.gpr_rename)
        fpr_ring = deque([0] * config.fpr_rename, maxlen=config.fpr_rename)
        ibuf_ring = deque([0] * config.instruction_buffer,
                          maxlen=config.instruction_buffer)
        pool_rel = [[0] * config.rs_scfx, [0] * config.rs_mcfx,
                    [0] * config.rs_fpu, [0] * config.rs_lsu,
                    [0] * config.rs_bru]
        unit_free = [[0] * config.num_scfx, [0] * config.num_mcfx,
                     [0] * config.num_fpu, [0] * config.num_lsu,
                     [0] * config.num_bru]

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
        store_commits: list[tuple[int, int]] = []
        fu_wait_sum = [0, 0, 0, 0, 0]

        fetch_width = config.fetch_width
        dispatch_width = config.dispatch_width
        complete_width = config.complete_width
        mem_per_cycle = config.mem_per_cycle
        mispredict_penalty = config.mispredict_penalty
        rs_retention = config.rs_retention

        for i in range(count):
            opclass = opclasses[i]
            fu = fu_of_class[opclass]

            # ---- fetch -------------------------------------------------
            candidate = fetch_cycle if fetch_cycle >= fetch_blocked_until \
                else fetch_blocked_until
            if candidate == fetch_cycle and fetch_count >= fetch_width:
                candidate += 1
            first = ibuf_ring[0]
            if first > candidate:
                candidate = first
            candidate += icache_stalls[i]
            if candidate != fetch_cycle:
                fetch_cycle = candidate
                fetch_count = 0
            fetch_count += 1

            # ---- dispatch ----------------------------------------------
            candidate = fetch_cycle + 1
            if dispatch_cycle > candidate:
                candidate = dispatch_cycle
            is_mem = fu == FU_LSU
            # A full dispatch group pushes by one cycle, whose group is
            # empty.
            if candidate == dispatch_cycle and (
                    dispatch_count >= dispatch_width
                    or (is_mem and mem_dispatch_count >= mem_per_cycle)):
                candidate += 1
            first = dispatch_window[0]
            if first > candidate:
                candidate = first
            dst = dsts[i]
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
            rel = pool_rel[fu]
            first = rel[0]
            if first > candidate:
                candidate = first
            if candidate > dispatch_cycle:
                dispatch_cycle = candidate
                dispatch_count = 0
                mem_dispatch_count = 0
            dispatch_time = dispatch_cycle
            dispatch_count += 1
            if is_mem:
                mem_dispatch_count += 1
            ibuf_ring.append(dispatch_time)

            # ---- operands ----------------------------------------------
            ready = dispatch_time
            spec_until = 0
            s = src1s[i]
            if s > 0:
                v = reg_ready[s]
                if v > ready:
                    ready = v
                spec_until = reg_verify[s]
            s = src2s[i]
            if s > 0:
                v = reg_ready[s]
                if v > ready:
                    ready = v
                v = reg_verify[s]
                if v > spec_until:
                    spec_until = v
            fu_wait_sum[fu] += ready - dispatch_time

            # ---- issue / execute ---------------------------------------
            free = unit_free[fu]
            issue_time = free[0]
            if issue_time <= dispatch_time:
                issue_time = dispatch_time + 1
            if ready > issue_time:
                issue_time = ready
            occupancy = occupancies[i]
            heapreplace(free, issue_time + occupancy)

            verify_time = 0
            my_verify = spec_until
            if opclass == cls_load:
                addr = addrs[i]
                dep = store_get(addr & ~7, 0)
                if dep > issue_time:
                    issue_time = free[0]
                    if dep > issue_time:
                        issue_time = dep
                    heapreplace(free, issue_time + occupancy)
                # Stage 2 already left CVU-verified loads out of the cache.
                exec_done = avail = issue_time + latencies[i]
                outcome = outcome_list[i] if use_lvp else 0
                if outcome == 3:  # CONSTANT: no cache access
                    verify_time = exec_done
                else:
                    bank_used.add((issue_time + 1,
                                   (addr // l1_line) % num_banks))
                    if outcome == 2 or outcome == 1:
                        verify_time = exec_done + 1
                if outcome == 2 or outcome == 3:
                    # Predicted: the value forwards at dispatch.
                    avail = dispatch_time
                    if verify_time > spec_until:
                        my_verify = verify_time
                    bucket = verify_time - dispatch_time
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
                elif outcome == 1 and verify_time > spec_until:
                    my_verify = verify_time
            elif opclass == cls_store:
                exec_done = avail = issue_time + latencies[i]
                store_ready[addrs[i] & ~7] = exec_done
                if len(store_ready) > 4096:
                    store_ready.clear()
            else:
                exec_done = avail = issue_time + latencies[i]
                if mispredicts[i]:
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
            if candidate <= complete_cycle:
                candidate = complete_cycle
                if complete_count >= complete_width:
                    candidate += 1
            if candidate > complete_cycle:
                complete_cycle = candidate
                complete_count = 0
            complete_count += 1
            if opclass == cls_store:
                store_commits.append((complete_cycle, addrs[i]))
            dispatch_window.append(complete_cycle)
            if ring is not None:
                ring.append(complete_cycle)

        # Store-commit bank retries (single-ported banks for stores).
        conflicts = 0
        conflict_cycles: set = set()
        for commit_cycle, addr in store_commits:
            bank = (addr // l1_line) % num_banks
            actual = commit_cycle
            while (actual, bank) in bank_used:
                conflicts += 1
                conflict_cycles.add(actual)
                actual += 1
            bank_used.add((actual, bank))

        fu_count = np.bincount(_FU_OF_CLASS_LIST_NP[trace.opclass],
                               minlength=5).tolist()
        return PPC620Result(
            config_name=config.name,
            lvp_name=annotated.config.name if use_lvp else "none",
            instructions=count,
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
