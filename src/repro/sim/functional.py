"""Functional (architectural) simulator for VRISC programs.

Plays the role of the paper's TRIP6000/ATOM tracing tools: executes a
program to completion and captures the full instruction/address/value
reference stream as a :class:`~repro.trace.records.Trace`.

The simulator also tracks a :class:`~repro.isa.opcodes.ValueKind` for
every register and memory word so that each load in the trace knows what
*kind* of value it returned (integer data, FP data, instruction address,
or data address) -- the classification behind the paper's Figure 2.

Implementation note: the main loop is a single flat dispatch over opcode
integers with locally-bound helpers.  This is deliberately monolithic --
it executes hundreds of thousands of instructions per workload and a
per-instruction method call would roughly double end-to-end trace
generation time for the whole suite.
"""

from __future__ import annotations

import math
import struct
from typing import Optional

import numpy as np

from repro.errors import ExecutionError, ExecutionLimitExceeded
from repro.isa.instructions import Instruction
from repro.isa.opcodes import OP_CLASS, OpClass, Opcode, ValueKind
from repro.isa.program import (
    DATA_BASE,
    INSTR_SIZE,
    Program,
    STACK_TOP,
    TEXT_BASE,
)
from repro.isa.registers import CTR, LR, NUM_REGS, SP, TOC
from repro.sim.memory import Memory
from repro.trace.records import Trace, TraceColumns

_U64 = (1 << 64) - 1
_SIGN = 1 << 63

# bincount minlengths for sim_counters, computed once at import time
# rather than on every call.
_OPCLASS_BINS = max(int(c) for c in OpClass) + 1
_OPCODE_BINS = max(int(o) for o in Opcode) + 1

#: Jumping to this address terminates execution (the loader puts it in LR
#: before calling the entry point, so returning from ``main`` halts).
EXIT_ADDRESS = 0

_PACK_D = struct.Struct("<d")
_PACK_Q = struct.Struct("<Q")


def _s64(x: int) -> int:
    """Interpret unsigned 64-bit *x* as signed."""
    return x - (1 << 64) if x & _SIGN else x


def _to_float(bits: int) -> float:
    return _PACK_D.unpack(_PACK_Q.pack(bits & _U64))[0]


def _from_float(value: float) -> int:
    return _PACK_Q.unpack(_PACK_D.pack(value))[0]


class ExecutionResult:
    """Outcome of a functional run: trace plus final architectural state."""

    def __init__(self, trace: Optional[Trace], memory: Memory,
                 registers: list[int], instruction_count: int) -> None:
        self.trace = trace
        self.memory = memory
        self.registers = registers
        self.instruction_count = instruction_count


class FunctionalSimulator:
    """Executes a linked :class:`Program` and captures its trace."""

    def __init__(self, program: Program,
                 max_instructions: int = 50_000_000) -> None:
        self.program = program
        self.max_instructions = max_instructions

    def run(self, collect_trace: bool = True,
            name: str = "", target: str = "",
            engine: str = "auto") -> ExecutionResult:
        """Run the program to completion.

        *engine* selects the execution tier: ``"interp"`` runs this
        module's reference interpreter, ``"compiled"`` the basic-block
        compiler in :mod:`repro.sim.compile`, and ``"auto"`` (default)
        the compiled tier.  The ``REPRO_ENGINE`` environment variable
        overrides the argument.  Both tiers are bit-identical; the
        interpreter is the oracle the compiled tier is verified against.

        Raises :class:`ExecutionLimitExceeded` if the instruction budget
        is exhausted (a non-halting workload is a bug, not a hang).
        """
        # Imported here (not at module level): repro.sim.compile mirrors
        # this module's semantics and imports its helpers.
        from repro.sim.compile import compiled_engine_for, resolve_engine

        program = self.program
        words, kinds_image = program.initial_memory()
        memory = Memory.from_image(words, kinds_image)

        regs = [0] * NUM_REGS
        rkinds = [int(ValueKind.INT_DATA)] * NUM_REGS
        regs[SP] = STACK_TOP
        rkinds[SP] = int(ValueKind.DATA_ADDR)
        regs[TOC] = DATA_BASE
        rkinds[TOC] = int(ValueKind.DATA_ADDR)
        regs[LR] = EXIT_ADDRESS
        rkinds[LR] = int(ValueKind.INSTR_ADDR)

        name = name or program.name
        trace = None
        if resolve_engine(engine) == "compiled":
            count, columns = compiled_engine_for(program).execute(
                memory, regs, rkinds, self.max_instructions, collect_trace)
            if columns is not None:
                trace = Trace(columns, name=name, target=target)
        else:
            cols = TraceColumns() if collect_trace else None
            count = self._execute(memory, regs, rkinds, cols)
            if cols is not None:
                trace = Trace.from_columns(cols, name=name, target=target)
        return ExecutionResult(trace, memory, regs, count)

    # The loop below intentionally trades structure for speed; see the
    # module docstring.  It is exercised heavily by the workload tests.
    def _execute(self, memory: Memory, regs: list[int], rkinds: list[int],
                 cols: Optional[TraceColumns]) -> int:  # noqa: C901
        program = self.program
        instructions = program.instructions
        num_instructions = len(instructions)
        limit = self.max_instructions

        INT_DATA = int(ValueKind.INT_DATA)
        FP_DATA = int(ValueKind.FP_DATA)
        INSTR_ADDR = int(ValueKind.INSTR_ADDR)
        DATA_ADDR = int(ValueKind.DATA_ADDR)
        ADDR_KINDS = (INSTR_ADDR, DATA_ADDR)

        op_class_of = OP_CLASS
        read_word = memory.read_word
        write_word = memory.write_word
        read_u32 = memory.read_u32
        write_u32 = memory.write_u32
        read_u8 = memory.read_u8
        write_u8 = memory.write_u8

        if cols is not None:
            rec = (
                cols.pc.append, cols.opcode.append, cols.opclass.append,
                cols.dst.append, cols.src1.append, cols.src2.append,
                cols.addr.append, cols.value.append, cols.kind.append,
                cols.size.append, cols.taken.append,
            )
        else:
            rec = None

        O = Opcode
        index = program.index_of(program.entry_pc)
        count = 0
        halting = False

        while True:
            if count >= limit:
                raise ExecutionLimitExceeded(
                    f"{program.name}: exceeded {limit} instructions"
                )
            if not 0 <= index < num_instructions:
                raise ExecutionError(
                    f"{program.name}: pc out of range (index {index})"
                )
            instr: Instruction = instructions[index]
            op = instr.opcode
            dst = instr.dst
            src1 = instr.src1
            src2 = instr.src2
            pc = TEXT_BASE + index * INSTR_SIZE
            count += 1
            next_index = index + 1

            mem_addr = 0
            mem_value = 0
            mem_kind = 0
            mem_size = 0
            taken = 0

            # ---- integer ALU -------------------------------------------------
            if op is O.ADD:
                value = (regs[src1] + regs[src2]) & _U64
                k1, k2 = rkinds[src1], rkinds[src2]
                kind = k1 if k1 in ADDR_KINDS else (
                    k2 if k2 in ADDR_KINDS else INT_DATA)
                if dst:
                    regs[dst] = value
                    rkinds[dst] = kind
            elif op is O.ADDI:
                value = (regs[src1] + instr.imm) & _U64
                k1 = rkinds[src1]
                kind = k1 if k1 in ADDR_KINDS else INT_DATA
                if dst:
                    regs[dst] = value
                    rkinds[dst] = kind
            elif op is O.SUB:
                value = (regs[src1] - regs[src2]) & _U64
                k1 = rkinds[src1]
                kind = k1 if k1 in ADDR_KINDS else INT_DATA
                if dst:
                    regs[dst] = value
                    rkinds[dst] = kind
            elif op is O.AND:
                if dst:
                    regs[dst] = regs[src1] & regs[src2]
                    rkinds[dst] = INT_DATA
            elif op is O.ANDI:
                if dst:
                    regs[dst] = regs[src1] & (instr.imm & _U64)
                    rkinds[dst] = INT_DATA
            elif op is O.OR:
                if dst:
                    regs[dst] = regs[src1] | regs[src2]
                    rkinds[dst] = INT_DATA
            elif op is O.ORI:
                if dst:
                    regs[dst] = regs[src1] | (instr.imm & _U64)
                    rkinds[dst] = INT_DATA
            elif op is O.XOR:
                if dst:
                    regs[dst] = regs[src1] ^ regs[src2]
                    rkinds[dst] = INT_DATA
            elif op is O.XORI:
                if dst:
                    regs[dst] = regs[src1] ^ (instr.imm & _U64)
                    rkinds[dst] = INT_DATA
            elif op is O.SLL:
                if dst:
                    regs[dst] = (regs[src1] << (regs[src2] & 63)) & _U64
                    rkinds[dst] = INT_DATA
            elif op is O.SLLI:
                if dst:
                    regs[dst] = (regs[src1] << (instr.imm & 63)) & _U64
                    rkinds[dst] = INT_DATA
            elif op is O.SRL:
                if dst:
                    regs[dst] = regs[src1] >> (regs[src2] & 63)
                    rkinds[dst] = INT_DATA
            elif op is O.SRLI:
                if dst:
                    regs[dst] = regs[src1] >> (instr.imm & 63)
                    rkinds[dst] = INT_DATA
            elif op is O.SRA:
                if dst:
                    regs[dst] = (_s64(regs[src1]) >> (regs[src2] & 63)) & _U64
                    rkinds[dst] = INT_DATA
            elif op is O.SRAI:
                if dst:
                    regs[dst] = (_s64(regs[src1]) >> (instr.imm & 63)) & _U64
                    rkinds[dst] = INT_DATA
            elif op is O.SLT:
                if dst:
                    regs[dst] = 1 if _s64(regs[src1]) < _s64(regs[src2]) else 0
                    rkinds[dst] = INT_DATA
            elif op is O.SLTI:
                if dst:
                    regs[dst] = 1 if _s64(regs[src1]) < instr.imm else 0
                    rkinds[dst] = INT_DATA
            elif op is O.SLTU:
                if dst:
                    regs[dst] = 1 if regs[src1] < regs[src2] else 0
                    rkinds[dst] = INT_DATA
            elif op is O.SEQ:
                if dst:
                    regs[dst] = 1 if regs[src1] == regs[src2] else 0
                    rkinds[dst] = INT_DATA
            elif op is O.LI:
                if dst:
                    regs[dst] = instr.imm & _U64
                    rkinds[dst] = INT_DATA
            elif op is O.LA:
                if dst:
                    regs[dst] = instr.imm & _U64
                    rkinds[dst] = DATA_ADDR
            elif op is O.MOV:
                if dst:
                    regs[dst] = regs[src1]
                    rkinds[dst] = rkinds[src1]
            elif op is O.NOP:
                pass

            # ---- complex integer ------------------------------------------------
            elif op is O.MUL:
                if dst:
                    regs[dst] = (regs[src1] * regs[src2]) & _U64
                    rkinds[dst] = INT_DATA
            elif op is O.DIV:
                a, b = _s64(regs[src1]), _s64(regs[src2])
                q = 0 if b == 0 else abs(a) // abs(b) * (
                    -1 if (a < 0) != (b < 0) else 1)
                if dst:
                    regs[dst] = q & _U64
                    rkinds[dst] = INT_DATA
            elif op is O.REM:
                a, b = _s64(regs[src1]), _s64(regs[src2])
                if b == 0:
                    r = 0
                else:
                    r = abs(a) % abs(b) * (-1 if a < 0 else 1)
                if dst:
                    regs[dst] = r & _U64
                    rkinds[dst] = INT_DATA
            elif op is O.MFLR:
                if dst:
                    regs[dst] = regs[LR]
                    rkinds[dst] = rkinds[LR]
            elif op is O.MTLR:
                regs[LR] = regs[src1]
                rkinds[LR] = rkinds[src1]
            elif op is O.MFCTR:
                if dst:
                    regs[dst] = regs[CTR]
                    rkinds[dst] = rkinds[CTR]
            elif op is O.MTCTR:
                regs[CTR] = regs[src1]
                rkinds[CTR] = rkinds[src1]

            # ---- loads -----------------------------------------------------------
            elif op is O.LD:
                mem_addr = (regs[src1] + instr.imm) & _U64
                mem_value, mem_kind = read_word(mem_addr)
                mem_size = 8
                if dst:
                    regs[dst] = mem_value
                    rkinds[dst] = mem_kind
            elif op is O.LW:
                mem_addr = (regs[src1] + instr.imm) & _U64
                raw = read_u32(mem_addr)
                mem_value = (raw - (1 << 32) if raw & (1 << 31) else raw) & _U64
                mem_kind = INT_DATA
                mem_size = 4
                if dst:
                    regs[dst] = mem_value
                    rkinds[dst] = INT_DATA
            elif op is O.LBU:
                mem_addr = (regs[src1] + instr.imm) & _U64
                mem_value = read_u8(mem_addr)
                mem_kind = INT_DATA
                mem_size = 1
                if dst:
                    regs[dst] = mem_value
                    rkinds[dst] = INT_DATA
            elif op is O.FLD:
                mem_addr = (regs[src1] + instr.imm) & _U64
                mem_value, stored_kind = read_word(mem_addr)
                mem_kind = FP_DATA if stored_kind == INT_DATA else stored_kind
                mem_size = 8
                if dst:
                    regs[dst] = mem_value
                    rkinds[dst] = mem_kind

            # ---- stores ------------------------------------------------------------
            elif op is O.ST:
                mem_addr = (regs[src1] + instr.imm) & _U64
                mem_value = regs[src2]
                mem_kind = rkinds[src2]
                mem_size = 8
                write_word(mem_addr, mem_value, mem_kind)
            elif op is O.STW:
                mem_addr = (regs[src1] + instr.imm) & _U64
                mem_value = regs[src2] & 0xFFFF_FFFF
                mem_kind = INT_DATA
                mem_size = 4
                write_u32(mem_addr, mem_value)
            elif op is O.SB:
                mem_addr = (regs[src1] + instr.imm) & _U64
                mem_value = regs[src2] & 0xFF
                mem_kind = INT_DATA
                mem_size = 1
                write_u8(mem_addr, mem_value)
            elif op is O.FST:
                mem_addr = (regs[src1] + instr.imm) & _U64
                mem_value = regs[src2]
                mem_kind = FP_DATA
                mem_size = 8
                write_word(mem_addr, mem_value, FP_DATA)

            # ---- floating point -------------------------------------------------------
            elif op is O.FADD:
                if dst:
                    regs[dst] = _from_float(
                        _to_float(regs[src1]) + _to_float(regs[src2]))
                    rkinds[dst] = FP_DATA
            elif op is O.FSUB:
                if dst:
                    regs[dst] = _from_float(
                        _to_float(regs[src1]) - _to_float(regs[src2]))
                    rkinds[dst] = FP_DATA
            elif op is O.FMUL:
                if dst:
                    regs[dst] = _from_float(
                        _to_float(regs[src1]) * _to_float(regs[src2]))
                    rkinds[dst] = FP_DATA
            elif op is O.FDIV:
                b = _to_float(regs[src2])
                a = _to_float(regs[src1])
                if dst:
                    regs[dst] = _from_float(a / b if b != 0.0 else 0.0)
                    rkinds[dst] = FP_DATA
            elif op is O.FNEG:
                if dst:
                    regs[dst] = _from_float(-_to_float(regs[src1]))
                    rkinds[dst] = FP_DATA
            elif op is O.FABS:
                if dst:
                    regs[dst] = _from_float(abs(_to_float(regs[src1])))
                    rkinds[dst] = FP_DATA
            elif op is O.FSQRT:
                a = _to_float(regs[src1])
                if dst:
                    regs[dst] = _from_float(math.sqrt(a) if a >= 0.0 else 0.0)
                    rkinds[dst] = FP_DATA
            elif op is O.FCVT:
                if dst:
                    regs[dst] = _from_float(float(_s64(regs[src1])))
                    rkinds[dst] = FP_DATA
            elif op is O.FTRUNC:
                if dst:
                    regs[dst] = int(math.trunc(_to_float(regs[src1]))) & _U64
                    rkinds[dst] = INT_DATA
            elif op is O.FLT:
                if dst:
                    regs[dst] = (
                        1 if _to_float(regs[src1]) < _to_float(regs[src2])
                        else 0
                    )
                    rkinds[dst] = INT_DATA
            elif op is O.FEQ:
                if dst:
                    regs[dst] = (
                        1 if _to_float(regs[src1]) == _to_float(regs[src2])
                        else 0
                    )
                    rkinds[dst] = INT_DATA
            elif op is O.FLE:
                if dst:
                    regs[dst] = (
                        1 if _to_float(regs[src1]) <= _to_float(regs[src2])
                        else 0
                    )
                    rkinds[dst] = INT_DATA

            # ---- control flow ------------------------------------------------------------
            elif op is O.BEQ:
                taken = 1 if regs[src1] == regs[src2] else 0
                if taken:
                    next_index = (instr.target - TEXT_BASE) // INSTR_SIZE
            elif op is O.BNE:
                taken = 1 if regs[src1] != regs[src2] else 0
                if taken:
                    next_index = (instr.target - TEXT_BASE) // INSTR_SIZE
            elif op is O.BLT:
                taken = 1 if _s64(regs[src1]) < _s64(regs[src2]) else 0
                if taken:
                    next_index = (instr.target - TEXT_BASE) // INSTR_SIZE
            elif op is O.BGE:
                taken = 1 if _s64(regs[src1]) >= _s64(regs[src2]) else 0
                if taken:
                    next_index = (instr.target - TEXT_BASE) // INSTR_SIZE
            elif op is O.BLTU:
                taken = 1 if regs[src1] < regs[src2] else 0
                if taken:
                    next_index = (instr.target - TEXT_BASE) // INSTR_SIZE
            elif op is O.BGEU:
                taken = 1 if regs[src1] >= regs[src2] else 0
                if taken:
                    next_index = (instr.target - TEXT_BASE) // INSTR_SIZE
            elif op is O.J:
                next_index = (instr.target - TEXT_BASE) // INSTR_SIZE
            elif op is O.JAL:
                regs[LR] = pc + INSTR_SIZE
                rkinds[LR] = INSTR_ADDR
                next_index = (instr.target - TEXT_BASE) // INSTR_SIZE
            elif op is O.JALR:
                addr = regs[src1]
                regs[LR] = pc + INSTR_SIZE
                rkinds[LR] = INSTR_ADDR
                if addr == EXIT_ADDRESS:
                    halting = True
                else:
                    next_index = (addr - TEXT_BASE) // INSTR_SIZE
            elif op is O.JR:
                addr = regs[src1]
                if addr == EXIT_ADDRESS:
                    halting = True
                else:
                    next_index = (addr - TEXT_BASE) // INSTR_SIZE
            elif op is O.RET:
                addr = regs[LR]
                if addr == EXIT_ADDRESS:
                    halting = True
                else:
                    next_index = (addr - TEXT_BASE) // INSTR_SIZE
            elif op is O.BCTR:
                addr = regs[CTR]
                if addr == EXIT_ADDRESS:
                    halting = True
                else:
                    next_index = (addr - TEXT_BASE) // INSTR_SIZE
            elif op is O.HALT:
                halting = True
            else:  # pragma: no cover - opcode table is exhaustive
                raise ExecutionError(f"unhandled opcode: {op.name}")

            if rec is not None:
                # For register-writing non-memory instructions, record
                # the produced value (and its kind) so downstream tools
                # can study *general* value locality -- the paper's
                # final future-work item ("values generated by
                # instructions other than loads").
                if mem_size == 0 and dst > 0:
                    mem_value = regs[dst]
                    mem_kind = rkinds[dst]
                rec[0](pc)
                rec[1](int(op))
                rec[2](int(op_class_of[op]))
                rec[3](dst)
                rec[4](src1)
                rec[5](src2)
                rec[6](mem_addr)
                rec[7](mem_value)
                rec[8](mem_kind)
                rec[9](mem_size)
                rec[10](taken)
            if halting:
                break
            index = next_index

        return count


def run_program(program: Program, collect_trace: bool = True,
                name: str = "", target: str = "",
                max_instructions: int = 50_000_000,
                engine: str = "auto") -> ExecutionResult:
    """Run *program* to completion; convenience wrapper."""
    sim = FunctionalSimulator(program, max_instructions=max_instructions)
    return sim.run(collect_trace=collect_trace, name=name, target=target,
                   engine=engine)


def sim_counters(trace: Trace) -> dict[str, int]:
    """Observability counters for one functional run.

    Derived from the finished trace's columns in a few vectorized
    passes rather than incremented inside the dispatch loop, so the
    hot loop pays nothing for observability and the counters are
    identical whether the trace was just simulated or loaded from the
    on-disk cache.  Keys: ``instructions``, ``loads``, ``stores``,
    ``branches``, and a per-opcode mix under ``op/<NAME>`` (dynamic
    opcodes only).
    """
    opclass_counts = np.bincount(trace.opclass, minlength=_OPCLASS_BINS)
    counters = {
        "instructions": trace.num_instructions,
        "loads": trace.num_loads,
        "stores": trace.num_stores,
        "branches": int(opclass_counts[int(OpClass.BRANCH)]),
    }
    opcode_counts = np.bincount(trace.opcode, minlength=_OPCODE_BINS)
    for opcode in Opcode:
        count = int(opcode_counts[int(opcode)])
        if count:
            counters[f"op/{opcode.name}"] = count
    return counters
