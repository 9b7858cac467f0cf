"""Ahead-of-time basic-block compiler for VRISC programs (tier 1).

The interpreter in :mod:`repro.sim.functional` pays per-instruction
dispatch (a ~30-arm ``elif`` chain), per-instruction operand field
reads, and eleven bound-method appends for every dynamic instruction.
This module removes all three costs by *compiling* a linked
:class:`~repro.isa.program.Program` once: the static instruction stream
is partitioned into basic blocks (leaders are the entry point, every
resolved branch target, and every instruction after a control-flow op)
and each block is emitted as one specialized Python function via
``compile()``/``exec`` with

* immediates, PCs, opcode/op-class numbers and register ids baked in as
  constants,
* registers promoted to function locals (loaded on entry, written back
  on exit; reads of the hardwired ``r0`` fold to the literal ``0``),
* only the *dynamic* record slots recorded -- effective addresses,
  values and kinds that depend on the run, and conditional branches'
  taken bits -- batched into one ``list.extend`` per column per block,
  and
* the instruction-budget check hoisted to one comparison per block.

Everything else a trace holds is static per instruction: pc, opcode,
op class, registers, access size, and every record slot that is a
literal (a byte store's kind, a store of ``r0``'s value).  Code
generation puts it in a per-program *static table*.  A run records only
the start index of each block it executes; afterwards one numpy gather
of the table over the executed index ranges rebuilds all eleven
columns, and each dynamic column's recorded values are scattered into
its dynamic slots.  The trace's arrays come out in their final dtypes.

The whole program becomes a single source string compiled once per
:class:`Program` (cached on the program itself) to a ``_bind``
function that defines every block function in its body.  Each run calls
``_bind`` with that run's :class:`~repro.sim.memory.Memory` methods, the
FP helpers and the four dynamic sinks, so block functions reach them
through ``_bind``'s closure.  Computed jumps (``JALR``/``JR``/``RET``/
``BCTR``) can land mid-block; such entry points are compiled lazily on
first use into a ``_bind`` of their own, cached on the engine, and
share the static table: whether a slot is dynamic depends on the
instruction alone.

The interpreter remains the reference oracle: the compiled engine is
required to be *bit-identical* to it -- same trace columns, same final
registers/memory, same exceptions with the same messages -- which the
differential suite in ``tests/sim/test_compile.py`` enforces across all
workloads.

Semantic mirroring notes (all proven by the differential suite):

* ``ExecutionLimitExceeded``: the interpreter raises before executing
  the instruction that would exceed the budget.  Because every halting
  or control-flow instruction ends its block, a block of length ``L``
  always retires exactly ``L`` instructions, so the per-block pre-check
  ``count + L > limit`` raises in exactly the same executions.
* A ``dst`` of ``NO_REG`` (-1) is *truthy*, so guarded writes with
  ``dst == -1`` store to ``regs[-1]`` (the CTR slot) just like the
  interpreter; only a literal ``dst == 0`` suppresses the write.
* Reads of register 0 constant-fold to ``0`` -- valid because ``r0``
  starts at zero and every write is ``if dst:``-guarded.
"""

from __future__ import annotations

import math
import os

import numpy as np

from repro.errors import ConfigError, ExecutionError, ExecutionLimitExceeded
from repro.isa.opcodes import OP_CLASS, OpClass, Opcode
from repro.isa.program import INSTR_SIZE, Program, TEXT_BASE
from repro.isa.registers import CTR, LR, NUM_REGS
from repro.sim.functional import EXIT_ADDRESS, _from_float, _to_float
from repro.trace.records import _DTYPES

_U64 = (1 << 64) - 1
_SIGN = 1 << 63
_BRANCH = OpClass.BRANCH

#: Recognised values of the ``engine`` knob / ``REPRO_ENGINE`` env var.
ENGINES = ("auto", "interp", "compiled")


def resolve_engine(engine: str) -> str:
    """Resolve the engine knob to ``"interp"`` or ``"compiled"``.

    The ``REPRO_ENGINE`` environment variable overrides the argument
    (same precedence style as the harness's other chaos/engine knobs);
    ``"auto"`` selects the compiled tier.
    """
    env = os.environ.get("REPRO_ENGINE")
    if env:
        engine = env
    if engine not in ENGINES:
        raise ConfigError(
            f"unknown execution engine {engine!r} "
            f"(choose from {', '.join(ENGINES)})"
        )
    return "compiled" if engine == "auto" else engine


# --------------------------------------------------------------------------
# code generation
# --------------------------------------------------------------------------

def _canon(reg: int) -> int:
    """Canonical register-file index (mirrors Python negative indexing)."""
    return reg if reg >= 0 else NUM_REGS + reg


def _r(c: int) -> str:
    return f"r{c}" if c >= 0 else f"rn{-c}"


def _k(c: int) -> str:
    return f"k{c}" if c >= 0 else f"kn{-c}"


def _sx(expr: str) -> str:
    """Inline signed-64 view of an unsigned local (no function call)."""
    return (f"(({expr}) - 18446744073709551616 "
            f"if ({expr}) & 9223372036854775808 else ({expr}))")


def _tgt_expr(instr) -> str:
    """Branch-target instruction index, folded when resolved."""
    t = instr.target
    if isinstance(t, int):
        return repr((t - TEXT_BASE) // INSTR_SIZE)
    # Unlinked/symbolic target: defer to runtime so the failure mode
    # matches the interpreter (which only fails if the branch is taken).
    return f"(({t!r} - {TEXT_BASE}) // {INSTR_SIZE})"


#: Parameters of every generated ``_bind``: the run's memory methods,
#: the FP helpers and the four dynamic record sinks.  Block functions
#: are defined inside ``_bind`` and reach these through its closure.
_BIND_PARAMS = ("_rw, _ww, _ru4, _wu4, _ru1, _wu1, _tf, _ff, _sqrt, _tr, "
                "_xad, _xva, _xkn, _xtk")

#: Trace columns with record slots that may be dynamic, each with the
#: sink its dynamic slots are appended to (bound in ``_BIND_PARAMS``
#: order).  Every other column is static per instruction.
_DYNAMIC = (("addr", "_xad"), ("value", "_xva"), ("kind", "_xkn"),
            ("taken", "_xtk"))


def _emit(j: int, instr, pc: int) -> dict:  # noqa: C901
    """Emit one instruction: statements, record markers, read/write sets.

    Record markers are ``("lit", value)``, ``("name", local)``,
    ``("reg", c)`` (value of register *c* at this point) or
    ``("kreg", c)`` (its kind); reg markers are resolved to locals or
    capture temps once the whole block is known.  Whether a slot is a
    literal depends on the instruction alone, so the static table and
    every block (leader or lazy entry) agree on which slots a run
    records.
    """
    op = instr.opcode
    O = Opcode
    item = {
        "stmts": [], "writes": set(), "pre_val": set(), "pre_kind": set(),
        "addr": ("lit", 0), "value": None, "kind": None,
        "taken": ("lit", 0), "size": 0, "terminal": None,
    }
    dst, imm = instr.dst, instr.imm
    d = _canon(dst)
    c1 = _canon(instr.src1)
    c2 = _canon(instr.src2)
    stmts = item["stmts"]

    def RV(c: int) -> str:
        if c != 0:
            item["pre_val"].add(c)
        return "0" if c == 0 else _r(c)

    def RK(c: int) -> str:
        if c != 0:
            item["pre_kind"].add(c)
        return "0" if c == 0 else _k(c)

    def write(value_expr: str, kind_expr: str) -> None:
        stmts.append(f"{_r(d)} = {value_expr}")
        stmts.append(f"{_k(d)} = {kind_expr}")
        item["writes"].add(d)

    # ---- integer ALU ----
    if op is O.ADD:
        if dst:
            v1, v2, k1, k2 = RV(c1), RV(c2), RK(c1), RK(c2)
            write(f"({v1} + {v2}) & {_U64}",
                  f"{k1} if {k1} in (2, 3) else "
                  f"({k2} if {k2} in (2, 3) else 0)")
    elif op is O.ADDI:
        if dst:
            v1, k1 = RV(c1), RK(c1)
            write(f"({v1} + {imm}) & {_U64}",
                  f"{k1} if {k1} in (2, 3) else 0")
    elif op is O.SUB:
        if dst:
            v1, v2, k1 = RV(c1), RV(c2), RK(c1)
            write(f"({v1} - {v2}) & {_U64}",
                  f"{k1} if {k1} in (2, 3) else 0")
    elif op is O.AND:
        if dst:
            write(f"{RV(c1)} & {RV(c2)}", "0")
    elif op is O.ANDI:
        if dst:
            write(f"{RV(c1)} & {imm & _U64}", "0")
    elif op is O.OR:
        if dst:
            write(f"{RV(c1)} | {RV(c2)}", "0")
    elif op is O.ORI:
        if dst:
            write(f"{RV(c1)} | {imm & _U64}", "0")
    elif op is O.XOR:
        if dst:
            write(f"{RV(c1)} ^ {RV(c2)}", "0")
    elif op is O.XORI:
        if dst:
            write(f"{RV(c1)} ^ {imm & _U64}", "0")
    elif op is O.SLL:
        if dst:
            write(f"({RV(c1)} << ({RV(c2)} & 63)) & {_U64}", "0")
    elif op is O.SLLI:
        if dst:
            write(f"({RV(c1)} << {imm & 63}) & {_U64}", "0")
    elif op is O.SRL:
        if dst:
            write(f"{RV(c1)} >> ({RV(c2)} & 63)", "0")
    elif op is O.SRLI:
        if dst:
            write(f"{RV(c1)} >> {imm & 63}", "0")
    elif op is O.SRA:
        if dst:
            write(f"({_sx(RV(c1))} >> ({RV(c2)} & 63)) & {_U64}", "0")
    elif op is O.SRAI:
        if dst:
            write(f"({_sx(RV(c1))} >> {imm & 63}) & {_U64}", "0")
    elif op is O.SLT:
        if dst:
            write(f"1 if {_sx(RV(c1))} < {_sx(RV(c2))} else 0", "0")
    elif op is O.SLTI:
        if dst:
            write(f"1 if {_sx(RV(c1))} < {imm} else 0", "0")
    elif op is O.SLTU:
        if dst:
            write(f"1 if {RV(c1)} < {RV(c2)} else 0", "0")
    elif op is O.SEQ:
        if dst:
            write(f"1 if {RV(c1)} == {RV(c2)} else 0", "0")
    elif op is O.LI:
        if dst:
            write(repr(imm & _U64), "0")
    elif op is O.LA:
        if dst:
            write(repr(imm & _U64), "3")
    elif op is O.MOV:
        if dst:
            write(RV(c1), RK(c1))
    elif op is O.NOP:
        pass

    # ---- complex integer ----
    elif op is O.MUL:
        if dst:
            write(f"({RV(c1)} * {RV(c2)}) & {_U64}", "0")
    elif op is O.DIV:
        if dst:
            stmts.append(f"_a = {_sx(RV(c1))}")
            stmts.append(f"_b = {_sx(RV(c2))}")
            write(f"(0 if _b == 0 else abs(_a) // abs(_b) * "
                  f"(-1 if (_a < 0) != (_b < 0) else 1)) & {_U64}", "0")
    elif op is O.REM:
        if dst:
            stmts.append(f"_a = {_sx(RV(c1))}")
            stmts.append(f"_b = {_sx(RV(c2))}")
            write(f"(0 if _b == 0 else abs(_a) % abs(_b) * "
                  f"(-1 if _a < 0 else 1)) & {_U64}", "0")
    elif op is O.MFLR:
        if dst:
            write(RV(LR), RK(LR))
    elif op is O.MTLR:
        stmts.append(f"{_r(LR)} = {RV(c1)}")
        stmts.append(f"{_k(LR)} = {RK(c1)}")
        item["writes"].add(LR)
    elif op is O.MFCTR:
        if dst:
            write(RV(CTR), RK(CTR))
    elif op is O.MTCTR:
        stmts.append(f"{_r(CTR)} = {RV(c1)}")
        stmts.append(f"{_k(CTR)} = {RK(c1)}")
        item["writes"].add(CTR)

    # ---- loads ----
    elif op is O.LD:
        a, v, q = f"a{j}", f"v{j}", f"q{j}"
        stmts.append(f"{a} = ({RV(c1)} + {imm}) & {_U64}")
        stmts.append(f"{v}, {q} = _rw({a})")
        if dst:
            write(v, q)
        item["addr"] = ("name", a)
        item["value"] = ("name", v)
        item["kind"] = ("name", q)
        item["size"] = 8
    elif op is O.LW:
        a, v = f"a{j}", f"v{j}"
        stmts.append(f"{a} = ({RV(c1)} + {imm}) & {_U64}")
        stmts.append(f"_w = _ru4({a})")
        stmts.append(
            f"{v} = (_w - 4294967296 if _w & 2147483648 else _w) & {_U64}")
        if dst:
            write(v, "0")
        item["addr"] = ("name", a)
        item["value"] = ("name", v)
        item["kind"] = ("lit", 0)
        item["size"] = 4
    elif op is O.LBU:
        a, v = f"a{j}", f"v{j}"
        stmts.append(f"{a} = ({RV(c1)} + {imm}) & {_U64}")
        stmts.append(f"{v} = _ru1({a})")
        if dst:
            write(v, "0")
        item["addr"] = ("name", a)
        item["value"] = ("name", v)
        item["kind"] = ("lit", 0)
        item["size"] = 1
    elif op is O.FLD:
        a, v, q = f"a{j}", f"v{j}", f"q{j}"
        stmts.append(f"{a} = ({RV(c1)} + {imm}) & {_U64}")
        stmts.append(f"{v}, _sk = _rw({a})")
        stmts.append(f"{q} = 1 if _sk == 0 else _sk")
        if dst:
            write(v, q)
        item["addr"] = ("name", a)
        item["value"] = ("name", v)
        item["kind"] = ("name", q)
        item["size"] = 8

    # ---- stores ----
    elif op is O.ST:
        a = f"a{j}"
        stmts.append(f"{a} = ({RV(c1)} + {imm}) & {_U64}")
        stmts.append(f"_ww({a}, {RV(c2)}, {RK(c2)})")
        item["addr"] = ("name", a)
        item["value"] = ("reg", c2) if c2 else ("lit", 0)
        item["kind"] = ("kreg", c2) if c2 else ("lit", 0)
        item["size"] = 8
    elif op is O.STW:
        a, v = f"a{j}", f"v{j}"
        stmts.append(f"{a} = ({RV(c1)} + {imm}) & {_U64}")
        stmts.append(f"{v} = {RV(c2)} & 4294967295")
        stmts.append(f"_wu4({a}, {v})")
        item["addr"] = ("name", a)
        item["value"] = ("name", v)
        item["kind"] = ("lit", 0)
        item["size"] = 4
    elif op is O.SB:
        a, v = f"a{j}", f"v{j}"
        stmts.append(f"{a} = ({RV(c1)} + {imm}) & {_U64}")
        stmts.append(f"{v} = {RV(c2)} & 255")
        stmts.append(f"_wu1({a}, {v})")
        item["addr"] = ("name", a)
        item["value"] = ("name", v)
        item["kind"] = ("lit", 0)
        item["size"] = 1
    elif op is O.FST:
        a = f"a{j}"
        stmts.append(f"{a} = ({RV(c1)} + {imm}) & {_U64}")
        stmts.append(f"_ww({a}, {RV(c2)}, 1)")
        item["addr"] = ("name", a)
        item["value"] = ("reg", c2) if c2 else ("lit", 0)
        item["kind"] = ("lit", 1)
        item["size"] = 8

    # ---- floating point ----
    elif op is O.FADD:
        if dst:
            write(f"_ff(_tf({RV(c1)}) + _tf({RV(c2)}))", "1")
    elif op is O.FSUB:
        if dst:
            write(f"_ff(_tf({RV(c1)}) - _tf({RV(c2)}))", "1")
    elif op is O.FMUL:
        if dst:
            write(f"_ff(_tf({RV(c1)}) * _tf({RV(c2)}))", "1")
    elif op is O.FDIV:
        if dst:
            stmts.append(f"_fb = _tf({RV(c2)})")
            write(f"_ff(_tf({RV(c1)}) / _fb if _fb != 0.0 else 0.0)", "1")
    elif op is O.FNEG:
        if dst:
            write(f"_ff(-_tf({RV(c1)}))", "1")
    elif op is O.FABS:
        if dst:
            write(f"_ff(abs(_tf({RV(c1)})))", "1")
    elif op is O.FSQRT:
        if dst:
            stmts.append(f"_fa = _tf({RV(c1)})")
            write("_ff(_sqrt(_fa) if _fa >= 0.0 else 0.0)", "1")
    elif op is O.FCVT:
        if dst:
            write(f"_ff(float({_sx(RV(c1))}))", "1")
    elif op is O.FTRUNC:
        if dst:
            write(f"int(_tr(_tf({RV(c1)}))) & {_U64}", "0")
    elif op is O.FLT:
        if dst:
            write(f"1 if _tf({RV(c1)}) < _tf({RV(c2)}) else 0", "0")
    elif op is O.FEQ:
        if dst:
            write(f"1 if _tf({RV(c1)}) == _tf({RV(c2)}) else 0", "0")
    elif op is O.FLE:
        if dst:
            write(f"1 if _tf({RV(c1)}) <= _tf({RV(c2)}) else 0", "0")

    # ---- control flow (always block-final) ----
    elif op in (O.BEQ, O.BNE, O.BLT, O.BGE, O.BLTU, O.BGEU):
        if op is O.BEQ:
            cond = f"{RV(c1)} == {RV(c2)}"
        elif op is O.BNE:
            cond = f"{RV(c1)} != {RV(c2)}"
        elif op is O.BLT:
            cond = f"{_sx(RV(c1))} < {_sx(RV(c2))}"
        elif op is O.BGE:
            cond = f"{_sx(RV(c1))} >= {_sx(RV(c2))}"
        elif op is O.BLTU:
            cond = f"{RV(c1)} < {RV(c2)}"
        else:
            cond = f"{RV(c1)} >= {RV(c2)}"
        stmts.append(f"_t = 1 if {cond} else 0")
        item["taken"] = ("name", "_t")
        item["terminal"] = f"{_tgt_expr(instr)} if _t else {j + 1}"
    elif op is O.J:
        item["terminal"] = _tgt_expr(instr)
    elif op is O.JAL:
        stmts.append(f"{_r(LR)} = {pc + INSTR_SIZE}")
        stmts.append(f"{_k(LR)} = 2")
        item["writes"].add(LR)
        item["terminal"] = _tgt_expr(instr)
    elif op is O.JALR:
        # Read the jump target *before* LR is overwritten (src1 may be LR).
        stmts.append(f"_x = {RV(c1)}")
        stmts.append(f"{_r(LR)} = {pc + INSTR_SIZE}")
        stmts.append(f"{_k(LR)} = 2")
        item["writes"].add(LR)
        item["terminal"] = (f"None if _x == {EXIT_ADDRESS} "
                            f"else (_x - {TEXT_BASE}) // {INSTR_SIZE}")
    elif op in (O.JR, O.RET, O.BCTR):
        src = c1 if op is O.JR else (LR if op is O.RET else CTR)
        stmts.append(f"_x = {RV(src)}")
        item["terminal"] = (f"None if _x == {EXIT_ADDRESS} "
                            f"else (_x - {TEXT_BASE}) // {INSTR_SIZE}")
    elif op is O.HALT:
        item["terminal"] = "None"
    else:  # pragma: no cover - opcode table is exhaustive
        raise ExecutionError(f"unhandled opcode: {op.name}")

    # Mirror the interpreter's recording rule: non-memory instructions
    # with dst > 0 record the destination's post-write value and kind.
    if item["size"] == 0 and dst > 0:
        item["value"] = ("reg", d)
        item["kind"] = ("kreg", d)
    elif item["value"] is None:
        item["value"] = ("lit", 0)
        item["kind"] = ("lit", 0)
    return item


def _emit_block(items: list, start: int, fn_name: str) -> list[str]:
    """Emit the source lines of one basic-block function from the
    :func:`_emit` items of instructions ``start, start + 1, ...``."""
    stop = start + len(items)
    terminal = items[-1]["terminal"]
    if terminal is None:  # fell off the block: next leader (or pc error)
        terminal = repr(stop)

    # Registers whose value/kind must be loaded from the register file
    # on entry (read before any write inside the block).
    written: set[int] = set()
    loads_v: list[int] = []
    loads_k: list[int] = []
    sv: set[int] = set()
    sk: set[int] = set()
    for it in items:
        for c in sorted(it["pre_val"]):
            if c not in written and c not in sv:
                sv.add(c)
                loads_v.append(c)
        for c in sorted(it["pre_kind"]):
            if c not in written and c not in sk:
                sk.add(c)
                loads_k.append(c)
        written |= it["writes"]
        vm, km = it["value"], it["kind"]
        if vm[0] == "reg" and vm[1] not in written and vm[1] not in sv:
            sv.add(vm[1])
            loads_v.append(vm[1])
        if km[0] == "kreg" and km[1] not in written and km[1] not in sk:
            sk.add(km[1])
            loads_k.append(km[1])

    # Resolve reg/kreg record markers.  A register referenced by a
    # record and overwritten by a *later* instruction in the block must
    # be captured into a temp at record time; otherwise the live local
    # is referenced directly in the batched tuple.
    after: set[int] = set()
    suffixes = [frozenset()] * len(items)
    for idx in range(len(items) - 1, -1, -1):
        suffixes[idx] = frozenset(after)
        after |= items[idx]["writes"]
    for idx, it in enumerate(items):
        j = start + idx
        vm = it["value"]
        if vm[0] == "reg":
            c = vm[1]
            if c in suffixes[idx]:
                it["stmts"].append(f"cv{j} = {_r(c)}")
                it["value"] = ("name", f"cv{j}")
            else:
                it["value"] = ("name", _r(c))
        km = it["kind"]
        if km[0] == "kreg":
            c = km[1]
            if c in suffixes[idx]:
                it["stmts"].append(f"ck{j} = {_k(c)}")
                it["kind"] = ("name", f"ck{j}")
            else:
                it["kind"] = ("name", _k(c))

    lines = [f"def {fn_name}(regs, rkinds):"]
    for c in loads_v:
        lines.append(f"    {_r(c)} = regs[{c}]")
    for c in loads_k:
        lines.append(f"    {_k(c)} = rkinds[{c}]")
    for it in items:
        for s in it["stmts"]:
            lines.append("    " + s)
    # Only dynamic slots are recorded; literals live in the static table.
    for column, sink in _DYNAMIC:
        names = [it[column][1] for it in items if it[column][0] != "lit"]
        if names:
            lines.append(f"    {sink}(({', '.join(names)},))")
    for c in sorted(written):
        lines.append(f"    regs[{c}] = {_r(c)}")
        lines.append(f"    rkinds[{c}] = {_k(c)}")
    lines.append(f"    return {terminal}")
    return lines


def _binder(fn_lines: list[str], result: str, filename: str):
    """Compile the block functions in *fn_lines* inside a ``_bind``
    that takes ``_BIND_PARAMS`` and returns *result*; return ``_bind``."""
    source = "\n".join([f"def _bind({_BIND_PARAMS}):",
                        *("    " + line for line in fn_lines),
                        f"    return {result}"]) + "\n"
    ns: dict = {}
    exec(compile(source, filename, "exec"), ns)
    return ns["_bind"]


def partition(program: Program) -> list[tuple[int, int]]:
    """Split the static instruction stream into basic-block ranges.

    Leaders are the entry point, every in-range resolved branch target,
    and the instruction after every control-flow op; a block also ends
    at any control-flow op.  Returned ranges are ``(start, stop)`` with
    ``stop`` exclusive, sorted by start.
    """
    instructions = program.instructions
    n = len(instructions)
    entry = program.index_of(program.entry_pc)
    leaders: set[int] = set()
    if 0 <= entry < n:
        leaders.add(entry)
    for i, ins in enumerate(instructions):
        if OP_CLASS[ins.opcode] is _BRANCH:
            if i + 1 < n:
                leaders.add(i + 1)
            t = ins.target
            if isinstance(t, int):
                ti = (t - TEXT_BASE) // INSTR_SIZE
                if 0 <= ti < n:
                    leaders.add(ti)
    ranges = []
    for s in sorted(leaders):
        i = s
        while True:
            if OP_CLASS[instructions[i].opcode] is _BRANCH \
                    or i + 1 == n or (i + 1) in leaders:
                break
            i += 1
        ranges.append((s, i + 1))
    return ranges


def _static_table(instructions, items) -> tuple[dict, dict]:
    """Per static instruction: every trace column's recorded value (0
    in a dynamic slot), and a mask of the dynamic slots per column."""
    n = len(instructions)
    lists = {
        "opcode": [int(ins.opcode) for ins in instructions],
        "opclass": [int(OP_CLASS[ins.opcode]) for ins in instructions],
        "dst": [ins.dst for ins in instructions],
        "src1": [ins.src1 for ins in instructions],
        "src2": [ins.src2 for ins in instructions],
        "size": [it["size"] for it in items],
    }
    dynamic = {}
    for column, _ in _DYNAMIC:
        markers = [it[column] for it in items]
        lists[column] = [m[1] if m[0] == "lit" else 0 for m in markers]
        dynamic[column] = np.array([m[0] != "lit" for m in markers],
                                   dtype=bool)
    table = {name: np.array(values, dtype=_DTYPES[name])
             for name, values in lists.items()}
    table["pc"] = TEXT_BASE + INSTR_SIZE * np.arange(n, dtype=_DTYPES["pc"])
    return table, dynamic


def _spans(instructions, ranges) -> np.ndarray:
    """Length of the block entered at each instruction index: its
    basic block at a leader, else (a lazy entry) up to and including
    the next control-flow op."""
    n = len(instructions)
    span = [0] * n
    stop = n
    for i in range(n - 1, -1, -1):
        if OP_CLASS[instructions[i].opcode] is _BRANCH:
            stop = i + 1
        span[i] = stop - i
    for start, end in ranges:
        span[start] = end - start
    return np.array(span, dtype=np.intp)


class CompiledProgram:
    """A program compiled to per-basic-block Python functions.

    Construction generates and ``compile()``s the whole-program source
    once, along with the program's static trace table.
    :meth:`execute` binds that run's memory and record sinks into fresh
    block functions, runs them, and rebuilds the trace from the
    executed block starts and the recorded dynamic slots.

    The engine keeps the program's instruction list, never the
    :class:`Program` itself: the program holds its engine (see
    :func:`compiled_engine_for`), so a back-reference would make every
    program a reference cycle that outlives its last user.
    """

    def __init__(self, program: Program) -> None:
        self._entry = program.index_of(program.entry_pc)  # LinkError early
        self.name = program.name
        self.instructions = instructions = program.instructions
        items = [_emit(j, ins, TEXT_BASE + j * INSTR_SIZE)
                 for j, ins in enumerate(instructions)]
        self._table, self._dynamic = _static_table(instructions, items)
        ranges = partition(program)
        self._span = _spans(instructions, ranges)
        lines: list[str] = []
        for start, stop in ranges:
            lines.extend(_emit_block(items[start:stop], start, f"_b{start}"))
        blocks = "{" + ", ".join(
            f"{s}: (_b{s}, {e - s})" for s, e in ranges) + "}"
        self._bind = _binder(lines, blocks,
                             f"<vrisc-compiled:{program.name}>")
        self._lazy: dict = {}  # start -> _bind of its lazy entry

    def _lazy_block(self, index: int, helpers: tuple,
                    blocks: dict) -> tuple:
        """Compile (or re-bind) a block entered mid-stream by a computed
        jump.  Lazy blocks run from *index* to the next control-flow op."""
        length = int(self._span[index])
        bind = self._lazy.get(index)
        if bind is None:
            instructions = self.instructions
            items = [_emit(j, instructions[j], TEXT_BASE + j * INSTR_SIZE)
                     for j in range(index, index + length)]
            bind = _binder(
                _emit_block(items, index, f"_lz{index}"), f"_lz{index}",
                f"<vrisc-compiled:{self.name}:+{index}>")
            self._lazy[index] = bind
        blk = blocks[index] = (bind(*helpers), length)
        return blk

    def execute(self, memory, regs: list[int], rkinds: list[int],
                limit: int, trace: bool = True):
        """Run to completion; mirrors ``FunctionalSimulator._execute``.

        Returns the instruction count and, if *trace*, the trace
        columns as arrays in their final dtypes (else ``None``).
        """
        if trace:
            starts: list[int] = []
            sinks = ([], [], [], [])
            record = starts.append
            extends = [sink.extend for sink in sinks]
        else:
            record = _noop
            extends = [_noop] * 4
        helpers = (memory.read_word, memory.write_word, memory.read_u32,
                   memory.write_u32, memory.read_u8, memory.write_u8,
                   _to_float, _from_float, math.sqrt, math.trunc,
                   *extends)
        blocks = self._bind(*helpers)
        name = self.name
        n = len(self.instructions)
        index = self._entry
        count = 0
        get = blocks.get
        while True:
            blk = get(index)
            if blk is None:
                # A known block needs no separate check: count >= limit
                # already fails the length check below.
                if count >= limit:
                    raise ExecutionLimitExceeded(
                        f"{name}: exceeded {limit} instructions"
                    )
                if not 0 <= index < n:
                    raise ExecutionError(
                        f"{name}: pc out of range (index {index})"
                    )
                blk = self._lazy_block(index, helpers, blocks)
            fn, length = blk
            if count + length > limit:
                raise ExecutionLimitExceeded(
                    f"{name}: exceeded {limit} instructions"
                )
            count += length
            record(index)
            nxt = fn(regs, rkinds)
            if nxt is None:
                break
            index = nxt
        if not trace:
            return count, None
        return count, self._columns(count, starts, sinks)

    def _columns(self, count: int, starts: list[int], sinks) -> dict:
        """Gather the static table over the executed index ranges and
        scatter each dynamic column's recorded values into its slots."""
        starts = np.array(starts, dtype=np.intp)
        lengths = self._span[starts]
        first = np.cumsum(lengths) - lengths  # trace position of each start
        executed = np.arange(count) + np.repeat(starts - first, lengths)
        columns = {name: column[executed]
                   for name, column in self._table.items()}
        for (name, _), values in zip(_DYNAMIC, sinks):
            column = columns[name]
            column[self._dynamic[name][executed]] = np.array(
                values, dtype=column.dtype)
        return columns


def _noop(_values) -> None:
    """Record sink for untraced runs."""


def compiled_engine_for(program: Program) -> CompiledProgram:
    """Return (building and caching on first use) *program*'s engine.

    The engine lives on the program, so it dies with it."""
    engine = getattr(program, "_compiled_engine", None)
    if engine is None:
        engine = program._compiled_engine = CompiledProgram(program)
    return engine
