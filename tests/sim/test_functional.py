"""Functional-simulator semantics: one test (or more) per opcode group."""

import pytest

from repro.errors import ExecutionError, ExecutionLimitExceeded
from repro.isa import CodeBuilder, FPR_BASE, STACK_TOP, TEXT_BASE, assemble
from repro.sim import FunctionalSimulator, run_program

U64 = (1 << 64) - 1
F = FPR_BASE


def build_main(body, target="ppc"):
    """Build a program whose main() is *body* (leaf) then ``halt``."""
    b = CodeBuilder("t", target=target)
    b.label("main")
    body(b)
    b.halt()
    return b.build()


def run_main(body, target="ppc"):
    """Build main() around *body* (leaf) and return the ExecutionResult."""
    return run_program(build_main(body, target))


def reg3(body):
    return run_main(body).registers[3]


class TestIntegerAlu:
    def test_add_wraps(self):
        def body(b):
            b.li(4, U64)
            b.li(5, 2)
            b.add(3, 4, 5)
        assert reg3(body) == 1

    def test_sub_wraps(self):
        def body(b):
            b.li(4, 0)
            b.li(5, 1)
            b.sub(3, 4, 5)
        assert reg3(body) == U64

    def test_addi_negative(self):
        def body(b):
            b.li(4, 10)
            b.addi(3, 4, -15)
        assert reg3(body) == (-5) & U64

    @pytest.mark.parametrize("op,a,b_,expected", [
        ("and_", 0b1100, 0b1010, 0b1000),
        ("or_", 0b1100, 0b1010, 0b1110),
        ("xor", 0b1100, 0b1010, 0b0110),
    ])
    def test_bitwise(self, op, a, b_, expected):
        def body(b):
            b.li(4, a)
            b.li(5, b_)
            getattr(b, op)(3, 4, 5)
        assert reg3(body) == expected

    @pytest.mark.parametrize("op,a,imm,expected", [
        ("andi", 0xFF, 0x0F, 0x0F),
        ("ori", 0xF0, 0x0F, 0xFF),
        ("xori", 0xFF, 0x0F, 0xF0),
    ])
    def test_bitwise_immediate(self, op, a, imm, expected):
        def body(b):
            b.li(4, a)
            getattr(b, op)(3, 4, imm)
        assert reg3(body) == expected

    def test_shifts(self):
        def body(b):
            b.li(4, 1)
            b.slli(5, 4, 63)
            b.srli(6, 5, 62)
            b.add(3, 5, 6)
        assert reg3(body) == ((1 << 63) + 2) & U64

    def test_sra_sign_extends(self):
        def body(b):
            b.li(4, -8)
            b.srai(3, 4, 2)
        assert reg3(body) == (-2) & U64

    def test_shift_amount_masked(self):
        def body(b):
            b.li(4, 1)
            b.li(5, 64)  # masked to 0
            b.sll(3, 4, 5)
        assert reg3(body) == 1

    def test_slt_signed(self):
        def body(b):
            b.li(4, -1)
            b.li(5, 1)
            b.slt(3, 4, 5)
        assert reg3(body) == 1

    def test_sltu_unsigned(self):
        def body(b):
            b.li(4, -1)  # max u64
            b.li(5, 1)
            b.sltu(3, 4, 5)
        assert reg3(body) == 0

    def test_slti(self):
        def body(b):
            b.li(4, 3)
            b.slti(3, 4, 5)
        assert reg3(body) == 1

    def test_seq(self):
        def body(b):
            b.li(4, 7)
            b.li(5, 7)
            b.seq(3, 4, 5)
        assert reg3(body) == 1

    def test_r0_always_zero(self):
        def body(b):
            b.li(0, 99)  # write to r0 must be ignored
            b.mov(3, 0)
        assert reg3(body) == 0

    def test_mov_copies(self):
        def body(b):
            b.li(4, 1234)
            b.mov(3, 4)
        assert reg3(body) == 1234


class TestComplexInteger:
    def test_mul(self):
        def body(b):
            b.li(4, -3)
            b.li(5, 7)
            b.mul(3, 4, 5)
        assert reg3(body) == (-21) & U64

    @pytest.mark.parametrize("a,b_,q", [
        (7, 2, 3), (-7, 2, -3), (7, -2, -3), (-7, -2, 3), (5, 0, 0),
    ])
    def test_div_truncates(self, a, b_, q):
        def body(b):
            b.li(4, a)
            b.li(5, b_)
            b.div(3, 4, 5)
        assert reg3(body) == q & U64

    @pytest.mark.parametrize("a,b_,r", [
        (7, 3, 1), (-7, 3, -1), (7, -3, 1), (5, 0, 0),
    ])
    def test_rem_sign_follows_dividend(self, a, b_, r):
        def body(b):
            b.li(4, a)
            b.li(5, b_)
            b.rem(3, 4, 5)
        assert reg3(body) == r & U64

    def test_lr_moves(self):
        def body(b):
            b.li(4, 0x5555)
            b.mtlr(4)
            b.mflr(3)
        assert reg3(body) == 0x5555

    def test_ctr_moves(self):
        def body(b):
            b.li(4, 0x7777)
            b.mtctr(4)
            b.mfctr(3)
        assert reg3(body) == 0x7777


class TestMemoryOps:
    def test_ld_st_roundtrip(self):
        def body(b):
            b.load_addr(4, "buf")
            b.li(5, 0xCAFE)
            b.st(5, 4, 0)
            b.ld(3, 4, 0)

        def data(b):
            b.data.label("buf")
            b.data.space(1)

        b = CodeBuilder("t")
        data(b)
        b.label("main")
        body(b)
        b.halt()
        assert run_program(b.build()).registers[3] == 0xCAFE

    def test_lw_sign_extends(self):
        result = run_program(assemble("""
        .data
        x: .word 0xFFFFFFFF
        .text
        main:
            la r4, x
            lw r3, 0(r4)
            halt
        """))
        assert result.registers[3] == U64  # -1 sign-extended

    def test_stw_truncates(self):
        result = run_program(assemble("""
        .data
        x: .word 0
        .text
        main:
            la r4, x
            li r5, 0x1_0000_0001
            stw r5, 0(r4)
            ld r3, 0(r4)
            halt
        """))
        assert result.registers[3] == 1

    def test_lbu_zero_extends(self):
        result = run_program(assemble("""
        .data
        x: .word 0xFF
        .text
        main:
            la r4, x
            lbu r3, 0(r4)
            halt
        """))
        assert result.registers[3] == 0xFF

    def test_sb_byte_store(self):
        result = run_program(assemble("""
        .data
        x: .word 0
        .text
        main:
            la r4, x
            li r5, 0xAB
            sb r5, 3(r4)
            ld r3, 0(r4)
            halt
        """))
        assert result.registers[3] == 0xAB << 24

    def test_fld_fst_roundtrip(self):
        result = run_program(assemble("""
        .data
        x: .double 1.5
        y: .space 1
        .text
        main:
            la r4, x
            fld f1, 0(r4)
            la r5, y
            fst f1, 0(r5)
            ld r3, 0(r5)
            halt
        """))
        assert result.registers[3] == 0x3FF8000000000000  # bits of 1.5

    def test_negative_offset(self):
        result = run_program(assemble("""
        .data
        a: .word 11
        b: .word 22
        .text
        main:
            la r4, b
            ld r3, -8(r4)
            halt
        """))
        assert result.registers[3] == 11


class TestFloatingPoint:
    def _fp_result(self, body):
        def wrapped(b):
            body(b)
            b.ftrunc(3, F + 1)
        return reg3(wrapped)

    def test_fadd(self):
        def body(b):
            b.load_fconst(F + 2, 1.25)
            b.load_fconst(F + 3, 2.75)
            b.fadd(F + 1, F + 2, F + 3)
        assert self._fp_result(body) == 4

    def test_fsub_fmul(self):
        def body(b):
            b.load_fconst(F + 2, 10.0)
            b.load_fconst(F + 3, 4.0)
            b.fsub(F + 1, F + 2, F + 3)  # 6.0
            b.fmul(F + 1, F + 1, F + 3)  # 24.0
        assert self._fp_result(body) == 24

    def test_fdiv(self):
        def body(b):
            b.load_fconst(F + 2, 7.0)
            b.load_fconst(F + 3, 2.0)
            b.fdiv(F + 1, F + 2, F + 3)
        assert self._fp_result(body) == 3  # trunc(3.5)

    def test_fdiv_by_zero_yields_zero(self):
        def body(b):
            b.load_fconst(F + 2, 7.0)
            b.load_fconst(F + 3, 0.0)
            b.fdiv(F + 1, F + 2, F + 3)
        assert self._fp_result(body) == 0

    def test_fneg_fabs(self):
        def body(b):
            b.load_fconst(F + 2, 3.5)
            b.fneg(F + 1, F + 2)
            b.fabs_(F + 1, F + 1)
        assert self._fp_result(body) == 3

    def test_fsqrt(self):
        def body(b):
            b.load_fconst(F + 2, 16.0)
            b.fsqrt(F + 1, F + 2)
        assert self._fp_result(body) == 4

    def test_fsqrt_negative_yields_zero(self):
        def body(b):
            b.load_fconst(F + 2, -4.0)
            b.fsqrt(F + 1, F + 2)
        assert self._fp_result(body) == 0

    def test_fcvt_ftrunc_roundtrip(self):
        def body(b):
            b.li(4, -17)
            b.fcvt(F + 1, 4)
        assert self._fp_result(body) == (-17) & U64

    @pytest.mark.parametrize("op,a,b_,expected", [
        ("flt", 1.0, 2.0, 1), ("flt", 2.0, 1.0, 0),
        ("feq", 1.5, 1.5, 1), ("feq", 1.5, 1.6, 0),
        ("fle", 1.5, 1.5, 1), ("fle", 1.6, 1.5, 0),
    ])
    def test_fp_compares(self, op, a, b_, expected):
        def body(b):
            b.load_fconst(F + 2, a)
            b.load_fconst(F + 3, b_)
            getattr(b, op)(3, F + 2, F + 3)
        assert reg3(body) == expected


class TestControlFlow:
    @pytest.mark.parametrize("op,a,b_,taken", [
        ("beq", 1, 1, True), ("beq", 1, 2, False),
        ("bne", 1, 2, True), ("bne", 1, 1, False),
        ("blt", -1, 1, True), ("blt", 1, -1, False),
        ("bge", 1, 1, True), ("bge", -1, 1, False),
        ("bltu", 1, 2, True), ("bltu", U64, 1, False),
        ("bgeu", U64, 1, True), ("bgeu", 1, 2, False),
    ])
    def test_conditional_branch(self, op, a, b_, taken):
        def body(b):
            b.li(4, a)
            b.li(5, b_)
            getattr(b, op)(4, 5, "t")
            b.li(3, 0)
            b.halt()
            b.label("t")
            b.li(3, 1)
        assert reg3(body) == (1 if taken else 0)

    def test_jal_sets_lr(self):
        result = run_program(assemble("""
        main:
            jal f
            halt
        f:
            mflr r3
            ret
        """))
        # JAL at index 0; return address is index 1's pc
        from repro.isa import TEXT_BASE
        assert result.registers[3] == TEXT_BASE + 4

    def test_jr_indirect(self):
        def body(b):
            b.la(4, "dest")
            b.jr(4)
            b.li(3, 0)
            b.halt()
            b.label("dest")
            b.li(3, 1)
        assert reg3(body) == 1

    def test_return_to_exit_sentinel_halts(self):
        # main's epilogue returns to LR=0, which terminates execution
        b = CodeBuilder("t")
        with b.function("main"):
            b.li(3, 55)
        assert run_program(b.build()).registers[3] == 55

    def test_halt_is_recorded(self):
        def body(b):
            b.li(3, 1)
        trace = run_main(body).trace
        from repro.isa import Opcode
        assert trace.opcode[-1] == int(Opcode.HALT)


class TestInitialState:
    def test_sp_initialized(self):
        def body(b):
            b.mov(3, 1)
        assert reg3(body) == STACK_TOP

    def test_toc_initialized(self):
        from repro.isa import DATA_BASE

        def body(b):
            b.mov(3, 2)
        assert reg3(body) == DATA_BASE


ENGINES = ("interp", "compiled")


def _outcomes(program, max_instructions=50_000_000):
    """The exception a run raises on each engine, as {engine: (type, message)}."""
    outcomes = {}
    for engine in ENGINES:
        sim = FunctionalSimulator(program, max_instructions=max_instructions)
        with pytest.raises((ExecutionError, ExecutionLimitExceeded)) as info:
            sim.run(engine=engine)
        outcomes[engine] = (type(info.value), str(info.value))
    return outcomes


def _on_both(outcome):
    return dict.fromkeys(ENGINES, outcome)


class TestLimitsAndErrors:
    """Both engines fail alike: same exception type, same message."""

    def test_instruction_budget(self):
        b = CodeBuilder("t")
        b.label("main")
        b.label("spin")
        b.j("spin")
        program = b.build()
        assert _outcomes(program, max_instructions=1000) == _on_both(
            (ExecutionLimitExceeded, "t: exceeded 1000 instructions"))

    def test_budget_exceeded_mid_block(self):
        # A three-instruction loop body: the budget runs out inside it.
        def body(b):
            b.label("loop")
            b.addi(3, 3, 1)
            b.addi(4, 4, 2)
            b.j("loop")
        assert _outcomes(build_main(body), max_instructions=1000) == _on_both(
            (ExecutionLimitExceeded, "t: exceeded 1000 instructions"))

    def test_wild_jump_detected(self):
        def body(b):
            b.li(4, 0x9999_0000)
            b.jr(4)
        index = (0x9999_0000 - TEXT_BASE) // 4
        assert _outcomes(build_main(body)) == _on_both(
            (ExecutionError, f"t: pc out of range (index {index})"))

    def test_misaligned_access_mid_block(self):
        def body(b):
            b.li(3, 1)
            b.ld(4, 2, 3)  # TOC + 3: not 8-byte aligned
            b.li(5, 2)
        assert _outcomes(build_main(body)) == _on_both(
            (ExecutionError, "misaligned 8-byte access at 0x100003"))

    def test_no_trace_mode(self):
        def body(b):
            b.li(3, 1)
        program = build_main(body)
        for engine in ENGINES:
            result = FunctionalSimulator(program).run(
                collect_trace=False, engine=engine)
            assert result.trace is None, engine
            assert result.instruction_count == 2, engine
