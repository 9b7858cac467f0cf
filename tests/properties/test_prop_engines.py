"""Differential property tests: fast tiers vs their oracles.

Hypothesis generates random VRISC programs -- ALU work, memory traffic,
forward branches (which force basic-block boundaries in the compiler),
bounded backward loops, and indirect jumps through a jump table -- and

* every program must produce a bit-identical trace and register file
  under both execution engines;
* both timing models must report identical results from the fast and
  the reference loop, including on small caches where the front-end and
  data-cache passes meet conflict misses.
"""

import dataclasses
from dataclasses import replace

from hypothesis import given, settings, strategies as st

from repro.isa import CodeBuilder
from repro.lvp.config import PAPER_CONFIGS
from repro.sim import run_program
from repro.trace.annotate import annotate_trace
from repro.trace.records import TRACE_COLUMNS
from repro.uarch import AXP21164, AXP21164Model, PPC620, PPC620Model

U64 = (1 << 64) - 1

_REG_OPS = ("add", "sub", "and_", "or_", "xor", "mul", "sll", "srl",
            "slt", "sltu", "seq")
_IMM_OPS = ("addi", "andi", "ori", "xori", "slli", "srli")

_reg = st.integers(3, 23)  # stay clear of r0/SP/TOC
_imm = st.integers(-(1 << 15), (1 << 15) - 1)
_slot = st.integers(0, 15)

#: Loop counter and jump-table index registers (outside ``_reg``).
_COUNTER = 24
_INDEX = 25

#: A straight-line step: an ALU op or a load/store.
_plain_step = st.one_of(
    st.tuples(st.just("reg"), st.sampled_from(_REG_OPS), _reg, _reg,
              _reg),
    st.tuples(st.just("imm"), st.sampled_from(_IMM_OPS), _reg, _reg,
              _imm),
    st.tuples(st.just("li"), _reg,
              st.integers(0, U64), st.just(0), st.just(0)),
    st.tuples(st.just("store"), _reg, _slot, st.just(0), st.just(0)),
    st.tuples(st.just("load"), _reg, _slot, st.just(0), st.just(0)),
)

#: One random step: a straight-line step, a guarded skip (a forward
#: conditional branch over one ALU instruction), a bounded backward
#: loop over straight-line steps, or an indirect jump (a two-way jump
#: table on a register's low bit).
_step = st.one_of(
    _plain_step,
    st.tuples(st.just("skip"), st.sampled_from(("beq", "bne", "blt")),
              _reg, _reg, _reg),
    st.tuples(st.just("loop"), st.integers(1, 6),
              st.lists(_plain_step, min_size=1, max_size=12),
              st.just(0), st.just(0)),
    st.tuples(st.just("jump"), _reg, _reg, st.just(0), st.just(0)),
)


def _emit(builder, index, step):
    kind = step[0]
    if kind == "reg":
        _, op, dst, a, b = step
        getattr(builder, op)(dst, a, b)
    elif kind == "imm":
        _, op, dst, src, imm = step
        getattr(builder, op)(dst, src, imm)
    elif kind == "li":
        _, dst, value, _, _ = step
        builder.load_const(dst, value)
    elif kind == "store":
        _, src, slot, _, _ = step
        builder.st(src, 30, slot * 8)
    elif kind == "load":
        _, dst, slot, _, _ = step
        builder.ld(dst, 30, slot * 8)
    elif kind == "skip":  # branch over one instruction
        _, op, a, b, dst = step
        label = f"skip_{index}"
        getattr(builder, op)(a, b, label)
        builder.addi(dst, dst, 1)
        builder.label(label)
    elif kind == "loop":  # `trips` passes over the body, then fall out
        _, trips, body, _, _ = step
        label = f"loop_{index}"
        builder.li(_COUNTER, trips)
        builder.label(label)
        for inner in body:
            _emit(builder, index, inner)
        builder.addi(_COUNTER, _COUNTER, -1)
        builder.bne(_COUNTER, 0, label)
    else:  # jump: through a jump table on the low bit of `src`
        _, src, dst, _, _ = step
        odd, done = f"odd_{index}", f"done_{index}"
        builder.andi(_INDEX, src, 1)
        builder.jump_table(_INDEX, (f"even_{index}", odd))
        builder.label(f"even_{index}")
        builder.addi(dst, dst, 1)
        builder.j(done)
        builder.label(odd)
        builder.xori(dst, dst, 3)
        builder.label(done)


def _build(steps):
    builder = CodeBuilder("prop")
    builder.data.label("buf")
    builder.data.space(16)
    builder.label("main")
    builder.load_addr(30, "buf")
    for index, step in enumerate(steps):
        _emit(builder, index, step)
    builder.halt()
    return builder.build()


@given(st.lists(_step, max_size=80))
@settings(deadline=None, max_examples=80)
def test_engines_bit_identical_on_random_programs(steps):
    program = _build(steps)
    interp = run_program(program, name="prop", engine="interp")
    compiled = run_program(program, name="prop", engine="compiled")
    assert interp.instruction_count == compiled.instruction_count
    assert interp.registers == compiled.registers
    for name, _ in TRACE_COLUMNS:
        assert (getattr(interp.trace, name)
                == getattr(compiled.trace, name)).all(), name


#: Each machine at its own geometry and at a tiny one (two I-cache
#: lines, a few D-cache sets), where random programs conflict-miss.
_MACHINES = (
    lambda: PPC620Model(PPC620),
    lambda: PPC620Model(replace(
        PPC620, icache_size=64, icache_assoc=1, l1_size=128, l1_assoc=2,
        l2_size=512, l2_assoc=2)),
    lambda: AXP21164Model(AXP21164),
    lambda: AXP21164Model(replace(
        AXP21164, icache_size=64, l1_size=64, l2_size=256)),
)


@given(st.lists(_step, max_size=60), st.sampled_from(PAPER_CONFIGS),
       st.booleans())
@settings(deadline=None, max_examples=60)
def test_models_fast_matches_reference(steps, config, use_lvp):
    trace = run_program(_build(steps), name="prop").trace
    annotated = annotate_trace(trace, config)
    for machine in _MACHINES:
        fast = machine().run(annotated, use_lvp=use_lvp, engine="fast")
        reference = machine().run(annotated, use_lvp=use_lvp,
                                  engine="reference")
        assert dataclasses.asdict(fast) == dataclasses.asdict(reference)
