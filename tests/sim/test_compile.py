"""Differential suite: the AOT basic-block compiler vs the interpreter.

The compiled engine is only allowed to exist because it is bit-identical
to the interpreter.  These tests hold it to that: every workload in the
suite, on both codegen targets, must produce byte-for-byte equal traces,
register files, and instruction counts under both engines.
"""

import gc
import weakref

import pytest

from repro.errors import ConfigError
from repro.isa import CodeBuilder
from repro.sim import (
    CompiledProgram,
    ENGINES,
    compiled_engine_for,
    resolve_engine,
    run_program,
)
from repro.sim.compile import partition
from repro.trace.records import TRACE_COLUMNS
from repro.workloads.suite import BENCHMARKS, NAMES


def assert_traces_equal(a, b):
    assert len(a) == len(b)
    for name, _ in TRACE_COLUMNS:
        assert (getattr(a, name) == getattr(b, name)).all(), \
            f"column {name!r} differs"


def _both_engines(program, name):
    interp = run_program(program, name=name, engine="interp")
    compiled = run_program(program, name=name, engine="compiled")
    return interp, compiled


class TestEngineResolution:
    def test_auto_selects_compiled(self):
        assert resolve_engine("auto") == "compiled"

    def test_explicit_engines_pass_through(self):
        assert resolve_engine("interp") == "interp"
        assert resolve_engine("compiled") == "compiled"

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            resolve_engine("jit")

    def test_env_overrides_argument(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "interp")
        assert resolve_engine("compiled") == "interp"

    def test_bad_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "turbo")
        with pytest.raises(ConfigError, match="unknown"):
            resolve_engine("auto")

    def test_engines_tuple(self):
        assert ENGINES == ("auto", "interp", "compiled")


class TestCompiledProgramCache:
    def test_engine_memoized_per_program(self):
        program = BENCHMARKS[7].build_program("ppc", "tiny")
        engine = compiled_engine_for(program)
        assert isinstance(engine, CompiledProgram)
        assert compiled_engine_for(program) is engine

    def test_distinct_programs_distinct_engines(self):
        a = BENCHMARKS[7].build_program("ppc", "tiny")
        b = BENCHMARKS[7].build_program("ppc", "tiny")
        assert compiled_engine_for(a) is not compiled_engine_for(b)

    def test_traced_program_dies_with_its_engine(self):
        # The engine lives on its program, so neither pins the other
        # (nor the program's data segment) once the program is dropped.
        program = BENCHMARKS[7].build_program("ppc", "tiny")
        result = run_program(program, engine="compiled")
        assert result.trace is not None
        program_ref = weakref.ref(program)
        engine_ref = weakref.ref(compiled_engine_for(program))
        del program, result
        gc.collect()
        assert program_ref() is None
        assert engine_ref() is None


@pytest.mark.parametrize("name", NAMES)
def test_trace_bit_identical_ppc(name):
    from repro.workloads.suite import get_benchmark
    program = get_benchmark(name).build_program("ppc", "tiny")
    interp, compiled = _both_engines(program, name)
    assert interp.instruction_count == compiled.instruction_count
    assert interp.registers == compiled.registers
    assert_traces_equal(interp.trace, compiled.trace)


@pytest.mark.parametrize("name", ("grep", "compress", "quick", "xlisp",
                                  "tomcatv", "doduc"))
def test_trace_bit_identical_alpha(name):
    from repro.workloads.suite import get_benchmark
    program = get_benchmark(name).build_program("alpha", "tiny")
    interp, compiled = _both_engines(program, name)
    assert interp.registers == compiled.registers
    assert_traces_equal(interp.trace, compiled.trace)


def test_no_trace_mode_matches():
    program = BENCHMARKS[7].build_program("ppc", "tiny")
    interp = run_program(program, collect_trace=False, engine="interp")
    compiled = run_program(program, collect_trace=False, engine="compiled")
    assert interp.trace is None and compiled.trace is None
    assert interp.registers == compiled.registers
    assert interp.instruction_count == compiled.instruction_count


def _mid_block_entry(target):
    """A program whose computed jumps (``jr``, then ``bctr``) land on a
    label in the middle of a straight-line run, while a direct jump
    reaches the same instructions from the run's leader."""
    b = CodeBuilder("lazy", target=target)
    b.data.label("buf")
    b.data.space(16)
    b.label("main")
    b.load_addr(30, "buf")
    b.load_addr(4, "mid")
    b.li(9, 5)
    b.li(3, 0)
    b.jr(4)
    b.label("top")
    b.addi(3, 3, 1)
    b.mov(8, 3)
    b.label("mid")  # not a leader: no direct branch targets it
    b.addi(3, 3, 10)
    b.st(3, 30, 0)
    b.ld(7, 30, 0)
    b.mov(6, 8)  # records r8, which the next instruction overwrites
    b.addi(8, 8, 4)
    b.add(6, 7, 3)
    b.addi(9, 9, -1)
    b.beq(9, 0, "done")
    b.andi(10, 9, 1)
    b.beq(10, 0, "via_top")
    b.mtctr(4)
    b.bctr()
    b.label("via_top")
    b.j("top")
    b.label("done")
    b.halt()
    return b.build()


@pytest.mark.parametrize("target", ("ppc", "alpha"))
def test_mid_block_entry_matches_interpreter(target):
    program = _mid_block_entry(target)
    mid = program.index_of(program.symbols["mid"])
    engine = compiled_engine_for(program)
    assert mid not in {start for start, _ in partition(program)}
    for _ in range(2):  # the second run re-binds the cached lazy entry
        interp, compiled = _both_engines(program, "lazy")
        assert mid in engine._lazy
        assert interp.instruction_count == compiled.instruction_count
        assert interp.registers == compiled.registers
        assert_traces_equal(interp.trace, compiled.trace)
