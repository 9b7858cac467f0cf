"""Tests for trace validation."""

import numpy as np
import pytest

from repro.errors import TraceError
from repro.isa import Opcode, OpClass
from repro.trace import require_valid, validate_trace

from tests.trace.test_records import make_trace


class TestValidTraces:
    def test_real_traces_validate(self, tiny_session):
        for name in tiny_session.benchmark_names:
            for target in ("ppc", "alpha"):
                trace = tiny_session.trace(name, target)
                assert validate_trace(trace) == [], (name, target)

    def test_empty_trace_valid(self):
        assert validate_trace(make_trace([])) == []

    def test_require_valid_passthrough(self, grep_trace):
        assert require_valid(grep_trace) is grep_trace


class TestInvalidTraces:
    def _halting(self, rows):
        return rows + [(0x200, OpClass.BRANCH, 0, 0)]

    def test_bad_opcode_value(self):
        trace = make_trace(self._halting([(0x100, OpClass.SIMPLE_INT, 0, 0)]))
        trace.opcode[0] = 200
        assert any("opcode" in p for p in validate_trace(trace))

    def test_opclass_mismatch(self):
        trace = make_trace(self._halting([(0x100, OpClass.SIMPLE_INT, 0, 0)]))
        trace.opcode[0] = int(Opcode.LD)  # but opclass says SIMPLE_INT
        assert any("opclass" in p for p in validate_trace(trace))

    def test_register_out_of_range(self):
        trace = make_trace(self._halting([(0x100, OpClass.SIMPLE_INT, 0, 0)]))
        trace.dst[0] = 99
        assert any("register" in p for p in validate_trace(trace))

    def test_bad_memory_size(self):
        trace = make_trace(self._halting([(0x100, OpClass.LOAD, 0x2000, 1)]))
        trace.opcode[0] = int(Opcode.LD)
        trace.size[0] = 3
        assert any("sizes" in p for p in validate_trace(trace))

    def test_misaligned_access(self):
        trace = make_trace(self._halting([(0x100, OpClass.LOAD, 0x2001, 1)]))
        trace.opcode[0] = int(Opcode.LD)
        assert any("misaligned" in p for p in validate_trace(trace))

    def test_taken_on_non_branch(self):
        trace = make_trace(self._halting([(0x100, OpClass.SIMPLE_INT, 0, 0)]))
        trace.taken[0] = 1
        assert any("taken" in p for p in validate_trace(trace))

    def test_truncated_trace_detected(self):
        trace = make_trace([(0x100, OpClass.SIMPLE_INT, 0, 0)])
        assert any("control transfer" in p for p in validate_trace(trace))

    def test_require_valid_raises(self):
        trace = make_trace([(0x100, OpClass.SIMPLE_INT, 0, 0)])
        with pytest.raises(TraceError):
            require_valid(trace)


class TestDefensiveValidation:
    """Guards for already-corrupt traces: every violation must be
    reported -- never a crash or a numpy warning -- and one violation
    must not mask another."""

    def _halting(self, rows):
        return rows + [(0x200, OpClass.BRANCH, 0, 0)]

    def test_opcode_zero_reported(self):
        trace = make_trace(self._halting([(0x100, OpClass.SIMPLE_INT, 0, 0)]))
        trace.opcode[0] = 0
        problems = validate_trace(trace)
        assert any("opcode values outside" in p for p in problems)

    def test_all_opcodes_invalid_reported(self):
        trace = make_trace(self._halting([(0x100, OpClass.SIMPLE_INT, 0, 0)]))
        trace.opcode[:] = 0
        problems = validate_trace(trace)
        assert any("opcode values outside" in p for p in problems)

    def test_zero_size_memory_op_reports_not_crashes(self):
        trace = make_trace(self._halting([(0x100, OpClass.LOAD, 0x2000, 1)]))
        trace.opcode[0] = int(Opcode.LD)
        trace.size[0] = 0
        problems = validate_trace(trace)
        assert any("sizes must be 1, 4, or 8" in p for p in problems)

    def test_nonzero_size_on_non_memory_reported(self):
        trace = make_trace(self._halting([(0x100, OpClass.SIMPLE_INT, 0, 0)]))
        trace.size[0] = 4
        problems = validate_trace(trace)
        assert any("non-memory instructions must have size 0" in p
                   for p in problems)

    def test_unaligned_pc_reported(self):
        trace = make_trace(self._halting([(0x100, OpClass.SIMPLE_INT, 0, 0)]))
        trace.pc[0] += 1
        problems = validate_trace(trace)
        assert any("unaligned instruction addresses" in p for p in problems)

    def test_bad_opcode_does_not_mask_opclass_mismatch(self):
        trace = make_trace(self._halting([
            (0x100, OpClass.SIMPLE_INT, 0, 0),
            (0x104, OpClass.SIMPLE_INT, 0, 0),
        ]))
        trace.opcode[0] = 0       # invalid opcode on one row ...
        trace.opclass[1] = 250    # ... independent mismatch on another
        problems = validate_trace(trace)
        assert any("opcode values outside" in p for p in problems)
        assert any("opclass column disagrees" in p for p in problems)

    def test_negative_register_id_reported(self):
        trace = make_trace(self._halting([(0x100, OpClass.SIMPLE_INT, 0, 0)]))
        trace.src1[0] = -2
        problems = validate_trace(trace)
        assert any("src1 register ids out of range" in p for p in problems)


class TestCacheIntegration:
    def test_cache_roundtrip_and_validation(self, tmp_path, tiny_session):
        from repro.harness import Session, TraceCache
        session = Session(scale="tiny", benchmarks=("grep",),
                          cache_dir=str(tmp_path))
        original = session.trace("grep", "ppc")
        # A fresh session loads from disk and gets identical columns.
        fresh = Session(scale="tiny", benchmarks=("grep",),
                        cache_dir=str(tmp_path))
        loaded = fresh.trace("grep", "ppc")
        assert (loaded.value == original.value).all()
        assert (loaded.pc == original.pc).all()

    def test_version_mismatch_invalidates(self, tmp_path, grep_trace):
        from repro.harness import TraceCache
        cache = TraceCache(tmp_path)
        cache.store(grep_trace, "tiny")
        cache.version = "something-else"
        assert cache.load("grep", "ppc", "tiny") is None

    def test_clear(self, tmp_path, grep_trace):
        from repro.harness import TraceCache
        cache = TraceCache(tmp_path)
        cache.store(grep_trace, "tiny")
        assert cache.clear() == 1
        assert cache.load("grep", "ppc", "tiny") is None

    def test_corrupt_file_miss(self, tmp_path):
        from repro.harness import TraceCache
        cache = TraceCache(tmp_path)
        path = cache.path_for("grep", "ppc", "tiny")
        path.write_bytes(b"not a bundle")
        assert cache.load("grep", "ppc", "tiny") is None
        assert not path.exists()  # quarantined, not just skipped
