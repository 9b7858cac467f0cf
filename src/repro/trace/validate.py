"""Trace well-formedness validation.

:func:`validate_trace` checks the structural invariants every consumer
of a trace relies on and returns a list of human-readable violations
(empty = valid).  The harness validates traces loaded from the on-disk
cache; tests validate freshly generated ones; the fault campaign
(``tests/faults/test_doctor.py``) relies on these checks catching
every structural corruption it plants.

The checks are written defensively: a trace that is *already* corrupt
(opcode 0, zero-sized memory ops, hostile dtypes) must produce
violation messages, never a crash or a numpy warning, and one
violation must not mask another.
"""

from __future__ import annotations

import numpy as np

from repro.errors import TraceError
from repro.isa.opcodes import CONDITIONAL_BRANCHES, OP_CLASS, Opcode, OpClass
from repro.isa.registers import NUM_REGS
from repro.trace.records import Trace


def validate_trace(trace: Trace) -> list[str]:
    """Return a list of invariant violations in *trace* (empty = OK)."""
    problems: list[str] = []
    if len(trace) == 0:
        return problems

    # Opcode values must be members of the enum.  Work on a signed
    # copy so comparisons behave even if a column arrived with an
    # unusual (e.g. unsigned or over-wide) dtype.
    opcode = np.asarray(trace.opcode, dtype=np.int64)
    valid_opcode = (opcode >= 1) & (opcode <= len(Opcode))
    if not valid_opcode.all():
        problems.append(f"opcode values outside 1..{len(Opcode)}")
    # Each opclass must agree with its opcode's class; checked on the
    # rows whose opcode is valid so a single bad opcode elsewhere
    # cannot mask an independent opclass mismatch.
    if valid_opcode.any():
        expected = np.array(
            [0] + [int(OP_CLASS[Opcode(v)]) for v in range(1, len(Opcode) + 1)],
            dtype=np.uint8,
        )
        checkable = opcode[valid_opcode]
        if not (expected[checkable]
                == np.asarray(trace.opclass)[valid_opcode]).all():
            problems.append("opclass column disagrees with opcode classes")

    # Register ids in range (NO_REG = -1 allowed).  Cast to a signed
    # dtype before comparing: taking .min() of an unsigned column
    # would silently wrap negative ids out of detection range.
    for column in ("dst", "src1", "src2"):
        values = np.asarray(getattr(trace, column), dtype=np.int64)
        if int(values.min()) < -1 or int(values.max()) >= NUM_REGS:
            problems.append(f"{column} register ids out of range")

    is_mem = trace.is_load | trace.is_store
    # Memory ops carry a plausible size; others carry zero.
    mem_sizes = np.asarray(trace.size[is_mem], dtype=np.int64)
    if len(mem_sizes) and not np.isin(mem_sizes, (1, 4, 8)).all():
        problems.append("memory access sizes must be 1, 4, or 8")
    if (trace.size[~is_mem] != 0).any():
        problems.append("non-memory instructions must have size 0")

    # Memory addresses are size-aligned.  Rows whose size is zero (a
    # corruption already reported above) are excluded so the modulo
    # cannot divide by zero.
    nonzero = mem_sizes > 0
    if nonzero.any():
        addrs = np.asarray(trace.addr[is_mem], dtype=np.uint64)[nonzero]
        if ((addrs % mem_sizes[nonzero].astype(np.uint64)) != 0).any():
            problems.append("misaligned memory access recorded")

    # Taken flags only on conditional branches.
    conditional = np.isin(
        opcode, [int(o) for o in CONDITIONAL_BRANCHES])
    if (trace.taken[~conditional] != 0).any():
        problems.append("taken flag set on a non-conditional instruction")

    # PCs lie in the text segment and are instruction-aligned.
    if (trace.pc % 4 != 0).any():
        problems.append("unaligned instruction addresses")

    # The trace ends at a halt or a return out of main.  Only
    # meaningful when the final opcode is itself a valid enum member
    # (an invalid one was already reported above).
    final_value = int(opcode[-1])
    if 1 <= final_value <= len(Opcode):
        final = Opcode(final_value)
        if OP_CLASS[final] is not OpClass.BRANCH:
            problems.append(f"trace ends with {final.name}, not a control "
                            "transfer")
    return problems


def require_valid(trace: Trace) -> Trace:
    """Raise :class:`TraceError` if *trace* violates any invariant."""
    problems = validate_trace(trace)
    if problems:
        raise TraceError(
            f"invalid trace {trace.name!r}: " + "; ".join(problems)
        )
    return trace
