"""Column-oriented trace representation.

A :class:`Trace` records every dynamic instruction a workload executed:
its PC, opcode/op-class, register operands, and -- for memory operations
-- the effective address, the 64-bit value transferred, its
:class:`~repro.isa.opcodes.ValueKind`, and the access size.  Traces are
stored as parallel numpy arrays (column-oriented) because the analyses
(value locality, LVP annotation) vectorize over millions of records and
per-record Python objects would dominate both memory and time.

This mirrors the paper's methodology: their TRIP6000/ATOM tools captured
"all instruction, value and address references made by the CPU while in
user state" and fed them to downstream simulators.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.errors import TraceError
from repro.isa.opcodes import OpClass

#: Column names and dtypes, in storage order.
TRACE_COLUMNS: tuple[tuple[str, str], ...] = (
    ("pc", "u8"),  # instruction address
    ("opcode", "u2"),  # Opcode enum value
    ("opclass", "u1"),  # OpClass enum value
    ("dst", "i2"),  # destination register id (NO_REG if none)
    ("src1", "i2"),  # first source register id
    ("src2", "i2"),  # second source register id
    ("addr", "u8"),  # effective address (loads/stores), else 0
    ("value", "u8"),  # value loaded/stored (loads/stores), else 0
    ("kind", "u1"),  # ValueKind of the value (loads/stores), else 0
    ("size", "u1"),  # access size in bytes (loads/stores), else 0
    ("taken", "u1"),  # conditional branches: 1 if taken
)

_DTYPES = {name: np.dtype("<" + code) for name, code in TRACE_COLUMNS}


@dataclass
class TraceColumns:
    """Mutable append-only buffers used while a trace is being captured."""

    pc: list = field(default_factory=list)
    opcode: list = field(default_factory=list)
    opclass: list = field(default_factory=list)
    dst: list = field(default_factory=list)
    src1: list = field(default_factory=list)
    src2: list = field(default_factory=list)
    addr: list = field(default_factory=list)
    value: list = field(default_factory=list)
    kind: list = field(default_factory=list)
    size: list = field(default_factory=list)
    taken: list = field(default_factory=list)


class Trace:
    """An immutable dynamic instruction trace.

    Attributes of note:

    ``name`` / ``target``
        workload name and codegen target that produced the trace.
    ``pc``, ``opcode``, ... ``taken``
        the numpy columns listed in :data:`TRACE_COLUMNS`.
    """

    def __init__(self, columns: dict[str, np.ndarray], name: str = "",
                 target: str = "") -> None:
        lengths = {key: len(col) for key, col in columns.items()}
        if set(lengths) != set(_DTYPES):
            missing = set(_DTYPES) - set(lengths)
            extra = set(lengths) - set(_DTYPES)
            raise TraceError(
                f"bad trace columns (missing={sorted(missing)}, "
                f"extra={sorted(extra)})"
            )
        if len(set(lengths.values())) > 1:
            raise TraceError(f"ragged trace columns: {lengths}")
        for key, col in columns.items():
            setattr(self, key, np.asarray(col, dtype=_DTYPES[key]))
        self.name = name
        self.target = target

    # -- construction --------------------------------------------------------
    @classmethod
    def from_columns(cls, cols: TraceColumns, name: str = "",
                     target: str = "") -> "Trace":
        """Freeze append buffers into an immutable trace."""
        arrays = {
            key: np.array(getattr(cols, key), dtype=_DTYPES[key])
            for key, _ in TRACE_COLUMNS
        }
        return cls(arrays, name=name, target=target)

    # -- basic shape ----------------------------------------------------------
    def __len__(self) -> int:
        return len(self.pc)

    @property
    def num_instructions(self) -> int:
        """Number of dynamic instructions in the trace."""
        return len(self.pc)

    # -- masks and views -------------------------------------------------------
    @property
    def is_load(self) -> np.ndarray:
        """Boolean mask of load instructions."""
        return self.opclass == int(OpClass.LOAD)

    @property
    def is_store(self) -> np.ndarray:
        """Boolean mask of store instructions."""
        return self.opclass == int(OpClass.STORE)

    @property
    def num_loads(self) -> int:
        """Number of dynamic loads."""
        return int(self.is_load.sum())

    @property
    def num_stores(self) -> int:
        """Number of dynamic stores."""
        return int(self.is_store.sum())

    def loads(self) -> "MemoryView":
        """View of just the load records (positions preserved)."""
        return MemoryView(self, self.is_load)

    def stores(self) -> "MemoryView":
        """View of just the store records (positions preserved)."""
        return MemoryView(self, self.is_store)

    def materialize(self) -> "Trace":
        """A deep copy with fresh, private, writable columns.

        Traces loaded from the v2 trace cache carry read-only columns
        that alias memory-mapped file pages shared across processes;
        anything that needs to mutate records in place (fault
        injectors, ad-hoc experiments) must materialize first rather
        than corrupt the shared mapping.
        """
        return Trace(
            {key: np.array(getattr(self, key), dtype=_DTYPES[key],
                           copy=True)
             for key, _ in TRACE_COLUMNS},
            name=self.name, target=self.target,
        )

    def opclass_counts(self) -> dict[OpClass, int]:
        """Dynamic instruction counts per op class."""
        values, counts = np.unique(self.opclass, return_counts=True)
        return {OpClass(int(v)): int(c) for v, c in zip(values, counts)}

    def __repr__(self) -> str:
        return (
            f"<Trace {self.name!r} target={self.target!r} "
            f"{self.num_instructions} instrs, {self.num_loads} loads>"
        )


class MemoryView:
    """Filtered view of a trace's memory operations.

    ``index`` holds the positions of the selected records in the parent
    trace, so consumers that interleave loads and stores (the LVP unit,
    the CVU) can process them in program order.
    """

    def __init__(self, trace: Trace, mask: np.ndarray) -> None:
        self.index = np.nonzero(mask)[0]
        self.pc = trace.pc[self.index]
        self.addr = trace.addr[self.index]
        self.value = trace.value[self.index]
        self.kind = trace.kind[self.index]
        self.size = trace.size[self.index]

    def __len__(self) -> int:
        return len(self.index)

    def __iter__(self) -> Iterator[tuple[int, int, int, int, int]]:
        """Yield (position, pc, addr, value, size) tuples in program order."""
        for i in range(len(self.index)):
            yield (
                int(self.index[i]), int(self.pc[i]), int(self.addr[i]),
                int(self.value[i]), int(self.size[i]),
            )


_MEMO: "weakref.WeakKeyDictionary[Trace, dict]" = weakref.WeakKeyDictionary()


def memoized(trace: Trace, key: tuple, compute):
    """``compute()``, once per (trace, key) while *trace* lives.

    State derived from a trace alone (its decoded event streams, the
    timing models' LVP-invariant stages) is shared by every caller of
    the same :class:`Trace` object and dropped with it.  Traces are
    immutable: code that edits records works on a ``materialize()``
    copy, which is a separate key.  Memoized values are shared, so the
    arrays in them must be read-only.
    """
    entry = _MEMO.get(trace)
    if entry is None:
        entry = _MEMO[trace] = {}
    result = entry.get(key)
    if result is None:
        result = entry[key] = compute()
    return result


def forget(trace: Trace) -> None:
    """Drop every value :func:`memoized` holds for *trace*."""
    _MEMO.pop(trace, None)
