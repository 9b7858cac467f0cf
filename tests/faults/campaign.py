"""The fault campaign: seeded fault plans, one-fault injectors, the
audit oracle, and the classifier the campaign test asserts on.

The paper's safety argument is that load value prediction is
speculative but safe: a wrong LVPT entry, LCT counter or CVU pairing
can cost cycles, never correctness, because the verification
comparator and the CVU catch every bad forward.  The campaign plants
one fault at a time at three boundaries and classifies what the
pipeline did with it:

* **trace** -- :func:`inject_trace_fault` corrupts a copy of an
  in-memory trace (bit flips, out-of-range fields, truncation) the way
  a bad producer or decayed storage would;
* **cache** -- :func:`inject_cache_fault` damages a stored ``.rtc``
  bundle on disk (truncation, bit flips, garbage, stale versions,
  checksum lies); bit flips land inside the integrity-covered regions
  (header, column data, footer), never the alignment padding, so every
  planted fault is one the cache's checksum layers are contracted to
  catch;
* **lvp** -- :func:`make_lvp_hook` builds an ``annotate_trace`` fault
  hook that corrupts a live LVP unit's tables mid-annotation (soft
  errors in the LVPT/LCT/CVU).

:func:`plant` classifies each planted fault as DETECTED (validation or
the cache's checksums refused it), RECOVERED (annotation completed and
:func:`audit_violations` found no wrong forward standing) or SILENT
(neither: the one outcome the design must never produce).
"""

from __future__ import annotations

import json
import random
import tempfile
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import FaultError
from repro.harness.cache import TraceCache
from repro.isa.opcodes import CONDITIONAL_BRANCHES, Opcode, OpClass
from repro.isa.registers import NUM_REGS
from repro.lvp.config import CONSTANT, SIMPLE
from repro.lvp.unit import LoadOutcome
from repro.trace.annotate import AnnotatedTrace, annotate_trace
from repro.trace.records import TRACE_COLUMNS, Trace
from repro.trace.validate import validate_trace

# ---------------------------------------------------------------------------
# The plan.
# ---------------------------------------------------------------------------
#: Trace-layer fault kinds.  All but ``value_flip`` violate a trace
#: invariant and must be caught by ``validate_trace``; ``value_flip``
#: leaves the trace well-formed and must be absorbed by the LVP
#: misprediction path instead.
TRACE_FAULTS: tuple[str, ...] = (
    "opcode_zero", "opcode_overflow", "opclass_mismatch",
    "register_range", "bad_size", "misalign", "taken_flag",
    "pc_unaligned", "truncate_tail", "value_flip",
)

#: Cache-layer fault kinds, applied to a stored ``.rtc`` bundle.
CACHE_FAULTS: tuple[str, ...] = (
    "truncate", "bitflip", "garbage", "empty", "version_bump",
    "checksum_mismatch",
)

#: LVP-layer fault kinds, injected into a live unit mid-annotation.
LVP_FAULTS: tuple[str, ...] = (
    "lvpt_poke", "lct_poke", "cvu_bogus", "unit_flush",
)

#: Every (layer, kind) pair, in the order a plan cycles through them.
FAULT_KINDS: tuple[tuple[str, str], ...] = tuple(
    (layer, kind)
    for layer, kinds in (("trace", TRACE_FAULTS), ("cache", CACHE_FAULTS),
                         ("lvp", LVP_FAULTS))
    for kind in kinds)


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault: where to inject it and its private seed."""

    layer: str  #: "trace", "cache", or "lvp"
    kind: str  #: one of the layer's *_FAULTS kinds
    seed: int  #: seeds the injector's own RNG

    def rng(self) -> random.Random:
        """A fresh RNG for executing this spec."""
        return random.Random(self.seed)


class FaultPlan:
    """A deterministic campaign of *faults* specs derived from *seed*,
    cycling through :data:`FAULT_KINDS` (so ``len(FAULT_KINDS)`` faults
    plant every kind once)."""

    def __init__(self, seed: int = 0, faults: int = 60) -> None:
        if faults < 1:
            raise FaultError(f"a fault plan needs >= 1 fault, got {faults}")
        self.seed = seed
        rng = random.Random(seed)
        self.specs: tuple[FaultSpec, ...] = tuple(
            FaultSpec(*FAULT_KINDS[i % len(FAULT_KINDS)],
                      rng.randrange(2 ** 32))
            for i in range(faults))

    def __len__(self) -> int:
        return len(self.specs)

    def __iter__(self):
        return iter(self.specs)


# ---------------------------------------------------------------------------
# Trace-layer faults.
# ---------------------------------------------------------------------------
#: A deep copy of a trace, safe to corrupt.
copy_trace = Trace.materialize


def _pick(rng: random.Random, positions: np.ndarray, what: str) -> int:
    if len(positions) == 0:
        raise FaultError(f"trace has no {what}; cannot plant this fault")
    return int(positions[rng.randrange(len(positions))])


def inject_trace_fault(trace: Trace, kind: str,
                       rng: random.Random) -> tuple[Trace, bool, str]:
    """Corrupt a copy of *trace*; returns (copy, expect_detected, what).

    ``expect_detected`` is True when the fault violates a structural
    invariant ``validate_trace`` must flag; False for faults (value
    bit flips) that leave the trace well-formed and must instead be
    absorbed by the LVP misprediction path.
    """
    corrupt = copy_trace(trace)
    loads = np.nonzero(corrupt.is_load)[0]
    any_row = np.arange(len(corrupt))

    if kind == "opcode_zero":
        i = _pick(rng, any_row, "rows")
        corrupt.opcode[i] = 0
        return corrupt, True, f"opcode[{i}] zeroed"
    if kind == "opcode_overflow":
        i = _pick(rng, any_row, "rows")
        corrupt.opcode[i] = len(Opcode) + 1 + rng.randrange(50)
        return corrupt, True, f"opcode[{i}] past the enum"
    if kind == "opclass_mismatch":
        i = _pick(rng, any_row, "rows")
        corrupt.opclass[i] = 250
        return corrupt, True, f"opclass[{i}] mismatched"
    if kind == "register_range":
        i = _pick(rng, any_row, "rows")
        column = getattr(corrupt, rng.choice(("dst", "src1", "src2")))
        column[i] = rng.choice((NUM_REGS + 1 + rng.randrange(100), -2))
        return corrupt, True, f"register id[{i}] out of range"
    if kind == "bad_size":
        i = _pick(rng, loads, "loads")
        corrupt.size[i] = rng.choice((2, 3, 5, 7))
        return corrupt, True, f"size[{i}] implausible"
    if kind == "misalign":
        wide = np.nonzero((corrupt.is_load | corrupt.is_store)
                          & (corrupt.size >= 4))[0]
        i = _pick(rng, wide, "wide memory ops")
        corrupt.addr[i] += rng.choice((1, 2, 3))
        return corrupt, True, f"addr[{i}] misaligned"
    if kind == "taken_flag":
        conditional = np.isin(
            corrupt.opcode, [int(o) for o in CONDITIONAL_BRANCHES])
        i = _pick(rng, np.nonzero(~conditional)[0], "non-branch rows")
        corrupt.taken[i] = 1
        return corrupt, True, f"taken[{i}] set on a non-branch"
    if kind == "pc_unaligned":
        i = _pick(rng, any_row, "rows")
        corrupt.pc[i] += rng.choice((1, 2, 3))
        return corrupt, True, f"pc[{i}] unaligned"
    if kind == "truncate_tail":
        mid_flow = np.nonzero(
            corrupt.opclass != int(OpClass.BRANCH))[0]
        i = _pick(rng, mid_flow, "non-branch rows")
        sliced = Trace(
            {key: getattr(corrupt, key)[: i + 1].copy()
             for key, _ in TRACE_COLUMNS},
            name=corrupt.name, target=corrupt.target,
        )
        return sliced, True, f"trace truncated after row {i}"
    if kind == "value_flip":
        i = _pick(rng, loads, "loads")
        corrupt.value[i] ^= np.uint64(1) << np.uint64(rng.randrange(64))
        return corrupt, False, f"value[{i}] bit-flipped"
    raise FaultError(f"unknown trace fault kind {kind!r}")


# ---------------------------------------------------------------------------
# Cache-layer faults.
# ---------------------------------------------------------------------------
def _v2_column_table(data: bytes) -> list[dict]:
    """The column table of an in-memory v2 bundle image."""
    header_len = int.from_bytes(data[8:12], "little")
    header = json.loads(bytes(data[12:12 + header_len]).decode("utf-8"))
    return header["columns"]


def inject_cache_fault(cache: TraceCache, trace: Trace, scale: str,
                       kind: str, rng: random.Random) -> str:
    """Store *trace*, then damage the v2 bundle on disk; returns what."""
    cache.store(trace, scale)
    path = cache.path_for(trace.name, trace.target, scale)

    if kind == "truncate":
        data = path.read_bytes()
        keep = rng.randrange(1, len(data))
        path.write_bytes(data[:keep])
        return f"bundle truncated to {keep}/{len(data)} bytes"
    if kind == "bitflip":
        # Flip a byte somewhere the integrity layers cover -- the
        # header (footer CRC catches it), the footer itself, or a
        # column's data (its recorded CRC catches it) -- never the
        # semantically meaningless alignment padding.
        data = bytearray(path.read_bytes())
        header_len = int.from_bytes(data[8:12], "little")
        regions = [(0, 12 + header_len), (len(data) - 12, len(data))]
        regions += [
            (spec["offset"], spec["offset"] + spec["nbytes"])
            for spec in _v2_column_table(data) if spec["nbytes"]
        ]
        start, end = regions[rng.randrange(len(regions))]
        offset = start + rng.randrange(end - start)
        data[offset] ^= 1 << rng.randrange(8)
        path.write_bytes(bytes(data))
        return f"bundle bit-flipped at byte {offset}"
    if kind == "garbage":
        path.write_bytes(rng.randbytes(256))
        return "bundle replaced with garbage"
    if kind == "empty":
        path.write_bytes(b"")
        return "bundle emptied"
    if kind == "version_bump":
        original = cache.version
        try:
            cache.version = original + "-stale"
            cache.store(trace, scale)
        finally:
            cache.version = original
        return "bundle re-stamped with a stale version"
    if kind == "checksum_mismatch":
        # Alter one element of a column's on-disk bytes while leaving
        # the header (and so every recorded checksum, and the footer's
        # header CRC) untouched: only the per-column CRC layer can
        # catch the lie.
        data = bytearray(path.read_bytes())
        victims = [spec for spec in _v2_column_table(data)
                   if spec["nbytes"]]
        spec = victims[rng.randrange(len(victims))]
        offset = spec["offset"] + rng.randrange(spec["nbytes"])
        data[offset] ^= 1
        path.write_bytes(bytes(data))
        return (f"column {spec['name']!r} altered under its recorded "
                f"checksum")
    raise FaultError(f"unknown cache fault kind {kind!r}")


# ---------------------------------------------------------------------------
# LVP-layer faults.
# ---------------------------------------------------------------------------
def make_lvp_hook(kind: str, rng: random.Random,
                  n_events: int) -> tuple[Callable, str]:
    """An ``annotate_trace`` fault hook firing once mid-annotation."""
    if kind not in LVP_FAULTS:
        raise FaultError(f"unknown LVP fault kind {kind!r}")
    fire_at = rng.randrange(n_events) if n_events > 0 else 0
    fired = [False]

    def hook(unit, event_index: int) -> None:
        if fired[0] or event_index < fire_at:
            return
        fired[0] = True
        if kind == "unit_flush":
            unit.flush()
            return
        lvpt = unit.lvpt
        if lvpt is None:
            return
        if kind == "lvpt_poke" and hasattr(lvpt, "poke"):
            depth = max(1, getattr(lvpt, "history_depth", 1))
            lvpt.poke(rng.randrange(lvpt.entries),
                      [rng.randrange(2 ** 64) for _ in range(depth)])
        elif kind == "lct_poke":
            top = (1 << unit.lct.bits) - 1
            unit.lct.poke(rng.randrange(unit.lct.entries),
                          rng.randrange(top + 1))
        elif kind == "cvu_bogus":
            unit.cvu.insert(rng.randrange(1 << 24) * 8,
                            rng.randrange(max(1, lvpt.entries)))

    return hook, f"{kind} at event {fire_at}"


# ---------------------------------------------------------------------------
# The safety oracle.
# ---------------------------------------------------------------------------
def audit_violations(annotated: AnnotatedTrace,
                     limit: int = 10) -> list[str]:
    """Every way *annotated* let a wrong forwarded value stand.

    Requires the annotation to have run with ``audit=True``.  For mru
    selection the check is exact: a load marked CORRECT or CONSTANT
    must have forwarded precisely the value it actually loaded, and a
    load marked INCORRECT must not have.  Perfect-selection (oracle)
    configurations only get the structural checks, since their notion
    of "correct" is any-of-history.
    """
    log = annotated.audit_log
    if log is None:
        return ["annotation was not run with audit=True"]
    problems: list[str] = []
    stats = annotated.stats
    if sum(stats.outcomes.values()) != stats.loads:
        problems.append("outcome counts do not sum to the load count")
    if stats.loads != annotated.trace.num_loads:
        problems.append("unit processed a different number of loads "
                        "than the trace contains")
    if len(log) != stats.loads:
        problems.append("audit log length disagrees with the load count")

    config = annotated.config
    strict = not config.perfect and config.selection == "mru"
    forwarded = (LoadOutcome.CORRECT, LoadOutcome.CONSTANT)
    for pc, predicted, actual, outcome in log:
        if len(problems) >= limit:
            problems.append("... further violations suppressed")
            break
        if outcome in forwarded:
            if predicted is None:
                problems.append(
                    f"load @0x{pc:x} marked {outcome.name} with nothing "
                    "to forward")
            elif strict and predicted != actual:
                problems.append(
                    f"load @0x{pc:x} marked {outcome.name} but forwarded "
                    f"0x{predicted:x} != actual 0x{actual:x}")
        elif (outcome is LoadOutcome.INCORRECT and strict
              and predicted is not None and predicted == actual):
            problems.append(
                f"load @0x{pc:x} marked INCORRECT but the forwarded "
                "value was right")
    return problems


# ---------------------------------------------------------------------------
# The classifier.
# ---------------------------------------------------------------------------
DETECTED = "detected"
RECOVERED = "recovered"
SILENT = "silent"


def plant(spec: FaultSpec, trace: Trace,
          scale: str = "tiny") -> tuple[str, str]:
    """Plant *spec* against *trace*; returns ``(status, detail)``."""
    rng = spec.rng()
    if spec.layer == "trace":
        corrupt, expect_detected, what = inject_trace_fault(
            trace, spec.kind, rng)
        problems = validate_trace(corrupt)
        if problems:
            return DETECTED, f"{what}; flagged: {problems[0]}"
        if expect_detected:
            return SILENT, f"{what}; validate_trace saw nothing"
        # Well-formed corruption (a value flip): annotation must absorb
        # it via the misprediction path without ever letting a wrong
        # forward stand.
        violations = audit_violations(
            annotate_trace(corrupt, SIMPLE, audit=True))
        if violations:
            return SILENT, f"{what}; {violations[0]}"
        return RECOVERED, f"{what}; absorbed by the misprediction path"
    if spec.layer == "cache":
        with tempfile.TemporaryDirectory(prefix="repro-campaign-") as tmp:
            cache = TraceCache(tmp)
            what = inject_cache_fault(cache, trace, scale, spec.kind, rng)
            loaded = cache.load(trace.name, trace.target, scale)
            if loaded is None:
                return DETECTED, f"{what}; treated as a miss"
            intact = len(loaded) == len(trace) and all(
                np.array_equal(getattr(loaded, key), getattr(trace, key))
                for key, _ in TRACE_COLUMNS)
            del loaded  # release the mapping before the directory goes
        if intact:
            return RECOVERED, f"{what}; bundle survived intact"
        return SILENT, f"{what}; a corrupted trace was served"
    if spec.layer == "lvp":
        config = rng.choice((SIMPLE, CONSTANT))
        n_events = int((trace.is_load | trace.is_store).sum())
        hook, what = make_lvp_hook(spec.kind, rng, n_events)
        violations = audit_violations(annotate_trace(
            trace, config, audit=True, fault_hook=hook))
        if violations:
            return SILENT, f"{what} ({config.name}); {violations[0]}"
        return RECOVERED, f"{what} ({config.name}); comparator held"
    raise FaultError(f"unknown fault layer {spec.layer!r}")
