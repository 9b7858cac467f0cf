"""Deterministic fault planning.

A :class:`FaultPlan` expands a single campaign seed into a sequence of
:class:`FaultSpec` entries, cycling through the three injection layers
(in-memory trace columns, on-disk cache bundles, LVP unit tables) and
through every fault kind within each layer.  Two plans built from the
same ``(seed, faults)`` pair are identical, so a failing doctor run is
reproducible from its reported seed alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.errors import FaultError

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

_LAYERS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("trace", TRACE_FAULTS),
    ("cache", CACHE_FAULTS),
    ("lvp", LVP_FAULTS),
)


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
    """A deterministic campaign of *faults* specs derived from *seed*."""

    def __init__(self, seed: int = 0, faults: int = 60) -> None:
        if faults < 1:
            raise FaultError(f"a fault plan needs >= 1 fault, got {faults}")
        self.seed = seed
        rng = random.Random(seed)
        specs = []
        for i in range(faults):
            layer, kinds = _LAYERS[i % len(_LAYERS)]
            kind = kinds[(i // len(_LAYERS)) % len(kinds)]
            specs.append(FaultSpec(layer, kind, rng.randrange(2 ** 32)))
        self.specs: tuple[FaultSpec, ...] = tuple(specs)

    def __len__(self) -> int:
        return len(self.specs)

    def __iter__(self):
        return iter(self.specs)
