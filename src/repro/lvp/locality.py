"""Value locality measurement (paper Section 2, Figures 1 and 2).

Value locality of a benchmark is "the number of times each static load
instruction retrieves a value from memory that matches a previously-seen
value for that static load, divided by the total number of dynamic
loads".  Per the paper's footnote 1, the previously-seen values are kept
in a direct-mapped table of 1K entries indexed -- but not tagged -- by
instruction address, with the ``depth`` values at each entry replaced
LRU, so constructive and destructive interference both occur.

That table under perfect selection is the sweep's stage-A history
pass (:func:`repro.trace.kernels.stage_a_history`), so both measures
are one vector pass over the trace's loads; ``tests/lvp/test_locality.py``
holds them to a per-load :class:`~repro.lvp.lvpt.LVPT` loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.isa.opcodes import ValueKind
from repro.trace.records import Trace


@dataclass
class LocalityResult:
    """Value locality of one trace at one history depth."""

    name: str
    target: str
    depth: int
    total_loads: int
    hits: int

    @property
    def locality(self) -> float:
        """Fraction of dynamic loads whose value was previously seen."""
        if not self.total_loads:
            return 0.0
        return self.hits / self.total_loads

    @property
    def percent(self) -> float:
        """Locality as a percentage (as plotted in Figures 1 and 2)."""
        return 100.0 * self.locality


def _hits(trace: Trace, depth: int, entries: int):
    """Per dynamic load, in program order: was its value among its
    table entry's *depth* most recent distinct values?  Also returns
    the decoded events.  This is the sweep's stage-A pass for the
    untagged, pc-indexed, perfect-selection LVPT."""
    # Imported here: repro.trace.kernels imports repro.lvp submodules.
    from repro.trace.kernels import decode_events, stage_a_history

    events = decode_events(trace, branches=False)
    hits, _ = stage_a_history(events, entries, depth)
    return hits, events


def measure_value_locality(trace: Trace, depth: int = 1,
                           entries: int = 1024) -> LocalityResult:
    """Measure load value locality of *trace* at *depth* (Figure 1)."""
    hits, _ = _hits(trace, depth, entries)
    return LocalityResult(trace.name, trace.target, depth, len(hits),
                          int(np.count_nonzero(hits)))


def measure_locality_by_kind(
    trace: Trace, depth: int = 1, entries: int = 1024,
) -> dict[ValueKind, LocalityResult]:
    """Measure value locality per :class:`ValueKind` (Figure 2).

    All loads share one history table (interference included); hits and
    totals are then attributed to the kind of the loaded value.
    """
    hits, events = _hits(trace, depth, entries)
    kinds = trace.kind[events.load_positions]
    bins = len(ValueKind)
    totals = np.bincount(kinds, minlength=bins)
    hit_counts = np.bincount(kinds[hits], minlength=bins)
    return {
        kind: LocalityResult(trace.name, trace.target, depth,
                             int(totals[kind]), int(hit_counts[kind]))
        for kind in ValueKind
    }
