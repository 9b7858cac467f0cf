"""The Load Value Prediction Unit (paper Section 3.4).

Composes the LVPT, LCT, and CVU and processes a program-order stream of
loads and stores, assigning each dynamic load one of the paper's four
value prediction states: *no prediction*, *incorrect prediction*,
*correct prediction*, or *constant load* (Section 5).  These annotations
are exactly what the paper's microarchitectural simulators consume.

The unit also keeps the bookkeeping needed for the paper's Table 3
(LCT classification accuracy versus ground truth) and Table 4
(fraction of dynamic loads treated as constants).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.lvp.config import LVPConfig
from repro.lvp.context import ContextLVPT
from repro.lvp.cvu import CVU
from repro.lvp.fcm import FCMPredictor
from repro.lvp.hybrid import HybridPredictor
from repro.lvp.lastn import LastNPredictor
from repro.lvp.lct import LCT, LoadClass
from repro.lvp.lvpt import LVPT
from repro.lvp.stride import StridePredictor


def build_predictor(config: LVPConfig):
    """The value-prediction table a configuration calls for.

    Single point of truth for the predictor-family dispatch of the
    :class:`LVPUnit`.  The vectorized stage-A passes of
    :mod:`repro.trace.kernels` (``run_stage_a``) mirror it family by
    family, and ``tests/properties/test_prop_lvp.py`` holds each pass
    to the object built here.  Perfect (oracle) configurations have no
    table and return None.
    """
    if config.perfect:
        return None
    if config.predictor == "stride":
        return StridePredictor(config.lvpt_entries)
    if config.predictor == "fcm":
        return FCMPredictor(config.lvpt_entries, config.history_depth)
    if config.predictor == "lastn":
        return LastNPredictor(config.lvpt_entries, config.history_depth)
    if config.predictor == "hybrid":
        return HybridPredictor(config.lvpt_entries)
    if config.index_mode == "gshare":
        return ContextLVPT(
            config.lvpt_entries, config.history_depth,
            config.selection, tagged=config.lvpt_tagged,
            ghr_bits=config.ghr_bits)
    return LVPT(config.lvpt_entries, config.history_depth,
                config.selection, tagged=config.lvpt_tagged)


class LoadOutcome(enum.IntEnum):
    """Per-dynamic-load annotation (the paper's four prediction states)."""

    NO_PREDICTION = 0
    INCORRECT = 1
    CORRECT = 2
    CONSTANT = 3  # correct AND verified by the CVU (no cache access)


@dataclass
class LVPStats:
    """Counters accumulated while a unit processes a trace."""

    loads: int = 0
    stores: int = 0
    outcomes: dict[LoadOutcome, int] = field(
        default_factory=lambda: {o: 0 for o in LoadOutcome})
    # Ground truth vs LCT decision (for Table 3): a load is "predictable"
    # if the LVPT's prediction would have matched the actual value.
    predictable_predicted: int = 0  # predictable, LCT said predict/constant
    predictable_not_predicted: int = 0  # predictable, LCT said don't
    unpredictable_predicted: int = 0  # unpredictable, LCT said predict
    unpredictable_not_predicted: int = 0  # unpredictable, LCT said don't
    cvu_insertions: int = 0
    cvu_store_invalidations: int = 0
    cvu_demotions: int = 0  # constant-classified loads that missed the CVU
    cvu_stale_hits: int = 0  # CVU hits whose LVPT value was wrong

    @property
    def constant_fraction(self) -> float:
        """Fraction of dynamic loads treated as constants (Table 4)."""
        if not self.loads:
            return 0.0
        return self.outcomes[LoadOutcome.CONSTANT] / self.loads

    @property
    def unpredictable_identified(self) -> float:
        """Table 3: fraction of unpredictable loads the LCT caught."""
        total = self.unpredictable_predicted + self.unpredictable_not_predicted
        if not total:
            return 1.0
        return self.unpredictable_not_predicted / total

    @property
    def predictable_identified(self) -> float:
        """Table 3: fraction of predictable loads the LCT caught."""
        total = self.predictable_predicted + self.predictable_not_predicted
        if not total:
            return 1.0
        return self.predictable_predicted / total

    @property
    def prediction_accuracy(self) -> float:
        """Correct + constant outcomes over all attempted predictions."""
        attempted = (self.outcomes[LoadOutcome.CORRECT]
                     + self.outcomes[LoadOutcome.CONSTANT]
                     + self.outcomes[LoadOutcome.INCORRECT])
        if not attempted:
            return 0.0
        return (self.outcomes[LoadOutcome.CORRECT]
                + self.outcomes[LoadOutcome.CONSTANT]) / attempted

    def counters(self) -> dict[str, int]:
        """Observability counters (see docs/observability.md).

        LVPT hits/misses use the paper's value-locality sense (would
        the table's prediction have matched?); LCT hits are decisions
        that agreed with that ground truth.
        """
        outcomes = self.outcomes
        return {
            "loads": self.loads,
            "stores": self.stores,
            "lvpt_hits": (self.predictable_predicted
                          + self.predictable_not_predicted),
            "lvpt_misses": (self.unpredictable_predicted
                            + self.unpredictable_not_predicted),
            "lct_hits": (self.predictable_predicted
                         + self.unpredictable_not_predicted),
            "lct_misses": (self.predictable_not_predicted
                           + self.unpredictable_predicted),
            "predicted_correct": outcomes[LoadOutcome.CORRECT],
            "mispredicts": outcomes[LoadOutcome.INCORRECT],
            "no_prediction": outcomes[LoadOutcome.NO_PREDICTION],
            "constant_loads": outcomes[LoadOutcome.CONSTANT],
            "cvu_hits": (outcomes[LoadOutcome.CONSTANT]
                         + self.cvu_stale_hits),
            "cvu_misses": self.cvu_demotions,
            "cvu_insertions": self.cvu_insertions,
            "cvu_store_invalidations": self.cvu_store_invalidations,
            "cvu_stale_hits": self.cvu_stale_hits,
        }


class LVPUnit:
    """A complete LVP unit: LVPT + LCT + CVU, per one configuration.

    With ``audit=True`` the unit records, for every dynamic load, the
    value it would have forwarded alongside the actual value and the
    assigned outcome (``audit_log`` of ``(pc, predicted, actual,
    outcome)`` tuples).  The fault campaign in ``tests/faults`` replays
    these to prove the verification comparator never lets a wrong
    forwarded value stand -- even when the tables have been corrupted
    mid-run.
    """

    def __init__(self, config: LVPConfig, audit: bool = False) -> None:
        self.config = config
        self.stats = LVPStats()
        self.audit_log: list = [] if audit else None
        self.lvpt = build_predictor(config)
        if config.perfect:
            self.lct = None
            self.cvu = None
        else:
            self.lct = LCT(config.lct_entries, config.lct_bits)
            self.cvu = CVU(config.cvu_entries)
        # Cached once: the table type never changes after construction,
        # and process_branch runs once per conditional branch.
        self._needs_branch_stream = isinstance(self.lvpt, ContextLVPT)

    def process_load(self, pc: int, addr: int, value: int) -> LoadOutcome:
        """Process one dynamic load; returns its prediction state."""
        stats = self.stats
        stats.loads += 1

        # Pollution control (future work): filtered-out loads never
        # touch the tables, so they cannot evict useful entries.
        profile_filter = self.config.profile_filter
        if profile_filter is not None and pc not in profile_filter:
            stats.outcomes[LoadOutcome.NO_PREDICTION] += 1
            stats.unpredictable_not_predicted += 1
            if self.audit_log is not None:
                self.audit_log.append(
                    (pc, None, value, LoadOutcome.NO_PREDICTION))
            return LoadOutcome.NO_PREDICTION

        if self.config.perfect:
            outcome = LoadOutcome.CORRECT
            stats.outcomes[outcome] += 1
            stats.predictable_predicted += 1
            if self.audit_log is not None:
                # The oracle forwards the actual value by definition.
                self.audit_log.append((pc, value, value, outcome))
            return outcome

        lvpt = self.lvpt
        lct = self.lct
        would_hit = lvpt.would_be_correct(pc, value)
        # Capture the value the unit would forward *before* training
        # updates the table below.
        predicted = lvpt.predict(pc) if self.audit_log is not None else None
        classification = lct.classify(pc)

        if classification is LoadClass.DONT_PREDICT:
            outcome = LoadOutcome.NO_PREDICTION
            if would_hit:
                stats.predictable_not_predicted += 1
            else:
                stats.unpredictable_not_predicted += 1
        elif classification is LoadClass.PREDICT:
            outcome = LoadOutcome.CORRECT if would_hit \
                else LoadOutcome.INCORRECT
            if would_hit:
                stats.predictable_predicted += 1
            else:
                stats.unpredictable_predicted += 1
        else:  # LoadClass.CONSTANT
            outcome = self._process_constant(pc, addr, value, would_hit)
            if would_hit:
                stats.predictable_predicted += 1
            else:
                stats.unpredictable_predicted += 1

        # Tables are trained on every dynamic load (paper Section 3.2:
        # "incremented when the predicted value is correct").
        lct.update(pc, would_hit)
        lvpt.update(pc, value)
        stats.outcomes[outcome] += 1
        if self.audit_log is not None:
            self.audit_log.append((pc, predicted, value, outcome))
        return outcome

    def _process_constant(self, pc: int, addr: int, value: int,
                          would_hit: bool) -> LoadOutcome:
        """Handle a load the LCT classified as constant."""
        cvu = self.cvu
        # Snapshot the LVPT index once per event: under gshare indexing
        # index_of varies with the global history register, so match,
        # stale-invalidate, and insert must all use this one value.
        lvpt_index = self.lvpt.index_of(pc)
        if cvu.match(addr, lvpt_index):
            if would_hit:
                return LoadOutcome.CONSTANT
            # Destructive LVPT interference replaced the value while the
            # CVU entry stayed valid; the forwarded value is wrong.  The
            # value comparison catches it (modelled as a misprediction)
            # and the stale entry is dropped.
            self.stats.cvu_stale_hits += 1
            cvu.invalidate(addr, lvpt_index)
            return LoadOutcome.INCORRECT
        # CVU miss: demote to ordinary predictable status (verify via the
        # memory hierarchy) and install the pair for next time.  A
        # zero-entry CVU refuses the insert, and that refusal must not
        # count as an insertion.
        self.stats.cvu_demotions += 1
        if cvu.insert(addr, lvpt_index):
            self.stats.cvu_insertions += 1
        return LoadOutcome.CORRECT if would_hit else LoadOutcome.INCORRECT

    @property
    def needs_branch_stream(self) -> bool:
        """True if the unit's tables consume branch outcomes."""
        return self._needs_branch_stream

    def process_branch(self, taken: bool) -> None:
        """Feed one conditional-branch outcome (gshare indexing)."""
        if self._needs_branch_stream:
            self.lvpt.record_branch(taken)

    def process_store(self, addr: int, size: int = 8) -> None:
        """Process one dynamic store (CVU snoop/invalidate)."""
        self.stats.stores += 1
        if self.cvu is not None:
            self.stats.cvu_store_invalidations += \
                self.cvu.snoop_store(addr, size)

    def flush(self) -> None:
        """Clear all table state (not the statistics)."""
        if not self.config.perfect:
            self.lvpt.flush()
            self.lct.flush()
            self.cvu.flush()
