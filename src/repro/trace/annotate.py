"""LVP annotation of traces (paper Section 5).

The paper's experimental framework feeds each trace through a model of
the LVP unit "which annotates each load in the trace with one of four
value prediction states: no prediction, incorrect prediction, correct
prediction, or constant load", and hands the annotated trace to the
cycle-accurate simulators.  This module is that middle phase.
"""

from __future__ import annotations

import os
from collections import OrderedDict

import numpy as np

from repro.errors import ConfigError
from repro.isa.opcodes import OpClass
from repro.lvp.config import LVPConfig
from repro.lvp.unit import LoadOutcome, LVPStats, LVPUnit
from repro.trace.kernels import (
    NOT_A_LOAD,
    LctContext,
    decode_events,
    run_stage_a,
    run_stage_b,
    run_stage_c,
)
from repro.trace.records import Trace

# Event kinds for the program-order replay.
_LOAD, _STORE, _BRANCH = 0, 1, 2

#: Recognised values of the ``kernel`` knob / ``REPRO_ANNOTATE_KERNEL``.
KERNELS = ("auto", "general", "mono", "vector")


def mono_eligible(config: LVPConfig, audit: bool = False,
                  fault_hook=None) -> bool:
    """Can the monomorphic kernel annotate under *config*?

    The fast kernel handles the common case only: the paper's
    PC-indexed, untagged history LVPT with no audit log, no fault hook,
    no profile filter, and no branch-history stream.  Its domain lies
    inside the vector kernel's, so ``auto`` never picks it; it runs
    only when forced (and as the guard's middle rung).
    """
    return (vector_eligible(config, audit, fault_hook)
            and config.predictor == "history"
            and config.index_mode == "pc"
            and not config.lvpt_tagged)


def vector_eligible(config: LVPConfig, audit: bool = False,
                    fault_hook=None) -> bool:
    """Can the vectorized kernel annotate under *config*?

    The vector tier runs the staged kernels of
    :mod:`repro.trace.kernels`, which have a stage-A pass for every
    predictor family, index mode, tag setting and selection policy.
    Only the Perfect oracle (no tables), a profile filter (loads that
    bypass the tables), an audit log (per-load forwarded values) and a
    fault hook (per-event table corruption) need the general path.
    """
    return (not audit and fault_hook is None and not config.perfect
            and config.profile_filter is None)


def resolve_kernel(kernel, config: LVPConfig, audit: bool,
                   fault_hook) -> str:
    """Resolve the kernel knob to a concrete kernel name.

    ``REPRO_ANNOTATE_KERNEL`` overrides the argument; ``"auto"`` (the
    default) picks ``vector`` where it is eligible and ``general``
    elsewhere (the vector domain contains the mono kernel's, so
    ``mono`` runs only when asked for).  Forcing ``"vector"`` or
    ``"mono"`` for an ineligible combination is a :class:`ConfigError`
    rather than a silent fallback.
    """
    env = os.environ.get("REPRO_ANNOTATE_KERNEL")
    if env:
        kernel = env
    if kernel is None:
        kernel = "auto"
    if kernel not in KERNELS:
        raise ConfigError(
            f"unknown annotation kernel {kernel!r} "
            f"(choose from {', '.join(KERNELS)})"
        )
    if kernel == "mono" and not mono_eligible(config, audit, fault_hook):
        raise ConfigError(
            f"kernel 'mono' cannot annotate config {config.name!r} with "
            "audit/fault-hook/perfect/stride/gshare/tagged/filter features "
            "requested; use 'auto' or 'general'"
        )
    if kernel == "vector" and not vector_eligible(config, audit, fault_hook):
        raise ConfigError(
            f"kernel 'vector' cannot annotate config {config.name!r} with "
            "audit/fault-hook/perfect/filter features requested; use "
            "'auto' or 'general'"
        )
    if kernel == "auto":
        return ("vector" if vector_eligible(config, audit, fault_hook)
                else "general")
    return kernel


class AnnotatedTrace:
    """A trace plus per-load LVP prediction states.

    ``outcomes`` is a uint8 array parallel to the trace: load positions
    hold a :class:`LoadOutcome` value; everything else holds
    :data:`NOT_A_LOAD`.  When annotation ran with ``audit=True``,
    ``audit_log`` holds one ``(pc, predicted, actual, outcome)`` tuple
    per dynamic load (``predicted`` is None when the unit had no value
    to forward); otherwise it is None.
    """

    def __init__(self, trace: Trace, config: LVPConfig,
                 outcomes: np.ndarray, stats: LVPStats,
                 audit_log=None) -> None:
        self.trace = trace
        self.config = config
        self.outcomes = outcomes
        self.stats = stats
        self.audit_log = audit_log

    def outcome_counts(self) -> dict[LoadOutcome, int]:
        """Dynamic load counts per prediction state."""
        return dict(self.stats.outcomes)

    def __repr__(self) -> str:
        return (
            f"<AnnotatedTrace {self.trace.name!r} config={self.config.name} "
            f"loads={self.stats.loads}>"
        )


def annotate_trace(trace: Trace, config: LVPConfig, *,
                   audit: bool = False,
                   fault_hook=None,
                   kernel: str | None = None) -> AnnotatedTrace:
    """Run an LVP unit over *trace* in program order; annotate each load.

    Units whose lookup index folds in branch history additionally
    consume the trace's conditional-branch outcomes, in program order
    interleaved with the memory operations.

    ``audit=True`` makes the unit record every forwarded prediction so
    callers (notably the fault-injection doctor) can prove the value
    comparator catches every wrong forward.  ``fault_hook``, if given,
    is called as ``fault_hook(unit, event_index)`` before each
    load/store/branch event -- the hook decides when (and whether) to
    corrupt the unit's tables mid-annotation.

    ``kernel`` selects the annotation implementation: ``"general"``
    replays through :class:`LVPUnit` method calls and supports every
    feature; ``"mono"`` is a monomorphic single-loop kernel with the
    LVPT/LCT/CVU fast paths inlined, bit-identical for the common case
    (see :func:`mono_eligible`); ``"vector"`` runs the shared staged
    kernels from :mod:`repro.trace.kernels` -- a vectorized predictor
    pass, a vectorized LCT counter scan, and a CVU replay over only the
    constant-classified loads -- for every configuration without the
    Perfect oracle, a profile filter, an audit log or a fault hook (see
    :func:`vector_eligible`); ``"auto"`` (default) picks ``vector``
    where eligible and ``general`` elsewhere.  ``REPRO_ANNOTATE_KERNEL``
    overrides.
    """
    resolved = resolve_kernel(kernel, config, audit, fault_hook)
    if resolved == "vector":
        outcomes, stats = _annotate_vector(trace, config)
        return AnnotatedTrace(trace, config, outcomes, stats,
                              audit_log=None)
    if resolved == "mono":
        outcomes = np.full(len(trace), NOT_A_LOAD, dtype=np.uint8)
        stats = _annotate_mono(trace, config, outcomes)
        return AnnotatedTrace(trace, config, outcomes, stats,
                              audit_log=None)

    unit = LVPUnit(config, audit=audit)
    outcomes = np.full(len(trace), NOT_A_LOAD, dtype=np.uint8)

    is_load = trace.is_load
    relevant = is_load | trace.is_store
    kinds = np.where(is_load, _LOAD, _STORE)
    if unit.needs_branch_stream:
        is_branch = trace.opclass == int(OpClass.BRANCH)
        relevant = relevant | is_branch
        kinds = np.where(is_branch, _BRANCH, kinds)

    positions = np.nonzero(relevant)[0]
    kind_list = kinds[positions].tolist()
    pcs = trace.pc[positions].tolist()
    addrs = trace.addr[positions].tolist()
    values = trace.value[positions].tolist()
    sizes = trace.size[positions].tolist()
    takens = trace.taken[positions].tolist()
    position_list = positions.tolist()

    process_load = unit.process_load
    process_store = unit.process_store
    process_branch = unit.process_branch
    for i, pos in enumerate(position_list):
        if fault_hook is not None:
            fault_hook(unit, i)
        kind = kind_list[i]
        if kind == _LOAD:
            outcomes[pos] = int(process_load(pcs[i], addrs[i], values[i]))
        elif kind == _STORE:
            process_store(addrs[i], sizes[i])
        else:
            process_branch(bool(takens[i]))

    return AnnotatedTrace(trace, config, outcomes, unit.stats,
                          audit_log=unit.audit_log)


def _annotate_vector(trace: Trace,
                     config: LVPConfig) -> tuple[np.ndarray, LVPStats]:
    """Vectorized annotation via the shared staged kernels.

    Stage A is the configuration's vectorized predictor pass (numpy
    over the loads grouped by table entry -- no per-load Python loop),
    stage B is the vectorized LCT counter scan, and stage C replays the
    CVU over only the constant-classified loads.  The composition is
    bit-identical to the general kernel on the :func:`vector_eligible`
    domain (and to the mono kernel on its own);
    ``tests/trace/test_vector.py`` enforces it differentially.
    """
    events = decode_events(trace,
                           branches=config.index_mode == "gshare")
    hits, idxs = run_stage_a(events, config)
    classes = run_stage_b(events, hits, config.lct_entries,
                          config.lct_bits)
    context = LctContext(hits, classes)
    outcomes, stats, _ = run_stage_c(events, hits, idxs, context, config)
    return outcomes, stats


def _annotate_mono(trace: Trace, config: LVPConfig,
                   outcomes: np.ndarray) -> LVPStats:
    """Monomorphic annotation kernel for the common configuration.

    One loop over the trace's loads and stores with the LVPT history
    lookup, LCT saturating counters, and CVU CAM inlined as plain list
    and dict operations -- no per-event method dispatch, no audit
    bookkeeping, no branch stream.  Every state transition mirrors
    :meth:`LVPUnit.process_load` / :meth:`LVPUnit.process_store`
    exactly; the differential suite in ``tests/trace`` holds this to
    bit-identical outcomes and statistics against the general path.
    """
    is_load = trace.is_load
    relevant = is_load | trace.is_store
    positions = np.nonzero(relevant)[0]
    kind_list = np.where(is_load, _LOAD, _STORE)[positions].tolist()
    pcs = trace.pc[positions].tolist()
    addrs = trace.addr[positions].tolist()
    values = trace.value[positions].tolist()
    sizes = trace.size[positions].tolist()

    # LVPT: direct-mapped, untagged, MRU-first value histories.
    lvpt_mask = config.lvpt_entries - 1
    lvpt = [[] for _ in range(config.lvpt_entries)]
    depth = config.history_depth
    deep = depth > 1
    sel_perfect = config.selection == "perfect"
    # LCT: saturating counters.
    lct_mask = config.lct_entries - 1
    lct_max = (1 << config.lct_bits) - 1
    lct_predict = lct_max - 1
    one_bit = config.lct_bits == 1
    lct = [0] * config.lct_entries
    # CVU: LRU CAM of (word address, lvpt index) + per-word index sets.
    cvu_entries = config.cvu_entries
    cam: OrderedDict = OrderedDict()
    by_addr: dict[int, set] = {}
    cam_move = cam.move_to_end
    cam_pop_lru = cam.popitem

    loads = stores = 0
    n_nopred = n_incorrect = n_correct = n_constant = 0
    pp = pnp = up = unp = 0
    cvu_ins = cvu_sinv = cvu_dem = cvu_stale = 0
    load_outcomes: list[int] = []
    emit = load_outcomes.append

    for kind, pc, addr, value, size in zip(kind_list, pcs, addrs,
                                           values, sizes):
        if kind == _LOAD:
            loads += 1
            idx = (pc >> 2) & lvpt_mask
            hist = lvpt[idx]
            if hist:
                would_hit = (value in hist) if sel_perfect \
                    else hist[0] == value
            else:
                would_hit = False
            lidx = (pc >> 2) & lct_mask
            cnt = lct[lidx]

            if one_bit:
                constant = cnt != 0
                predict = False
            else:
                constant = cnt == lct_max
                predict = cnt == lct_predict

            if constant:
                word = addr & ~7
                key = (word, idx)
                if key in cam:
                    if would_hit:
                        cam_move(key)
                        emit(3)
                        n_constant += 1
                    else:
                        # Stale CVU hit: LVPT value was replaced while
                        # the CAM entry stayed valid; drop the entry.
                        cvu_stale += 1
                        del cam[key]
                        indices = by_addr.get(word)
                        if indices is not None:
                            indices.discard(idx)
                            if not indices:
                                del by_addr[word]
                        emit(1)
                        n_incorrect += 1
                else:
                    cvu_dem += 1
                    # A zero-entry CVU refuses the insert; only an
                    # actual placement counts as an insertion (mirrors
                    # CVU.insert returning False).
                    if cvu_entries:
                        if len(cam) >= cvu_entries:
                            vword, vidx = cam_pop_lru(last=False)[0]
                            victims = by_addr.get(vword)
                            if victims is not None:
                                victims.discard(vidx)
                                if not victims:
                                    del by_addr[vword]
                        cam[key] = None
                        holders = by_addr.get(word)
                        if holders is None:
                            by_addr[word] = {idx}
                        else:
                            holders.add(idx)
                        cvu_ins += 1
                    if would_hit:
                        emit(2)
                        n_correct += 1
                    else:
                        emit(1)
                        n_incorrect += 1
                if would_hit:
                    pp += 1
                else:
                    up += 1
            elif predict:
                if would_hit:
                    emit(2)
                    n_correct += 1
                    pp += 1
                else:
                    emit(1)
                    n_incorrect += 1
                    up += 1
            else:
                emit(0)
                n_nopred += 1
                if would_hit:
                    pnp += 1
                else:
                    unp += 1

            # LCT training (saturating +/- 1 on ground truth).
            if would_hit:
                if cnt < lct_max:
                    lct[lidx] = cnt + 1
            elif cnt > 0:
                lct[lidx] = cnt - 1
            # LVPT training (MRU promotion, bounded history).
            if deep:
                if not hist or hist[0] != value:
                    try:
                        hist.remove(value)
                    except ValueError:
                        pass
                    hist.insert(0, value)
                    if len(hist) > depth:
                        hist.pop()
            elif hist:
                if hist[0] != value:
                    hist[0] = value
            else:
                hist.append(value)
        else:
            stores += 1
            first = addr & ~7
            last = (addr + (size if size > 0 else 1) - 1) & ~7
            if first == last:
                indices = by_addr.pop(first, None)
                if indices:
                    for li in indices:
                        cam.pop((first, li), None)
                    cvu_sinv += len(indices)
            else:
                for word in range(first, last + 8, 8):
                    indices = by_addr.pop(word, None)
                    if indices:
                        for li in indices:
                            cam.pop((word, li), None)
                        cvu_sinv += len(indices)

    if load_outcomes:
        outcomes[np.nonzero(is_load)[0]] = np.array(load_outcomes,
                                                    dtype=np.uint8)
    return LVPStats(
        loads=loads, stores=stores,
        outcomes={
            LoadOutcome.NO_PREDICTION: n_nopred,
            LoadOutcome.INCORRECT: n_incorrect,
            LoadOutcome.CORRECT: n_correct,
            LoadOutcome.CONSTANT: n_constant,
        },
        predictable_predicted=pp,
        predictable_not_predicted=pnp,
        unpredictable_predicted=up,
        unpredictable_not_predicted=unp,
        cvu_insertions=cvu_ins,
        cvu_store_invalidations=cvu_sinv,
        cvu_demotions=cvu_dem,
        cvu_stale_hits=cvu_stale,
    )
