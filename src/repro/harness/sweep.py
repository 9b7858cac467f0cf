"""One-pass design-space sweep engine (``repro sweep``).

One ``annotate_trace`` call evaluates one LVP configuration and pays
the full trace walk for it.  A design-space sweep wants *hundreds* of
configurations over the same trace, and almost all of the per-config
work is redundant: the trace decode is identical, the value-predictor
pass is shared by every configuration whose predictor behaves the same
way, and the classifier pass is shared by every configuration that
additionally sizes the LCT the same way.  This module evaluates a
whole grid against one in-memory decode by factoring the annotation
data flow into three stages:

* **Stage A** (one run per distinct *predictor key*): replay the load
  stream through the value predictor, recording for every dynamic load
  whether the prediction would have been correct (``would_hit``) and
  the LVPT index at event time (the CVU pair key's second half --
  snapshotted per event, which matters for gshare indexing where the
  index moves with the branch history).  Predictor training is
  unconditional and independent of the LCT/CVU, so this stream is
  exact for every configuration sharing the predictor key.  The key
  is canonical (:func:`predictor_key`): every MRU-selection history
  table maps to depth 1, and last-N at depth 1 to last-value.
* **Stage B** (one run per distinct predictor x LCT key): evolve the
  LCT's saturating counters from the ``would_hit`` stream, recording
  each load's classification.  The LCT trains on ground truth alone,
  so its evolution is independent of the CVU.
* **Stage C** (one replay per stage-B key and CVU capacity, shared
  further where provably equal): simulate the CVU CAM over the
  constant-classified loads interleaved with the store stream, and
  assemble the full per-load outcomes and
  :class:`~repro.lvp.unit.LVPStats` -- bit-identical to a standalone
  :func:`~repro.trace.annotate.annotate_trace` run of that
  configuration (the differential suite in
  ``tests/harness/test_sweep.py`` holds this cell by cell).  A replay
  that never evicted also stands for every larger capacity.

Every predictor family -- the paper's LVPT under MRU or perfect
selection, pc- or gshare-indexed, tagged or not, and the stride, FCM,
last-N and hybrid families -- runs as one vectorized stage-A pass with
no per-load Python loop.  ``docs/sweep.md`` ("What shares a pass")
lists the sharing rules.

The stage machinery itself lives in :mod:`repro.trace.kernels` (shared
with the standard ``annotate_trace`` path's ``vector`` kernel); this
module keeps the grid planning, sharding, journalling, and exhibit
rendering on top of it.

``run_sweep`` produces and decodes the trace once per call and
evaluates every chunk of the grid against that decode and one shared
:class:`StageMemo`.  On more than one CPU the chunks are cut into one
contiguous share per computing process: this process evaluates the
first, and a forked child (:mod:`repro.harness.children`) each of the
others with the trace, decode and memo it inherits; results merge back
in grid order.  Every chunk is journalled write-ahead under
``.repro/sweeps/<run-id>/`` -- a finished chunk as one ``done`` record
carrying its cells -- so an interrupted sweep resumes with ``repro
sweep --resume`` without recomputing finished chunks
(:class:`SweepJournal`, the chunk kind of
:class:`repro.harness.journal.Journal`).
"""

from __future__ import annotations

import functools
import os
import pathlib
import time
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from repro.errors import ConfigError, JournalError
from repro.harness.children import Children, computing_processes
from repro.harness.journal import Journal, _sha256
from repro.lvp.config import LVPConfig
from repro.lvp.unit import LVPStats
from repro.trace.kernels import (
    LctContext,
    SweepEvents,
    decode_events,
    run_stage_a,
    run_stage_b,
    run_stage_c,
)
from repro.trace.records import Trace

#: Sweep document schema identifier.
SWEEP_SCHEMA_ID = "repro.sweep/v1"

#: Where sweep run directories live (separate from experiment runs so
#: the two LATEST pointers and pruning policies never interact).
SWEEP_RUNS_DIR_ENV = "REPRO_SWEEP_RUNS_DIR"
DEFAULT_SWEEP_RUNS_DIR = os.path.join(".repro", "sweeps")

#: Default configurations per worker chunk.
DEFAULT_CHUNK_SIZE = 16


def sweep_runs_dir_from_env(default: Optional[str] = None) -> pathlib.Path:
    """The configured sweep-runs directory (``REPRO_SWEEP_RUNS_DIR``)."""
    return pathlib.Path(
        os.environ.get(SWEEP_RUNS_DIR_ENV) or default
        or DEFAULT_SWEEP_RUNS_DIR)


# ---------------------------------------------------------------------------
# Stage keys.
# ---------------------------------------------------------------------------
def predictor_key(config: LVPConfig) -> tuple:
    """The stage-A sharing key: fields the value predictor depends on.

    Canonical, so configurations that provably predict alike share one
    stage-A pass (and hence one stage-B pass and CVU replays):

    * fields a family ignores are dropped (selection for stride, say);
    * MRU selection maps to depth 1 at every depth, for both index
      modes, tagged or not: an MRU entry's head is always the last
      value written to it, so a depth-N table hits exactly when a
      depth-1 table does (and the CVU key -- word, index -- does not
      depend on the depth);
    * at depth 1 the selection policy is irrelevant (a one-element
      history makes "any stored value" and "the MRU value" the same
      predicate);
    * last-N at depth 1 votes over one value: the last-value key.
    """
    if config.predictor == "history":
        if config.selection == "mru" or config.history_depth == 1:
            depth, selection = 1, "mru"
        else:
            depth, selection = config.history_depth, config.selection
        if config.index_mode == "gshare":
            return ("history", config.lvpt_entries, depth, selection,
                    config.lvpt_tagged, "gshare", config.ghr_bits)
        return ("history", config.lvpt_entries, depth, selection,
                config.lvpt_tagged, "pc", 0)
    if config.predictor == "lastn" and config.history_depth == 1:
        return ("history", config.lvpt_entries, 1, "mru", False, "pc", 0)
    depth = config.history_depth \
        if config.predictor in ("fcm", "lastn") else 1
    return (config.predictor, config.lvpt_entries, depth,
            "mru", False, "pc", 0)


def lct_key(config: LVPConfig) -> tuple:
    """The stage-B sharing key: predictor key + LCT shape."""
    return predictor_key(config) + (config.lct_entries, config.lct_bits)


# ---------------------------------------------------------------------------
# The batched evaluator.
# ---------------------------------------------------------------------------
@dataclass
class SweepCell:
    """One configuration's complete sweep result."""

    config: LVPConfig
    stats: LVPStats
    outcome_digest: str
    #: Full per-record outcome array (kept only on request: the
    #: differential suite compares it against annotate_trace).
    outcomes: Optional[np.ndarray] = None

    def as_dict(self) -> dict:
        """The JSON-able cell record the sweep document carries."""
        config = self.config
        return {
            "name": config.name,
            "predictor": config.predictor,
            "lvpt_entries": config.lvpt_entries,
            "history_depth": config.history_depth,
            "selection": config.selection,
            "lct_entries": config.lct_entries,
            "lct_bits": config.lct_bits,
            "cvu_entries": config.cvu_entries,
            "index_mode": config.index_mode,
            "ghr_bits": config.ghr_bits,
            "lvpt_tagged": config.lvpt_tagged,
            "outcome_digest": self.outcome_digest,
            "accuracy": round(self.stats.prediction_accuracy, 6),
            "constant_fraction": round(self.stats.constant_fraction, 6),
            "predictable_identified":
                round(self.stats.predictable_identified, 6),
            "unpredictable_identified":
                round(self.stats.unpredictable_identified, 6),
            "counters": self.stats.counters(),
        }


@dataclass
class _Replay:
    """One stage-C replay, kept for the capacities it stands for: its
    own, and every capacity at or above ``peak`` when it never evicted
    (``peak`` None)."""

    capacity: int
    peak: Optional[int]
    stats: LVPStats
    digest: str
    outcomes: Optional[np.ndarray]

    def serves(self, capacity: int, keep_outcomes: bool) -> bool:
        if keep_outcomes and self.outcomes is None:
            return False
        return capacity == self.capacity or (
            self.peak is not None and self.peak <= capacity)

    def cell(self, config: LVPConfig) -> SweepCell:
        """A cell for *config* owning its own copies of the results."""
        stats = replace(self.stats, outcomes=dict(self.stats.outcomes))
        outcomes = None if self.outcomes is None else self.outcomes.copy()
        return SweepCell(config=config, stats=stats,
                         outcome_digest=self.digest, outcomes=outcomes)


class StageMemo:
    """Stage-A/B/C results over one trace decode, shareable across
    :func:`evaluate_configs` calls.

    The memo carries the decode its passes were computed from (which in
    turn memoizes each table size's load grouping), and
    ``evaluate_configs`` evaluates against that decode.  ``run_sweep``
    shares one memo across every chunk of a run, so the chunk size sets
    only how often the journal records finished work, not how much work
    is shared.  Stage C is kept per stage-B key as the list of CVU replays
    run so far (see :func:`~repro.trace.kernels.run_stage_c` for when
    one replay serves several capacities).
    """

    def __init__(self, events: SweepEvents) -> None:
        self.events = events
        self.stage_a: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}
        self.stage_b: dict[tuple, LctContext] = {}
        self.stage_c: dict[tuple, list[_Replay]] = {}

    def retain(self, configs: Sequence[LVPConfig]) -> None:
        """Drop every pass no configuration in *configs* reuses.

        ``plan_chunks`` orders the grid by stage-B key (whose prefix is
        the stage-A key), so when chunks run in plan order a key one
        chunk does not use is never used by a later one: retaining each
        chunk's keys before it runs bounds the memo to one chunk's
        passes without recomputing any.
        """
        akeys = {predictor_key(config) for config in configs}
        bkeys = {lct_key(config) for config in configs}
        self.stage_a = {key: value for key, value in self.stage_a.items()
                        if key in akeys}
        self.stage_b = {key: value for key, value in self.stage_b.items()
                        if key in bkeys}
        self.stage_c = {key: value for key, value in self.stage_c.items()
                        if key in bkeys}


def evaluate_configs(trace: Trace, configs: Sequence[LVPConfig],
                     keep_outcomes: bool = False,
                     memo: Optional[StageMemo] = None,
                     ) -> list[SweepCell]:
    """Evaluate every configuration in *configs* over one trace decode.

    Returns cells in *configs* order, each bit-identical (outcomes and
    statistics) to ``annotate_trace(trace, config)``.  Perfect-oracle
    and profile-filtered configurations are outside the sweep's factored
    data flow and are rejected.  *memo* supplies a decode of *trace* and
    reuses (and extends) the stage passes of earlier calls.
    """
    for config in configs:
        if config.perfect or config.profile_filter is not None:
            raise ConfigError(
                f"{config.name}: perfect/profile-filtered configurations "
                "cannot be swept (use annotate_trace)")
    if memo is None:
        needs_branches = any(c.index_mode == "gshare" for c in configs)
        memo = StageMemo(decode_events(trace, branches=needs_branches))
    events = memo.events
    stage_a, stage_b, stage_c = memo.stage_a, memo.stage_b, memo.stage_c
    cells: list[SweepCell] = []
    for config in configs:
        akey = predictor_key(config)
        a_entry = stage_a.get(akey)
        if a_entry is None:
            a_entry = stage_a[akey] = run_stage_a(events, config)
        hits, idxs = a_entry
        bkey = lct_key(config)
        context = stage_b.get(bkey)
        if context is None:
            classes = run_stage_b(events, hits, config.lct_entries,
                                  config.lct_bits)
            context = stage_b[bkey] = LctContext(hits, classes)
        replays = stage_c.setdefault(bkey, [])
        capacity = config.cvu_entries
        for replay in replays:
            if replay.serves(capacity, keep_outcomes):
                break
        else:
            full, stats, peak = run_stage_c(events, hits, idxs, context,
                                            config)
            replay = _Replay(capacity, peak, stats,
                             _sha256(np.ascontiguousarray(full).tobytes()),
                             full if keep_outcomes else None)
            replays.append(replay)
        cells.append(replay.cell(config))
    return cells


# ---------------------------------------------------------------------------
# Chunking.
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class _SweepChunkSpec:
    """One chunk of the grid."""

    chunk_id: int
    configs: tuple[LVPConfig, ...]


def _evaluate_chunk(trace: Trace, memo: StageMemo,
                    spec: _SweepChunkSpec) -> list[dict]:
    """One chunk's cells as JSON-able dicts, against the shared memo."""
    memo.retain(spec.configs)
    return [cell.as_dict()
            for cell in evaluate_configs(trace, spec.configs, memo=memo)]


def plan_chunks(configs: Sequence[LVPConfig],
                chunk_size: int = DEFAULT_CHUNK_SIZE) -> list[tuple[int, ...]]:
    """Partition grid indices into chunks.

    Configurations are grouped by their canonical stage-B key before
    splitting, so a chunk's members share stage passes instead of
    scattering one predictor family across every chunk (and
    :meth:`StageMemo.retain` holds at most one chunk's passes).
    Returns tuples of indices into *configs*; deterministic for a given
    grid (a resumed sweep checks each journalled chunk's cell names
    against its chunk of this plan).
    """
    order = sorted(range(len(configs)),
                   key=lambda i: (lct_key(configs[i]), i))
    size = max(1, int(chunk_size))
    return [tuple(order[start:start + size])
            for start in range(0, len(order), size)]


def _run_shares(trace: Trace, memo: StageMemo,
                todo: list[_SweepChunkSpec], processes: int,
                observer: "SweepObserver", finish: Callable) -> None:
    """Evaluate *todo* in *processes* contiguous shares: this process
    the first, a forked child each other.  All chunks are reported
    started at once, each share's finished as one batch in plan order;
    a failed child's share is evaluated here."""
    bounds = [len(todo) * k // processes for k in range(processes + 1)]
    shares = [todo[a:b] for a, b in zip(bounds, bounds[1:])]
    children = Children(processes)

    def evaluate(share: list[_SweepChunkSpec]) -> list[list[dict]]:
        return [_evaluate_chunk(trace, memo, spec) for spec in share]

    observer.chunk_started(*todo)
    try:
        forked = [(share, children.fork(
            "sweep", functools.partial(evaluate, share), 0.0))
            for share in shares[1:]]
        finish(shares[0], evaluate(shares[0]))
        for share, child in forked:
            children.settle(child)
            payloads = child.result
            if payloads is None:
                children.rerun_inline()
                payloads = evaluate(share)
            finish(share, payloads)
    finally:
        children.close()


class SweepObserver:
    """Parent-side progress hooks (the sweep journal implements these)."""

    def chunk_started(self, *specs: _SweepChunkSpec) -> None:
        """*specs* are about to run (forked, or in this process)."""

    def chunk_finished(self, *finished: tuple[_SweepChunkSpec,
                                              list[dict]]) -> None:
        """Each ``(spec, cells)`` in *finished* completed; *cells* is
        its full payload."""


def run_sweep(bench: str, configs: Sequence[LVPConfig], *,
              target: str = "ppc", scale: str = "small",
              jobs: int = 1, cache_dir: Optional[str] = None,
              chunk_size: int = DEFAULT_CHUNK_SIZE,
              observer: Optional[SweepObserver] = None,
              preloaded: Optional[dict] = None,
              progress: Optional[Callable[[str], None]] = None) -> dict:
    """Evaluate *configs* over *bench*'s trace; returns the sweep document.

    The trace is produced once per call (simulated, sentinel-checked
    and verified by one :class:`~repro.harness.session.Session`, or
    read from the trace cache) and decoded once; every chunk evaluates
    against that decode and one shared :class:`StageMemo`.  The chunks
    left to run are cut into contiguous shares, one per computing
    process (*jobs*, or every usable CPU at ``jobs=1``): this process
    evaluates the first and a forked child that inherits the trace,
    decode and memo each of the others.  Results merge in grid order,
    so the document is bit-identical to a serial run; its ``jobs``
    counts the processes that computed.
    ``preloaded`` maps chunk ids to already-computed cell payloads
    (from a resumed sweep journal): those chunks are not re-run, and
    if none is left the trace is never produced.  A payload whose cell
    names differ from its chunk's planned configurations is ignored
    and the chunk re-run.
    """
    observer = observer or SweepObserver()
    chunks = plan_chunks(configs, chunk_size)
    specs = [
        _SweepChunkSpec(chunk_id=i,
                        configs=tuple(configs[j] for j in indices))
        for i, indices in enumerate(chunks)
    ]
    # A journalled chunk stands in for its chunk only if it holds exactly
    # the planned cells, in order.  One written under another chunk order
    # (an older planner, say) would otherwise land its cells on the
    # wrong grid rows; such a chunk is recomputed instead.
    journalled, preloaded = preloaded or {}, {}
    for spec in specs:
        cells = journalled.get(spec.chunk_id)
        if cells is not None and [cell.get("name") for cell in cells] \
                == [config.name for config in spec.configs]:
            preloaded[spec.chunk_id] = cells
    todo = [spec for spec in specs if spec.chunk_id not in preloaded]
    payloads: dict[int, list[dict]] = dict(preloaded)
    processes = min(computing_processes(jobs), len(todo))
    start = time.perf_counter()

    def _finish(share: list[_SweepChunkSpec],
                share_cells: list[list[dict]]) -> None:
        observer.chunk_finished(*zip(share, share_cells))
        for spec, cells in zip(share, share_cells):
            payloads[spec.chunk_id] = cells
            if progress is not None:
                progress(f"chunk {spec.chunk_id + 1}/{len(specs)}: "
                         f"{len(cells)} configs")

    if todo:
        from repro.harness.session import Session
        session = Session(scale=scale, benchmarks=(bench,),
                          cache_dir=cache_dir, metrics=False)
        trace = session.trace(bench, target)
        branches = any(config.index_mode == "gshare"
                       for spec in todo for config in spec.configs)
        memo = StageMemo(decode_events(trace, branches=branches))
        if processes == 1:
            for spec in todo:
                observer.chunk_started(spec)
                _finish([spec], [_evaluate_chunk(trace, memo, spec)])
        else:
            _run_shares(trace, memo, todo, processes, observer, _finish)

    # Merge back into grid order (never completion order).
    by_index: dict[int, dict] = {}
    for chunk_id, indices in enumerate(chunks):
        cells = payloads[chunk_id]
        for j, cell in zip(indices, cells):
            by_index[j] = cell
    return {
        "schema": SWEEP_SCHEMA_ID,
        "bench": bench,
        "target": target,
        "scale": scale,
        "configs": len(configs),
        "jobs": processes,
        "wall_s": round(time.perf_counter() - start, 4),
        "cells": [by_index[i] for i in range(len(configs))],
    }


# ---------------------------------------------------------------------------
# The sweep journal (write-ahead, resumable).
# ---------------------------------------------------------------------------
class SweepJournal(Journal, SweepObserver):
    """The sweep's journal (:class:`~repro.harness.journal.Journal`):
    one unit per grid chunk, whose ``done`` record carries the chunk's
    canonical JSON cells inline (the line's CRC-32 protects them)."""

    UNIT = "chunk"
    IDENTITY = ("version", "bench", "target", "scale", "config_names",
                "chunks", "chunk_size")
    NOUN = "sweep"

    def _planned_units(self):
        return range(self.manifest.get("chunks", 0))

    @property
    def resume_command(self) -> str:
        return (f"repro sweep {self.manifest.get('bench')} "
                f"--resume {self.run_id}")

    def load_cells(self) -> dict[int, list[dict]]:
        """Chunk -> cells of every completed chunk.  A ``done`` record
        without cells (one a sweep wrote when cells lived in checkpoint
        files) counts as not done: its chunk is recomputed."""
        return {chunk: record["cells"]
                for chunk, record in self.completed().items()
                if isinstance(record.get("cells"), list)}

    # -- observer hooks ------------------------------------------------------
    def chunk_started(self, *specs: _SweepChunkSpec) -> None:
        self.append(*({"type": "started", "chunk": spec.chunk_id,
                       "configs": len(spec.configs)} for spec in specs))

    def chunk_finished(self, *finished: tuple[_SweepChunkSpec,
                                              list[dict]]) -> None:
        self._done(*({"type": "done", "chunk": spec.chunk_id,
                      "cells": cells} for spec, cells in finished))


def build_sweep_manifest(bench: str, target: str, scale: str,
                         configs: Sequence[LVPConfig],
                         chunk_size: int, jobs: int,
                         cache_dir: Optional[str] = None) -> dict:
    """The manifest for a fresh journaled sweep."""
    from repro import __version__
    return {
        "version": __version__,
        "kind": "sweep",
        "bench": bench,
        "target": target,
        "scale": scale,
        "config_names": [config.name for config in configs],
        "chunks": len(plan_chunks(configs, chunk_size)),
        "chunk_size": int(chunk_size),
        "jobs": int(jobs),
        "cache_dir": cache_dir,
    }


def run_journaled_sweep(bench: str, configs: Sequence[LVPConfig], *,
                        journal: SweepJournal, target: str = "ppc",
                        scale: str = "small", jobs: int = 1,
                        cache_dir: Optional[str] = None,
                        resume: bool = False,
                        progress: Optional[Callable[[str], None]] = None,
                        ) -> dict:
    """Run (or resume) one journaled sweep; returns the sweep document."""
    manifest = journal.manifest
    if resume:
        names = [config.name for config in configs]
        if names != manifest.get("config_names"):
            raise JournalError(
                f"sweep run {journal.run_id!r} was recorded over a "
                "different grid; start a fresh sweep")
    preloaded = journal.load_cells() if resume else {}
    document = run_sweep(
        bench, configs, target=target, scale=scale, jobs=jobs,
        cache_dir=cache_dir,
        chunk_size=int(manifest.get("chunk_size", DEFAULT_CHUNK_SIZE)),
        observer=journal, preloaded=preloaded, progress=progress)
    document["run_id"] = journal.run_id
    return document


# ---------------------------------------------------------------------------
# Sweep document validation + exhibits.
# ---------------------------------------------------------------------------
def validate_sweep(document: dict) -> list[str]:
    """Schema violations in a sweep document (empty = valid)."""
    errors: list[str] = []
    if document.get("schema") != SWEEP_SCHEMA_ID:
        errors.append(f"schema must be {SWEEP_SCHEMA_ID!r}, got "
                      f"{document.get('schema')!r}")
    cells = document.get("cells")
    if not isinstance(cells, list) or not cells:
        errors.append("cells must be a non-empty list")
        return errors
    if document.get("configs") != len(cells):
        errors.append(f"configs={document.get('configs')} does not match "
                      f"{len(cells)} cells")
    for i, cell in enumerate(cells):
        for key in ("name", "predictor", "lvpt_entries", "lct_entries",
                    "lct_bits", "cvu_entries", "outcome_digest",
                    "counters"):
            if key not in cell:
                errors.append(f"cell {i} is missing {key!r}")
                break
    return errors


def _family(cell: dict) -> str:
    if cell["index_mode"] == "gshare":
        return "gshare"
    if cell.get("selection") == "perfect":
        return "history/oracle"
    return cell["predictor"]


def render_sweep(document: dict, top: int = 10) -> str:
    """Human-readable sweep summary: headline + the best cells."""
    from repro.analysis.report import TextTable
    cells = document["cells"]
    # No wall time or job count here: sweep stdout must stay
    # byte-identical across serial, parallel, and resumed runs (the
    # timing goes to stderr, like experiment runs).
    lines = [
        f"sweep of {document['bench']} ({document['target']}, "
        f"{document['scale']}): {document['configs']} configurations"
    ]
    table = TextTable(
        ["config", "family", "accuracy", "const frac", "no-pred"],
        title=f"Top {min(top, len(cells))} configurations by accuracy")
    ranked = sorted(cells, key=lambda c: (-c["accuracy"], c["name"]))
    for cell in ranked[:top]:
        counters = cell["counters"]
        loads = counters["loads"] or 1
        table.add_row([
            cell["name"], _family(cell),
            f"{cell['accuracy']:.4f}",
            f"{cell['constant_fraction']:.4f}",
            f"{counters['no_prediction'] / loads:.4f}",
        ])
    lines.append(table.render())
    return "\n".join(lines)


def render_table3_family(document: dict) -> str:
    """Paper Table 3 family: LCT identification rates across LCT shapes.

    One row per (predictor family, LCT entries, LCT bits), averaged
    over the grid cells sharing that classifier shape.
    """
    from repro.analysis.report import TextTable
    groups: dict[tuple, list[dict]] = {}
    for cell in document["cells"]:
        key = (_family(cell), cell["lct_entries"], cell["lct_bits"])
        groups.setdefault(key, []).append(cell)
    table = TextTable(
        ["family", "LCT entries", "bits", "pred. identified",
         "unpred. identified", "cells"],
        title="LCT classification accuracy by classifier shape "
              "(Table 3 family)")
    for key in sorted(groups):
        cells = groups[key]
        pred = sum(c["predictable_identified"] for c in cells)
        unpred = sum(c["unpredictable_identified"] for c in cells)
        family, entries, bits = key
        table.add_row([
            family, entries, bits,
            f"{pred / len(cells):.4f}",
            f"{unpred / len(cells):.4f}",
            len(cells),
        ])
    return table.render()


def render_table4_family(document: dict) -> str:
    """Paper Table 4 family: constant fraction across CVU capacities."""
    from repro.analysis.report import TextTable
    groups: dict[tuple, list[dict]] = {}
    for cell in document["cells"]:
        key = (_family(cell), cell["lct_bits"], cell["cvu_entries"])
        groups.setdefault(key, []).append(cell)
    table = TextTable(
        ["family", "LCT bits", "CVU entries", "constant fraction",
         "stale hits", "cells"],
        title="Constant-load fraction by CVU capacity (Table 4 family)")
    for key in sorted(groups):
        cells = groups[key]
        fraction = sum(c["constant_fraction"] for c in cells) / len(cells)
        stale = sum(c["counters"]["cvu_stale_hits"] for c in cells)
        family, bits, cvu = key
        table.add_row([family, bits, cvu, f"{fraction:.4f}", stale,
                       len(cells)])
    return table.render()


def render_figure6_family(document: dict) -> str:
    """Paper Figure 6 family: accuracy versus LVPT capacity per family."""
    from repro.analysis.report import TextTable
    groups: dict[tuple, list[dict]] = {}
    for cell in document["cells"]:
        key = (_family(cell), cell["history_depth"], cell["lvpt_entries"])
        groups.setdefault(key, []).append(cell)
    table = TextTable(
        ["family", "depth", "LVPT entries", "accuracy", "coverage",
         "cells"],
        title="Prediction accuracy by LVPT capacity (Figure 6 family)")
    for key in sorted(groups):
        cells = groups[key]
        accuracy = sum(c["accuracy"] for c in cells) / len(cells)
        attempted = loads = 0
        for cell in cells:
            counters = cell["counters"]
            attempted += (counters["predicted_correct"]
                          + counters["constant_loads"]
                          + counters["mispredicts"])
            loads += counters["loads"]
        family, depth, entries = key
        table.add_row([
            family, depth, entries, f"{accuracy:.4f}",
            f"{attempted / loads:.4f}" if loads else "0.0000",
            len(cells),
        ])
    return table.render()


def render_exhibits(document: dict) -> str:
    """All three paperlike sensitivity exhibits."""
    return "\n\n".join([
        render_figure6_family(document),
        render_table3_family(document),
        render_table4_family(document),
    ])

