"""One-pass design-space sweep engine (``repro sweep``).

One ``annotate_trace`` call evaluates one LVP configuration and pays
the full trace walk for it.  A design-space sweep wants *hundreds* of
configurations over the same trace, and almost all of the per-config
work is redundant: the trace decode is identical, the value-predictor
pass is shared by every configuration that sizes the predictor the
same way, and the classifier pass is shared by every configuration
that additionally sizes the LCT the same way.  This module evaluates a
whole grid against one in-memory decode by factoring the annotation
data flow into three stages:

* **Stage A** (one run per distinct *predictor key*): replay the load
  stream through the value predictor, recording for every dynamic load
  whether the prediction would have been correct (``would_hit``) and
  the LVPT index at event time (the CVU pair key's second half --
  snapshotted per event, which matters for gshare indexing where the
  index moves with the branch history).  Predictor training is
  unconditional and independent of the LCT/CVU, so this stream is
  exact for every configuration sharing the predictor shape.
* **Stage B** (one run per distinct predictor x LCT key): evolve the
  LCT's saturating counters from the ``would_hit`` stream, recording
  each load's classification.  The LCT trains on ground truth alone,
  so its evolution is independent of the CVU.
* **Stage C** (one run per configuration): simulate the CVU CAM over
  the constant-classified loads interleaved with the store stream, and
  assemble the full per-load outcomes and
  :class:`~repro.lvp.unit.LVPStats` -- bit-identical to a standalone
  :func:`~repro.trace.annotate.annotate_trace` run of that
  configuration (the differential suite in
  ``tests/harness/test_sweep.py`` holds this cell by cell).

Stage A has inlined fast paths for the common predictor shapes (the
same trick, and the same differential obligation, as the monomorphic
annotation kernel): depth-1 last-value prediction is fully vectorized,
and the stride/FCM/last-N/hybrid families run as flat loops over table
lists instead of per-load method dispatch.  Unusual shapes (tagged,
gshare) fall back to the real predictor objects via
:func:`~repro.lvp.unit.build_predictor`, which also guarantees any
future family works unoptimized before it works fast.

The stage machinery itself lives in :mod:`repro.trace.kernels` (shared
with the standard ``annotate_trace`` path's ``vector`` kernel); this
module keeps the grid planning, sharding, journalling, and exhibit
rendering on top of it.

``run_sweep`` produces and decodes the trace once per call and
evaluates every chunk of the grid against that decode and one shared
:class:`StageMemo`.  Chunks shard across worker processes (each worker
receives the trace once, through the pool initializer; results merge
back in deterministic grid order), and every chunk is journalled
write-ahead under ``.repro/sweeps/<run-id>/`` so an interrupted sweep
resumes with ``repro sweep --resume`` without recomputing finished
chunks (same manifest/journal/checkpoint pattern
as :mod:`repro.harness.journal`, JSON checkpoints instead of pickles).

``run_sweep_bench`` measures the shared-decode speedup against
per-configuration :func:`annotate_trace` runs of the same grid and
writes/validates/compares the committed ``BENCH_SWEEP.json`` baseline
(see ``docs/sweep.md``).
"""

from __future__ import annotations

import json
import os
import pathlib
import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from repro.errors import ConfigError, JournalError
from repro.harness.journal import (
    CRASH_AFTER_ENV,
    _encode_record,
    _sha256,
    find_run,
    new_run_id,
    publish_latest,
    replay_journal,
    trace_digest,
)
from repro.lvp.config import LVPConfig
from repro.lvp.unit import LVPStats
from repro.trace.kernels import (
    LctContext,
    SweepEvents,
    decode_events,
    pc_indices,
    run_stage_a,
    run_stage_b,
    run_stage_c,
)
from repro.trace.records import Trace

#: Sweep document schema identifier.
SWEEP_SCHEMA_ID = "repro.sweep/v1"
#: Sweep benchmark (BENCH_SWEEP.json) schema identifier.
SWEEP_BENCH_SCHEMA_ID = "repro.sweep-bench/v1"

#: Where sweep run directories live (separate from experiment runs so
#: the two LATEST pointers and pruning policies never interact).
SWEEP_RUNS_DIR_ENV = "REPRO_SWEEP_RUNS_DIR"
DEFAULT_SWEEP_RUNS_DIR = os.path.join(".repro", "sweeps")

#: Default configurations per worker chunk.
DEFAULT_CHUNK_SIZE = 16

_MANIFEST = "manifest.json"
_JOURNAL = "journal.jsonl"
_CHECKPOINTS = "checkpoints"

_U64 = (1 << 64) - 1


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

    Canonicalized so configurations differing only in fields their
    predictor family ignores (selection for stride, say) share one
    stage-A pass.
    """
    if config.predictor == "history":
        if config.index_mode == "gshare":
            return ("history", config.lvpt_entries, config.history_depth,
                    config.selection, config.lvpt_tagged, "gshare",
                    config.ghr_bits)
        # At depth 1 the selection policy is irrelevant (a one-element
        # history makes "any stored value" and "the MRU value" the
        # same predicate), so both policies share one pass.
        selection = "mru" if config.history_depth == 1 else config.selection
        return ("history", config.lvpt_entries, config.history_depth,
                selection, config.lvpt_tagged, "pc", 0)
    depth = config.history_depth \
        if config.predictor in ("fcm", "lastn") else 1
    return (config.predictor, config.lvpt_entries, depth,
            "mru", False, "pc", 0)


def lct_key(config: LVPConfig) -> tuple:
    """The stage-B sharing key: predictor key + LCT shape."""
    return predictor_key(config) + (config.lct_entries, config.lct_bits)


# ---------------------------------------------------------------------------
# Stage C: the CVU pass + stats assembly.
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


def _stage_c(events: SweepEvents, hits, hit_list: list,
             idxs: list, context: LctContext, config: LVPConfig,
             keep_outcomes: bool) -> SweepCell:
    """Simulate the CVU and assemble one configuration's cell."""
    full, stats = run_stage_c(events, hits, hit_list, idxs, context,
                              config)
    digest = _sha256(np.ascontiguousarray(full).tobytes())
    return SweepCell(config=config, stats=stats, outcome_digest=digest,
                     outcomes=full if keep_outcomes else None)


# ---------------------------------------------------------------------------
# The batched evaluator.
# ---------------------------------------------------------------------------
class StageMemo:
    """Stage-A/B passes over one trace decode, shareable across
    :func:`evaluate_configs` calls.

    The memo carries the decode its passes were computed from, and
    ``evaluate_configs`` evaluates against that decode.  ``run_sweep`` shares one memo across every chunk
    of a run, so the chunk size sets only how often the journal
    checkpoints, not how much work is shared.
    """

    def __init__(self, events: SweepEvents) -> None:
        self.events = events
        self.stage_a: dict[tuple, tuple[np.ndarray, list, list]] = {}
        self.stage_b: dict[tuple, LctContext] = {}
        self.lct_indices: dict[int, np.ndarray] = {}

    def retain(self, configs: Sequence[LVPConfig]) -> None:
        """Drop every pass no configuration in *configs* reuses.

        ``plan_chunks`` orders the grid by stage-B key (whose prefix is
        the stage-A key), so when chunks run in plan order a key one
        chunk does not use is never used by a later one: retaining each
        chunk's keys before it runs bounds the memo to one chunk's
        passes without recomputing any.  Out of order (a pool worker's
        share of the chunks) a dropped pass may be recomputed, never
        wrong.
        """
        akeys = {predictor_key(config) for config in configs}
        bkeys = {lct_key(config) for config in configs}
        self.stage_a = {key: value for key, value in self.stage_a.items()
                        if key in akeys}
        self.stage_b = {key: value for key, value in self.stage_b.items()
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
    reuses (and extends) the stage-A/B passes of earlier calls.
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
    stage_a, stage_b, lct_indices = \
        memo.stage_a, memo.stage_b, memo.lct_indices
    cells: list[SweepCell] = []
    for config in configs:
        akey = predictor_key(config)
        a_entry = stage_a.get(akey)
        if a_entry is None:
            hits, idxs = run_stage_a(events, config)
            a_entry = stage_a[akey] = (hits, idxs, hits.tolist())
        hits, idxs, hit_list = a_entry
        bkey = lct_key(config)
        context = stage_b.get(bkey)
        if context is None:
            lidx = lct_indices.get(config.lct_entries)
            if lidx is None:
                lidx = lct_indices[config.lct_entries] = pc_indices(
                    events.load_pcs_np, config.lct_entries)
            classes = run_stage_b(events, hit_list, config.lct_entries,
                                  config.lct_bits, lidx, hits_np=hits)
            context = stage_b[bkey] = LctContext(hits, classes)
        cells.append(_stage_c(events, hits, hit_list, idxs, context,
                              config, keep_outcomes))
    return cells


# ---------------------------------------------------------------------------
# Sharding across worker processes.
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class _SweepChunkSpec:
    """Everything a worker needs to evaluate one chunk of the grid."""

    chunk_id: int
    configs: tuple[LVPConfig, ...]


def _evaluate_chunk(trace: Trace, memo: StageMemo,
                    spec: _SweepChunkSpec) -> list[dict]:
    """One chunk's cells as JSON-able dicts, against the shared memo."""
    memo.retain(spec.configs)
    return [cell.as_dict()
            for cell in evaluate_configs(trace, spec.configs, memo=memo)]


#: Per-worker sweep state, set once by the pool initializer: the trace
#: and, from the first chunk on, its decode's stage memo.
_WORKER: dict = {}


def _init_sweep_worker(trace: Trace, branches: bool) -> None:
    """Pool initializer: receive the parent's trace once per worker."""
    _WORKER.clear()
    _WORKER.update(trace=trace, branches=branches)


def _run_sweep_chunk(spec: _SweepChunkSpec) -> list[dict]:
    """Worker entry point: one chunk against the worker's one decode.

    The trace is decoded on the first chunk; later chunks reuse the
    decode and the stage memo.
    """
    if "memo" not in _WORKER:
        trace = _WORKER["trace"]
        _WORKER["memo"] = StageMemo(
            decode_events(trace, branches=_WORKER["branches"]))
    return _evaluate_chunk(_WORKER["trace"], _WORKER["memo"], spec)


def plan_chunks(configs: Sequence[LVPConfig],
                chunk_size: int = DEFAULT_CHUNK_SIZE) -> list[tuple[int, ...]]:
    """Partition grid indices into worker chunks.

    Configurations are grouped by stage-B key before splitting, so a
    chunk's members share stage-A/B passes instead of scattering one
    predictor family across every worker.  Returns tuples of indices
    into *configs*; deterministic for a given grid (the sweep journal
    records the plan and resume verifies it).
    """
    order = sorted(range(len(configs)),
                   key=lambda i: (lct_key(configs[i]), i))
    size = max(1, int(chunk_size))
    return [tuple(order[start:start + size])
            for start in range(0, len(order), size)]


class SweepObserver:
    """Parent-side progress hooks (the sweep journal implements these)."""

    def chunk_started(self, spec: _SweepChunkSpec) -> None:
        """*spec* was handed to a worker (or the in-process runner)."""

    def chunk_finished(self, spec: _SweepChunkSpec,
                       cells: list[dict]) -> None:
        """*spec* completed; *cells* is its full payload."""


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
    against that decode and one shared :class:`StageMemo`.  ``jobs >
    1`` shards chunks across a process pool: the parent hands each
    worker the trace once, through the pool initializer, and each
    worker decodes it once.  Results merge in grid order, so the document is
    bit-identical to a serial run.  ``preloaded`` maps chunk ids to
    already-computed cell payloads (from a resumed sweep journal):
    those chunks are not re-run, and if none is left the trace is
    never produced.
    """
    observer = observer or SweepObserver()
    preloaded = dict(preloaded or {})
    chunks = plan_chunks(configs, chunk_size)
    specs = [
        _SweepChunkSpec(chunk_id=i,
                        configs=tuple(configs[j] for j in indices))
        for i, indices in enumerate(chunks)
    ]
    todo = [spec for spec in specs if spec.chunk_id not in preloaded]
    payloads: dict[int, list[dict]] = dict(preloaded)
    start = time.perf_counter()

    def _finish(spec: _SweepChunkSpec, cells: list[dict]) -> None:
        payloads[spec.chunk_id] = cells
        observer.chunk_finished(spec, cells)
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
        if jobs <= 1 or len(todo) == 1:
            memo = StageMemo(decode_events(trace, branches=branches))
            for spec in todo:
                observer.chunk_started(spec)
                _finish(spec, _evaluate_chunk(trace, memo, spec))
        else:
            # Each worker receives the trace once, through the pool
            # initializer.
            from concurrent.futures import ProcessPoolExecutor, as_completed
            with ProcessPoolExecutor(
                    max_workers=min(jobs, len(todo)),
                    initializer=_init_sweep_worker,
                    initargs=(trace, branches)) as pool:
                futures = {}
                for spec in todo:
                    observer.chunk_started(spec)
                    futures[pool.submit(_run_sweep_chunk, spec)] = spec
                for future in as_completed(futures):
                    _finish(futures[future], future.result())

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
        "jobs": int(jobs),
        "wall_s": round(time.perf_counter() - start, 4),
        "cells": [by_index[i] for i in range(len(configs))],
    }


# ---------------------------------------------------------------------------
# The sweep journal (write-ahead, resumable).
# ---------------------------------------------------------------------------
class SweepJournal(SweepObserver):
    """Write-ahead journal for one sweep run directory.

    Same contract as :class:`~repro.harness.journal.RunJournal`, scoped
    to sweep chunks: a chunk is recorded ``planned`` before any worker
    sees it, ``started`` when handed out, and ``done`` only after its
    cell payload is durably checkpointed (JSON, digest-verified on
    resume).  ``REPRO_JOURNAL_CRASH_AFTER=<k>`` hard-exits the parent
    after the k-th checkpoint, same chaos knob as experiment runs.
    """

    def __init__(self, directory, manifest: dict) -> None:
        self.directory = pathlib.Path(directory)
        self.manifest = manifest
        self._checkpoints_done = 0
        try:
            self._crash_after: Optional[int] = max(
                1, int(os.environ[CRASH_AFTER_ENV]))
        except (KeyError, ValueError):
            self._crash_after = None

    @classmethod
    def create(cls, runs_dir, run_id: str, manifest: dict) -> "SweepJournal":
        directory = pathlib.Path(runs_dir) / run_id
        directory.mkdir(parents=True, exist_ok=True)
        (directory / _CHECKPOINTS).mkdir(exist_ok=True)
        manifest = dict(manifest, run_id=run_id,
                        fingerprint=cls.fingerprint(manifest))
        temporary = directory / (_MANIFEST + ".tmp")
        temporary.write_text(json.dumps(manifest, indent=2, sort_keys=True))
        temporary.replace(directory / _MANIFEST)
        publish_latest(runs_dir, run_id)
        journal = cls(directory, manifest)
        journal.append({"type": "run_started", "run_id": run_id})
        for chunk_id in range(manifest.get("chunks", 0)):
            journal.append({"type": "planned", "chunk": chunk_id})
        return journal

    @classmethod
    def open(cls, runs_dir, run_id: str) -> "SweepJournal":
        directory = find_run(runs_dir, run_id)
        try:
            manifest = json.loads((directory / _MANIFEST).read_text())
        except (OSError, ValueError) as exc:
            raise JournalError(
                f"unreadable manifest in {directory}: {exc}") from exc
        journal = cls(directory, manifest)
        journal.verify_manifest()
        return journal

    @staticmethod
    def fingerprint(manifest: dict) -> str:
        identity = {key: manifest.get(key)
                    for key in ("version", "bench", "target", "scale",
                                "config_names", "chunks", "chunk_size")}
        return _sha256(json.dumps(identity, sort_keys=True).encode())

    def verify_manifest(self) -> None:
        from repro import __version__
        recorded = self.manifest.get("version")
        if recorded != __version__:
            raise JournalError(
                f"sweep run {self.run_id!r} was recorded by repro "
                f"{recorded}, this is {__version__}: start a fresh sweep")
        expected = self.manifest.get("fingerprint")
        if expected and expected != self.fingerprint(self.manifest):
            raise JournalError(
                f"manifest of sweep run {self.run_id!r} does not match "
                "its fingerprint (edited by hand?); refusing to resume")

    @property
    def run_id(self) -> str:
        return self.manifest.get("run_id", self.directory.name)

    @property
    def journal_path(self) -> pathlib.Path:
        return self.directory / _JOURNAL

    def append(self, record: dict) -> None:
        line = _encode_record(record)
        fd = os.open(self.journal_path,
                     os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            os.write(fd, line)
            try:
                os.fsync(fd)
            except OSError:
                pass
        finally:
            os.close(fd)

    # -- observer hooks ------------------------------------------------------
    def chunk_started(self, spec: _SweepChunkSpec) -> None:
        self.append({"type": "started", "chunk": spec.chunk_id,
                     "configs": len(spec.configs)})

    def chunk_finished(self, spec: _SweepChunkSpec,
                       cells: list[dict]) -> None:
        path = self.directory / _CHECKPOINTS / f"chunk-{spec.chunk_id}.json"
        payload = json.dumps(cells, sort_keys=True,
                             separators=(",", ":")).encode()
        temporary = path.with_suffix(".tmp")
        fd = os.open(temporary, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        try:
            os.write(fd, payload)
            try:
                os.fsync(fd)
            except OSError:
                pass
        finally:
            os.close(fd)
        temporary.replace(path)
        self.append({"type": "done", "chunk": spec.chunk_id,
                     "digest": _sha256(payload)})
        self._checkpoints_done += 1
        if (self._crash_after is not None
                and self._checkpoints_done >= self._crash_after):
            import contextlib
            import multiprocessing
            for child in multiprocessing.active_children():
                with contextlib.suppress(Exception):
                    child.terminate()
            os._exit(23)

    def finished(self, exit_code: int) -> None:
        self.append({"type": "run_finished", "exit": int(exit_code)})

    def interrupted(self, signum: int) -> None:
        self.append({"type": "interrupted", "signal": int(signum)})

    # -- resumption ----------------------------------------------------------
    def load_checkpoints(self) -> dict[int, list[dict]]:
        """Verified cell payloads of every completed chunk."""
        done: dict[int, str] = {}
        if self.journal_path.exists():
            for record in replay_journal(self.journal_path):
                if record.get("type") == "done":
                    done[int(record["chunk"])] = record.get("digest", "")
        loaded: dict[int, list[dict]] = {}
        for chunk_id, digest in done.items():
            path = self.directory / _CHECKPOINTS / f"chunk-{chunk_id}.json"
            try:
                payload = path.read_bytes()
            except OSError:
                continue
            if _sha256(payload) != digest:
                continue
            try:
                loaded[chunk_id] = json.loads(payload)
            except ValueError:
                continue
        return loaded


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
    preloaded = journal.load_checkpoints() if resume else {}
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


# ---------------------------------------------------------------------------
# BENCH_SWEEP.json: the shared-decode speedup benchmark.
# ---------------------------------------------------------------------------
def run_sweep_bench(bench: str = "compress", scale: str = "tiny",
                    target: str = "ppc", configs: int = 100,
                    baseline_sample: int = 20,
                    progress: Optional[Callable[[str], None]] = None,
                    ) -> dict:
    """Measure the sweep's shared-decode speedup; returns the document.

    The baseline is per-configuration :func:`annotate_trace` over the
    same trace (each call re-decoding and re-walking everything).  To
    keep the benchmark affordable the baseline times a deterministic
    sample of the grid and scales to the full count; the sweep side
    always evaluates the full grid.  Differential equality of every
    timed cell against its standalone run is asserted while measuring
    -- a fast sweep that drifted would be worthless.
    """
    from repro.harness.session import Session
    from repro.lvp.grid import sensitivity_grid
    from repro.trace.annotate import annotate_trace

    def _note(message: str) -> None:
        if progress is not None:
            progress(message)

    grid = sensitivity_grid()[:configs]
    if len(grid) < configs:
        raise ConfigError(
            f"sensitivity grid has only {len(grid)} configurations; "
            f"{configs} requested")
    session = Session(scale=scale, benchmarks=(bench,), metrics=False)
    trace = session.trace(bench, target)
    _note(f"trace ready: {bench}/{target}/{scale} "
          f"({len(trace):,} records)")

    sweep_start = time.perf_counter()
    cells = evaluate_configs(trace, grid)
    sweep_s = time.perf_counter() - sweep_start
    _note(f"sweep: {len(grid)} configs in {sweep_s:.2f}s")

    # Deterministic sample: every k-th config covers all families.
    step = max(1, len(grid) // max(1, baseline_sample))
    sample = list(range(0, len(grid), step))[:baseline_sample]
    base_start = time.perf_counter()
    for index in sample:
        annotated = annotate_trace(trace, grid[index])
        digest = _sha256(
            np.ascontiguousarray(annotated.outcomes).tobytes())
        if digest != cells[index].outcome_digest:
            raise AssertionError(
                f"sweep cell {grid[index].name} diverged from "
                "annotate_trace while benchmarking")
    sampled_s = time.perf_counter() - base_start
    baseline_s = sampled_s * (len(grid) / len(sample))
    _note(f"baseline: {len(sample)} standalone annotates in "
          f"{sampled_s:.2f}s (x{len(grid) / len(sample):.1f} scaled)")

    return {
        "schema": SWEEP_BENCH_SCHEMA_ID,
        "bench": bench,
        "target": target,
        "scale": scale,
        "configs": len(grid),
        "baseline_sample": len(sample),
        "baseline_s": round(baseline_s, 4),
        "sweep_s": round(sweep_s, 4),
        "speedup": round(baseline_s / sweep_s, 4) if sweep_s else 0.0,
        "trace_digest": trace_digest(trace),
    }


#: The minimum shared-decode speedup the acceptance gate requires.
SWEEP_SPEEDUP_FLOOR = 3.0


def validate_sweep_bench(document: dict) -> list[str]:
    """Schema violations in a BENCH_SWEEP document (empty = valid)."""
    errors: list[str] = []
    if document.get("schema") != SWEEP_BENCH_SCHEMA_ID:
        errors.append(f"schema must be {SWEEP_BENCH_SCHEMA_ID!r}, got "
                      f"{document.get('schema')!r}")
    for key in ("bench", "scale", "configs", "baseline_s", "sweep_s",
                "speedup"):
        if key not in document:
            errors.append(f"missing key {key!r}")
    configs = document.get("configs")
    if isinstance(configs, int) and configs < 100:
        errors.append(f"configs must be >= 100, got {configs}")
    for key in ("baseline_s", "sweep_s", "speedup"):
        value = document.get(key)
        if value is not None and (
                not isinstance(value, (int, float)) or value <= 0):
            errors.append(f"{key} must be a positive number, got {value!r}")
    return errors


def compare_sweep_bench(document: dict, baseline: dict,
                        threshold: float = 2.0,
                        floor: float = SWEEP_SPEEDUP_FLOOR) -> list[str]:
    """Regressions of *document* against *baseline* (empty = pass).

    Two gates: the absolute speedup floor (the acceptance criterion --
    shared decode must stay >= *floor* x per-config annotation), and a
    relative gate against the committed baseline's speedup (a drop by
    more than *threshold* x fails even above the floor).
    """
    regressions: list[str] = []
    speedup = float(document.get("speedup", 0.0))
    if speedup < floor:
        regressions.append(
            f"shared-decode speedup {speedup:.2f}x is below the "
            f"{floor:g}x floor")
    recorded = float(baseline.get("speedup", 0.0))
    if recorded and speedup * threshold < recorded:
        regressions.append(
            f"shared-decode speedup {speedup:.2f}x regressed more than "
            f"{threshold:g}x against the recorded {recorded:.2f}x")
    return regressions


def render_sweep_bench(document: dict) -> str:
    """One-paragraph summary of a BENCH_SWEEP document."""
    return (
        f"sweep bench: {document['configs']} configs over "
        f"{document['bench']}/{document['scale']}: "
        f"sweep {document['sweep_s']:.2f}s vs per-config annotate "
        f"{document['baseline_s']:.2f}s (sampled x"
        f"{document.get('baseline_sample', 0)}) -> "
        f"{document['speedup']:.2f}x shared-decode speedup")


def write_sweep_bench(document: dict, path) -> None:
    """Atomically write a BENCH_SWEEP document."""
    path = pathlib.Path(path)
    temporary = path.with_suffix(path.suffix + ".tmp")
    temporary.write_text(json.dumps(document, indent=2, sort_keys=True)
                         + "\n")
    temporary.replace(path)


def load_sweep_bench(path) -> dict:
    """Read a BENCH_SWEEP document (OSError/ValueError propagate)."""
    return json.loads(pathlib.Path(path).read_text())
