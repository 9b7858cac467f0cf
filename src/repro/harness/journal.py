"""Write-ahead run journal: crash-safe, resumable experiment runs.

:class:`Journal` is the one journal primitive; a subclass is a *unit
kind*.  :class:`RunJournal` journals a ``repro experiment`` run, one
unit per benchmark shard; :class:`~repro.harness.sweep.SweepJournal`
journals a ``repro sweep``, one unit per grid chunk, whose ``done``
record carries the chunk's cells inline.  Every journaled ``repro
experiment`` run owns a *run directory*::

    <runs-dir>/<run-id>/
        manifest.json        what was asked for (suite, scale, jobs...)
        journal.jsonl        append-only, fsync'd lifecycle records
        checkpoints/<b>.pkl  one completed benchmark's merge payload

The **manifest** pins everything needed to re-create the run:
library version, exhibit ids, input scale, benchmark list, job
count, watchdog timeout, and a fingerprint over all of it.  The
**journal** is written ahead of the work it describes: a benchmark's
shard is recorded ``planned`` before any work starts, ``started``
when it starts, and ``done`` (with a checkpoint digest and
per-unit result digests) or ``failed`` only after its checkpoint is
durably on disk.  Each journal line carries a CRC-32 of its payload.
A record -- or a batch of them, such as the opening ``run_started``
plus every ``planned`` record -- is written with a single
``write``+``fsync``, so a power cut can at worst truncate the final
line -- which replay tolerates.

``repro experiment --resume <run-id>`` replays the journal, loads the
checkpoint of every completed benchmark (re-hashing each one against
the digest the journal recorded, and cross-checking trace digests
against the shared :class:`~repro.harness.cache.TraceCache`), seeds
the parallel engine with those payloads, and re-executes only the
incomplete benchmarks.  A run killed mid-suite and resumed produces
byte-identical stdout to one that was never interrupted (the
differential suite in ``tests/harness/test_resume.py`` proves it,
SIGKILL included).

Chaos knob: ``REPRO_JOURNAL_CRASH_AFTER=<k>`` hard-exits the parent
process (``os._exit``) right after the append holding the *k*-th
``done`` record, simulating a mid-suite crash for the resume drill.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import itertools
import json
import os
import pathlib
import pickle
import sys
import time
import zlib
from typing import Iterator, Optional

from repro.errors import (
    JournalError,
    ResourceExhaustedError,
    is_resource_exhaustion,
)
from repro.harness.parallel import (
    EngineObserver,
    _CachedTraceRef,
    _ShardResult,
    _ShardSpec,
    _lighten_payload,
)
from repro.obs.metrics import write_metrics

#: Where run directories live (created on demand).
RUNS_DIR_ENV = "REPRO_RUNS_DIR"
DEFAULT_RUNS_DIR = os.path.join(".repro", "runs")

#: How many finished run directories to retain (newest first).
RUNS_KEEP_ENV = "REPRO_RUNS_KEEP"
DEFAULT_RUNS_KEEP = 8

#: Chaos knob: crash the parent after the k-th ``done`` record.
CRASH_AFTER_ENV = "REPRO_JOURNAL_CRASH_AFTER"

_MANIFEST = "manifest.json"
_JOURNAL = "journal.jsonl"
_CHECKPOINTS = "checkpoints"

#: Pointer file naming the newest run (symlink-style, but a plain file
#: updated under an fcntl lock: atomic on every filesystem, and the
#: read side needs no readlink/stat race dance).
_LATEST = "LATEST"

try:
    import fcntl
except ImportError:  # non-POSIX: pointer updates fall back to unlocked
    fcntl = None  # type: ignore[assignment]


def _lock_fd(fd: int, shared: bool = False) -> None:
    if fcntl is not None:
        fcntl.flock(fd, fcntl.LOCK_SH if shared else fcntl.LOCK_EX)


def runs_dir_from_env(default: Optional[str] = None) -> pathlib.Path:
    """The configured runs directory (``REPRO_RUNS_DIR``)."""
    return pathlib.Path(
        os.environ.get(RUNS_DIR_ENV) or default or DEFAULT_RUNS_DIR)


#: Per-process run sequence: the timestamp below has second
#: granularity, so two runs created in the same second by one process
#: (exactly what a test suite or scripted sweep does) would otherwise
#: collide and share a run directory.
_RUN_SEQ = itertools.count()


def new_run_id() -> str:
    """A fresh, sortable run id.

    Timestamp + pid keeps concurrent sessions on one machine apart;
    the per-process sequence suffix keeps same-second runs from one
    process apart (the stamp alone is only second-granular).
    """
    stamp = time.strftime("%Y%m%d-%H%M%S", time.gmtime())
    return f"{stamp}-{os.getpid()}-{next(_RUN_SEQ):03d}"


def publish_latest(runs_dir, run_id: str) -> None:
    """Advance the ``LATEST`` pointer to *run_id* (move-forward only).

    The read-modify-write runs under an exclusive ``fcntl`` lock, so
    two processes creating runs concurrently serialize instead of
    interleaving: the slower writer of an *older* run id cannot clobber
    a newer one (run ids sort lexicographically by creation time).  A
    pointer whose target has since been pruned is treated as absent and
    overwritten even by an older id.
    """
    runs_dir = pathlib.Path(runs_dir)
    runs_dir.mkdir(parents=True, exist_ok=True)
    fd = os.open(runs_dir / _LATEST, os.O_RDWR | os.O_CREAT, 0o644)
    try:
        _lock_fd(fd)
        current = os.read(fd, 4096).decode("utf-8", "replace").strip()
        if current and current >= run_id \
                and (runs_dir / current / _MANIFEST).exists():
            return
        os.lseek(fd, 0, os.SEEK_SET)
        os.truncate(fd, 0)
        os.write(fd, (run_id + "\n").encode())
        with contextlib.suppress(OSError):
            os.fsync(fd)
    finally:
        os.close(fd)  # releases the lock


def _read_latest(runs_dir: pathlib.Path) -> Optional[pathlib.Path]:
    """The run directory the ``LATEST`` pointer names, if still valid."""
    try:
        fd = os.open(runs_dir / _LATEST, os.O_RDONLY)
    except OSError:
        return None
    try:
        _lock_fd(fd, shared=True)
        name = os.read(fd, 4096).decode("utf-8", "replace").strip()
    finally:
        os.close(fd)
    if name and os.sep not in name \
            and (runs_dir / name / _MANIFEST).exists():
        return runs_dir / name
    return None


def find_run(runs_dir, run_id: str) -> pathlib.Path:
    """Resolve *run_id* (or ``latest``) to an existing run directory."""
    runs_dir = pathlib.Path(runs_dir)
    if run_id == "latest":
        # The locked pointer is authoritative: a directory scan races
        # with concurrent run creation (a directory appears before its
        # manifest) and with pruning (an entry vanishes between iterdir
        # and the manifest check).  The scan remains as a fallback for
        # runs directories predating the pointer.
        pointed = _read_latest(runs_dir)
        if pointed is not None:
            return pointed
        candidates = sorted(
            (entry for entry in runs_dir.iterdir()
             if entry.is_dir() and (entry / _MANIFEST).exists()),
            key=lambda entry: entry.name,
        ) if runs_dir.is_dir() else []
        if not candidates:
            raise JournalError(f"no runs found under {runs_dir}")
        return candidates[-1]
    path = runs_dir / run_id
    if not (path / _MANIFEST).exists():
        raise JournalError(
            f"no run {run_id!r} under {runs_dir} (no manifest); "
            f"try 'latest' or list the directory")
    return path


def prune_runs(runs_dir, keep: Optional[int] = None,
               protect: Optional[str] = None) -> int:
    """Keep only the *keep* newest run directories; returns the number
    removed.  *protect* (a run id) is never pruned."""
    import shutil
    runs_dir = pathlib.Path(runs_dir)
    if keep is None:
        try:
            keep = max(1, int(os.environ[RUNS_KEEP_ENV]))
        except (KeyError, ValueError):
            keep = DEFAULT_RUNS_KEEP
    if not runs_dir.is_dir():
        return 0
    entries = sorted(
        (entry for entry in runs_dir.iterdir() if entry.is_dir()),
        key=lambda entry: entry.name,
        reverse=True,
    )
    removed = 0
    for stale in entries[keep:]:
        if protect is not None and stale.name == protect:
            continue
        with contextlib.suppress(OSError):
            shutil.rmtree(stale)
            removed += 1
    return removed


# ---------------------------------------------------------------------------
# Result digests.
# ---------------------------------------------------------------------------
def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class _DigestingFile:
    """A write-only binary file over descriptor *fd* that hashes what
    it writes: a checkpoint streams to disk (a pickle writes large
    arrays straight through) instead of being built as one bytes object
    first, and its digest comes with it."""

    def __init__(self, fd: int) -> None:
        self.fd = fd
        self.sha256 = hashlib.sha256()

    def write(self, data) -> int:
        # A pickle streams an array as a PickleBuffer, whose raw() is
        # its memory in layout order, whatever the array's order.
        view = data.raw() if isinstance(data, pickle.PickleBuffer) \
            else memoryview(data).cast("B")
        size = view.nbytes
        self.sha256.update(view)
        while view:
            view = view[os.write(self.fd, view):]
        return size


def trace_digest(trace, cache=None) -> str:
    """sha256 over a trace's column bytes (the identity the TraceCache
    checksums protect, re-expressed as one stable digest).

    A zero-copy merge payload carries a
    :class:`~repro.harness.parallel._CachedTraceRef` instead of arrays;
    the digest then covers the cached bundle's actual column bytes
    (memory-mapped through *cache*, so nothing is copied).  A ref that
    cannot be resolved digests as its identity string: stable, so a
    checkpoint written while the bundle was missing still verifies --
    and distinct from any content digest, so if the bundle *reappears*
    the mismatch forces a clean re-run instead of trusting it.
    """
    import numpy as np
    from repro.trace.records import TRACE_COLUMNS
    if isinstance(trace, _CachedTraceRef):
        resolved = None
        if cache is not None:
            with contextlib.suppress(Exception):
                resolved = cache.load(trace.name, trace.target, trace.scale)
        if resolved is None:
            return _sha256(
                f"unresolved-ref:{trace.name}/{trace.target}/"
                f"{trace.scale}".encode())
        trace = resolved
    digest = hashlib.sha256()
    for key, _ in TRACE_COLUMNS:
        digest.update(np.ascontiguousarray(getattr(trace, key)).tobytes())
    return digest.hexdigest()


def shard_digests(shard: _ShardResult, cache=None) -> dict[str, str]:
    """Per-unit result digests for one benchmark's merge payload.

    Keys are stable unit labels; values identify the *result* (not the
    computation), so a resumed run can prove a checkpoint still holds
    exactly what the journal said it held.  *cache* resolves
    :class:`~repro.harness.parallel._CachedTraceRef` stubs in zero-copy
    payloads (see :func:`trace_digest`).
    """
    import numpy as np
    digests: dict[str, str] = {}
    for (name, target), trace in shard.traces.items():
        digests[f"trace/{name}/{target}"] = trace_digest(trace, cache)
    for (name, target, config), annotated in shard.annotated.items():
        digests[f"annotate/{name}/{target}/{config}"] = _sha256(
            np.ascontiguousarray(annotated.outcomes).tobytes())
    for (name, machine, lvp), result in shard.ppc_runs.items():
        digests[f"model/ppc/{name}/{machine}/{lvp or 'base'}"] = _sha256(
            repr((result.cycles, result.instructions)).encode())
    for (name, machine, lvp), result in shard.alpha_runs.items():
        digests[f"model/alpha/{name}/{machine}/{lvp or 'base'}"] = _sha256(
            repr((result.cycles, result.instructions)).encode())
    return digests


# ---------------------------------------------------------------------------
# Journal lines.
# ---------------------------------------------------------------------------
def _encode_record(record: dict) -> bytes:
    """One journal line: the record plus a CRC-32 of its canonical
    JSON, emitted as a single newline-terminated write."""
    payload = json.dumps(record, sort_keys=True, separators=(",", ":"))
    crc = zlib.crc32(payload.encode()) & 0xFFFFFFFF
    return json.dumps({"rec": record, "crc": crc},
                      sort_keys=True, separators=(",", ":")).encode() + b"\n"


def _decode_line(line: bytes) -> Optional[dict]:
    """Parse + CRC-check one journal line (None = damaged)."""
    try:
        wrapper = json.loads(line)
        record = wrapper["rec"]
        payload = json.dumps(record, sort_keys=True, separators=(",", ":"))
        if (zlib.crc32(payload.encode()) & 0xFFFFFFFF) != wrapper["crc"]:
            return None
        return record
    except (ValueError, KeyError, TypeError):
        return None


def replay_journal(path) -> list[dict]:
    """Every valid record in *path*, in order.

    A damaged **final** line is the signature of a crash mid-append and
    is silently dropped; a damaged line anywhere else means the file
    was tampered with or the disk is failing, and raises
    :class:`~repro.errors.JournalError`.
    """
    records: list[dict] = []
    try:
        raw = pathlib.Path(path).read_bytes()
    except OSError as exc:
        raise JournalError(f"cannot read journal {path}: {exc}") from exc
    lines = raw.split(b"\n")
    if lines and lines[-1] == b"":
        lines.pop()
    for index, line in enumerate(lines):
        record = _decode_line(line)
        if record is None:
            if index == len(lines) - 1:
                break  # truncated trailing line: tolerated
            raise JournalError(
                f"journal {path} is damaged at line {index + 1} "
                f"(not the trailing line; refusing to resume)")
        records.append(record)
    return records


# ---------------------------------------------------------------------------
# The journal primitive, and the experiment run's unit kind.
# ---------------------------------------------------------------------------
class Journal:
    """Write-ahead journal for one run directory, over one unit kind.

    A unit is recorded ``planned`` when the run is created, ``started``
    when it is handed out, and ``done`` only after its result is
    durable (write-ahead order: the journal never claims more than the
    disk holds).  A subclass is a unit kind: it names its units' record
    key, fingerprint keys and planned units, makes a finished unit's
    result durable, and names its resume command; everything else --
    manifest, one kept journal descriptor, disk-full degradation,
    replay, and the crash knob -- lives here.
    """

    #: Record key naming one unit (``benchmark`` / ``chunk``).
    UNIT = ""
    #: Manifest keys the fingerprint covers.
    IDENTITY: tuple = ()
    #: What one directory is called in messages.
    NOUN = "run"

    def __init__(self, directory, manifest: dict) -> None:
        self.directory = pathlib.Path(directory)
        self.manifest = manifest
        self._fd: Optional[int] = None
        self._done_records = 0
        self._crash_after = self._crash_after_from_env()
        #: Set when the disk filled up under a journal write: further
        #: appends become no-ops (the computation itself continues).
        self._degraded = False

    @staticmethod
    def _crash_after_from_env() -> Optional[int]:
        try:
            return max(1, int(os.environ[CRASH_AFTER_ENV]))
        except (KeyError, ValueError):
            return None

    # -- what a unit kind supplies ------------------------------------------
    def _planned_units(self):
        """The unit ids ``create`` journals ``planned``."""
        raise NotImplementedError

    @property
    def resume_command(self) -> str:
        raise NotImplementedError

    # -- construction --------------------------------------------------------
    @classmethod
    def create(cls, runs_dir, run_id: str, manifest: dict):
        """Start a fresh run directory (manifest + opening records)."""
        directory = pathlib.Path(runs_dir) / run_id
        directory.mkdir(parents=True, exist_ok=True)
        manifest = dict(manifest, run_id=run_id,
                        fingerprint=cls.fingerprint(manifest))
        temporary = directory / (_MANIFEST + ".tmp")
        temporary.write_text(json.dumps(manifest, indent=2, sort_keys=True))
        temporary.replace(directory / _MANIFEST)
        publish_latest(runs_dir, run_id)
        journal = cls(directory, manifest)
        journal.append({"type": "run_started", "run_id": run_id},
                       *({"type": "planned", cls.UNIT: unit}
                         for unit in journal._planned_units()))
        return journal

    @classmethod
    def open(cls, runs_dir, run_id: str):
        """Open an existing run directory for resumption."""
        directory = find_run(runs_dir, run_id)
        try:
            manifest = json.loads((directory / _MANIFEST).read_text())
        except (OSError, ValueError) as exc:
            raise JournalError(
                f"unreadable manifest in {directory}: {exc}") from exc
        journal = cls(directory, manifest)
        journal.verify_manifest()
        journal._drop_torn_tail()
        return journal

    @classmethod
    def fingerprint(cls, manifest: dict) -> str:
        """Stable digest of a manifest's identity-bearing fields."""
        identity = {key: manifest.get(key) for key in cls.IDENTITY}
        return _sha256(json.dumps(identity, sort_keys=True).encode())

    def verify_manifest(self) -> None:
        """Refuse to resume a run recorded by different code/config."""
        from repro import __version__
        recorded = self.manifest.get("version")
        if recorded != __version__:
            raise JournalError(
                f"{self.NOUN} {self.run_id!r} was recorded by repro "
                f"{recorded}, this is {__version__}: results would not be "
                f"comparable (start a fresh {self.NOUN})")
        expected = self.manifest.get("fingerprint")
        if expected and expected != self.fingerprint(self.manifest):
            raise JournalError(
                f"manifest of {self.NOUN} {self.run_id!r} does not match "
                f"its fingerprint (edited by hand?); refusing to resume")

    def _drop_torn_tail(self) -> None:
        """Cut a damaged final line (a crash or full disk mid-append)
        off the journal before a resumed run appends to it: replay
        ignores that line, but a record appended after it would turn
        it into interior damage that refuses every later resume."""
        with contextlib.suppress(OSError), \
                open(self.journal_path, "r+b") as file:
            data = file.read()
            head, newline, last = data.rstrip(b"\n").rpartition(b"\n")
            if last and _decode_line(last) is None:
                file.truncate(len(head) + len(newline))

    # -- plumbing ------------------------------------------------------------
    @property
    def run_id(self) -> str:
        return self.manifest.get("run_id", self.directory.name)

    @property
    def journal_path(self) -> pathlib.Path:
        return self.directory / _JOURNAL

    def close(self) -> None:
        if self._fd is not None:
            with contextlib.suppress(OSError):
                os.close(self._fd)
            self._fd = None

    def append(self, *records: dict) -> None:
        """Append fsync'd journal records, one line each.

        The journal file is opened once and the descriptor kept until
        :meth:`close` (or :meth:`finished`).  One ``os.write`` of all
        the lines keeps the append atomic with respect to signal
        handlers re-entering the journal (the ``interrupted`` record is
        written from a handler), and one ``fsync`` covers them all.

        A full disk (``ENOSPC``/``EDQUOT``) must never kill the run the
        journal only *describes*: the first such failure marks the
        journal degraded (all later appends are no-ops), prints a
        one-time resume hint to stderr, and returns.  The write-ahead
        invariant survives -- the journal simply stops early, claiming
        less than the run completed, and ``--resume`` re-runs whatever
        the journal could not attest.
        """
        if self._degraded:
            return
        lines = memoryview(
            b"".join(_encode_record(record) for record in records))
        try:
            if self._fd is None:
                self._fd = os.open(self.journal_path,
                                   os.O_WRONLY | os.O_CREAT | os.O_APPEND,
                                   0o644)
            while lines:  # a nearly full disk may take part of a line
                lines = lines[os.write(self._fd, lines):]
        except OSError as exc:
            if is_resource_exhaustion(exc):
                self._mark_degraded(exc)
                return
            raise
        with contextlib.suppress(OSError):
            os.fsync(self._fd)

    def _mark_degraded(self, cause: BaseException) -> None:
        """Stop journalling (disk full) with a one-time resume hint."""
        if self._degraded:
            return
        self._degraded = True
        print(
            f"warning: {self.NOUN} journal write failed ({cause}); "
            f"journalling for {self.NOUN} {self.run_id} stops here.  The "
            f"{self.NOUN} continues, but work finished from now on is not "
            f"checkpointed: free disk space and, if this {self.NOUN} is "
            f"interrupted, resume with:\n  {self.resume_command}",
            file=sys.stderr)

    # -- lifecycle records --------------------------------------------------
    def interrupted(self, signum: int) -> None:
        """Journal a clean interruption (called from a signal handler)."""
        self.append({"type": "interrupted", "signal": int(signum)})

    def finished(self, exit_code: int) -> None:
        """Journal the run's end and release the journal descriptor."""
        self.append({"type": "run_finished", "exit": int(exit_code)})
        self.close()

    def _done(self, *records: dict) -> None:
        """Append finished units' ``done`` records in one write; the
        crash knob counts these."""
        self.append(*records)
        self._done_records += len(records)
        if (self._crash_after is not None
                and self._done_records >= self._crash_after):
            # Chaos drill: die the hardest way possible (no atexit, no
            # flush) right after the journal claims this unit.
            # Children are reaped first -- a real crash would leave
            # them to die on their broken pipes, but the drill must not
            # leave orphans holding the caller's pipes open.
            from repro.harness.children import kill_children
            kill_children()
            os._exit(23)

    # -- resumption ---------------------------------------------------------
    def replay(self) -> list[dict]:
        """Valid journal records, tolerating a truncated final line."""
        if not self.journal_path.exists():
            return []
        return replay_journal(self.journal_path)

    def completed(self) -> dict:
        """Unit -> its latest ``done`` record."""
        return {record[self.UNIT]: record for record in self.replay()
                if record.get("type") == "done"}


class RunJournal(Journal, EngineObserver):
    """The experiment run's journal: one unit per benchmark shard.

    Doubles as the parallel engine's observer: shard lifecycle events
    are journalled as they happen, and a finished shard's payload is
    pickled to ``checkpoints/<benchmark>.pkl`` before its ``done``
    record (which carries the checkpoint's sha256 and per-unit result
    digests) is appended.
    """

    UNIT = "benchmark"
    IDENTITY = ("version", "exhibits", "scale", "benchmarks", "verify")

    @classmethod
    def create(cls, runs_dir, run_id: str, manifest: dict):
        (pathlib.Path(runs_dir) / run_id / _CHECKPOINTS).mkdir(
            parents=True, exist_ok=True)
        return super().create(runs_dir, run_id, manifest)

    def _planned_units(self):
        return self.manifest.get("benchmarks", ())

    @property
    def resume_command(self) -> str:
        return f"repro experiment --resume {self.run_id}"

    @functools.cached_property
    def _trace_cache(self):
        """The TraceCache the manifest names (None when uncached) --
        needed to digest zero-copy payloads whose traces are refs."""
        cache_dir = self.manifest.get("cache_dir")
        if cache_dir:
            from repro.harness.cache import TraceCache
            with contextlib.suppress(Exception):
                return TraceCache(cache_dir)
        return None

    # -- checkpoints --------------------------------------------------------
    def _checkpoint_path(self, benchmark: str) -> pathlib.Path:
        return (self.directory / _CHECKPOINTS
                / (benchmark.replace("/", "_") + ".pkl"))

    def _write_checkpoint(self, benchmark: str, result: _ShardResult) -> str:
        """Durably persist *benchmark*'s *result*; returns its sha256.

        A checkpoint names cached traces by stub; the done record's
        digests cover the in-memory traces the stubs stand for.  A full
        disk (or exhausted fd table) raises
        :class:`~repro.errors.ResourceExhaustedError` after removing
        the partial temp file, so the caller can skip the checkpoint
        without ever leaving a half-written one behind.
        """
        path = self._checkpoint_path(benchmark)
        temporary = path.with_suffix(".tmp")
        try:
            fd = os.open(temporary,
                         os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
            try:
                file = _DigestingFile(fd)
                light = _lighten_payload(result, self._trace_cache,
                                         self.manifest.get("scale", "small"))
                pickle.dump(light, file, protocol=pickle.HIGHEST_PROTOCOL)
                os.fsync(fd)
            finally:
                os.close(fd)
            temporary.replace(path)
        except BaseException as exc:
            with contextlib.suppress(OSError):
                temporary.unlink()
            if isinstance(exc, OSError) and is_resource_exhaustion(exc):
                raise ResourceExhaustedError(
                    f"cannot checkpoint {benchmark}: {exc}") from exc
            raise
        return file.sha256.hexdigest()

    def _checkpoint(self, benchmark: str,
                    result: _ShardResult) -> Optional[str]:
        """:meth:`_write_checkpoint`, or None once a full disk made it
        journal ``checkpoint_failed`` instead.

        No checkpoint is durably on disk then, so no ``done`` record
        may claim one (write-ahead order): the in-memory result stands
        and ``--resume`` re-runs the benchmark.
        """
        try:
            return self._write_checkpoint(benchmark, result)
        except ResourceExhaustedError as exc:
            self.append({"type": "checkpoint_failed", self.UNIT: benchmark,
                         "cause": str(exc)})
            return None

    # -- engine observer hooks ----------------------------------------------
    def shard_started(self, spec: _ShardSpec) -> None:
        self.append({"type": "started", "benchmark": spec.benchmark,
                     "units": len(spec.units)})

    def shard_finished(self, spec: _ShardSpec, result: _ShardResult) -> None:
        digest = self._checkpoint(spec.benchmark, result)
        if digest is None:
            return
        for demotion in getattr(result, "demotions", None) or ():
            self.append({"type": "demoted", **demotion.as_dict()})
        self._done({
            "type": "done",
            "benchmark": spec.benchmark,
            "checkpoint": digest,
            "failed": len(result.failed),
            "digests": shard_digests(result, cache=self._trace_cache),
        })

    # -- resumption ---------------------------------------------------------
    def load_checkpoints(self, cache=None) -> dict:
        """Verified payloads of every completed benchmark, as a dict."""
        return dict(self.checkpoints(cache))

    def checkpoints(self, cache=None) -> Iterator[tuple[str, _ShardResult]]:
        """Verified payloads of every completed benchmark, one at a
        time (a resumed engine reduces each before loading the next).

        Each checkpoint is re-hashed against the digest its ``done``
        record committed, and its per-unit result digests re-checked; a
        missing, unreadable, mismatching or undecodable checkpoint is
        dropped (that benchmark simply re-runs -- resume trades work
        for certainty, never the reverse).

        When *cache* (a :class:`~repro.harness.cache.TraceCache`) is
        given, every checkpointed trace is cross-checked against the
        cache's copy and a disagreeing cache bundle is quarantined, so
        a resumed run cannot be poisoned by a cache that rotted while
        the run was down.
        """
        for benchmark, record in self.completed().items():
            try:
                data = self._checkpoint_path(benchmark).read_bytes()
            except OSError:
                continue
            if _sha256(data) != record.get("checkpoint"):
                continue
            result = self._decode(data, record, cache)
            if result is None:
                continue
            if cache is not None:
                self._cross_check_cache(result, cache)
            yield benchmark, result

    def _decode(self, data: bytes, record: dict, cache):
        """The payload of verified checkpoint bytes (None = unusable)."""
        try:
            result = pickle.loads(data)
        except Exception:
            return None
        if shard_digests(result, cache=cache) != record.get("digests"):
            return None
        return result

    def _cross_check_cache(self, result: _ShardResult, cache) -> None:
        """Quarantine cache bundles that disagree with a verified
        checkpoint (the checkpoint is journal-attested; the cache is
        only an accelerator and may have rotted while the run was
        down)."""
        scale = self.manifest.get("scale", "small")
        for (name, target), trace in result.traces.items():
            if isinstance(trace, _CachedTraceRef):
                # A ref's bytes *are* the cache bundle (CRC-verified
                # on every load): nothing independent to cross-check.
                continue
            with contextlib.suppress(Exception):
                cached = cache.load(name, target, scale)
                if cached is not None and \
                        trace_digest(cached) != trace_digest(trace):
                    cache.discard(name, target, scale)

    def write_outputs(self, session, report) -> None:
        """Write the finished run's ``metrics.json`` (when *session*
        carries a :class:`~repro.obs.MetricsRegistry`; ``repro stats``
        reads it) and the hottest profiled units of *report* into the
        run directory."""
        metrics = session.metrics
        if metrics is not None:
            import resource
            from repro.harness.children import peak_rss_mb
            session.collect_run_counters()
            metrics.max_run("parent/peak_rss_mb", peak_rss_mb(
                resource.getrusage(resource.RUSAGE_SELF)))
            write_metrics(self.directory,
                          metrics.to_document(run_id=self.run_id,
                                              manifest=self.manifest))
        if report.profiles:
            write_run_profiles(self.directory, report)


# ---------------------------------------------------------------------------
# A journaled run's manifest and outputs.
# ---------------------------------------------------------------------------
def build_manifest(exhibits, session, jobs: int,
                   unit_timeout: float, profile: bool = False) -> dict:
    """The manifest for a fresh journaled run of *session*."""
    from repro import __version__
    return {
        "version": __version__,
        "exhibits": list(exhibits),
        "scale": session.scale,
        "benchmarks": list(session.benchmark_names),
        "verify": session.verify,
        "jobs": int(jobs),
        "unit_timeout": float(unit_timeout),
        "cache_dir": str(session.cache.directory) if session.cache else None,
        "metrics": session.metrics is not None,
        "profile": bool(profile),
    }


def write_run_profiles(directory, report, keep: int = 5) -> list:
    """Persist the *keep* hottest profiled units' pstats text into
    ``<run-dir>/profiles/``; returns the written paths.  "Hottest" is
    by measured unit wall time, so the capture a developer opens first
    is the one that dominated the run.
    """
    profile_dir = pathlib.Path(directory) / "profiles"
    profile_dir.mkdir(parents=True, exist_ok=True)
    seconds = {timing.unit.label: timing.seconds
               for timing in report.timings}
    hottest = sorted(report.profiles,
                     key=lambda label: -seconds.get(label, 0.0))[:keep]
    written = []
    for label in hottest:
        path = profile_dir / (label.replace("/", "_") + ".txt")
        path.write_text(report.profiles[label])
        written.append(path)
    return written

