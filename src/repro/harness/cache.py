"""On-disk trace cache.

Trace generation (functional simulation) dominates harness start-up
time.  A :class:`TraceCache` persists traces keyed by (benchmark,
target, scale) and stamped with the library version: bump
``repro.__version__`` (or delete the directory) whenever workload
definitions change and stale traces invalidate themselves.

Enable it by passing ``cache_dir`` to :class:`repro.harness.Session`
or by setting the ``REPRO_TRACE_CACHE`` environment variable.

**Format v2** (``.rtc``) is the native layout: an uncompressed,
page-aligned per-column file that :meth:`TraceCache.load` opens with
``np.memmap`` read-only -- zero-copy, lazily paged by the OS, and
physically shared across every process mapping the same bundle.  The
layout is::

    offset 0   magic ``RTRACE02``
    offset 8   u4 little-endian header length
    offset 12  JSON header: format/version/name/target, a column table
               ({name, dtype, count, offset, nbytes, crc32} per column,
               in TRACE_COLUMNS order), and ``data_end``
    ...        each column's raw little-endian bytes at a 4096-aligned
               offset (the gap after the header is zero padding)
    data_end   footer ``RTCFOOT1`` + u4 CRC-32 of the header JSON

The footer doubles as the truncation detector: a bundle whose file is
shorter than ``data_end + 12`` or whose footer CRC disagrees with the
header never existed atomically.

The cache is hardened against on-disk corruption:

* every column is stored with a CRC-32 checksum, verified on load
  (streamed in chunks, so verification never copies a column);
* a bundle that fails to open, parse, or checksum is treated as a
  cache miss and *quarantined* (moved into a ``quarantine/``
  subdirectory) so it can be inspected but never re-read;
* interrupted writes leave no debris -- stores write a ``.tmp.rtc``
  then rename, unlink the temporary on any failure, and stale
  temporaries from crashed processes are swept on construction;
* stores and loads take an advisory file lock (where the platform
  offers ``fcntl``) so concurrent sessions sharing one
  ``REPRO_TRACE_CACHE`` directory do not race; lock acquisition is
  bounded (``REPRO_LOCK_TIMEOUT``, default 60s) and raises a retryable
  :class:`~repro.errors.CacheLockTimeout` instead of blocking forever
  behind a wedged holder.  (Replacement and eviction are rename/unlink
  based, so a bundle another process has already mapped stays readable
  through its original inode.);
* ``quarantine/`` growth is capped (``REPRO_QUARANTINE_KEEP``, default
  16 newest bundles) so repeated corruption drills cannot fill the
  disk;
* the main store is capped too (``REPRO_CACHE_BUDGET``, total bytes;
  0 = unlimited) with least-recently-*used* eviction -- loads touch a
  bundle's mtime, so the bundle evicted first is the one no session
  has read for longest;
* resource exhaustion (``ENOSPC``/``EDQUOT``/``EMFILE``/``ENFILE``) is
  never mistaken for corruption: a store that hits a full disk evicts
  and retries once, then raises a retryable
  :class:`~repro.errors.ResourceExhaustedError` (which the session
  degrades to "this trace just isn't cached"); a load that cannot even
  open its file for resource reasons raises the same instead of
  quarantining a perfectly healthy bundle.

Traces loaded from a v2 bundle carry **read-only** columns (they alias
the shared page cache); call :meth:`~repro.trace.records.Trace.materialize`
for a private writable copy before mutating.
"""

from __future__ import annotations

import contextlib
import json
import os
import pathlib
import time
import zlib
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import (
    CacheLockTimeout,
    ResourceExhaustedError,
    is_resource_exhaustion,
)
from repro.trace.records import TRACE_COLUMNS, Trace

try:  # pragma: no cover - platform probe
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None


class _CorruptBundle(Exception):
    """Internal: a cached bundle failed a structural or checksum check."""


#: Exceptions that mean "this file is damaged", not "this is a bug".
_CORRUPTION_ERRORS = (OSError, KeyError, ValueError, _CorruptBundle)

#: v2 bundle framing.
MAGIC_V2 = b"RTRACE02"
FOOTER_MAGIC = b"RTCFOOT1"
#: Column data is aligned to this many bytes (one page) so mapped
#: columns start on page boundaries and padding stays sparse-friendly.
ALIGNMENT = 4096
#: Largest header we will attempt to parse (structural sanity bound).
_MAX_HEADER = 1 << 20

#: CRC streaming chunk (bytes): bounds the working set of a checksum
#: pass over an arbitrarily large (possibly memory-mapped) column.
_CRC_CHUNK = 1 << 20

_EXPECTED_DTYPES = {name: np.dtype("<" + code).str
                    for name, code in TRACE_COLUMNS}


def _column_crc(array: np.ndarray) -> int:
    """CRC-32 of a column's raw bytes (dtype-stable: columns are
    always stored little-endian, see TRACE_COLUMNS).

    Streams over memoryview chunks so checksumming a large (or
    memory-mapped) column never materialises a contiguous copy of it.
    """
    data = memoryview(np.ascontiguousarray(array)).cast("B")
    crc = 0
    for start in range(0, len(data), _CRC_CHUNK):
        crc = zlib.crc32(data[start:start + _CRC_CHUNK], crc)
    return crc & 0xFFFFFFFF


def _align_up(offset: int) -> int:
    return (offset + ALIGNMENT - 1) // ALIGNMENT * ALIGNMENT


def _float_env(name: str, default: float) -> float:
    """A float environment knob (malformed values use the default)."""
    try:
        return float(os.environ[name])
    except (KeyError, ValueError):
        return default


def _int_env(name: str, default: int) -> int:
    """An int environment knob (malformed values use the default)."""
    try:
        return int(os.environ[name])
    except (KeyError, ValueError):
        return default


@dataclass
class CacheCounters:
    """Observability counters for one process's cache instance.

    These are per-process and scheduling-dependent (which worker warms
    the cache first is a race), so they surface in the metrics
    document's run scope, never the deterministic benchmark scope.
    """

    hits: int = 0
    misses: int = 0  # absent, version-stale, or corrupt bundles
    stores: int = 0
    quarantined: int = 0
    evictions: int = 0  # bundles removed to honour the size budget
    lock_waits: int = 0  # acquisitions that found the lock contended
    lock_wait_seconds: float = 0.0

    def as_dict(self) -> dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "quarantined": self.quarantined,
            "evictions": self.evictions,
            "lock_waits": self.lock_waits,
            "lock_wait_seconds": self.lock_wait_seconds,
        }


class TraceCache:
    """Load/store traces under a directory, versioned by the library.

    ``lock_timeout`` bounds how long a load/store waits for the
    directory's advisory lock (default ``REPRO_LOCK_TIMEOUT`` or 60s;
    ``<= 0`` = try once, never wait).  ``quarantine_keep`` caps how
    many quarantined bundles are retained (default
    ``REPRO_QUARANTINE_KEEP`` or 16), newest first.  ``budget`` caps
    the main store's total bytes (default ``REPRO_CACHE_BUDGET``;
    ``0`` = unlimited): after each store, least-recently-used bundles
    are evicted until the directory fits.
    """

    def __init__(self, directory, lock_timeout: Optional[float] = None,
                 quarantine_keep: Optional[int] = None,
                 budget: Optional[int] = None) -> None:
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        from repro import __version__
        self.version = __version__
        self.lock_timeout = lock_timeout if lock_timeout is not None \
            else _float_env("REPRO_LOCK_TIMEOUT", 60.0)
        self.quarantine_keep = quarantine_keep if quarantine_keep is not None \
            else max(1, _int_env("REPRO_QUARANTINE_KEEP", 16))
        self.budget = budget if budget is not None \
            else max(0, _int_env("REPRO_CACHE_BUDGET", 0))
        self.counters = CacheCounters()
        self._sweep_temporaries()

    def _path(self, name: str, target: str, scale: str) -> pathlib.Path:
        safe = name.replace("/", "_")
        return self.directory / f"{safe}-{target}-{scale}.rtc"

    def path_for(self, name: str, target: str, scale: str) -> pathlib.Path:
        """The on-disk bundle path for one key (for tools and tests)."""
        return self._path(name, target, scale)

    # -- concurrency ---------------------------------------------------------
    @contextlib.contextmanager
    def _locked(self, shared: bool = False):
        """Advisory lock over the cache directory (no-op without fcntl).

        Acquisition is non-blocking with a bounded spin so a wedged
        lock holder surfaces as a retryable
        :class:`~repro.errors.CacheLockTimeout` instead of hanging the
        whole run (the session's retry-with-backoff then re-attempts
        the stage).
        """
        if fcntl is None:  # pragma: no cover - non-POSIX platforms
            yield
            return
        lock_path = self.directory / ".lock"
        operation = fcntl.LOCK_SH if shared else fcntl.LOCK_EX
        with open(lock_path, "a") as handle:
            started = time.monotonic()
            deadline = started + max(0.0, self.lock_timeout)
            contended = False
            while True:
                try:
                    fcntl.flock(handle, operation | fcntl.LOCK_NB)
                    break
                except OSError:
                    contended = True
                    if time.monotonic() >= deadline:
                        self.counters.lock_waits += 1
                        self.counters.lock_wait_seconds += \
                            time.monotonic() - started
                        raise CacheLockTimeout(
                            f"could not lock trace cache {self.directory} "
                            f"within {self.lock_timeout:.0f}s "
                            f"(REPRO_LOCK_TIMEOUT)") from None
                    time.sleep(0.02)
            if contended:
                self.counters.lock_waits += 1
                self.counters.lock_wait_seconds += time.monotonic() - started
            try:
                yield
            finally:
                fcntl.flock(handle, fcntl.LOCK_UN)

    # -- hygiene -------------------------------------------------------------
    def _sweep_temporaries(self) -> int:
        """Remove ``.tmp.rtc`` files left by interrupted stores.

        Takes the exclusive lock: stores write-then-rename their
        temporary entirely under that lock, so any temporary visible
        once we hold it is guaranteed stale debris -- sweeping without
        the lock could delete the temporary of a store in flight in
        another process (between its write and its rename).
        """
        removed = 0
        with self._locked():
            for stale in self.directory.glob("*.tmp.rtc"):
                with contextlib.suppress(OSError):
                    stale.unlink()
                    removed += 1
        return removed

    def quarantine(self, path: pathlib.Path) -> Optional[pathlib.Path]:
        """Move a damaged bundle into ``quarantine/``; returns its new
        path (None if the file vanished, e.g. another session won)."""
        qdir = self.directory / "quarantine"
        qdir.mkdir(exist_ok=True)
        destination = qdir / path.name
        suffix = 0
        while destination.exists():
            suffix += 1
            destination = qdir / f"{path.name}.{suffix}"
        try:
            path.replace(destination)
        except OSError:
            return None
        self.counters.quarantined += 1
        self._prune_quarantine(qdir)
        return destination

    def _prune_quarantine(self, qdir: pathlib.Path) -> int:
        """Keep only the ``quarantine_keep`` newest quarantined bundles
        so repeated corruption (or a corruption drill in a loop) cannot
        fill the disk; returns the number pruned."""
        try:
            entries = sorted(
                (entry for entry in qdir.iterdir() if entry.is_file()),
                key=lambda entry: entry.stat().st_mtime,
                reverse=True,
            )
        except OSError:
            return 0
        pruned = 0
        for stale in entries[self.quarantine_keep:]:
            with contextlib.suppress(OSError):
                stale.unlink()
                pruned += 1
        return pruned

    def discard(self, name: str, target: str, scale: str) -> None:
        """Quarantine the bundle for one key (used when a loaded trace
        fails semantic validation downstream of the checksum layer)."""
        path = self._path(name, target, scale)
        if path.exists():
            with self._locked():
                self.quarantine(path)

    # -- load/store ----------------------------------------------------------
    def load(self, name: str, target: str,
             scale: str) -> Optional[Trace]:
        """Return the cached trace, or None on miss/version mismatch.

        A v2 bundle maps zero-copy: the returned trace's columns are
        read-only views over the file's pages (checksums are still
        verified up front, streaming).  A bundle that is corrupt
        (unreadable, truncated, structurally wrong, or failing a column
        checksum) is quarantined and reported as a miss, so callers
        regenerate transparently.
        """
        path = self._path(name, target, scale)
        if not path.exists():
            self.counters.misses += 1
            return None
        try:
            with self._locked(shared=True):
                trace = self._read_v2(path, name, target)
            if trace is None:
                self.counters.misses += 1
                return None  # stale, not damaged: store() overwrites
            self.counters.hits += 1
            # LRU recency: a read bundle is the *last* eviction victim.
            with contextlib.suppress(OSError):
                os.utime(path, None)
            return trace
        except _CORRUPTION_ERRORS as exc:
            if is_resource_exhaustion(exc):
                # Out of descriptors/space is not corruption: don't
                # quarantine a healthy bundle, surface it retryably.
                raise ResourceExhaustedError(
                    f"cannot read trace cache bundle {path.name}: "
                    f"{exc}") from exc
            self.counters.misses += 1
            with self._locked():
                self.quarantine(path)
            return None

    def _read_v2(self, path: pathlib.Path, name: str,
                 target: str) -> Optional[Trace]:
        """Map a v2 ``.rtc`` bundle read-only (None = version-stale).

        Structural damage, truncation (missing/mismatched footer), or
        a column checksum failure raises :class:`_CorruptBundle`.  The
        returned columns are ``np.frombuffer`` views over one shared
        read-only ``np.memmap``; the mapping lives as long as any
        column does (each view holds it via ``.base``).
        """
        with open(path, "rb") as handle:
            prefix = handle.read(12)
            if len(prefix) < 12 or prefix[:8] != MAGIC_V2:
                raise _CorruptBundle("bad v2 magic")
            header_len = int.from_bytes(prefix[8:12], "little")
            if not 0 < header_len <= _MAX_HEADER:
                raise _CorruptBundle(
                    f"implausible header length {header_len}")
            header_bytes = handle.read(header_len)
            if len(header_bytes) != header_len:
                raise _CorruptBundle("truncated header")
            header = json.loads(header_bytes.decode("utf-8"))
            data_end = int(header["data_end"])
            file_size = os.fstat(handle.fileno()).st_size
            if file_size < data_end + len(FOOTER_MAGIC) + 4:
                raise _CorruptBundle(
                    f"truncated bundle ({file_size} bytes, footer "
                    f"expected at {data_end})")
            handle.seek(data_end)
            footer = handle.read(len(FOOTER_MAGIC) + 4)
        if footer[:len(FOOTER_MAGIC)] != FOOTER_MAGIC:
            raise _CorruptBundle("bad footer magic")
        header_crc = zlib.crc32(header_bytes) & 0xFFFFFFFF
        if int.from_bytes(footer[len(FOOTER_MAGIC):], "little") != header_crc:
            raise _CorruptBundle("footer CRC disagrees with header")
        if str(header.get("version")) != self.version:
            return None

        specs = header["columns"]
        if [spec["name"] for spec in specs] != \
                [key for key, _ in TRACE_COLUMNS]:
            raise _CorruptBundle("column table does not match "
                                 "TRACE_COLUMNS")
        mapped = np.memmap(path, dtype=np.uint8, mode="r")
        columns = {}
        for spec in specs:
            key = spec["name"]
            dtype = np.dtype(str(spec["dtype"]))
            if dtype.str != _EXPECTED_DTYPES[key]:
                raise _CorruptBundle(
                    f"column {key!r} has dtype {dtype.str}, "
                    f"expected {_EXPECTED_DTYPES[key]}")
            count = int(spec["count"])
            offset = int(spec["offset"])
            nbytes = int(spec["nbytes"])
            if count < 0 or nbytes != count * dtype.itemsize:
                raise _CorruptBundle(f"column {key!r} extent inconsistent")
            if offset < 0 or offset + nbytes > data_end:
                raise _CorruptBundle(f"column {key!r} outside data region")
            column = np.frombuffer(mapped, dtype=dtype, count=count,
                                   offset=offset)
            if _column_crc(column) != int(spec["crc32"]):
                raise _CorruptBundle(f"checksum mismatch in column {key!r}")
            columns[key] = column
        return Trace(columns, name=name, target=target)

    def store(self, trace: Trace, scale: str) -> None:
        """Persist *trace* as a v2 bundle (atomically: write then
        rename).

        The temporary file is unlinked on any write failure so crashed
        or interrupted stores never leave partial bundles behind.
        """
        path = self._path(trace.name, trace.target, scale)
        temporary = path.with_suffix(".tmp.rtc")
        with self._locked():
            try:
                try:
                    self._write_bundle(temporary, path, trace)
                except OSError as exc:
                    if not is_resource_exhaustion(exc):
                        raise
                    # Disk full: make room (drop the quarantine and
                    # every other bundle -- the cache is an accelerator
                    # and a full disk is an emergency) and retry once.
                    with contextlib.suppress(OSError):
                        temporary.unlink()
                    self._evict_for_space(exclude=path)
                    try:
                        self._write_bundle(temporary, path, trace)
                    except OSError as retry_exc:
                        if is_resource_exhaustion(retry_exc):
                            raise ResourceExhaustedError(
                                f"cannot store trace cache bundle "
                                f"{path.name} even after eviction: "
                                f"{retry_exc}") from retry_exc
                        raise
            finally:
                with contextlib.suppress(OSError):
                    temporary.unlink()
            if self.budget:
                self._enforce_budget(exclude=path)

    def _pack_v2(self, trace: Trace):
        """Lay out one trace's v2 bundle: header bytes + column plan.

        The header embeds each column's absolute file offset, and the
        first offset must clear the header itself -- so the layout is
        computed as a (terminating: the candidate start only ever
        grows, by whole pages, and offset digit counts are bounded)
        fixpoint over the aligned header size.
        """
        arrays = []
        crcs = {}
        for key, code in TRACE_COLUMNS:
            column = np.ascontiguousarray(
                getattr(trace, key), dtype=np.dtype("<" + code))
            arrays.append((key, column))
            crcs[key] = _column_crc(column)
        data_start = ALIGNMENT
        while True:
            specs = []
            offset = data_start
            for key, column in arrays:
                specs.append({
                    "name": key,
                    "dtype": column.dtype.str,
                    "count": int(column.size),
                    "offset": offset,
                    "nbytes": int(column.nbytes),
                    "crc32": crcs[key],
                })
                offset = _align_up(offset + column.nbytes)
            data_end = specs[-1]["offset"] + specs[-1]["nbytes"]
            header = {
                "format": "repro.trace-cache/v2",
                "version": self.version,
                "name": trace.name,
                "target": trace.target,
                "columns": specs,
                "data_end": data_end,
            }
            header_bytes = json.dumps(
                header, sort_keys=True, separators=(",", ":")).encode()
            needed = _align_up(len(MAGIC_V2) + 4 + len(header_bytes))
            if needed <= data_start:
                return header_bytes, arrays, specs, data_end
            data_start = needed

    def _write_bundle(self, temporary: pathlib.Path, path: pathlib.Path,
                      trace: Trace) -> None:
        """One atomic write-then-rename attempt (caller holds the lock)."""
        header_bytes, arrays, specs, data_end = self._pack_v2(trace)
        with open(temporary, "wb") as handle:
            handle.write(MAGIC_V2)
            handle.write(len(header_bytes).to_bytes(4, "little"))
            handle.write(header_bytes)
            for (key, column), spec in zip(arrays, specs):
                if column.nbytes:
                    handle.seek(spec["offset"])
                    handle.write(memoryview(column).cast("B"))
            handle.seek(data_end)
            handle.write(FOOTER_MAGIC)
            handle.write(
                (zlib.crc32(header_bytes) & 0xFFFFFFFF).to_bytes(
                    4, "little"))
        temporary.replace(path)
        self.counters.stores += 1

    # -- budget/eviction -----------------------------------------------------
    def _bundle_files(self, exclude: Optional[pathlib.Path] = None):
        """Every cached bundle, temporaries excluded."""
        return [entry for entry in self.directory.glob("*.rtc")
                if entry != exclude and not entry.name.endswith(".tmp.rtc")]

    def _bundles_by_age(self, exclude: Optional[pathlib.Path] = None):
        """Cached bundles, least recently used first (mtime, then name
        for determinism when mtimes tie)."""
        try:
            return sorted(
                self._bundle_files(exclude=exclude),
                key=lambda entry: (entry.stat().st_mtime, entry.name))
        except OSError:
            return []

    def _enforce_budget(self, exclude: Optional[pathlib.Path] = None) -> int:
        """Evict LRU bundles until the directory fits the byte budget
        (the just-written *exclude* is never evicted); returns the
        number evicted."""
        bundles = self._bundles_by_age(exclude=exclude)
        total = 0
        with contextlib.suppress(OSError):
            if exclude is not None and exclude.exists():
                total += exclude.stat().st_size
        sizes = {}
        for entry in bundles:
            with contextlib.suppress(OSError):
                sizes[entry] = entry.stat().st_size
                total += sizes[entry]
        evicted = 0
        for entry in bundles:
            if total <= self.budget:
                break
            with contextlib.suppress(OSError):
                entry.unlink()
                total -= sizes.get(entry, 0)
                evicted += 1
                self.counters.evictions += 1
        return evicted

    def _evict_for_space(self, exclude: Optional[pathlib.Path] = None) -> int:
        """Emergency eviction after ENOSPC: drop every quarantined file
        and every bundle but *exclude*; returns the number removed."""
        removed = 0
        qdir = self.directory / "quarantine"
        if qdir.is_dir():
            for entry in qdir.iterdir():
                with contextlib.suppress(OSError):
                    entry.unlink()
                    removed += 1
        for entry in self._bundles_by_age(exclude=exclude):
            with contextlib.suppress(OSError):
                entry.unlink()
                removed += 1
                self.counters.evictions += 1
        return removed

    def clear(self) -> int:
        """Delete every cached trace; returns the number removed."""
        removed = 0
        with self._locked():
            for path in self._bundle_files():
                path.unlink()
                removed += 1
        return removed
