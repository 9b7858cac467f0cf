"""Concurrency stress test for the on-disk TraceCache.

PR 1 hardened the cache with fcntl advisory locks, per-column CRC-32
checksums, atomic rename stores, and quarantine of damaged bundles --
all "believed correct" under concurrency.  The parallel engine (this
PR) makes many processes share one cache directory for real, so this
test hammers one directory from several processes doing interleaved
stores, loads, deliberate byte-level corruption, and discards, and
asserts the two invariants that matter:

* a load NEVER returns a trace that differs from what was stored
  (corrupt bundles must surface as misses, not data); and
* no ``.tmp.rtc`` litter survives the stampede.

Corruption is planted the way the cache's own protocol replaces files
-- write-then-rename onto the key -- so a v2 bundle another process
has already memory-mapped keeps its original (verified) inode.
In-place scribbling over a live bundle is outside the cache's
contract (see docs/cache.md); bit rot is modelled as a damaged file
appearing at the key, which every *subsequent* load must catch.
"""

from __future__ import annotations

import multiprocessing
import os
import random

import numpy as np

from repro.harness.cache import TraceCache
from repro.trace.records import TRACE_COLUMNS, Trace

_KEYS = (("synth-a", "ppc", "tiny"), ("synth-b", "alpha", "tiny"))
_PROCESSES = 6
_ITERATIONS = 40


def _canonical_trace(name: str, target: str) -> Trace:
    """A small deterministic trace, unique per (name, target)."""
    seed = abs(hash((name, target))) % (2 ** 32)
    rng = np.random.default_rng(seed)
    length = 512
    columns = {
        key: rng.integers(0, 100, size=length).astype(dtype)
        for key, dtype in TRACE_COLUMNS
    }
    return Trace(columns, name=name, target=target)


def _traces_equal(a: Trace, b: Trace) -> bool:
    return all(np.array_equal(getattr(a, key), getattr(b, key))
               for key, _ in TRACE_COLUMNS)


def _hammer(directory: str, seed: int) -> None:
    """Worker: random store/load/corrupt/discard ops against one dir.

    Exits 0 when every load it observed was either a miss or the
    canonical bytes; any served corruption exits non-zero.
    """
    rng = random.Random(seed)
    cache = TraceCache(directory)
    canon = {key: _canonical_trace(key[0], key[1]) for key in _KEYS}
    for _ in range(_ITERATIONS):
        key = _KEYS[rng.randrange(len(_KEYS))]
        name, target, scale = key
        op = rng.random()
        if op < 0.35:
            cache.store(canon[key], scale)
        elif op < 0.75:
            loaded = cache.load(name, target, scale)
            if loaded is not None and not _traces_equal(loaded, canon[key]):
                os._exit(2)  # corrupt data served: the one fatal sin
        elif op < 0.90:
            # Replace the bundle with a byte-flipped copy (the cache's
            # own rename protocol, so live mappings keep their inode):
            # simulates bit rot surfacing at the key between sessions.
            path = cache.path_for(name, target, scale)
            try:
                data = bytearray(path.read_bytes())
                offset = rng.randrange(max(1, len(data)))
                for i in range(offset, min(offset + 8, len(data))):
                    data[i] = rng.randrange(256)
                rotted = path.with_suffix(f".rot{seed}")
                rotted.write_bytes(bytes(data))
                os.replace(rotted, path)
            except OSError:
                pass  # vanished mid-corruption (store/quarantine race)
        else:
            cache.discard(name, target, scale)
    os._exit(0)


def test_many_processes_never_see_corruption(tmp_path):
    directory = tmp_path / "cache"
    # Seed the cache so early readers have something to chew on.
    warm = TraceCache(directory)
    for name, target, scale in _KEYS:
        warm.store(_canonical_trace(name, target), scale)

    context = multiprocessing.get_context()
    workers = [
        context.Process(target=_hammer, args=(str(directory), seed))
        for seed in range(_PROCESSES)
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=240)
    exit_codes = [worker.exitcode for worker in workers]
    assert exit_codes == [0] * _PROCESSES, \
        f"worker exit codes {exit_codes} (2 = corrupt bundle served)"

    # No interrupted-store litter may survive the stampede.
    assert list(directory.glob("*.tmp.rtc")) == []

    # Whatever survived on disk is clean: every load is either a miss
    # or exactly the canonical trace.
    cache = TraceCache(directory)
    for name, target, scale in _KEYS:
        loaded = cache.load(name, target, scale)
        if loaded is not None:
            assert _traces_equal(loaded, _canonical_trace(name, target))


def _map_and_verify(directory: str, seed: int) -> None:
    """Worker: map the shared v2 bundle read-only and verify it.

    Exit codes: 1 = load missed, 2 = data differs from canonical,
    3 = a column was writable (the mapping must be read-only),
    4 = an in-place write was NOT refused.
    """
    cache = TraceCache(directory)
    canon = _canonical_trace("synth-a", "ppc")
    for _ in range(10):
        loaded = cache.load("synth-a", "ppc", "tiny")
        if loaded is None:
            os._exit(1)
        if not _traces_equal(loaded, canon):
            os._exit(2)
        if any(getattr(loaded, key).flags.writeable
               for key, _ in TRACE_COLUMNS):
            os._exit(3)
        try:
            loaded.value[0] = 1
        except ValueError:
            pass
        else:
            os._exit(4)
        # The escape hatch must hand back private writable columns
        # without disturbing what the other processes are mapping.
        private = loaded.materialize()
        private.value[:] = seed
    os._exit(0)


def test_shared_mmap_across_processes(tmp_path):
    """Many processes map one v2 bundle concurrently: every reader
    sees identical bytes through read-only zero-copy columns, and
    materialize() stays private."""
    directory = tmp_path / "cache"
    warm = TraceCache(directory)
    warm.store(_canonical_trace("synth-a", "ppc"), "tiny")

    context = multiprocessing.get_context()
    workers = [
        context.Process(target=_map_and_verify,
                        args=(str(directory), seed))
        for seed in range(_PROCESSES)
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=120)
    exit_codes = [worker.exitcode for worker in workers]
    assert exit_codes == [0] * _PROCESSES, exit_codes


def test_parallel_engine_shares_one_cache(tmp_path, monkeypatch):
    """Workers populate the shared cache; a fresh serial session then
    hits it (and gets bit-identical traces)."""
    monkeypatch.delenv("REPRO_SABOTAGE", raising=False)
    monkeypatch.delenv("REPRO_PARALLEL_CRASH", raising=False)
    from repro.harness import Session, WorkUnit, ParallelEngine

    directory = tmp_path / "shared"
    benches = ("grep", "quick")
    units = [WorkUnit(b, "trace", t)
             for b in benches for t in ("ppc", "alpha")]
    warm = Session(scale="tiny", benchmarks=benches,
                   cache_dir=str(directory))
    ParallelEngine(warm, jobs=2, units=units).run()
    stored = sorted(p.name for p in directory.glob("*.rtc"))
    assert len(stored) == 4, stored

    # The engine's parent keeps no trace, so the reference is a fresh
    # simulation, not the warmed session.
    cold = Session(scale="tiny", benchmarks=benches,
                   cache_dir=str(directory))
    fresh = Session(scale="tiny", benchmarks=benches)
    for bench in benches:
        for target in ("ppc", "alpha"):
            cached = cold.trace(bench, target)
            assert _traces_equal(fresh.trace(bench, target), cached)
    assert cold.cache.counters.as_dict()["hits"] == 4
