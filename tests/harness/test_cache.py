"""Tests for the hardened on-disk trace cache.

The round-trip itself is covered in tests/trace/test_validate.py; this
module covers the corruption paths: damaged bundles must read as
misses (with the bad file quarantined), stale bundles as plain misses,
and interrupted writes must leave no debris behind.  The v2 (``.rtc``)
format tests pick apart the on-disk framing -- header, page-aligned
column table, CRC footer.
"""

import json
import zlib

import numpy as np
import pytest

from repro.harness import Session, TraceCache
from repro.harness.cache import (
    ALIGNMENT,
    FOOTER_MAGIC,
    MAGIC_V2,
)
from repro.trace.records import TRACE_COLUMNS


def _store_grep(tmp_path, grep_trace):
    cache = TraceCache(tmp_path)
    cache.store(grep_trace, "tiny")
    return cache, cache.path_for("grep", "ppc", "tiny")


def _header_of(path):
    data = path.read_bytes()
    header_len = int.from_bytes(data[8:12], "little")
    return json.loads(data[12:12 + header_len].decode()), data


def _rewrite_header(path, header):
    """Replace a bundle's header JSON *and* recompute the footer CRC,
    so only the structural checks (not the CRC layer) can object."""
    _, data = _header_of(path)
    old_len = int.from_bytes(data[8:12], "little")
    header_bytes = json.dumps(
        header, sort_keys=True, separators=(",", ":")).encode()
    assert 12 + len(header_bytes) <= ALIGNMENT  # stays inside the padding
    body = bytearray(data)
    body[8:12] = len(header_bytes).to_bytes(4, "little")
    body[12:12 + len(header_bytes)] = header_bytes
    # Zero the rest of the old header region.
    for i in range(12 + len(header_bytes), 12 + old_len):
        body[i] = 0
    crc = zlib.crc32(bytes(header_bytes)) & 0xFFFFFFFF
    body[-4:] = crc.to_bytes(4, "little")
    path.write_bytes(bytes(body))


class TestCorruptionRecovery:
    def test_truncated_bundle_regenerates_transparently(
            self, tmp_path, grep_trace):
        cache, path = _store_grep(tmp_path, grep_trace)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        # A session pointed at the damaged cache regenerates and the
        # caller never notices.
        session = Session(scale="tiny", benchmarks=("grep",),
                          cache_dir=str(tmp_path))
        regenerated = session.trace("grep", "ppc")
        assert (regenerated.value == grep_trace.value).all()
        assert session.failures == []
        quarantined = list((tmp_path / "quarantine").iterdir())
        assert len(quarantined) == 1
        # ... and the regenerated trace was re-stored, intact.
        assert cache.load("grep", "ppc", "tiny") is not None

    def test_bitflipped_column_caught_by_checksum(
            self, tmp_path, grep_trace):
        cache, path = _store_grep(tmp_path, grep_trace)
        # Flip one byte inside a column's data region while leaving
        # the header (and so every recorded CRC) untouched: only the
        # per-column checksum layer can catch it.
        header, data = _header_of(path)
        spec = next(s for s in header["columns"] if s["name"] == "value")
        body = bytearray(data)
        body[spec["offset"]] ^= 1
        path.write_bytes(bytes(body))
        assert cache.load("grep", "ppc", "tiny") is None
        assert list((tmp_path / "quarantine").iterdir())
        session = Session(scale="tiny", benchmarks=("grep",),
                          cache_dir=str(tmp_path))
        assert (session.trace("grep", "ppc").value
                == grep_trace.value).all()

    def test_version_bump_is_clean_miss(self, tmp_path, grep_trace):
        cache, _ = _store_grep(tmp_path, grep_trace)
        cache.version = cache.version + "-stale"
        assert cache.load("grep", "ppc", "tiny") is None
        # Stale is not damaged: nothing quarantined, and a session
        # with the current version simply regenerates and overwrites.
        assert not (tmp_path / "quarantine").exists()
        session = Session(scale="tiny", benchmarks=("grep",),
                          cache_dir=str(tmp_path))
        assert session.trace("grep", "ppc") is not None

    def test_tampered_header_caught_by_footer_crc(
            self, tmp_path, grep_trace):
        cache, path = _store_grep(tmp_path, grep_trace)
        header, data = _header_of(path)
        # Rewrite the header without fixing the footer: the footer CRC
        # must refuse it even though the JSON still parses.
        body = bytearray(data)
        header["name"] = "imposter"
        header_bytes = json.dumps(
            header, sort_keys=True, separators=(",", ":")).encode()
        body[8:12] = len(header_bytes).to_bytes(4, "little")
        body[12:12 + len(header_bytes)] = header_bytes
        path.write_bytes(bytes(body))
        assert cache.load("grep", "ppc", "tiny") is None
        assert list((tmp_path / "quarantine").iterdir())

    def test_wrong_column_table_is_corrupt(self, tmp_path, grep_trace):
        cache, path = _store_grep(tmp_path, grep_trace)
        header, _ = _header_of(path)
        # Drop a column from the table (footer CRC recomputed, so only
        # the TRACE_COLUMNS structural check can object).
        header["columns"] = header["columns"][:-1]
        _rewrite_header(path, header)
        assert cache.load("grep", "ppc", "tiny") is None
        assert list((tmp_path / "quarantine").iterdir())

    def test_truncation_at_footer_detected(self, tmp_path, grep_trace):
        cache, path = _store_grep(tmp_path, grep_trace)
        # Cut exactly the footer off: the columns are all intact, only
        # the atomicity witness is missing.
        data = path.read_bytes()
        path.write_bytes(data[:-12])
        assert cache.load("grep", "ppc", "tiny") is None
        assert list((tmp_path / "quarantine").iterdir())

    def test_quarantine_names_do_not_collide(self, tmp_path, grep_trace):
        cache, path = _store_grep(tmp_path, grep_trace)
        for _ in range(3):
            path.write_bytes(b"garbage")
            assert cache.load("grep", "ppc", "tiny") is None
            cache.store(grep_trace, "tiny")
        assert len(list((tmp_path / "quarantine").iterdir())) == 3


class TestWriteHygiene:
    def test_stale_temporaries_swept_on_init(self, tmp_path):
        stale = tmp_path / "grep-ppc-tiny.tmp.rtc"
        stale.write_bytes(b"half a bundle")
        TraceCache(tmp_path)
        assert not stale.exists()

    def test_failed_store_leaves_no_debris(self, tmp_path, grep_trace,
                                           monkeypatch):
        cache = TraceCache(tmp_path)

        def explode(self, temporary, path, trace):
            temporary.write_bytes(b"RTRACE02 partial")
            raise OSError("i/o error mid-write")

        monkeypatch.setattr(TraceCache, "_write_bundle", explode)
        with pytest.raises(OSError):
            cache.store(grep_trace, "tiny")
        assert list(tmp_path.glob("*.tmp.rtc")) == []
        assert cache.load("grep", "ppc", "tiny") is None

    def test_interrupted_store_leaves_no_debris(self, tmp_path, grep_trace,
                                                monkeypatch):
        cache = TraceCache(tmp_path)

        def interrupted(self, temporary, path, trace):
            # Write a partial file, then die, as a crash mid-write would.
            temporary.write_bytes(MAGIC_V2 + b" partial")
            raise KeyboardInterrupt

        monkeypatch.setattr(TraceCache, "_write_bundle", interrupted)
        with pytest.raises(KeyboardInterrupt):
            cache.store(grep_trace, "tiny")
        assert list(tmp_path.glob("*.tmp.rtc")) == []


class TestStoredFormat:
    def test_v2_framing(self, tmp_path, grep_trace):
        _, path = _store_grep(tmp_path, grep_trace)
        data = path.read_bytes()
        assert data[:8] == MAGIC_V2
        header, _ = _header_of(path)
        assert header["format"] == "repro.trace-cache/v2"
        assert "version" in header
        assert data[header["data_end"]:header["data_end"] + 8] \
            == FOOTER_MAGIC
        assert len(data) == header["data_end"] + 12

    def test_column_table_matches_trace_columns(self, tmp_path,
                                                grep_trace):
        _, path = _store_grep(tmp_path, grep_trace)
        header, _ = _header_of(path)
        specs = header["columns"]
        assert [s["name"] for s in specs] == \
            [key for key, _ in TRACE_COLUMNS]
        for spec, (key, code) in zip(specs, TRACE_COLUMNS):
            expected = np.dtype("<" + code)
            assert np.dtype(spec["dtype"]) == expected
            assert spec["nbytes"] == spec["count"] * expected.itemsize
            assert "crc32" in spec

    def test_columns_are_page_aligned(self, tmp_path, grep_trace):
        _, path = _store_grep(tmp_path, grep_trace)
        header, _ = _header_of(path)
        for spec in header["columns"]:
            assert spec["offset"] % ALIGNMENT == 0, spec["name"]

    def test_loaded_columns_are_read_only_views(self, tmp_path,
                                                grep_trace):
        cache, _ = _store_grep(tmp_path, grep_trace)
        loaded = cache.load("grep", "ppc", "tiny")
        for key, _ in TRACE_COLUMNS:
            column = getattr(loaded, key)
            assert not column.flags.writeable, key
            assert not column.flags.owndata, key
        # The escape hatch hands back private writable columns.
        private = loaded.materialize()
        for key, _ in TRACE_COLUMNS:
            assert getattr(private, key).flags.writeable, key
        assert np.array_equal(private.value, grep_trace.value)



class TestLoadsPerRun:
    """A journaled in-process run loads each cached bundle once: the
    shard's session reads it, and the journal digest and the merge use
    that same in-memory trace.  Only the checkpoint names it by stub."""

    BENCHES = ("grep", "compress")

    def _run(self, monkeypatch, tmp_path, run_id, cpus):
        import pickle

        from repro.cli import main
        from repro.harness.parallel import _CachedTraceRef

        loads = []
        original = TraceCache.load

        def counting_load(cache, name, target, scale):
            trace = original(cache, name, target, scale)
            if trace is not None:  # a miss reads no bundle
                loads.append((name, target))
            return trace

        for knob in ("REPRO_SENTINEL_RATE", "REPRO_TIER_FAULT",
                     "REPRO_JOBS", "REPRO_MODEL_ENGINE"):
            monkeypatch.delenv(knob, raising=False)
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "cache"))
        monkeypatch.setattr(TraceCache, "load", counting_load)
        monkeypatch.setattr("os.sched_getaffinity",
                            lambda pid: set(range(cpus)), raising=False)
        runs = tmp_path / "runs"
        assert main(["experiment", "tab3", "--scale", "tiny",
                     "--benchmarks", ",".join(self.BENCHES),
                     "--runs-dir", str(runs), "--run-id", run_id]) == 0
        for bench in self.BENCHES:
            checkpoint = runs / run_id / "checkpoints" / f"{bench}.pkl"
            payload = pickle.loads(checkpoint.read_bytes())
            assert all(isinstance(trace, _CachedTraceRef)
                       for trace in payload.traces.values())
        return sorted(loads)

    @pytest.mark.parametrize("cpus", (1, 2))
    def test_cold_then_warm(self, monkeypatch, tmp_path, capsys, cpus):
        # Cold: every trace is simulated and stored, none read back.
        assert self._run(monkeypatch, tmp_path, "cold", cpus) == []
        # Warm: one load per trace, by the session that needs it.
        assert self._run(monkeypatch, tmp_path, "warm", cpus) == sorted(
            (name, target) for name in self.BENCHES
            for target in ("ppc", "alpha"))
        capsys.readouterr()
