"""Resilience drills: ``repro experiment`` under one planted fault.

Each drill runs the CLI in a subprocess (every inherited ``REPRO_*``
knob stripped) with one fault planted and asserts the designed
response: exhibit stdout byte-identical to an undisturbed baseline run
(after stripping a ``Tier notes:`` block where a tier was demoted), or
a clean usage error.  Victims and fault positions are drawn from one
fixed seed, so a failure replays exactly.  Every subprocess's stdout
and stderr are written next to its run and cache directories under the
test's ``tmp_path`` (CI passes ``--basetemp`` and uploads it when a
drill fails).

A drill kind that another tier-1 test already runs end to end is not
run twice: :data:`COVERED_BY` names that test instead, and
``test_every_kind_has_a_home`` keeps the map pointing at real tests.
"""

from __future__ import annotations

import importlib
import os
import random
import subprocess
import sys

import pytest

from repro.harness.guard import strip_tier_notes

SRC = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "..", "src"))
BENCHMARKS = ("grep", "compress")
EXHIBIT = "fig6"

#: Seeds every drill's choices (victim, damaged byte, knob).
SEED = 0

#: Every degradation path the drills cover.
DRILL_KINDS = (
    "tier_trace",     # forced fast-tier divergence at the trace stage
    "tier_annotate",  # ... at the annotate stage
    "tier_model",     # ... at the model stage
    "transient",      # a transient stage failure absorbed by the retry
    "sabotage",       # permanent stage failure -> footnoted omission
    "cache_corrupt",  # bit-flipped cache bundle -> quarantine + rebuild
    "cache_budget",   # 1-byte cache budget -> LRU eviction, same output
    "crash_resume",   # hard kill after a checkpoint -> --resume replay
    "hang",           # wedged unit -> watchdog timeout, footnoted
    "oracle_env",     # oracle tier pinned -> byte-identical output
    "bad_knob",       # invalid tier knob -> clean usage error
)

#: kind -> the tier-1 test that already drives it end to end.
COVERED_BY = {
    "tier_trace": "tests/harness/test_guard.py::TestDemotionByteIdentity"
                  "::test_serial_demotion_matches_oracle_run",
    "tier_model": "tests/harness/test_deferred_sentinels.py"
                  "::test_tier_fault_drill_matches_the_inline_guard",
    "transient": "tests/harness/test_journal.py::TestTransientKnob"
                 "::test_session_survives_transient_faults",
    "sabotage": "tests/test_cli.py::TestDegradedRuns"
                "::test_sabotaged_experiment_all_exits_nonzero",
    "crash_resume": "tests/harness/test_resume.py::TestCrashResume"
                    "::test_crash_after_k_checkpoints_serial",
    "hang": "tests/harness/test_resume.py::TestWatchdogDrill"
            "::test_hung_benchmark_is_footnoted_not_fatal",
    "oracle_env": "tests/harness/test_engine_invariance.py"
                  "::test_healthy_run_identical_across_tiers",
}


def _experiment(workdir, name: str, env=None):
    """Run the drill's exhibit in *workdir*; keep its output as
    ``<name>.stdout``/``<name>.stderr`` there."""
    clean = {key: value for key, value in os.environ.items()
             if not key.startswith("REPRO_")}
    clean.update(PYTHONPATH=SRC, REPRO_RUNS_DIR=str(workdir / "runs"))
    clean.update(env or {})
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "experiment", EXHIBIT,
         "--scale", "tiny", "--benchmarks", ",".join(BENCHMARKS)],
        env=clean, cwd=workdir, capture_output=True, text=True,
        timeout=600)
    (workdir / f"{name}.stdout").write_text(proc.stdout)
    (workdir / f"{name}.stderr").write_text(proc.stderr)
    return proc


@pytest.fixture(scope="module")
def baseline(tmp_path_factory) -> str:
    """The undisturbed run's stdout: the identity oracle."""
    proc = _experiment(tmp_path_factory.mktemp("baseline"), "baseline")
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _tier_annotate(tmp_path, rng, baseline):
    victim = rng.choice(BENCHMARKS)
    proc = _experiment(tmp_path, "faulted",
                       {"REPRO_TIER_FAULT": f"{victim}:annotate"})
    assert proc.returncode == 0, proc.stderr
    assert "Tier notes:" in proc.stdout
    assert f"{victim} [ppc] annotate tier demoted vector -> general" \
        in proc.stdout
    assert strip_tier_notes(proc.stdout) == baseline


def _cache_corrupt(tmp_path, rng, baseline):
    cache = tmp_path / "cache"
    env = {"REPRO_TRACE_CACHE": str(cache)}
    assert _experiment(tmp_path, "warm", env).returncode == 0
    bundles = sorted(cache.glob("*.rtc"))
    assert len(bundles) == 2 * len(BENCHMARKS)
    victim = rng.choice(bundles)
    data = bytearray(victim.read_bytes())
    # A byte of the CRC footer: always integrity-covered (a flip in
    # alignment padding would be inert).
    data[len(data) - 12 + rng.randrange(12)] ^= 1 << rng.randrange(8)
    victim.write_bytes(bytes(data))
    proc = _experiment(tmp_path, "healed", env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == baseline
    assert list((cache / "quarantine").iterdir())
    assert victim.exists()  # regenerated and stored again


def _cache_budget(tmp_path, rng, baseline):
    cache = tmp_path / "cache"
    proc = _experiment(tmp_path, "budgeted", {
        "REPRO_TRACE_CACHE": str(cache), "REPRO_CACHE_BUDGET": "1"})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == baseline
    assert len(list(cache.glob("*.rtc"))) <= 1


def _bad_knob(tmp_path, rng, baseline):
    knob = rng.choice(("REPRO_ENGINE", "REPRO_ANNOTATE_KERNEL",
                       "REPRO_MODEL_ENGINE"))
    proc = _experiment(tmp_path, "refused", {knob: "warp9"})
    assert proc.returncode == 2
    assert f"invalid {knob}='warp9': choose from" in proc.stderr
    assert proc.stdout == ""


_DRILLS = {
    "tier_annotate": _tier_annotate,
    "cache_corrupt": _cache_corrupt,
    "cache_budget": _cache_budget,
    "bad_knob": _bad_knob,
}


@pytest.mark.parametrize("kind", sorted(_DRILLS, key=DRILL_KINDS.index))
def test_drill(kind, tmp_path, baseline):
    _DRILLS[kind](tmp_path, random.Random(f"{SEED}:{kind}"), baseline)


def test_every_kind_has_a_home():
    assert set(COVERED_BY) | set(_DRILLS) == set(DRILL_KINDS)
    assert not set(COVERED_BY) & set(_DRILLS)
    for nodeid in COVERED_BY.values():
        path, *names = nodeid.split("::")
        target = importlib.import_module(
            path[:-len(".py")].replace("/", "."))
        for name in names:
            target = getattr(target, name)
        assert callable(target), nodeid
