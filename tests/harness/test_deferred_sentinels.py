"""Deferred model sentinels: checks in a forked child, same results.

The in-process engine (``ParallelEngine`` at ``jobs=1``, the default
journaled ``repro experiment`` path) checks each sampled model unit in
a forked child while it goes on with the next units
(``repro.harness.sentinels``).  These tests hold it to the inline
guard's results -- a clean run, a planted divergence, an oracle that
raises, an oracle that overruns the watchdog -- and to its process
hygiene: a shard is checkpointed only once its checks have settled,
and no child outlives a finished, failed, crashed or interrupted run.

``gperf`` and ``sc`` each have exactly one sampled model unit at the
default rate and seed (``gperf/model/ppc/620/Constant``,
``sc/model/alpha/21164/Limit``) and are cheap at ``tiny`` scale.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import signal
import subprocess
import sys
import time

import pytest

from repro.cli import main
from repro.harness import parallel
from repro.harness import sentinels
from repro.harness.experiments import run_experiment
from repro.harness.guard import strip_tier_notes
from repro.harness.journal import replay_journal
from repro.harness.parallel import (
    EngineObserver,
    ParallelEngine,
    _CachedTraceRef,
    _ShardSpec,
    default_workplan,
)
from repro.harness.session import Session
from repro.obs import load_metrics
from repro.obs.render import render_stats
from repro.trace.records import Trace
from repro.uarch.axp21164.model import AXP21164Model
from repro.uarch.engine import resolve_model_engine
from repro.uarch.ppc620.model import PPC620Model

BENCHES = ("gperf", "sc")
SRC = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "..", "src"))

#: Knobs that would pin a tier, reshuffle the sample, or plant a fault.
_KNOBS = ("REPRO_ENGINE", "REPRO_ANNOTATE_KERNEL", "REPRO_MODEL_ENGINE",
          "REPRO_SENTINEL_RATE", "REPRO_SENTINEL_SEED", "REPRO_TIER_FAULT",
          "REPRO_SABOTAGE", "REPRO_TRACE_CACHE", "REPRO_JOBS",
          "REPRO_METRICS", "REPRO_UNIT_TIMEOUT", "REPRO_JOURNAL_CRASH_AFTER")

#: ``experiment all --scale tiny --benchmarks grep,compress`` with
#: ``REPRO_TIER_FAULT=grep:model``, as the inline guard produced it
#: before model checks were deferred: stdout, the same stdout without
#: its Tier notes block, and the benchmark scope of metrics.json
#: (sha256 of its sorted JSON).  Re-record only with the goldens.
_FAULT_STDOUT_SHA = \
    "b0a1ed3485cff8f91fa2b74472cf9c159f1762467bd1e36317585368dc17de18"
_CLEAN_STDOUT_SHA = \
    "ef3e804dcc43e8e46a721c0353f684d8a948b4757e77268466096641250ed9a2"
_FAULT_COUNTERS_SHA = \
    "9ae817e1f0be109bf7690d62df14c9ee47022a775475cb5074c486305400de4e"
_FAULT_NOTES = [
    "  ~ grep [alpha] model tier demoted fast -> reference (model fast "
    "tier diverged from its oracle on grep/model/alpha/21164/ba...)",
    "  ~ grep [ppc] model tier demoted fast -> reference (model fast "
    "tier diverged from its oracle on grep/model/ppc/620/base: ...)",
]


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    for knob in _KNOBS:
        monkeypatch.delenv(knob, raising=False)


def _sha(data) -> str:
    return hashlib.sha256(data.encode()).hexdigest()


def _assert_no_children() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _patch_reference(monkeypatch, action) -> None:
    """Call ``action(annotated)`` before every reference model run.  In
    deferred mode only the forked children (and a recovery) run it."""
    for cls in (PPC620Model, AXP21164Model):
        original = cls.run

        def run(self, annotated, use_lvp=True, engine=None,
                _original=original):
            if resolve_model_engine(engine) == "reference":
                action(annotated)
            return _original(self, annotated, use_lvp=use_lvp,
                             engine=engine)

        monkeypatch.setattr(cls, "run", run)


def _engine_outcome(observer=None, unit_timeout=0.0) -> dict:
    """Run the engine in-process over BENCHES and render two exhibits."""
    session = Session(scale="tiny", benchmarks=BENCHES, metrics=True)
    ParallelEngine(session, jobs=1, observer=observer,
                   unit_timeout=unit_timeout).run()
    return {
        "exhibits": [run_experiment(exp_id, session).text
                     for exp_id in ("fig6", "tab6")],
        "failures": [str(failure) for failure in session.failures],
        "demotions": sorted(d.note for d in session.demotions),
        "counters": session.metrics.benchmark_counters(),
        "children": session.metrics.run_counters().get(
            "sentinel/children", 0),
    }


def _inline_outcome(monkeypatch, **kwargs) -> dict:
    with monkeypatch.context() as patch:
        patch.setattr(ParallelEngine, "defer_model_checks", False)
        return _engine_outcome(**kwargs)


def _without_children(outcome: dict) -> dict:
    return {key: value for key, value in outcome.items()
            if key != "children"}


def test_lighten_payload_leaves_the_worker_session_untouched(
        monkeypatch, tmp_path):
    seen = []
    original = parallel._lighten_payload

    def spy(session, scale):
        seen.append(session)
        return original(session, scale)

    monkeypatch.setattr(parallel, "_lighten_payload", spy)
    units = tuple(unit for unit in default_workplan(("grep",))
                  if unit.stage != "model")
    result = parallel._run_shard(_ShardSpec(
        benchmark="grep", scale="tiny", verify=True,
        cache_dir=str(tmp_path / "cache"), units=units))
    (session,) = seen
    assert session._annotated
    for key, annotation in session._annotated.items():
        assert isinstance(annotation.trace, Trace)
        light = result.annotated[key]
        assert light is not annotation
        assert isinstance(light.trace, _CachedTraceRef)
        assert light.outcomes is annotation.outcomes


def test_children_match_sentinel_checks(tmp_path):
    runs = tmp_path / "runs"
    assert main(["experiment", "all", "--scale", "tiny",
                 "--benchmarks", ",".join(BENCHES),
                 "--runs-dir", str(runs), "--run-id", "clean"]) == 0
    document = load_metrics(runs / "clean")
    checks = sum(scope.get("tier/model/sentinel_checks", 0)
                 for scope in document["benchmarks"].values())
    assert checks == 2
    assert document["run"]["sentinel/children"] == checks
    assert document["run"]["sentinel/cpu_s"] > 0
    assert document["run"]["sentinel/peak_rss_mb"] > 0
    assert "sentinel children (model checks off the critical path): " \
        "2 process(es)" in render_stats(document)
    _assert_no_children()


def test_clean_run_matches_inline(monkeypatch):
    deferred = _engine_outcome()
    assert deferred["children"] == 2
    assert deferred["failures"] == [] and deferred["demotions"] == []
    assert _without_children(deferred) == \
        _without_children(_inline_outcome(monkeypatch))


def test_tier_fault_drill_matches_the_inline_guard(monkeypatch, tmp_path,
                                                   capsys):
    monkeypatch.setenv("REPRO_TIER_FAULT", "grep:model")
    runs = tmp_path / "runs"
    assert main(["experiment", "all", "--scale", "tiny",
                 "--benchmarks", "grep,compress",
                 "--runs-dir", str(runs), "--run-id", "fault"]) == 0
    stdout = capsys.readouterr().out
    assert _sha(stdout) == _FAULT_STDOUT_SHA
    assert _sha(strip_tier_notes(stdout)) == _CLEAN_STDOUT_SHA
    assert sorted(set(re.findall(r"  ~ [^\n]*", stdout))) == _FAULT_NOTES
    document = load_metrics(runs / "fault")
    assert _sha(json.dumps(document["benchmarks"], sort_keys=True)) == \
        _FAULT_COUNTERS_SHA
    # The first failed check settles the shard; none after it is forked.
    assert document["run"]["sentinel/children"] == 1
    records = replay_journal(runs / "fault" / "journal.jsonl")
    assert [r["unit"] for r in records if r["type"] == "demoted"] == [
        "grep/model/ppc/620/base", "grep/model/alpha/21164/base"]
    _assert_no_children()


def test_oracle_that_raises_ends_as_inline(monkeypatch):
    def broken(annotated):
        raise RuntimeError(f"reference model broke on {annotated.trace.name}")

    _patch_reference(monkeypatch, broken)
    deferred = _engine_outcome()
    assert len(deferred["failures"]) == 2
    assert all("RuntimeError: reference model broke" in failure
               for failure in deferred["failures"])
    assert _without_children(deferred) == \
        _without_children(_inline_outcome(monkeypatch))
    _assert_no_children()


def test_oracle_that_overruns_the_watchdog_ends_as_inline(monkeypatch):
    _patch_reference(monkeypatch, lambda annotated: time.sleep(60))
    start = time.monotonic()
    deferred = _engine_outcome(unit_timeout=1.0)
    assert time.monotonic() - start < 30
    assert len(deferred["failures"]) == 2
    assert all("UnitTimeoutError" in failure
               for failure in deferred["failures"])
    assert _without_children(deferred) == \
        _without_children(_inline_outcome(monkeypatch, unit_timeout=1.0))
    _assert_no_children()


def test_fork_failure_falls_back_to_inline(monkeypatch):
    def no_fork():
        raise BlockingIOError("fork: resource temporarily unavailable")

    with monkeypatch.context() as patch:
        patch.setattr(os, "fork", no_fork)
        deferred = _engine_outcome()
    assert deferred["children"] == 0
    assert deferred["failures"] == [] and deferred["demotions"] == []
    assert _without_children(deferred) == \
        _without_children(_inline_outcome(monkeypatch))


class _Recorder(EngineObserver):
    """Records shard events; touches *flag* when shard ``sc`` starts."""

    def __init__(self, flag):
        self.events = []
        self.flag = flag

    def shard_started(self, spec):
        self.events.append(("started", spec.benchmark))
        if spec.benchmark == "sc":
            self.flag.touch()

    def shard_finished(self, spec, result):
        owned = [check for check in sentinels._LIVE.values()
                 if check.owner == spec.benchmark]
        self.events.append(("done", spec.benchmark, len(owned)))


def test_checkpoint_follows_its_slow_check(monkeypatch, tmp_path):
    flag = tmp_path / "sc-started"

    def wait_for_sc(annotated):
        # The forked check cannot finish before the parent has started
        # shard sc, however slow the parent is.  (A child closes every
        # inherited descriptor, so the signal is a file, not a pipe.)
        deadline = time.monotonic() + 60
        while not flag.exists() and time.monotonic() < deadline:
            time.sleep(0.01)

    _patch_reference(monkeypatch, wait_for_sc)
    recorder = _Recorder(flag)
    outcome = _engine_outcome(observer=recorder)
    assert outcome["children"] == 2 and outcome["failures"] == []
    # The parent went on to sc while gperf's check ran, and journaled
    # each shard only once no check of its own was left running.
    assert recorder.events == [
        ("started", "gperf"), ("started", "sc"),
        ("done", "gperf", 0), ("done", "sc", 0)]
    _assert_no_children()


def test_interrupted_engine_leaves_no_child(monkeypatch):
    _patch_reference(monkeypatch, lambda annotated: time.sleep(30))
    original = parallel._execute_unit

    def execute(session, unit):
        if unit.benchmark == "sc":
            raise KeyboardInterrupt
        return original(session, unit)

    monkeypatch.setattr(parallel, "_execute_unit", execute)
    session = Session(scale="tiny", benchmarks=BENCHES, metrics=True)
    with pytest.raises(KeyboardInterrupt):
        ParallelEngine(session, jobs=1).run()
    assert not sentinels._LIVE
    _assert_no_children()


# ---------------------------------------------------------------------------
# Whole-process drills: a crash right after a checkpoint, and SIGINT.
# ---------------------------------------------------------------------------
#: Runs the CLI with the reference model runs of some benchmarks
#: sleeping first; the parent appends "<benchmark> <pid>" to *pidfile*
#: for every sentinel child it forks (argv: pidfile bench=secs,...
#: cli-args...).
_SLOW_CLI = """
import sys, time
from repro import cli
from repro.harness import sentinels
from repro.uarch.axp21164.model import AXP21164Model
from repro.uarch.engine import resolve_model_engine
from repro.uarch.ppc620.model import PPC620Model
pidfile = sys.argv[1]
sleeps = {name: float(secs) for name, secs in
          (item.split("=") for item in sys.argv[2].split(","))}
for cls in (PPC620Model, AXP21164Model):
    def run(self, annotated, use_lvp=True, engine=None, _original=cls.run):
        if resolve_model_engine(engine) == "reference":
            time.sleep(sleeps.get(annotated.trace.name, 0.0))
        return _original(self, annotated, use_lvp=use_lvp, engine=engine)
    cls.run = run
def fork(self, check, _original=sentinels.DeferredChecks._fork):
    _original(self, check)
    with open(pidfile, "a") as handle:
        handle.write(f"{check.owner} {check.pid}\\n")
sentinels.DeferredChecks._fork = fork
sys.exit(cli.main(sys.argv[3:]))
"""


def _child_pids(pidfile) -> dict:
    if not pidfile.exists():
        return {}
    return {owner: int(pid) for owner, pid in
            (line.split() for line in pidfile.read_text().splitlines())}


def _env(extra=None):
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    env.update(extra or {})
    return env


def _experiment_argv(runs, run_id):
    return ["experiment", "all", "--scale", "tiny",
            "--benchmarks", ",".join(BENCHES),
            "--runs-dir", str(runs), "--run-id", run_id]


def _gone(pid: int, within: float = 10.0) -> bool:
    deadline = time.monotonic() + within
    while time.monotonic() < deadline:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return True
        time.sleep(0.05)
    return False


def test_crash_drill_kills_the_child_and_resume_is_identical(tmp_path):
    runs = tmp_path / "runs"
    control = subprocess.run(
        [sys.executable, "-m", "repro", *_experiment_argv(runs, "control")],
        capture_output=True, env=_env(), cwd=tmp_path, timeout=600)
    assert control.returncode == 0
    pidfile = tmp_path / "children"
    # gperf's slow check holds its checkpoint back until sc has run and
    # queued its own, slower check: the crash right after gperf's
    # checkpoint then finds sc's child in flight.
    crashed = subprocess.run(
        [sys.executable, "-c", _SLOW_CLI, str(pidfile), "gperf=1,sc=30",
         *_experiment_argv(runs, "crashed")],
        capture_output=True, env=_env({"REPRO_JOURNAL_CRASH_AFTER": "1"}),
        cwd=tmp_path, timeout=600)
    assert crashed.returncode == 23, crashed.stderr.decode()
    assert _gone(_child_pids(pidfile)["sc"], within=1.0)
    records = replay_journal(runs / "crashed" / "journal.jsonl")
    assert [(r["type"], r.get("benchmark")) for r in records
            if r["type"] in ("started", "done")] == [
        ("started", "gperf"), ("started", "sc"), ("done", "gperf")]
    resumed = subprocess.run(
        [sys.executable, "-m", "repro", "experiment", "--resume",
         "crashed", "--runs-dir", str(runs)],
        capture_output=True, env=_env(), cwd=tmp_path, timeout=600)
    assert resumed.returncode == 0
    assert resumed.stdout == control.stdout


def test_sigint_kills_the_child(tmp_path):
    pidfile = tmp_path / "children"
    proc = subprocess.Popen(
        [sys.executable, "-c", _SLOW_CLI, str(pidfile), "gperf=60",
         *_experiment_argv(tmp_path / "runs", "interrupted")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_env(),
        cwd=tmp_path)
    try:
        deadline = time.monotonic() + 120
        while "gperf" not in _child_pids(pidfile):
            assert proc.poll() is None, proc.communicate()
            assert time.monotonic() < deadline
            time.sleep(0.05)
        child = _child_pids(pidfile)["gperf"]
        proc.send_signal(signal.SIGINT)
        _, stderr = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 128 + signal.SIGINT, stderr.decode()
    assert b"interrupted (SIGINT)" in stderr
    assert _gone(child, within=1.0)
