"""Model children: each (benchmark, target)'s model units in a forked
child, with the inline guard's results.

The in-process engine (``ParallelEngine`` at ``jobs=1``, the default
journaled ``repro experiment`` path) runs each benchmark's model units
for one target -- sentinel re-runs included -- in a forked child, up to
the number of usable CPUs (``repro.harness.children``).  These tests
hold it to the one-CPU run, where every group runs inline: a clean run,
a planted divergence, an oracle that raises, an oracle that overruns
the watchdog, a failed fork, a child killed mid-group.  They also hold
it to its process hygiene: a shard is checkpointed only once all its
groups are in, at most one process per CPU computes, and no child
outlives a finished, failed, crashed or interrupted run.

Every test but the one-CPU references patches the CPU count to two, so
the children fork on any host.  ``gperf`` and ``sc`` each have exactly
one sampled model unit at the default rate and seed
(``gperf/model/ppc/620/Constant``, ``sc/model/alpha/21164/Limit``) and
are cheap at ``tiny`` scale.
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
from repro.harness import children
from repro.harness import parallel
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
#: before model units ran in children: stdout, the same stdout without
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
    _cpus(monkeypatch, 2)


def _cpus(monkeypatch, count: int) -> None:
    """Make the engine see *count* usable CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(count)), raising=False)


def _sha(data) -> str:
    return hashlib.sha256(data.encode()).hexdigest()


def _assert_no_children() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _patch_reference(monkeypatch, action) -> None:
    """Call ``action(annotated)`` before every reference model run (in
    the children, or inline at one CPU)."""
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
            "children/processes", 0),
    }


def _inline_outcome(monkeypatch, **kwargs) -> dict:
    with monkeypatch.context() as patch:
        _cpus(patch, 1)
        outcome = _engine_outcome(**kwargs)
    assert outcome["children"] == 0
    return outcome


def _without_children(outcome: dict) -> dict:
    return {key: value for key, value in outcome.items()
            if key != "children"}


def test_lighten_payload_leaves_the_worker_session_untouched(tmp_path):
    units = tuple(unit for unit in default_workplan(("grep",))
                  if unit.stage != "model")
    shard = parallel._Shard(_ShardSpec(
        benchmark="grep", scale="tiny", verify=True,
        cache_dir=str(tmp_path / "cache"), units=units))
    shard.run(units)
    payload = shard.payload()
    result = parallel._lighten_payload(payload, shard.session.cache, "tiny")
    assert payload.annotated
    for key, annotation in payload.annotated.items():
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
    # One child per (benchmark, target); the checks ran in them.
    assert document["run"]["children/processes"] == 2 * len(BENCHES)
    assert document["run"]["children/cpu_s"] > 0
    assert document["run"]["children/peak_rss_mb"] > 0
    assert {span["pid"] for span in document["spans"]
            if span["phase"] == "model"}.isdisjoint({os.getpid()})
    assert "model children (timing models beside the parent): " \
        "4 process(es)" in render_stats(document)
    _assert_no_children()


def test_children_gate_one_child_per_group(monkeypatch, tmp_path, capsys):
    """Two CPUs: six children for grep, compress and gperf (one per
    benchmark and target), never more than two alive, every model span
    theirs; stdout and the benchmark scope equal the one-CPU run's, and
    at one CPU or without ``os.fork`` nothing forks."""
    alive_at_fork = []
    real_fork = os.fork

    def fork():
        alive = len(children._LIVE) + 1
        pid = real_fork()
        if pid:
            alive_at_fork.append(alive)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    runs = tmp_path / "runs"

    def experiment(run_id):
        alive_at_fork.clear()
        assert main(["experiment", "all", "--scale", "tiny",
                     "--benchmarks", "grep,compress,gperf",
                     "--runs-dir", str(runs), "--run-id", run_id]) == 0
        return capsys.readouterr().out, load_metrics(runs / run_id)

    stdout, document = experiment("two")
    assert len(alive_at_fork) == 6
    assert max(alive_at_fork) <= 2
    assert document["run"]["children/processes"] == 6
    model_pids = {span["pid"] for span in document["spans"]
                  if span["phase"] == "model"}
    assert len(model_pids) == 6 and os.getpid() not in model_pids
    _assert_no_children()

    _cpus(monkeypatch, 1)
    one_stdout, one = experiment("one")
    assert alive_at_fork == []
    assert "children/processes" not in one["run"]
    assert {span["pid"] for span in one["spans"]} == {os.getpid()}
    assert one_stdout == stdout
    assert one["benchmarks"] == document["benchmarks"]

    _cpus(monkeypatch, 2)
    monkeypatch.delattr(os, "fork")
    unforked_stdout, unforked = experiment("no-fork")
    assert alive_at_fork == []
    assert "children/processes" not in unforked["run"]
    assert unforked_stdout == stdout
    assert unforked["benchmarks"] == document["benchmarks"]


def test_clean_run_matches_inline(monkeypatch):
    forked = _engine_outcome()
    assert forked["children"] == 4
    assert forked["failures"] == [] and forked["demotions"] == []
    assert _without_children(forked) == \
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
    # One child per (benchmark, target) of grep and compress.
    assert document["run"]["children/processes"] == 4
    records = replay_journal(runs / "fault" / "journal.jsonl")
    assert [r["unit"] for r in records if r["type"] == "demoted"] == [
        "grep/model/ppc/620/base", "grep/model/alpha/21164/base"]
    _assert_no_children()


def test_oracle_that_raises_ends_as_inline(monkeypatch):
    def broken(annotated):
        raise RuntimeError(f"reference model broke on {annotated.trace.name}")

    _patch_reference(monkeypatch, broken)
    forked = _engine_outcome()
    assert len(forked["failures"]) == 2
    assert all("RuntimeError: reference model broke" in failure
               for failure in forked["failures"])
    assert _without_children(forked) == \
        _without_children(_inline_outcome(monkeypatch))
    _assert_no_children()


def test_oracle_that_overruns_the_watchdog_ends_as_inline(monkeypatch):
    _patch_reference(monkeypatch, lambda annotated: time.sleep(60))
    start = time.monotonic()
    forked = _engine_outcome(unit_timeout=1.0)
    assert time.monotonic() - start < 30
    assert len(forked["failures"]) == 2
    assert all("UnitTimeoutError" in failure
               for failure in forked["failures"])
    assert _without_children(forked) == \
        _without_children(_inline_outcome(monkeypatch, unit_timeout=1.0))
    _assert_no_children()


def test_fork_failure_falls_back_to_inline(monkeypatch):
    def no_fork():
        raise BlockingIOError("fork: resource temporarily unavailable")

    with monkeypatch.context() as patch:
        patch.setattr(os, "fork", no_fork)
        unforked = _engine_outcome()
    assert unforked["children"] == 0
    assert unforked["failures"] == [] and unforked["demotions"] == []
    assert _without_children(unforked) == \
        _without_children(_inline_outcome(monkeypatch))


def test_killed_child_has_its_group_rerun_inline(monkeypatch):
    parent = os.getpid()
    inline = []
    original = PPC620Model.run

    def run(self, annotated, use_lvp=True, engine=None):
        if annotated.trace.name == "gperf":
            if os.getpid() != parent and use_lvp:
                # Mid-group: the group's first unit is the base run.
                os.kill(os.getpid(), signal.SIGKILL)
            if os.getpid() == parent:
                inline.append(use_lvp)
        return original(self, annotated, use_lvp=use_lvp, engine=engine)

    with monkeypatch.context() as patch:
        patch.setattr(PPC620Model, "run", run)
        forked = _engine_outcome()
    # The killed child is reaped and counted like any other.
    assert forked["children"] == 4
    # gperf's whole ppc group (10 units, one sentinel re-run) ran here.
    assert len(inline) == 11
    assert forked["failures"] == [] and forked["demotions"] == []
    assert _without_children(forked) == \
        _without_children(_inline_outcome(monkeypatch))
    _assert_no_children()


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
        owned = [child for child in children._LIVE.values()
                 if child.owner == spec.benchmark]
        self.events.append(("done", spec.benchmark, len(owned)))


def test_checkpoint_follows_its_slow_check(monkeypatch, tmp_path):
    flag = tmp_path / "sc-started"

    def wait_for_sc(annotated):
        # gperf's ppc child cannot finish before the parent has started
        # shard sc, however slow the parent is.  (A child closes every
        # inherited descriptor, so the signal is a file, not a pipe.)
        deadline = time.monotonic() + 60
        while not flag.exists() and time.monotonic() < deadline:
            time.sleep(0.01)

    _patch_reference(monkeypatch, wait_for_sc)
    recorder = _Recorder(flag)
    outcome = _engine_outcome(observer=recorder)
    assert outcome["children"] == 4 and outcome["failures"] == []
    # The parent went on to sc while gperf's ppc group ran, and
    # journaled each shard only once no child of its own was running.
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
    assert not children._LIVE
    _assert_no_children()


# ---------------------------------------------------------------------------
# Whole-process drills: a crash right after a checkpoint, and SIGINT.
# ---------------------------------------------------------------------------
#: Runs the CLI at two usable CPUs with the reference model runs of
#: some benchmarks sleeping first; the parent appends "<benchmark>
#: <pid>" to *pidfile* for every model child it forks (argv: pidfile
#: bench=secs,... cli-args...).
_SLOW_CLI = """
import os, sys, time
from repro import cli
from repro.harness import children
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
def fork(self, owner, work, timeout, _original=children.Children.fork):
    child = _original(self, owner, work, timeout)
    with open(pidfile, "a") as handle:
        handle.write(f"{owner} {child.pid}\\n")
    return child
children.Children.fork = fork
os.sched_getaffinity = lambda pid: {0, 1}
sys.exit(cli.main(sys.argv[3:]))
"""


def _child_pids(pidfile) -> dict:
    """benchmark -> the pids of its model children, in fork order."""
    pids: dict = {}
    if pidfile.exists():
        for line in pidfile.read_text().splitlines():
            owner, pid = line.split()
            pids.setdefault(owner, []).append(int(pid))
    return pids


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
    # gperf's slow ppc group holds its checkpoint back until sc has run
    # and forked its own groups, whose alpha group is slower still: the
    # crash right after gperf's checkpoint then finds sc's alpha child
    # in flight.
    crashed = subprocess.run(
        [sys.executable, "-c", _SLOW_CLI, str(pidfile), "gperf=1,sc=30",
         *_experiment_argv(runs, "crashed")],
        capture_output=True, env=_env({"REPRO_JOURNAL_CRASH_AFTER": "1"}),
        cwd=tmp_path, timeout=600)
    assert crashed.returncode == 23, crashed.stderr.decode()
    forked = _child_pids(pidfile)
    assert len(forked["sc"]) == 2
    assert all(_gone(pid, within=1.0)
               for pids in forked.values() for pid in pids)
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
        proc.send_signal(signal.SIGINT)
        _, stderr = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 128 + signal.SIGINT, stderr.decode()
    assert b"interrupted (SIGINT)" in stderr
    forked = _child_pids(pidfile)
    assert forked["gperf"]
    assert all(_gone(pid, within=1.0)
               for pids in forked.values() for pid in pids)
