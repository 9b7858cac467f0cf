"""Differential resume suite: a crashed-and-resumed run must be
byte-identical to an uninterrupted one.

Every test here drives the real CLI in a subprocess (the journal's
crash-safety claims are about whole processes dying, so in-process
simulation would prove nothing): runs are killed with
``REPRO_JOURNAL_CRASH_AFTER`` (a hard ``os._exit`` right after the
k-th checkpoint), with genuine ``SIGKILL``, or interrupted with
``SIGINT``/``SIGTERM``, then resumed via ``--resume`` and diffed
against an uninterrupted control run -- serially and under ``--jobs
4``, with and without sabotage faults, and with a truncated trailing
journal line.  The watchdog drill wedges one benchmark with
``REPRO_PARALLEL_HANG`` and asserts ``--unit-timeout`` converts the
hang into an ordinary footnoted failure.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time

import pytest

BENCHES = "grep,compress,quick"
SRC = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "..", "src"))


def _env(extra=None):
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    env.update(extra or {})
    return env


def _cli(*argv, cwd, extra_env=None, timeout=600):
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True, env=_env(extra_env), cwd=cwd, timeout=timeout)


def _experiment(cwd, *extra, run_id=None, benches=BENCHES, extra_env=None):
    argv = ["experiment", "all", "--scale", "tiny",
            "--benchmarks", benches, *extra]
    if run_id:
        argv += ["--run-id", run_id]
    return _cli(*argv, cwd=cwd, extra_env=extra_env)


def _resume(cwd, run_id, *extra, extra_env=None):
    return _cli("experiment", "--resume", run_id, *extra,
                cwd=cwd, extra_env=extra_env)


@pytest.fixture(scope="module")
def control(tmp_path_factory):
    """Uninterrupted `experiment all` stdout (the oracle)."""
    cwd = tmp_path_factory.mktemp("control")
    done = _experiment(cwd, run_id="control")
    assert done.returncode == 0, done.stderr.decode()
    return done.stdout


class TestCrashResume:
    @pytest.mark.parametrize("k", [1, 2])
    def test_crash_after_k_checkpoints_serial(self, k, tmp_path, control):
        crashed = _experiment(tmp_path, run_id="crash",
                              extra_env={"REPRO_JOURNAL_CRASH_AFTER": str(k)})
        assert crashed.returncode == 23  # the chaos knob's exit code
        checkpoints = tmp_path / ".repro" / "runs" / "crash" / "checkpoints"
        assert len(list(checkpoints.glob("*.pkl"))) == k
        resumed = _resume(tmp_path, "crash")
        assert resumed.returncode == 0, resumed.stderr.decode()
        assert resumed.stdout == control

    def test_crash_resume_parallel(self, tmp_path, control):
        crashed = _experiment(tmp_path, "--jobs", "4", run_id="crash",
                              extra_env={"REPRO_JOURNAL_CRASH_AFTER": "1"})
        assert crashed.returncode == 23
        resumed = _resume(tmp_path, "crash", "--jobs", "4")
        assert resumed.returncode == 0, resumed.stderr.decode()
        assert resumed.stdout == control

    def test_truncated_trailing_journal_line(self, tmp_path, control):
        crashed = _experiment(tmp_path, run_id="crash",
                              extra_env={"REPRO_JOURNAL_CRASH_AFTER": "1"})
        assert crashed.returncode == 23
        journal = tmp_path / ".repro" / "runs" / "crash" / "journal.jsonl"
        with open(journal, "ab") as handle:  # crash mid-append
            handle.write(b'{"rec":{"type":"done","benchm')
        resumed = _resume(tmp_path, "crash")
        assert resumed.returncode == 0, resumed.stderr.decode()
        assert resumed.stdout == control

    def test_crash_resume_with_sabotage(self, tmp_path):
        sabotage = {"REPRO_SABOTAGE": "compress"}
        cwd_control = tmp_path / "control"
        cwd_control.mkdir()
        done = _experiment(cwd_control, run_id="control",
                           extra_env=sabotage)
        assert done.returncode == 1  # footnoted, not fatal
        crashed = _experiment(tmp_path, run_id="crash", extra_env={
            "REPRO_JOURNAL_CRASH_AFTER": "1", **sabotage})
        assert crashed.returncode == 23
        resumed = _resume(tmp_path, "crash", extra_env=sabotage)
        assert resumed.returncode == 1
        assert resumed.stdout == done.stdout
        assert b"Footnotes:" in resumed.stdout


def _spawn_hung_run(cwd, run_id):
    """Start `experiment all` with the last benchmark wedged; wait for
    the first checkpoint so the kill lands genuinely mid-suite."""
    argv = [sys.executable, "-m", "repro", "experiment", "all",
            "--scale", "tiny", "--benchmarks", BENCHES,
            "--run-id", run_id]
    proc = subprocess.Popen(
        argv, env=_env({"REPRO_PARALLEL_HANG": "quick:trace:300"}),
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    checkpoints = cwd / ".repro" / "runs" / run_id / "checkpoints"
    deadline = time.monotonic() + 120
    while time.monotonic() < deadline:
        if checkpoints.is_dir() and list(checkpoints.glob("*.pkl")):
            return proc
        if proc.poll() is not None:
            break
        time.sleep(0.1)
    out, err = proc.communicate(timeout=10)
    raise AssertionError(
        f"run never reached its first checkpoint: {err.decode()}")


class TestSignals:
    def test_sigkill_then_resume_is_identical(self, tmp_path, control):
        proc = _spawn_hung_run(tmp_path, "killed")
        proc.kill()  # SIGKILL: no handler, no journal record, nothing
        proc.communicate(timeout=30)
        resumed = _resume(tmp_path, "killed")
        assert resumed.returncode == 0, resumed.stderr.decode()
        assert resumed.stdout == control

    @pytest.mark.parametrize("signum,name", [
        (signal.SIGINT, "SIGINT"), (signal.SIGTERM, "SIGTERM")])
    def test_interrupt_journals_and_resumes(self, signum, name,
                                            tmp_path, control):
        proc = _spawn_hung_run(tmp_path, "stopped")
        proc.send_signal(signum)
        out, err = proc.communicate(timeout=30)
        assert proc.returncode == 128 + signum
        assert b"resume with" in err
        assert b"--resume stopped" in err
        journal = tmp_path / ".repro" / "runs" / "stopped" / "journal.jsonl"
        assert b'"interrupted"' in journal.read_bytes()
        assert f'"signal":{int(signum)}'.encode() in journal.read_bytes()
        resumed = _resume(tmp_path, "stopped")
        assert resumed.returncode == 0, resumed.stderr.decode()
        assert resumed.stdout == control


class TestWatchdogDrill:
    @pytest.mark.parametrize("extra", [(), ("--no-journal",)],
                             ids=["journaled", "no-journal"])
    def test_hung_benchmark_is_footnoted_not_fatal(self, tmp_path, extra):
        start = time.monotonic()
        result = _experiment(
            tmp_path, "--unit-timeout", "2", *extra, run_id="hang",
            extra_env={"REPRO_PARALLEL_HANG": "compress:trace:300"})
        wall = time.monotonic() - start
        assert result.returncode == 1  # degraded, not aborted
        assert b"Footnotes:" in result.stdout
        assert b"compress" in result.stdout
        assert b"UnitTimeoutError" in result.stdout
        assert wall < 200  # nowhere near the 300s hang

    def test_hang_drill_resume_preserves_footnote(self, tmp_path):
        hung = _experiment(
            tmp_path, "--unit-timeout", "2", run_id="hang",
            extra_env={"REPRO_PARALLEL_HANG": "quick:trace:300"})
        assert hung.returncode == 1
        # A timed-out benchmark is a *completed* (failed) unit: its
        # failure is part of the run's recorded result, so resuming
        # replays the identical footnoted output -- exactly like the
        # sabotage case -- rather than silently retrying the hang.
        resumed = _resume(tmp_path, "hang", "--unit-timeout", "2")
        assert resumed.returncode == 1
        assert resumed.stdout == hung.stdout
