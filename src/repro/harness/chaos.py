"""``repro chaos``: a seeded, randomized resilience soak harness.

The harness composes every chaos knob the repository already ships --
the fault injectors, ``REPRO_SABOTAGE``/``REPRO_TRANSIENT`` session
faults, the tier-fault divergence drill, journal crash kills, cache
corruption, and resource budgets -- into a reproducible campaign of
*drills*.  Each drill launches ``repro experiment`` in a fresh
subprocess under one planted failure and asserts the designed
response: exhibit stdout byte-identical to an undisturbed baseline
run, or a clean, footnoted degradation (omitted benchmark, tier
demotion note) with the right exit code.

The plan is a pure function of ``(seed, drills, benchmarks)``: the
same invocation replays the same victims in the same order, so a
failing drill from CI reproduces locally with the seed the report
prints.  Artifacts (each drill's stdout/stderr and run directory) are
kept only for failing drills.

See ``docs/resilience.md`` for the drill catalogue and a cookbook of
single-knob invocations.
"""

from __future__ import annotations

import os
import pathlib
import random
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from typing import Optional

from repro.errors import FaultError
from repro.harness.guard import strip_tier_notes

#: One drill per kind, cycled in order as the campaign grows.
DRILL_KINDS = (
    "tier_trace",     # forced fast-tier divergence at the trace stage
    "tier_annotate",  # ... at the annotate stage
    "tier_model",     # ... at the model stage
    "transient",      # transient faults absorbed by the retry policy
    "sabotage",       # permanent stage failure -> footnoted omission
    "cache_corrupt",  # bit-flipped cache bundle -> quarantine + rebuild
    "cache_budget",   # 1-byte cache budget -> LRU eviction, same output
    "crash_resume",   # hard kill after a checkpoint -> --resume replay
    "hang",           # wedged unit -> watchdog timeout, footnoted
    "oracle_env",     # oracle tier pinned -> byte-identical output
    "bad_knob",       # invalid tier knob -> clean usage error
)

#: Statuses.
PASS = "pass"
FAIL = "fail"

#: Per-drill subprocess budget (seconds); generous next to tiny-scale
#: runtimes, tight next to a genuinely wedged run.
DRILL_TIMEOUT = 600.0


@dataclass(frozen=True)
class ChaosDrill:
    """One planned drill."""

    index: int
    kind: str
    seed: int
    victim: str  #: the benchmark the fault targets


@dataclass
class ChaosOutcome:
    """One executed drill and what happened."""

    drill: ChaosDrill
    status: str  #: PASS / FAIL
    detail: str


@dataclass
class ChaosReport:
    """Aggregated result of one chaos campaign."""

    seed: int
    exhibit: str
    scale: str
    benchmarks: tuple
    outcomes: list
    artifacts: Optional[str] = None

    @property
    def failures(self) -> list:
        return [o for o in self.outcomes if o.status == FAIL]

    @property
    def ok(self) -> bool:
        return not self.failures

    def render(self) -> str:
        lines = [
            "Chaos soak",
            "==========",
            f"seed {self.seed} · {len(self.outcomes)} drills · exhibit "
            f"{self.exhibit} @ {self.scale} · benchmarks "
            f"{','.join(self.benchmarks)}",
            "",
        ]
        for outcome in self.outcomes:
            drill = outcome.drill
            mark = "ok" if outcome.status == PASS else "!!"
            lines.append(f"  {mark} [{drill.index:02d}] "
                         f"{drill.kind:13s} victim={drill.victim:10s} "
                         f"{outcome.detail}")
        lines.append("")
        if self.ok:
            lines.append("verdict: OK — every drill degraded (or held) "
                         "exactly as designed")
        else:
            lines.append(f"verdict: FAIL — {len(self.failures)} "
                         "drill(s) misbehaved"
                         + (f"; artifacts kept under {self.artifacts}"
                            if self.artifacts else ""))
        return "\n".join(lines)


def plan_drills(seed: int, drills: int, benchmarks) -> list[ChaosDrill]:
    """The campaign plan: pure in ``(seed, drills, benchmarks)``."""
    benchmarks = list(benchmarks)
    if not benchmarks:
        raise FaultError("chaos needs at least one benchmark")
    rng = random.Random(seed)
    return [
        ChaosDrill(index=index,
                   kind=DRILL_KINDS[index % len(DRILL_KINDS)],
                   seed=rng.randrange(2 ** 31),
                   victim=rng.choice(benchmarks))
        for index in range(drills)
    ]


# ---------------------------------------------------------------------------
# Subprocess plumbing.
# ---------------------------------------------------------------------------
def _source_root() -> str:
    """The directory that makes ``import repro`` work in a child."""
    import repro
    return str(pathlib.Path(repro.__file__).resolve().parents[1])


def _base_env() -> dict:
    """A child environment with every ``REPRO_*`` knob stripped, so
    the parent's own configuration cannot leak into a drill."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = _source_root()
    return env


def _run(command, env, cwd, timeout: float = DRILL_TIMEOUT):
    return subprocess.run(command, env=env, cwd=cwd, timeout=timeout,
                          capture_output=True, text=True)


class _Driver:
    """Runs ``repro experiment`` subprocesses for one campaign."""

    def __init__(self, workdir: pathlib.Path, exhibit: str, scale: str,
                 benchmarks) -> None:
        self.workdir = workdir
        self.exhibit = exhibit
        self.scale = scale
        self.benchmarks = tuple(benchmarks)
        self.baseline: Optional[str] = None

    def command(self, extra=()):
        return [sys.executable, "-m", "repro", "experiment", self.exhibit,
                "--scale", self.scale,
                "--benchmarks", ",".join(self.benchmarks)] + list(extra)

    def experiment(self, drill_dir: pathlib.Path, overrides=None,
                   extra=(), resume: Optional[str] = None):
        env = _base_env()
        env["REPRO_RUNS_DIR"] = str(drill_dir / "runs")
        env.update(overrides or {})
        if resume is not None:
            command = [sys.executable, "-m", "repro", "experiment",
                       "--resume", resume]
        else:
            command = self.command(extra)
        return _run(command, env, str(drill_dir))

    def run_baseline(self) -> str:
        """One undisturbed run; its stdout is the identity oracle."""
        base_dir = self.workdir / "baseline"
        base_dir.mkdir(parents=True, exist_ok=True)
        proc = self.experiment(base_dir)
        if proc.returncode != 0:
            raise FaultError(
                f"chaos baseline run failed (exit {proc.returncode}):\n"
                f"{proc.stderr[-2000:]}")
        self.baseline = proc.stdout
        return self.baseline


# ---------------------------------------------------------------------------
# Drill expectations.
# ---------------------------------------------------------------------------
def _expect(checks) -> tuple[str, str]:
    """Fold ``(ok, description)`` checks into one outcome."""
    failed = [what for ok, what in checks if not ok]
    if failed:
        return FAIL, "; ".join(failed)
    return PASS, checks[0][1] if len(checks) == 1 else \
        f"{len(checks)} assertions held"


def _run_drill(driver: _Driver, drill: ChaosDrill,
               drill_dir: pathlib.Path) -> ChaosOutcome:
    baseline = driver.baseline
    kind, victim = drill.kind, drill.victim

    if kind in ("tier_trace", "tier_annotate", "tier_model"):
        stage = kind.split("_", 1)[1]
        proc = driver.experiment(
            drill_dir, {"REPRO_TIER_FAULT": f"{victim}:{stage}"})
        status, detail = _expect([
            (proc.returncode == 0, f"exit {proc.returncode}, wanted 0"),
            ("Tier notes:" in proc.stdout, "no Tier notes block"),
            (f"{stage} tier demoted" in proc.stdout,
             f"no {stage} demotion note"),
            (strip_tier_notes(proc.stdout) == baseline,
             "stripped output differs from baseline"),
        ])
        if status == PASS:
            detail = "diverged, demoted, byte-identical after notes"
    elif kind == "transient":
        proc = driver.experiment(
            drill_dir, {"REPRO_TRANSIENT": f"{victim}:trace:2"})
        status, detail = _expect([
            (proc.returncode == 0, f"exit {proc.returncode}, wanted 0"),
            (proc.stdout == baseline, "output differs from baseline"),
        ])
        if status == PASS:
            detail = "two transient faults absorbed by retries"
    elif kind == "sabotage":
        proc = driver.experiment(
            drill_dir, {"REPRO_SABOTAGE": f"{victim}:trace"})
        status, detail = _expect([
            (proc.returncode == 1, f"exit {proc.returncode}, wanted 1"),
            ("Footnotes:" in proc.stdout, "no footnote block"),
            ("omitted" in proc.stdout, "victim not footnoted as omitted"),
        ])
        if status == PASS:
            detail = "permanent fault footnoted, exit 1"
    elif kind == "cache_corrupt":
        cache_dir = drill_dir / "cache"
        overrides = {"REPRO_TRACE_CACHE": str(cache_dir)}
        warm = driver.experiment(drill_dir, overrides)
        bundles = sorted(cache_dir.glob("*.rtc"))
        checks = [
            (warm.returncode == 0, f"warm exit {warm.returncode}"),
            (bool(bundles), "warm run cached nothing"),
        ]
        if bundles:
            victim_bundle = bundles[drill.seed % len(bundles)]
            data = bytearray(victim_bundle.read_bytes())
            # Flip a byte of the v2 CRC footer: always integrity-covered
            # (a flip in alignment padding would be semantically inert).
            data[len(data) - 12 + drill.seed % 12] ^= 1 << (drill.seed % 8)
            victim_bundle.write_bytes(bytes(data))
            proc = driver.experiment(drill_dir, overrides)
            checks += [
                (proc.returncode == 0, f"exit {proc.returncode}, wanted 0"),
                (proc.stdout == baseline, "output differs from baseline"),
            ]
        status, detail = _expect(checks)
        if status == PASS:
            detail = "corrupt bundle quarantined, output held"
    elif kind == "cache_budget":
        cache_dir = drill_dir / "cache"
        proc = driver.experiment(drill_dir, {
            "REPRO_TRACE_CACHE": str(cache_dir),
            "REPRO_CACHE_BUDGET": "1",
        })
        bundles = list(cache_dir.glob("*.rtc"))
        status, detail = _expect([
            (proc.returncode == 0, f"exit {proc.returncode}, wanted 0"),
            (proc.stdout == baseline, "output differs from baseline"),
            (len(bundles) <= 1,
             f"{len(bundles)} bundles exceed a 1-byte budget"),
        ])
        if status == PASS:
            detail = "LRU eviction enforced the budget, output held"
    elif kind == "crash_resume":
        crashed = driver.experiment(
            drill_dir, {"REPRO_JOURNAL_CRASH_AFTER": "1"})
        resumed = driver.experiment(drill_dir, resume="latest")
        status, detail = _expect([
            (crashed.returncode == 23,
             f"crash exit {crashed.returncode}, wanted 23"),
            (resumed.returncode == 0,
             f"resume exit {resumed.returncode}, wanted 0"),
            (resumed.stdout == baseline,
             "resumed output differs from baseline"),
        ])
        if status == PASS:
            detail = "killed after checkpoint 1, resume byte-identical"
    elif kind == "hang":
        proc = driver.experiment(
            drill_dir, {"REPRO_PARALLEL_HANG": f"{victim}:trace:120"},
            extra=["--unit-timeout", "5"])
        status, detail = _expect([
            (proc.returncode == 1, f"exit {proc.returncode}, wanted 1"),
            ("UnitTimeoutError" in proc.stdout,
             "timeout not footnoted in the exhibit"),
        ])
        if status == PASS:
            detail = "wedged unit reaped by the watchdog, footnoted"
    elif kind == "oracle_env":
        knob, value = (("REPRO_ENGINE", "interp"),
                       ("REPRO_ANNOTATE_KERNEL", "general"),
                       ("REPRO_MODEL_ENGINE", "reference"))[drill.seed % 3]
        proc = driver.experiment(drill_dir, {knob: value})
        status, detail = _expect([
            (proc.returncode == 0, f"exit {proc.returncode}, wanted 0"),
            (proc.stdout == baseline,
             f"{knob}={value} output differs from the fast tiers"),
        ])
        if status == PASS:
            detail = f"{knob}={value} byte-identical to the fast tiers"
    elif kind == "bad_knob":
        knob = ("REPRO_ENGINE", "REPRO_ANNOTATE_KERNEL",
                "REPRO_MODEL_ENGINE")[drill.seed % 3]
        proc = driver.experiment(drill_dir, {knob: "warp9"})
        status, detail = _expect([
            (proc.returncode == 2, f"exit {proc.returncode}, wanted 2"),
            (knob in proc.stderr, f"error does not name {knob}"),
            ("warp9" in proc.stderr, "error does not echo the bad value"),
        ])
        if status == PASS:
            detail = f"{knob}=warp9 rejected with a clean usage error"
    else:
        return ChaosOutcome(drill, FAIL, f"unknown drill kind {kind!r}")

    if status == FAIL:
        _keep_artifacts(drill_dir, locals())
    return ChaosOutcome(drill, status, detail)


def _keep_artifacts(drill_dir: pathlib.Path, scope: dict) -> None:
    """Persist every subprocess capture a failing drill produced."""
    for name in ("warm", "crashed", "resumed", "proc"):
        proc = scope.get(name)
        if proc is None:
            continue
        (drill_dir / f"{name}.stdout").write_text(proc.stdout)
        (drill_dir / f"{name}.stderr").write_text(proc.stderr)


# ---------------------------------------------------------------------------
# The campaign.
# ---------------------------------------------------------------------------
def run_chaos(seed: int = 0, drills: int = 20, exhibit: str = "fig6",
              scale: str = "tiny", benchmarks=("grep", "compress"),
              artifacts: Optional[str] = None,
              progress=None) -> ChaosReport:
    """Run a chaos campaign; returns the report (inspect ``report.ok``).

    *artifacts* names a directory to work under (kept afterwards);
    without it a temporary directory is used and deleted unless a
    drill fails, in which case the failing drills' captures survive
    and the report says where.
    """
    plan = plan_drills(seed, drills, benchmarks)
    ephemeral = artifacts is None
    workdir = pathlib.Path(
        tempfile.mkdtemp(prefix="repro-chaos-") if ephemeral else artifacts)
    workdir.mkdir(parents=True, exist_ok=True)
    driver = _Driver(workdir, exhibit, scale, benchmarks)
    if progress:
        progress(f"baseline: {' '.join(driver.command())}")
    driver.run_baseline()
    outcomes = []
    for drill in plan:
        drill_dir = workdir / f"drill-{drill.index:02d}-{drill.kind}"
        drill_dir.mkdir(parents=True, exist_ok=True)
        try:
            outcome = _run_drill(driver, drill, drill_dir)
        except subprocess.TimeoutExpired:
            outcome = ChaosOutcome(
                drill, FAIL, f"subprocess exceeded {DRILL_TIMEOUT:g}s")
        if progress:
            progress(f"  [{drill.index:02d}] {drill.kind}: "
                     f"{outcome.status} ({outcome.detail})")
        if outcome.status == PASS:
            shutil.rmtree(drill_dir, ignore_errors=True)
        outcomes.append(outcome)
    report = ChaosReport(seed, exhibit, scale, tuple(benchmarks),
                         outcomes, artifacts=str(workdir))
    if ephemeral and report.ok:
        shutil.rmtree(workdir, ignore_errors=True)
        report.artifacts = None
    return report
