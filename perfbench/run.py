"""Benchmark of the reproduction's two user paths: regenerating every
exhibit, and sweeping the LVP design space.

Run from the repository root::

    python3 perfbench/run.py --workload sweep --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one table

Each pass runs in a fresh single-threaded process with the default
``auto`` tiers and divergence sentinels on, in fresh temporary trace
cache and journal directories under ``.perfbench-work/``.  With
``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1``
it runs one untraced and one traced pass and prints the per-layer table.
Every pass's outputs are checked against ``golden.json``; the last line
of stdout is one JSON object, and the exit code is nonzero on any
mismatch.  ``--record-golden`` rewrites ``golden.json`` from runs on the
oracle tiers.  See ``README.md`` in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import pathlib
import shutil
import signal
import statistics
import subprocess
import sys
import time

import spans
import workloads

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden.json"

#: Fresh-process set-up samples per untraced run, on top of one per pass.
SETUP_PROBES = 5

#: A pass that takes longer than this has hung.
PASS_TIMEOUT_S = 150

#: Tier pins that make every stage run its oracle implementation.
ORACLE_ENV = {"REPRO_ENGINE": "interp", "REPRO_ANNOTATE_KERNEL": "general",
              "REPRO_MODEL_ENGINE": "reference"}

END_TO_END = (("setup_s", "s"), ("design_points_per_ref_s", "1/s"),
              ("peak_rss_mb", "MB"))


class PassFailed(Exception):
    """A worker process exited abnormally."""


def child_env(extra: dict) -> dict:
    """The environment of every worker: no engine knob set, one thread
    per numeric library, a fixed hash seed, the checkout's sources."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", NUMEXPR_NUM_THREADS="1",
               VECLIB_MAXIMUM_THREADS="1", PYTHONHASHSEED="0",
               PYTHONPATH=str(ROOT / "src"))
    env.update(extra)
    return env


class Runner:
    """Launches the worker processes of one benchmark run."""

    def __init__(self, workload: str, seed: int, env: dict) -> None:
        self.workload = workload
        self.spec = workloads.WORKLOADS[workload]
        self.seed = seed
        self.env = env
        self.base = ROOT / ".perfbench-work" / f"{os.getpid()}-{workload}"
        self.count = 0

    def _fresh_dir(self) -> pathlib.Path:
        self.count += 1
        directory = self.base / f"pass-{self.count}"
        directory.mkdir(parents=True)
        if self.spec["warm_cache"]:
            shutil.copytree(self.base / "prepared" / "cache",
                            directory / "cache")
        return directory

    def launch(self, mode: str, trace: bool = False,
               directory: pathlib.Path = None) -> dict:
        directory = directory or self._fresh_dir()
        result = directory / "result.json"
        env = dict(self.env)
        if self.spec["kind"] == "experiment":
            env["REPRO_TRACE_CACHE"] = str(directory / "cache")
        command = [sys.executable, str(HERE / "worker.py"), mode,
                   self.workload, "--seed", str(self.seed),
                   "--workdir", str(directory), "--result", str(result)]
        if trace:
            command.append("--trace")
        start = time.monotonic()
        try:
            process = subprocess.run(
                command + ["--t0", repr(start)], cwd=ROOT, env=env,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                timeout=PASS_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            raise PassFailed(f"{mode} pass timed out") from exc
        if process.returncode != 0 or not result.exists():
            raise PassFailed(
                f"{mode} pass exited {process.returncode}:\n"
                + process.stderr.decode(errors="replace")[-4000:])
        document = json.loads(result.read_text())
        if mode != "prepare":
            shutil.rmtree(directory)
        return document

    def prepare(self) -> None:
        """Untimed: fill the trace cache the warm workload reads."""
        if self.spec["warm_cache"]:
            directory = self.base / "prepared"
            directory.mkdir(parents=True)
            self.launch("prepare", directory=directory)

    def close(self) -> None:
        shutil.rmtree(self.base, ignore_errors=True)
        with contextlib.suppress(OSError):
            self.base.parent.rmdir()            # only once it is empty


def expected_points(workload: str, seed: int, golden: dict) -> dict:
    """Golden digest of every design point a pass must produce."""
    expected = golden[workload]
    if workloads.WORKLOADS[workload]["kind"] != "sweep":
        return expected["design_points"]
    index = {name: i for i, name in enumerate(expected["configs"])}
    sample = [config.name for config in workloads.sweep_configs(seed)]
    return {f"{bench}/{name}": digests[8 * index[name]:8 * index[name] + 8]
            for bench, digests in expected["cells"].items()
            for name in sample}


def check(result: dict, want: dict, sections) -> tuple:
    """(failed design points, problems) of one pass; *sections* are the
    golden exhibit digests (None for the sweep)."""
    got = result.get("design_points", {})
    problems = []
    if result.get("exit") != 0:
        problems.append(f"the pass exited {result.get('exit')}: "
                        + result.get("log", "")[-2000:])
    if sections is not None and result.get("sections") != sections:
        bad = sorted(title for title in set(sections)
                     | set(result.get("sections", {}))
                     if sections.get(title)
                     != result.get("sections", {}).get(title))
        problems.append(f"exhibit text differs: {bad}")
    failed = [point for point, value in want.items()
              if got.get(point) != value]
    if failed:
        problems.append(f"{len(failed)} design point(s) missing or "
                        f"different, e.g. {sorted(failed)[:3]}")
    return len(failed), problems


def measure(runner: Runner, seconds: float, trace: bool,
            golden: dict) -> dict:
    """One benchmark run of one workload; returns the summary."""
    runner.prepare()
    runner.launch("probe")                 # untimed: warm the file cache
    passes, probes = [], []
    if trace:
        passes.append(runner.launch("pass"))
        traced = runner.launch("pass", trace=True)
    else:
        start = time.monotonic()
        probes = [runner.launch("probe") for _ in range(SETUP_PROBES)]
        longest = 0.0
        while not passes or \
                time.monotonic() - start + longest <= seconds:
            began = time.monotonic()
            passes.append(runner.launch("pass"))
            longest = max(longest, time.monotonic() - began)
    count = runner.spec["design_points"]
    want = expected_points(runner.workload, runner.seed, golden)
    sections = golden[runner.workload].get("sections")
    attempted = failed = 0
    problems = [] if len(want) == count else [
        f"golden has {len(want)} design points, the workload {count}"]
    for result in passes + ([traced] if trace else []):
        bad, issues = check(result, want, sections)
        attempted += count
        failed += bad
        problems += issues
    summary = {"attempted": attempted, "failed": failed,
               "problems": problems, "design_points": count,
               "pass_s": [r["work_s"] for r in passes],
               "ref_s": [r["host"]["ref_s"] for r in passes if "host" in r],
               "setup_samples_s": [r["setup_s"] for r in probes + passes]}
    if trace:
        layers = dict(traced["layers"])
        layers["trace_overhead_s"] = traced["work_s"] - passes[0]["work_s"]
        layers["setup.import_s"] = traced["import_s"]
        layers["guard.demotions"] = traced["demotions"]
        summary["metrics"] = layers
    else:
        summary["metrics"] = {
            "setup_s": statistics.median(
                [r["setup_s"] for r in probes + passes]),
            "design_points_per_ref_s": count / statistics.median(
                summary["ref_s"]),
            "peak_rss_mb": max(r["rss_mb"] for r in passes),
        }
    return summary


def per_layer_names() -> list:
    """Every per-layer metric name, in table order."""
    names = []
    for layer in spans.SELF_TIME_LAYERS:
        names += [f"{layer}.calls", f"{layer}.self_s"]
    for layer in ("model.ppc620", "model.axp21164"):
        names += [f"{layer}.call_p50_s", f"{layer}.call_p90_s"]
    names += ["model.sim_instructions_per_s", "model.fast.calls",
              "model.reference.calls", "guard.oracle_calls",
              "guard.oracle_s", "guard.demotions", "sim.distinct_traces",
              "sim.useful_ratio", "sim.compiled.calls", "sim.interp.calls",
              "cache.hit_ratio", "annotate.vector.calls",
              "annotate.mono.calls", "annotate.general.calls",
              "traced_wall_s", "unattributed_s", "trace_overhead_s",
              "setup.import_s"]
    return names


def unit_of(name: str) -> str:
    if name.endswith(".calls") or name.endswith("_calls") \
            or name.endswith("_traces") or name == "guard.demotions":
        return "count"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith(("_per_s", "_per_ref_s")):
        return "1/s"
    return dict(END_TO_END).get(name, "s")


def render(workload: str, seed: int, summary: dict) -> str:
    attempted, failed = summary["attempted"], summary["failed"]
    lines = [f"{workload} (seed {seed}): passes "
             + " ".join(f"{t:.3f}" for t in summary["pass_s"])
             + " s; normalised "
             + " ".join(f"{t:.3f}" for t in summary["ref_s"])
             + " s; set-ups "
             + " ".join(f"{t:.3f}" for t in summary["setup_samples_s"])
             + " s"]
    for name, value in summary["metrics"].items():
        lines.append(f"  {name:30s} {value:14.6g} {unit_of(name)}")
    if summary["ref_s"]:
        wall = statistics.median(summary["pass_s"])
        lines.append(f"  {'design_points_per_s':30s} "
                     f"{summary['design_points'] / wall:14.6g} "
                     f"1/s (wall time, not normalised)")
    lines.append(f"  {'error_rate':30s} {failed / attempted:14.6g} ratio "
                 f"({failed}/{attempted} design points)")
    lines += [f"  MISMATCH: {problem}" for problem in summary["problems"]]
    return "\n".join(lines)


def record_golden(seed: int) -> int:
    """Rewrite golden.json from one pass per workload on the oracle
    tiers (the sweep engine has a single implementation: its cells are
    digested over the whole universe a seed can sample)."""
    env = child_env(ORACLE_ENV)
    golden = {}
    for name, spec in workloads.WORKLOADS.items():
        runner = Runner(name, seed, env)
        try:
            runner.prepare()
            if spec["kind"] == "sweep":
                result = runner.launch("golden-sweep")
                golden[name] = {"configs": result["configs"],
                                "cells": result["cells"]}
            else:
                result = runner.launch("pass")
                if result["exit"] != 0:
                    raise PassFailed(result.get("log", ""))
                golden[name] = {"sections": result["sections"],
                                "design_points": result["design_points"]}
        finally:
            runner.close()
        print(f"recorded {name}", file=sys.stderr)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C: the running worker is killed and
    # reaped, and the work directories are removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))   # the sweep sample's grid code
    if args.record_golden:
        return record_golden(args.seed)
    try:
        golden = json.loads(GOLDEN.read_text())
    except (OSError, ValueError) as exc:
        print(f"perfbench: unreadable {GOLDEN}: {exc}", file=sys.stderr)
        return 2

    names = list(workloads.WORKLOADS) if args.workload == "all" \
        else [args.workload]
    env = child_env({})
    attempted = failed = 0
    problems = []
    metrics = {}
    for name in names:
        runner = Runner(name, args.seed, env)
        try:
            summary = measure(runner, args.seconds, bool(args.trace), golden)
        except PassFailed as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 1
        finally:
            runner.close()
        print(render(name, args.seed, summary), flush=True)
        attempted += summary["attempted"]
        failed += summary["failed"]
        problems += summary["problems"]
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + key: {"value": value,
                                       "unit": unit_of(key)}
                        for key, value in summary["metrics"].items()})
    correct = failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
