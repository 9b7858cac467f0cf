"""One benchmark pass in a fresh process.

Launched by ``run.py``; not meant to be run by hand.  Usage::

    python3 perfbench/worker.py MODE WORKLOAD --seed N --workdir DIR
        --result FILE --t0 T [--trace]

MODE is ``pass`` (run the workload once), ``probe`` (stop at the first
call into a workload layer: a set-up sample), ``prepare`` (fill the
warm workload's trace cache) or ``golden-sweep`` (digest every cell
the sweep workload can draw).  ``--t0`` is the parent's
``time.monotonic()`` just before launch; Linux's monotonic clock is
shared between processes, so set-up time starts when the parent
launched this process.  The result is one JSON object written to FILE.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import pathlib
import resource
import time

import hostspeed
import spans
import workloads


def _write(path: str, document: dict) -> None:
    with open(path, "w") as handle:
        json.dump(document, handle)


def _run_experiment(spec: dict, workdir: pathlib.Path) -> tuple:
    """``repro experiment all`` through the CLI, journaled with metrics
    on (its defaults); the trace cache comes from REPRO_TRACE_CACHE."""
    from repro import cli
    argv = ["experiment", "all", "--scale", spec["scale"],
            "--runs-dir", str(workdir / "runs"), "--run-id", "pass"]
    if spec["benchmarks"]:
        argv += ["--benchmarks", ",".join(spec["benchmarks"])]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    return code, stdout.getvalue(), stderr.getvalue()


def _check_experiment(code: int, text: str,
                      workdir: pathlib.Path) -> dict:
    from repro.harness.guard import strip_tier_notes
    path = workdir / "runs" / "pass" / "metrics.json"
    document = json.loads(path.read_text()) if path.exists() else {}
    demotions = sum(
        value for counters in document.get("benchmarks", {}).values()
        for key, value in counters.items()
        if key.startswith("tier/") and key.endswith("/demotions"))
    return {"exit": code,
            "sections": workloads.exhibit_sections(strip_tier_notes(text)),
            "design_points": workloads.design_point_digests(document),
            "demotions": demotions}


def _run_sweep(spec: dict, seed: int, workdir: pathlib.Path) -> list:
    """The journaled serial sweep of every suite trace, as ``repro
    sweep BENCH`` runs it, over the seed's grid."""
    from repro.harness.sweep import (
        DEFAULT_CHUNK_SIZE,
        SweepJournal,
        build_sweep_manifest,
        render_sweep,
        run_journaled_sweep,
        validate_sweep,
    )
    from repro.workloads.suite import BENCHMARKS
    configs = workloads.sweep_configs(seed)
    documents = []
    for bench in BENCHMARKS:
        journal = SweepJournal.create(
            workdir / "sweeps", bench.name,
            build_sweep_manifest(bench.name, "ppc", spec["scale"], configs,
                                 DEFAULT_CHUNK_SIZE, 1))
        document = run_journaled_sweep(bench.name, configs, journal=journal,
                                       target="ppc", scale=spec["scale"])
        problems = validate_sweep(document)
        render_sweep(document)
        journal.finished(2 if problems else 0)
        documents.append((bench.name, document, problems))
    return documents


def _check_sweep(documents: list) -> dict:
    points = {}
    problems = []
    for bench, document, errors in documents:
        problems += errors
        for cell in document["cells"]:
            points[f"{bench}/{cell['name']}"] = workloads.cell_digest(cell)
    return {"exit": 2 if problems else 0, "design_points": points,
            "demotions": 0}


def _prepare(spec: dict, workdir: pathlib.Path) -> dict:
    """Simulate, verify and store every trace the warm workload reads."""
    from repro.harness.session import Session
    session = Session(scale=spec["scale"], benchmarks=spec["benchmarks"],
                      cache_dir=str(workdir / "cache"), metrics=False)
    for name in spec["benchmarks"]:
        for target in ("ppc", "alpha"):
            session.trace(name, target)
    return {"exit": 0}


def _golden_sweep(spec: dict) -> dict:
    """Cell digests of the whole sample universe, per suite trace."""
    from repro.harness.session import Session
    from repro.harness.sweep import evaluate_configs
    from repro.workloads.suite import BENCHMARKS
    universe = workloads.sweep_universe()
    session = Session(scale=spec["scale"], metrics=False)
    cells = {}
    for bench in BENCHMARKS:
        trace = session.trace(bench.name, "ppc")
        cells[bench.name] = "".join(
            workloads.cell_digest(cell.as_dict())
            for cell in evaluate_configs(trace, universe))
    return {"exit": 0, "configs": [c.name for c in universe],
            "cells": cells}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode",
                        choices=("pass", "probe", "prepare", "golden-sweep"))
    parser.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    spec = workloads.WORKLOADS[args.workload]
    workdir = pathlib.Path(args.workdir)

    import_start = time.monotonic()
    import repro.cli  # noqa: F401  (the user-facing entry point)
    if args.mode == "prepare":
        _write(args.result, _prepare(spec, workdir))
        return 0
    if args.mode == "golden-sweep":
        _write(args.result, _golden_sweep(spec))
        return 0

    def probe_done(first_call: float) -> None:
        _write(args.result, {"setup_s": first_call - args.t0})
        os._exit(0)

    # An untraced pass measures the host's speed from its first call
    # into a workload layer on; a traced pass does not, so the probes
    # stay out of its layers' self times.
    sampler = on_first_call = None
    if args.mode == "probe":
        on_first_call = probe_done
    elif not args.trace:
        sampler = hostspeed.Sampler()
        on_first_call = lambda first_call: sampler.install()  # noqa: E731
    recorder = spans.Recorder(first_call_only=not args.trace,
                              on_first_call=on_first_call)
    recorder.install()
    import_s = time.monotonic() - import_start

    if spec["kind"] == "sweep":
        documents = _run_sweep(spec, args.seed, workdir)
        end = time.monotonic()
    else:
        code, text, log = _run_experiment(spec, workdir)
        end = time.monotonic()
    if sampler:
        sampler.stop()
    if spec["kind"] == "sweep":
        result = _check_sweep(documents)
    else:
        result = _check_experiment(code, text, workdir)
        if code != 0:
            result["log"] = log[-4000:]
    if recorder.first_call is None:
        raise RuntimeError("the workload never called a workload layer")
    result.update(
        setup_s=recorder.first_call - args.t0,
        import_s=import_s,
        work_s=end - recorder.first_call,
        rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if sampler:
        result["host"] = sampler.normalise(recorder.first_call, end)
    if args.trace:
        recorder.uninstall()
        result["layers"] = spans.layer_metrics(
            recorder.spans, recorder.first_call, end)
    _write(args.result, result)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
