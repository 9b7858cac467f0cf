"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``suite``
    List the 17 benchmarks with their Table-1 metadata.
``run BENCH``
    Build, execute, and verify one benchmark; print trace statistics.
``locality BENCH``
    Measure value locality (Figure 1 style) for one benchmark.
``annotate BENCH``
    Run an LVP configuration over a benchmark and print its outcome mix.
``speedup BENCH``
    Cycle-model speedups for one benchmark on the 620/620+/21164.
``experiment ID``
    Regenerate a paper exhibit (``fig1`` ... ``tab6``), or ``all``.
    Journaled by default: the run writes a write-ahead journal and
    per-benchmark checkpoints under ``.repro/runs/<run-id>/`` so a
    crashed or killed run resumes with ``--resume <run-id>`` and
    produces byte-identical output (see ``docs/journal.md``).
``sweep BENCH``
    One-pass design-space sweep: decode the benchmark's trace once and
    evaluate a whole grid of LVP configurations (>= 100 design points
    by default) against shared in-memory columns in forked children
    (``--jobs``), journaled under ``.repro/sweeps/<run-id>/`` for
    crash-resume.  ``--exhibits`` renders the Table 3/4 and Figure 6
    sensitivity families (see ``docs/sweep.md``).
``check``
    Evaluate every paper-shape claim against a fresh session.
``doctor``
    Inject a deterministic campaign of faults (trace, cache, LVP) and
    verify each one is detected or safely recovered, never silent;
    also self-tests the journal and tiered-engine layers.
``chaos``
    Seeded randomized soak: run ``repro experiment`` subprocesses
    under planted faults (tier divergence, kills, cache damage,
    resource budgets...) and assert byte-identical exhibits or a
    cleanly footnoted degradation (see ``docs/resilience.md``).
``report``
    Write a single-file HTML report of all exhibits.
``stats [RUN_ID]``
    Render a journaled run's ``metrics.json`` (per-benchmark phase
    timings, headline counters; ``latest`` by default).
``disasm BENCH``
    Disassemble a benchmark's program text.
``trace BENCH``
    Dump a window of a benchmark's dynamic trace.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import signal
import sys
from typing import Optional

from repro.errors import ConfigError, JournalError
from repro.harness.experiments import EXPERIMENTS, run_experiments
from repro.harness.journal import (
    Journal,
    RunJournal,
    build_manifest,
    find_run,
    new_run_id,
    prune_runs,
    run_journaled,
    runs_dir_from_env,
)
from repro.obs import (
    load_metrics,
    metrics_enabled_from_env,
    render_stats,
    validate_metrics,
)
from repro.harness.children import kill_children, usable_cpus
from repro.harness.parallel import jobs_from_env, unit_timeout_from_env
from repro.harness.session import Session
from repro.isa.disasm import disassemble
from repro.lvp.config import (
    EXTENSION_CONFIGS,
    PAPER_CONFIGS,
    config_by_name,
)
from repro.lvp.general import measure_general_value_locality
from repro.lvp.locality import measure_value_locality
from repro.lvp.unit import LoadOutcome
from repro.sim.functional import run_program
from repro.trace.annotate import annotate_trace
from repro.trace.stats import compute_stats
from repro.uarch.ppc620.config import PPC620, PPC620_PLUS
from repro.workloads.suite import BENCHMARKS, get_benchmark


#: Tier-pinning environment knobs validated at CLI entry, before any
#: work runs under a typo'd tier: env var -> (module, attribute) of its
#: legal values.  The module is imported only when the knob is set.
_ENGINE_ENV_CHOICES = {
    "REPRO_ENGINE": ("repro.sim.compile", "ENGINES"),
    "REPRO_ANNOTATE_KERNEL": ("repro.trace.annotate", "KERNELS"),
    "REPRO_MODEL_ENGINE": ("repro.uarch.engine", "MODEL_ENGINES"),
}


def _validate_engine_env() -> Optional[str]:
    """The first invalid tier knob's error message, if any."""
    import importlib
    for name, (module, attribute) in _ENGINE_ENV_CHOICES.items():
        value = os.environ.get(name)
        if not value:
            continue
        choices = getattr(importlib.import_module(module), attribute)
        if value not in choices:
            return (f"invalid {name}={value!r}: choose from "
                    f"{', '.join(choices)}")
    return None


def _add_common(parser: argparse.ArgumentParser,
                benchmark: bool = True) -> None:
    if benchmark:
        parser.add_argument("bench", help="benchmark name (see 'suite')")
    parser.add_argument("--target", default="ppc",
                        choices=("ppc", "alpha"),
                        help="codegen target (default: ppc)")
    parser.add_argument("--scale", default="small",
                        choices=("tiny", "small", "reference"),
                        help="input scale (default: small)")


def _jobs_arg(value: str) -> int:
    """argparse type for ``--jobs``: a clear error, never a traceback."""
    try:
        jobs = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {value!r}") from None
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {jobs}")
    return jobs


def _timeout_arg(value: str) -> float:
    """argparse type for ``--unit-timeout`` (seconds, 0 disarms)."""
    try:
        seconds = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be a number of seconds, got {value!r}") from None
    if seconds < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {seconds:g}")
    return seconds


def _add_jobs(parser: argparse.ArgumentParser, one: str) -> None:
    """``--jobs``; *one* says what the default of one job does."""
    parser.add_argument(
        "--jobs", type=_jobs_arg, default=None,
        metavar="N",
        help=f"at most N processes computing at once, through forked "
             f"children (default: $REPRO_JOBS or 1 = {one}; output is "
             f"bit-identical either way)")


def _cap_jobs(jobs: int) -> int:
    """Cap a job count at the CPUs this process may run on (its
    affinity mask, as the children count them), with a warning.

    Never capped below 2: an explicit parallel request still forks on
    a one-CPU host, where ``jobs=1`` would run without children (one
    oversubscribed child is harmless).
    """
    cpus = usable_cpus()
    cap = max(2, cpus)
    if jobs > cap:
        print(f"warning: --jobs {jobs} exceeds the "
              f"{cpus} usable CPU(s); capping at {cap}",
              file=sys.stderr)
        return cap
    return jobs


def _resolve_jobs(args) -> int:
    """The effective worker count: ``--jobs``, else strict $REPRO_JOBS."""
    jobs = getattr(args, "jobs", None)
    if jobs is None:
        try:
            jobs = jobs_from_env(strict=True)
        except ValueError as exc:
            print(f"repro: error: {exc}", file=sys.stderr)
            raise SystemExit(2) from None
    return _cap_jobs(jobs)


def _traced(args):
    bench = get_benchmark(args.bench)
    program = bench.build_program(args.target, args.scale)
    result = run_program(program, name=bench.name, target=args.target)
    bench.verify(program, result, args.scale)
    return bench, program, result


def cmd_suite(args) -> int:
    print(f"{'name':10s} {'cat':4s} {'description':52s} input")
    for bench in BENCHMARKS:
        print(f"{bench.name:10s} {bench.category:4s} "
              f"{bench.description:52s} {bench.input_description}")
    return 0


def cmd_run(args) -> int:
    bench, _, result = _traced(args)
    stats = compute_stats(result.trace)
    print(f"{bench.name} ({args.target}, {args.scale}): verified OK")
    print(f"  instructions : {stats.instructions:,}")
    print(f"  loads        : {stats.loads:,} "
          f"({stats.load_fraction:.1%}; {stats.static_loads} static)")
    print(f"  stores       : {stats.stores:,}")
    print(f"  branches     : {stats.branches:,}")
    return 0


def cmd_locality(args) -> int:
    _, _, result = _traced(args)
    trace = result.trace
    for depth in args.depths:
        measured = measure_value_locality(trace, depth=depth)
        print(f"  depth {depth:>2}: {measured.percent:5.1f}% "
              f"({measured.hits:,}/{measured.total_loads:,} loads)")
    if args.general:
        general = measure_general_value_locality(trace, depth=1)
        print(f"  general (all instructions, depth 1): "
              f"{100 * general.overall.locality:5.1f}%")
    return 0


def cmd_annotate(args) -> int:
    _, _, result = _traced(args)
    config = config_by_name(args.config)
    annotated = annotate_trace(result.trace, config)
    stats = annotated.stats
    print(f"LVP config {config.name}: {stats.loads:,} loads")
    for outcome in LoadOutcome:
        share = stats.outcomes[outcome] / max(1, stats.loads)
        print(f"  {outcome.name.lower():>14}: "
              f"{stats.outcomes[outcome]:8,}  ({share:6.1%})")
    print(f"  prediction accuracy: {stats.prediction_accuracy:.1%}")
    return 0


def cmd_speedup(args) -> int:
    session = Session(scale=args.scale, benchmarks=(args.bench,))
    config = config_by_name(args.config)
    for machine in (PPC620, PPC620_PLUS):
        speedup = session.ppc_speedup(args.bench, machine, config)
        base = session.ppc_result(args.bench, machine, None)
        print(f"  {machine.name:6s}: {speedup:.3f}x "
              f"(base {base.cycles:,} cycles, IPC {base.ipc:.2f})")
    speedup = session.alpha_speedup(args.bench, config)
    base = session.alpha_result(args.bench, None)
    print(f"  21164 : {speedup:.3f}x "
          f"(base {base.cycles:,} cycles, IPC {base.ipc:.2f})")
    return 0


def _report_failures(session: Session) -> bool:
    """Print the session's recorded benchmark failures (to stderr);
    returns True when there were any."""
    if not session.failures:
        return False
    print(f"{len(session.failures)} benchmark failure(s) degraded "
          "this run:", file=sys.stderr)
    for failure in session.failures:
        print(f"  - {failure}", file=sys.stderr)
    return True


def _report_timing(session: Session) -> None:
    """Print the parallel warm's per-unit timing summary (stderr, so
    exhibit stdout stays byte-identical to a serial run)."""
    report = session.last_warm_report
    if report is not None:
        print(report.render(), file=sys.stderr)


def _install_interrupt_handlers(journal: Journal):
    """SIGINT/SIGTERM: journal a clean ``interrupted`` record, print
    the journal's resume command, and exit with the conventional
    128+signum."""
    import threading
    if threading.current_thread() is not threading.main_thread():
        return {}
    owner = os.getpid()
    resume = journal.resume_command

    def handler(signum, frame):
        if os.getpid() != owner:  # a forked worker inherited us
            os._exit(128 + signum)
        with contextlib.suppress(Exception):
            kill_children()
        with contextlib.suppress(Exception):
            journal.interrupted(signum)
        name = signal.Signals(signum).name
        message = (f"\ninterrupted ({name}); resume with:\n"
                   f"  {resume}\n")
        with contextlib.suppress(Exception):
            os.write(sys.stderr.fileno(), message.encode())
        os._exit(128 + signum)

    previous = {}
    for signum in (signal.SIGINT, signal.SIGTERM):
        previous[signum] = signal.signal(signum, handler)
    return previous


def _restore_handlers(previous) -> None:
    for signum, old in previous.items():
        with contextlib.suppress(Exception):
            signal.signal(signum, old)


def cmd_experiment(args) -> int:
    runs_dir = args.runs_dir or runs_dir_from_env()
    if not args.id and not args.resume:
        print("repro: error: an exhibit id (or --resume RUN_ID) is "
              "required", file=sys.stderr)
        return 2
    try:
        if args.resume:
            if args.id:
                print(f"note: ignoring exhibit id {args.id!r}: --resume "
                      "replays the recorded run", file=sys.stderr)
            journal = RunJournal.open(runs_dir, args.resume)
            manifest = journal.manifest
            metrics = False if args.no_metrics \
                else bool(manifest.get("metrics", False))
            session = Session(scale=manifest["scale"],
                              benchmarks=tuple(manifest["benchmarks"]),
                              verify=manifest.get("verify", True),
                              cache_dir=manifest.get("cache_dir"),
                              metrics=metrics)
            exhibits = list(manifest["exhibits"])
            jobs = _cap_jobs(args.jobs) if args.jobs is not None \
                else _cap_jobs(int(manifest.get("jobs", 1)))
            unit_timeout = args.unit_timeout \
                if args.unit_timeout is not None \
                else float(manifest.get("unit_timeout", 0.0))
            profile = args.profile or bool(manifest.get("profile", False))
            resume = True
        else:
            jobs = _resolve_jobs(args)
            unit_timeout = args.unit_timeout \
                if args.unit_timeout is not None else unit_timeout_from_env()
            names = tuple(args.benchmarks.split(",")) \
                if args.benchmarks else None
            exhibits = list(EXPERIMENTS) if args.id == "all" else [args.id]
            if args.no_journal:
                # No run directory, so there is nowhere to persist a
                # metrics document: sessions keep their library default
                # (off unless REPRO_METRICS asks).
                session = Session(scale=args.scale, benchmarks=names)
                for result in run_experiments(exhibits, session, jobs=jobs):
                    print(result.text)
                    print()
                _report_timing(session)
                return 1 if _report_failures(session) else 0
            # Journaled runs observe by default: all surfacing goes to
            # the run directory and stderr, so exhibit stdout stays
            # byte-identical either way.
            metrics = False if args.no_metrics \
                else metrics_enabled_from_env(default=True)
            session = Session(scale=args.scale, benchmarks=names,
                              metrics=metrics)
            profile = args.profile
            run_id = args.run_id or new_run_id()
            prune_runs(runs_dir, protect=run_id)
            journal = RunJournal.create(
                runs_dir, run_id,
                build_manifest(exhibits, session, jobs, unit_timeout,
                               profile=profile))
            resume = False
    except JournalError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    print(f"run journal: {journal.directory} "
          f"(resume: {journal.resume_command})", file=sys.stderr)
    previous = _install_interrupt_handlers(journal)
    try:
        results = run_journaled(exhibits, session, journal, jobs=jobs,
                                unit_timeout=unit_timeout, resume=resume,
                                profile=profile)
    finally:
        _restore_handlers(previous)
    for result in results:
        print(result.text)
        print()
    _report_timing(session)
    if session.metrics is not None:
        print(f"metrics: repro stats {journal.run_id}", file=sys.stderr)
    code = 1 if _report_failures(session) else 0
    journal.finished(code)
    return code


def cmd_sweep(args) -> int:
    from repro.harness.sweep import (
        SweepJournal,
        build_sweep_manifest,
        render_exhibits,
        render_sweep,
        run_journaled_sweep,
        run_sweep,
        sweep_runs_dir_from_env,
        validate_sweep,
    )
    from repro.lvp.grid import grid_from_args

    def progress(message: str) -> None:
        if not args.quiet:
            print(f"  {message}", file=sys.stderr)

    try:
        configs = grid_from_args(args.grid, args.limit)
    except ConfigError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2

    def finish(document) -> int:
        errors = validate_sweep(document)
        if errors:
            print("repro: error: sweep document failed validation:",
                  file=sys.stderr)
            for error in errors:
                print(f"  - {error}", file=sys.stderr)
            return 2
        print(f"swept {document['configs']} configurations in "
              f"{document.get('wall_s', 0.0):.2f}s "
              f"(computing processes: {document['jobs']})", file=sys.stderr)
        print(render_sweep(document, top=args.top))
        if args.exhibits:
            print()
            print(render_exhibits(document))
        if args.output:
            import json
            path = args.output
            with open(path, "w") as handle:
                json.dump(document, handle, indent=2, sort_keys=True)
                handle.write("\n")
            print(f"wrote {path}")
        return 0

    if args.no_journal:
        document = run_sweep(args.bench, configs, target=args.target,
                             scale=args.scale, jobs=_resolve_jobs(args),
                             chunk_size=args.chunk_size,
                             progress=progress)
        return finish(document)

    runs_dir = args.runs_dir or sweep_runs_dir_from_env()
    cache_dir = None
    try:
        if args.resume:
            journal = SweepJournal.open(runs_dir, args.resume)
            manifest = journal.manifest
            if args.bench != manifest["bench"]:
                print(f"note: resuming {manifest['bench']!r} as recorded "
                      f"(ignoring {args.bench!r})", file=sys.stderr)
            bench = manifest["bench"]
            target = manifest["target"]
            scale = manifest["scale"]
            cache_dir = manifest.get("cache_dir")
            jobs = _cap_jobs(args.jobs) if args.jobs is not None \
                else _cap_jobs(int(manifest.get("jobs", 1)))
            resume = True
        else:
            bench, target, scale = args.bench, args.target, args.scale
            jobs = _resolve_jobs(args)
            run_id = args.run_id or new_run_id()
            prune_runs(runs_dir, protect=run_id)
            journal = SweepJournal.create(
                runs_dir, run_id,
                build_sweep_manifest(bench, target, scale, configs,
                                     args.chunk_size, jobs))
            resume = False
    except JournalError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    print(f"sweep journal: {journal.directory} "
          f"(resume: {journal.resume_command})", file=sys.stderr)
    previous = _install_interrupt_handlers(journal)
    try:
        document = run_journaled_sweep(
            bench, configs, journal=journal, target=target, scale=scale,
            jobs=jobs, cache_dir=cache_dir, resume=resume,
            progress=progress)
    except JournalError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    finally:
        _restore_handlers(previous)
    code = finish(document)
    journal.finished(code)
    return code


def cmd_stats(args) -> int:
    runs_dir = args.runs_dir or runs_dir_from_env()
    try:
        directory = find_run(runs_dir, args.id)
    except JournalError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    try:
        document = load_metrics(directory)
    except OSError:
        print(f"repro: error: run {directory.name} has no metrics.json "
              "(recorded with --no-metrics, interrupted, or by an older "
              "version)", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"repro: error: damaged metrics.json in {directory}: {exc}",
              file=sys.stderr)
        return 2
    if args.validate:
        errors = validate_metrics(document)
        if errors:
            print(f"metrics.json of run {directory.name} is invalid:",
                  file=sys.stderr)
            for error in errors:
                print(f"  - {error}", file=sys.stderr)
            return 1
        print(f"metrics.json of run {directory.name}: schema OK "
              f"({len(document.get('benchmarks', {}))} benchmark(s), "
              f"{len(document.get('spans', []))} span(s))")
        return 0
    print(render_stats(document, full=args.full))
    return 0


def cmd_check(args) -> int:
    from repro.analysis.expectations import check_all, render_check_report
    names = tuple(args.benchmarks.split(",")) if args.benchmarks else None
    session = Session(scale=args.scale, benchmarks=names)
    session.last_warm_report = session.warm(_resolve_jobs(args))
    results = check_all(session)
    print(render_check_report(results))
    _report_timing(session)
    _report_failures(session)
    return 0 if all(r.passed for r in results) else 1


def cmd_doctor(args) -> int:
    from repro.faults import run_doctor
    faults = 18 if args.quick else args.faults
    report = run_doctor(seed=args.seed, faults=faults,
                        benchmark=args.bench, scale=args.scale)
    print(report.render())
    return 0 if report.ok else 1


def cmd_chaos(args) -> int:
    from repro.errors import FaultError
    from repro.harness.chaos import run_chaos
    benchmarks = tuple(args.benchmarks.split(","))
    progress = (lambda line: print(line, file=sys.stderr)) \
        if not args.quiet else None
    try:
        report = run_chaos(seed=args.seed, drills=args.drills,
                           exhibit=args.exhibit, scale=args.scale,
                           benchmarks=benchmarks,
                           artifacts=args.artifacts, progress=progress)
    except FaultError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    print(report.render())
    return 0 if report.ok else 1


def cmd_report(args) -> int:
    from repro.analysis.html import build_html_report
    names = tuple(args.benchmarks.split(",")) if args.benchmarks else None
    session = Session(scale=args.scale, benchmarks=names)
    session.last_warm_report = session.warm(_resolve_jobs(args))
    document = build_html_report(session)
    _report_timing(session)
    with open(args.output, "w", encoding="utf-8") as handle:
        handle.write(document)
    print(f"wrote {args.output} ({len(document):,} bytes)")
    return 0


def cmd_disasm(args) -> int:
    bench = get_benchmark(args.bench)
    program = bench.build_program(args.target, args.scale)
    print(disassemble(program, start=args.start, count=args.count))
    return 0


def cmd_trace(args) -> int:
    from repro.trace.dump import dump_trace
    _, _, result = _traced(args)
    print(dump_trace(result.trace, start=args.start, count=args.count,
                     loads_only=args.loads_only))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Value Locality and Load Value "
                    "Prediction' (ASPLOS 1996)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("suite", help="list the benchmark suite") \
        .set_defaults(func=cmd_suite)

    run_parser = commands.add_parser("run", help="run and verify")
    _add_common(run_parser)
    run_parser.set_defaults(func=cmd_run)

    locality_parser = commands.add_parser(
        "locality", help="measure value locality")
    _add_common(locality_parser)
    locality_parser.add_argument("--depths", type=int, nargs="+",
                                 default=[1, 16])
    locality_parser.add_argument("--general", action="store_true",
                                 help="also measure all-instruction "
                                      "value locality")
    locality_parser.set_defaults(func=cmd_locality)

    annotate_parser = commands.add_parser(
        "annotate", help="LVP outcome mix for one benchmark")
    _add_common(annotate_parser)
    annotate_parser.add_argument(
        "--config", default="Simple",
        help="LVP configuration name (%s)" % ", ".join(
            c.name for c in PAPER_CONFIGS + EXTENSION_CONFIGS))
    annotate_parser.set_defaults(func=cmd_annotate)

    speedup_parser = commands.add_parser(
        "speedup", help="cycle-model speedups on all three machines")
    speedup_parser.add_argument("bench")
    speedup_parser.add_argument("--scale", default="small",
                                choices=("tiny", "small", "reference"))
    speedup_parser.add_argument("--config", default="Simple")
    speedup_parser.set_defaults(func=cmd_speedup)

    experiment_parser = commands.add_parser(
        "experiment", help="regenerate a paper exhibit")
    experiment_parser.add_argument(
        "id", nargs="?", default=None,
        choices=sorted(EXPERIMENTS) + ["all"])
    experiment_parser.add_argument("--scale", default="small",
                                   choices=("tiny", "small", "reference"))
    experiment_parser.add_argument("--benchmarks", default=None,
                                   help="comma-separated subset")
    _add_jobs(experiment_parser,
              "one computing process per usable CPU when journaled, "
              "each benchmark's timing models in forked children; "
              "serial with --no-journal")
    experiment_parser.add_argument(
        "--unit-timeout", type=_timeout_arg, default=None, metavar="SECONDS",
        help="per-unit watchdog: a work unit exceeding this many "
             "seconds fails (footnoted) instead of hanging the run "
             "(default: $REPRO_UNIT_TIMEOUT or 0 = disarmed)")
    experiment_parser.add_argument(
        "--resume", default=None, metavar="RUN_ID",
        help="resume an interrupted journaled run ('latest' picks the "
             "newest); completed benchmarks load from verified "
             "checkpoints, only the rest re-execute")
    experiment_parser.add_argument(
        "--run-id", default=None, metavar="RUN_ID",
        help="explicit id for this run's journal directory "
             "(default: a timestamp-derived id)")
    experiment_parser.add_argument(
        "--runs-dir", default=None, metavar="DIR",
        help="where run journals live (default: $REPRO_RUNS_DIR "
             "or .repro/runs)")
    experiment_parser.add_argument(
        "--no-journal", action="store_true",
        help="skip the write-ahead journal (the pre-journal code path; "
             "the run cannot be resumed)")
    experiment_parser.add_argument(
        "--no-metrics", action="store_true",
        help="skip metrics collection (journaled runs record counters "
             "and phase spans into <run-dir>/metrics.json by default; "
             "exhibit stdout is identical either way)")
    experiment_parser.add_argument(
        "--profile", action="store_true",
        help="run every work unit under cProfile and write the hottest "
             "units' captures into <run-dir>/profiles/")
    experiment_parser.set_defaults(func=cmd_experiment)

    sweep_parser = commands.add_parser(
        "sweep", help="one-pass design-space sweep over one trace")
    _add_common(sweep_parser)
    _add_jobs(sweep_parser, "one child per usable CPU")
    sweep_parser.add_argument(
        "--grid", default=None, metavar="SPEC",
        help="grid spec 'dim=v1,v2;dim=...' using lvpt/depth/selection/"
             "lct/bits/cvu/predictor/index/ghr/tagged (default: the "
             "builtin >=100-point sensitivity grid)")
    sweep_parser.add_argument(
        "--limit", type=_jobs_arg, default=None, metavar="N",
        help="truncate the grid after N valid configurations")
    sweep_parser.add_argument(
        "--top", type=_jobs_arg, default=10, metavar="N",
        help="rows in the best-configurations table (default: 10)")
    sweep_parser.add_argument(
        "--exhibits", action="store_true",
        help="also render the Table 3/4 and Figure 6 sensitivity "
             "families")
    sweep_parser.add_argument(
        "--chunk-size", type=_jobs_arg, default=16, metavar="N",
        help="configs per journaled work unit (default: 16)")
    sweep_parser.add_argument(
        "--resume", default=None, metavar="RUN_ID",
        help="resume an interrupted journaled sweep ('latest' picks "
             "the newest); completed chunks load from verified "
             "checkpoints, only the rest re-evaluate")
    sweep_parser.add_argument(
        "--run-id", default=None, metavar="RUN_ID",
        help="explicit id for this sweep's journal directory "
             "(default: a timestamp-derived id)")
    sweep_parser.add_argument(
        "--runs-dir", default=None, metavar="DIR",
        help="where sweep journals live (default: $REPRO_SWEEP_RUNS_DIR "
             "or .repro/sweeps)")
    sweep_parser.add_argument(
        "--no-journal", action="store_true",
        help="skip the write-ahead journal (the sweep cannot be "
             "resumed)")
    sweep_parser.add_argument(
        "--output", default=None, metavar="FILE",
        help="write the sweep document as JSON")
    sweep_parser.add_argument(
        "--quiet", action="store_true",
        help="suppress chunk progress on stderr")
    sweep_parser.set_defaults(func=cmd_sweep)

    stats_parser = commands.add_parser(
        "stats", help="render a journaled run's metrics.json")
    stats_parser.add_argument(
        "id", nargs="?", default="latest",
        help="run id (default: 'latest' = the newest journaled run)")
    stats_parser.add_argument(
        "--runs-dir", default=None, metavar="DIR",
        help="where run journals live (default: $REPRO_RUNS_DIR "
             "or .repro/runs)")
    stats_parser.add_argument(
        "--full", action="store_true",
        help="also dump every recorded counter, not just the headline "
             "digest")
    stats_parser.add_argument(
        "--validate", action="store_true",
        help="check metrics.json against the repro.obs schema instead "
             "of rendering (exit 1 on violations)")
    stats_parser.set_defaults(func=cmd_stats)

    check_parser = commands.add_parser(
        "check", help="evaluate the paper-shape claims")
    check_parser.add_argument("--scale", default="small",
                              choices=("tiny", "small", "reference"))
    check_parser.add_argument("--benchmarks", default=None,
                              help="comma-separated subset")
    _add_jobs(check_parser, "serial, in one process")
    check_parser.set_defaults(func=cmd_check)

    doctor_parser = commands.add_parser(
        "doctor", help="run the fault-injection self-test campaign")
    doctor_parser.add_argument("--seed", type=int, default=0,
                               help="campaign seed (default: 0)")
    doctor_parser.add_argument("--faults", type=int, default=60,
                               help="faults to inject (default: 60)")
    doctor_parser.add_argument("--quick", action="store_true",
                               help="small 18-fault campaign (for CI)")
    doctor_parser.add_argument("--bench", default="grep",
                               help="benchmark to trace (default: grep)")
    doctor_parser.add_argument("--scale", default="tiny",
                               choices=("tiny", "small", "reference"))
    doctor_parser.set_defaults(func=cmd_doctor)

    chaos_parser = commands.add_parser(
        "chaos", help="seeded randomized resilience soak")
    chaos_parser.add_argument("--seed", type=int, default=0,
                              help="campaign seed (default: 0)")
    chaos_parser.add_argument("--drills", type=int, default=20,
                              help="drills to run (default: 20)")
    chaos_parser.add_argument("--exhibit", default="fig6",
                              choices=sorted(EXPERIMENTS),
                              help="exhibit each drill regenerates "
                                   "(default: fig6)")
    chaos_parser.add_argument("--scale", default="tiny",
                              choices=("tiny", "small", "reference"))
    chaos_parser.add_argument("--benchmarks", default="grep,compress",
                              help="comma-separated subset each drill "
                                   "runs (default: grep,compress)")
    chaos_parser.add_argument("--artifacts", default=None, metavar="DIR",
                              help="keep every drill's captures under "
                                   "DIR (default: a temp dir, kept only "
                                   "on failure)")
    chaos_parser.add_argument("--quiet", action="store_true",
                              help="suppress per-drill progress on "
                                   "stderr")
    chaos_parser.set_defaults(func=cmd_chaos)

    report_parser = commands.add_parser(
        "report", help="write an HTML report of all exhibits")
    report_parser.add_argument("--output", default="report.html")
    report_parser.add_argument("--scale", default="small",
                               choices=("tiny", "small", "reference"))
    report_parser.add_argument("--benchmarks", default=None,
                               help="comma-separated subset")
    _add_jobs(report_parser, "serial, in one process")
    report_parser.set_defaults(func=cmd_report)

    disasm_parser = commands.add_parser(
        "disasm", help="disassemble a benchmark program")
    _add_common(disasm_parser)
    disasm_parser.add_argument("--start", type=int, default=0)
    disasm_parser.add_argument("--count", type=int, default=40)
    disasm_parser.set_defaults(func=cmd_disasm)

    trace_parser = commands.add_parser(
        "trace", help="dump a window of a dynamic trace")
    _add_common(trace_parser)
    trace_parser.add_argument("--start", type=int, default=0)
    trace_parser.add_argument("--count", type=int, default=40)
    trace_parser.add_argument("--loads-only", action="store_true")
    trace_parser.set_defaults(func=cmd_trace)

    return parser


def main(argv=None) -> int:
    """CLI entry point."""
    problem = _validate_engine_env()
    if problem:
        print(f"repro: error: {problem}", file=sys.stderr)
        return 2
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; exit quietly.
        import os
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
