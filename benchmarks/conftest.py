"""Benchmark-harness fixtures.

One memoized :class:`Session` over the full 17-benchmark suite is shared
by every exhibit bench, exactly as the paper's numbers all derive from
one set of simulations.  Set ``REPRO_SCALE`` to ``tiny`` for a fast
smoke pass or ``reference`` for long runs (default: ``small``), and
``REPRO_JOBS=N`` to precompute the session with the parallel engine
(the exhibits then render from warmed memos with bit-identical output).

The engine precomputes what the exhibits read, not traces or
annotations: its parent keeps no trace (``docs/parallel.md``, "What
the parent keeps").  The ablation and extension benches read
``session.trace()`` and annotate again, so under ``REPRO_JOBS`` the
session gets a trace cache (``REPRO_TRACE_CACHE``, else a temporary
directory): the engine stores each trace it simulates, and those
benches load it instead of simulating it again.

Rendered exhibit text is also written to ``benchmarks/reports/`` so a
benchmark run leaves the reproduced tables/figures behind as artifacts.
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.harness import Session

REPORT_DIR = pathlib.Path(__file__).parent / "reports"


@pytest.fixture(scope="session")
def session(tmp_path_factory) -> Session:
    """The shared full-suite session (parallel-warmed under REPRO_JOBS)."""
    from repro.harness.parallel import jobs_from_env

    scale = os.environ.get("REPRO_SCALE", "small")
    jobs = jobs_from_env()
    cache_dir = None
    if jobs > 1 and not os.environ.get("REPRO_TRACE_CACHE"):
        cache_dir = str(tmp_path_factory.mktemp("trace-cache"))
    shared = Session(scale=scale, cache_dir=cache_dir)
    report = shared.warm(jobs)
    if report is not None:
        print()
        print(report.render())
    return shared


@pytest.fixture(scope="session")
def report_dir() -> pathlib.Path:
    """Directory collecting the rendered exhibits."""
    REPORT_DIR.mkdir(exist_ok=True)
    return REPORT_DIR


def emit(report_dir: pathlib.Path, exp_id: str, text: str) -> None:
    """Print an exhibit and persist it under benchmarks/reports/."""
    print()
    print(text)
    (report_dir / f"{exp_id}.txt").write_text(text + "\n")
