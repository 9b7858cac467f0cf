"""Benchmark-harness fixtures.

One memoized :class:`Session` over the full 17-benchmark suite is shared
by every exhibit bench, exactly as the paper's numbers all derive from
one set of simulations.  Set ``REPRO_SCALE`` to ``tiny`` for a fast
smoke pass or ``reference`` for long runs (default: ``small``).

The session stays lazy: it is not warmed through the parallel engine,
whose parent keeps no trace or annotation (``docs/parallel.md``, "What
the parent keeps").  The ablation and extension benches read
``session.trace()`` and ``session.annotated()``, so a lazy session
computes each trace and annotation once and every bench after the
first reuses it.

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
def session() -> Session:
    """The shared full-suite session."""
    return Session(scale=os.environ.get("REPRO_SCALE", "small"))


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
