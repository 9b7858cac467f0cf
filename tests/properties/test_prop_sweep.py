"""Property test: a sweep split into shares equals the one-CPU sweep.

Hypothesis draws the chunk size, the job count (``jobs=1`` meaning one
child per usable CPU, two here) and a set of chunks preloaded as if
from a resumed journal, and asserts that the document equals the one
sweep evaluated in a single process, and that no child outlives the
call.  A module-shared trace cache keeps each example to a cache load,
one decode and its forks.
"""

from __future__ import annotations

import json
import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.harness import children
from repro.harness.sweep import plan_chunks, run_sweep
from tests.harness.test_sweep import MIXED_GRID

GRID = list(MIXED_GRID)

_CACHE_DIR = tempfile.mkdtemp(prefix="repro-prop-sweep-")


def _sweep(monkeypatch, **kwargs) -> dict:
    for key in list(os.environ):
        if key.startswith("REPRO_"):
            monkeypatch.delenv(key)
    return run_sweep("compress", GRID, scale="tiny", cache_dir=_CACHE_DIR,
                     **kwargs)


def _cells(document: dict) -> str:
    return json.dumps(document["cells"], sort_keys=True)


@pytest.fixture(scope="module")
def oracle() -> dict:
    """The sweep with every chunk evaluated in this process."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(children, "usable_cpus", lambda: 1)
        document = _sweep(patch)
    assert document["jobs"] == 1
    return document


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(chunk_size=st.integers(min_value=1, max_value=8),
       jobs=st.integers(min_value=1, max_value=4),
       preload=st.sets(st.integers(min_value=0, max_value=len(GRID) - 1)))
def test_shares_equal_the_one_cpu_sweep(oracle, monkeypatch, chunk_size,
                                        jobs, preload):
    monkeypatch.setattr(children, "usable_cpus", lambda: 2)
    plan = plan_chunks(GRID, chunk_size)
    preloaded = {chunk_id: [oracle["cells"][j] for j in plan[chunk_id]]
                 for chunk_id in preload if chunk_id < len(plan)}
    document = _sweep(monkeypatch, jobs=jobs, chunk_size=chunk_size,
                      preloaded=preloaded)
    assert _cells(document) == _cells(oracle)
    left = len(plan) - len(preloaded)
    assert document["jobs"] == min(jobs if jobs > 1 else 2, left)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
