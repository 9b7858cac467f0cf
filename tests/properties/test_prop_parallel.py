"""Property test: the parallel engine always equals the serial oracle.

Hypothesis drives the engine across generated benchmark subsets, job
counts, and optional sabotage, asserting that for every combination:

* the engine's trace digests and kept trace summaries, cycle counts,
  and rendered exhibits are identical to a serial session's (the
  oracle), and the engine's session keeps no trace or annotation; and
* the failure list names exactly the sabotaged benchmarks -- no
  victim escapes, no innocent is blamed.

A module-shared on-disk trace cache keeps each example cheap: the
first example pays for trace generation, later examples (serial and
parallel, both use the same fcntl-locked cache) hit it.

The engine's parent keeps no trace (docs/parallel.md, "What the parent
keeps"), so its traces are compared through the digests each finished
shard reports; reading ``trace()`` on its session would load or
re-simulate the trace serially and compare the oracle with itself.
"""

from __future__ import annotations

import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.harness import Session, run_experiment
from repro.harness.journal import trace_digest
from repro.harness.parallel import ParallelEngine
from tests.harness.test_parallel import _TraceDigests

NAMES = ("grep", "compress", "quick")
EXHIBITS = ("tab1", "tab3", "fig6")

_CACHE_DIR = tempfile.mkdtemp(prefix="repro-prop-parallel-")


@pytest.fixture(autouse=True)
def _no_ambient_chaos(monkeypatch):
    monkeypatch.delenv("REPRO_SABOTAGE", raising=False)
    monkeypatch.delenv("REPRO_PARALLEL_CRASH", raising=False)
    monkeypatch.delenv("REPRO_TRACE_CACHE", raising=False)


def _evaluate(benchmarks, sabotage, jobs, observer=None):
    """One fully-evaluated session; serial oracle when jobs == 1, else
    run by the engine, which reports each finished shard to
    *observer*."""
    if sabotage is not None:
        os.environ["REPRO_SABOTAGE"] = sabotage
    else:
        os.environ.pop("REPRO_SABOTAGE", None)
    try:
        session = Session(scale="tiny", benchmarks=benchmarks,
                          cache_dir=_CACHE_DIR)
        if jobs > 1:
            ParallelEngine(session, jobs=jobs, observer=observer).run()
        texts = {exp_id: run_experiment(exp_id, session).text
                 for exp_id in EXHIBITS}
        return session, texts
    finally:
        os.environ.pop("REPRO_SABOTAGE", None)


@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(
    benchmarks=st.lists(st.sampled_from(NAMES), min_size=1, max_size=3,
                        unique=True).map(tuple),
    jobs=st.integers(min_value=2, max_value=4),
    sabotage=st.one_of(st.none(), st.sampled_from(NAMES)),
)
def test_parallel_always_equals_serial_oracle(benchmarks, jobs, sabotage):
    oracle, oracle_texts = _evaluate(benchmarks, sabotage, jobs=1)
    engine = _TraceDigests()
    parallel, parallel_texts = _evaluate(benchmarks, sabotage, jobs=jobs,
                                         observer=engine)

    # Rendering read only what the engine's parent kept.
    assert parallel._traces == {}
    assert parallel._annotated == {}

    # Rendered exhibits are identical, byte for byte.
    for exp_id in EXHIBITS:
        assert parallel_texts[exp_id] == oracle_texts[exp_id], exp_id

    # Failures name exactly the sabotaged benchmarks that were in the
    # run -- nothing more, nothing less -- in both modes.
    expected = {sabotage} & set(benchmarks) if sabotage else set()
    assert {f.benchmark for f in oracle.failures} == expected
    assert {f.benchmark for f in parallel.failures} == expected

    # Every healthy trace (by the digest its shard reported), trace
    # summary and cycle count matches the oracle exactly.
    healthy = [name for name in benchmarks if name not in expected]
    for name in healthy:
        for target in ("ppc", "alpha"):
            key = (name, target)
            assert engine.digests[key] == \
                trace_digest(oracle.trace(name, target)), key
            assert parallel._summaries[key] == \
                oracle.trace_summary(name, target), key
    from repro.uarch.ppc620.config import PPC620
    for name in healthy:
        assert oracle.ppc_result(name, PPC620, None).cycles == \
            parallel.ppc_result(name, PPC620, None).cycles
    assert parallel._traces == {}
