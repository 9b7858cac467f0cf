"""Differential suite: the fast timing-model loops vs the reference loops.

Both machine models (PPC 620 family and Alpha 21164) carry a
``reference`` scheduling loop and a factored ``fast`` loop that takes
its front-end and data-cache state from :mod:`repro.uarch.factored`;
these tests require every result field to be identical between the two
on every workload, machine and paper configuration, and require the
per-trace memo behind the fast loop to be invisible in the results.
"""

import dataclasses
import gc
import json
import os
import pathlib
import random
import subprocess
import sys
import weakref

import numpy as np
import pytest

import repro
from repro.errors import ConfigError
from repro.lvp.config import CONSTANT, PAPER_CONFIGS, SIMPLE
from repro.sim import run_program
from repro.trace import records
from repro.trace.annotate import annotate_trace
from repro.uarch import (
    AXP21164,
    AXP21164Model,
    MODEL_ENGINES,
    PPC620,
    PPC620_PLUS,
    PPC620Model,
    resolve_model_engine,
)
from repro.workloads.suite import BENCHMARKS, get_benchmark

ALL_NAMES = tuple(benchmark.name for benchmark in BENCHMARKS)

#: (model factory, trace target) per machine.
MACHINES = {
    "620": (lambda: PPC620Model(PPC620), "ppc"),
    "620+": (lambda: PPC620Model(PPC620_PLUS), "ppc"),
    "21164": (lambda: AXP21164Model(AXP21164), "alpha"),
}

#: The no-LVP base run (annotated with Simple, as the session does) and
#: each paper configuration with LVP on: every run a benchmark gets.
BASE_RUNS = (("base", SIMPLE, False),)
LVP_RUNS = tuple((config.name, config, True) for config in PAPER_CONFIGS)
RUNS = BASE_RUNS + LVP_RUNS


class TestResolution:
    def test_engines_tuple(self):
        assert MODEL_ENGINES == ("auto", "reference", "fast")

    def test_auto_selects_fast(self):
        assert resolve_model_engine("auto") == "fast"
        assert resolve_model_engine(None) == "fast"

    def test_explicit_pass_through(self):
        assert resolve_model_engine("reference") == "reference"
        assert resolve_model_engine("fast") == "fast"

    def test_unknown_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            resolve_model_engine("warp")

    def test_env_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_MODEL_ENGINE", "reference")
        assert resolve_model_engine("fast") == "reference"


def _build_trace(name, target):
    program = get_benchmark(name).build_program(target, "tiny")
    return run_program(program, name=name, target=target).trace


@pytest.fixture(scope="module")
def annotated_traces():
    traces = {}
    annotated = {}

    def get(name, target, config=SIMPLE):
        key = (name, target, config.name)
        if key not in annotated:
            if (name, target) not in traces:
                traces[name, target] = _build_trace(name, target)
            annotated[key] = annotate_trace(traces[name, target], config)
        return annotated[key]

    return get


def _fields(result):
    """Every field of a result, in a form that survives a process hop."""
    return repr(dataclasses.asdict(result))


def assert_engines_agree(annotated_traces, name, machine, runs):
    factory, target = MACHINES[machine]
    for label, config, use_lvp in runs:
        annotated = annotated_traces(name, target, config)
        reference = factory().run(annotated, use_lvp=use_lvp,
                                  engine="reference")
        fast = factory().run(annotated, use_lvp=use_lvp, engine="fast")
        assert _fields(fast) == _fields(reference), label


@pytest.mark.parametrize("use_lvp", (True, False),
                         ids=("lvp", "nolvp"))
@pytest.mark.parametrize("name", ALL_NAMES)
def test_ppc620_fast_matches_reference(annotated_traces, name, use_lvp):
    assert_engines_agree(annotated_traces, name, "620",
                         LVP_RUNS if use_lvp else BASE_RUNS)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_ppc620_plus_fast_matches_reference(annotated_traces, name):
    assert_engines_agree(annotated_traces, name, "620+", RUNS)


@pytest.mark.parametrize("use_lvp", (True, False),
                         ids=("lvp", "nolvp"))
@pytest.mark.parametrize("name", ALL_NAMES)
def test_axp21164_fast_matches_reference(annotated_traces, name,
                                         use_lvp):
    assert_engines_agree(annotated_traces, name, "21164",
                         LVP_RUNS if use_lvp else BASE_RUNS)


def test_constant_config_paths_agree(annotated_traces):
    """The CVU-heavy Constant config exercises the constant-load path."""
    assert_engines_agree(annotated_traces, "xlisp", "620",
                         (("Constant", CONSTANT, True),))


def test_env_pins_engine(annotated_traces, monkeypatch):
    """REPRO_MODEL_ENGINE=reference forces the reference loop even on
    the default path, and the result is identical either way."""
    annotated = annotated_traces("grep", "ppc")
    default = PPC620Model(PPC620).run(annotated)
    monkeypatch.setenv("REPRO_MODEL_ENGINE", "reference")
    pinned = PPC620Model(PPC620).run(annotated)
    assert _fields(default) == _fields(pinned)


# ---------------------------------------------------------------------------
# The per-trace memo of the factored stages.
# ---------------------------------------------------------------------------
MEMO_NAMES = ("grep", "compress")


def _run_all(annotate, order=None):
    """Fast-engine fields of every (benchmark, machine, run), in *order*."""
    tasks = [(name, machine, run) for name in MEMO_NAMES
             for machine in MACHINES for run in RUNS]
    if order is not None:
        order(tasks)
    results = {}
    for name, machine, (label, config, use_lvp) in tasks:
        factory, target = MACHINES[machine]
        result = factory().run(annotate(name, target, config),
                               use_lvp=use_lvp, engine="fast")
        results[f"{name}/{machine}/{label}"] = _fields(result)
    return results


_FRESH_PROCESS = """
import json, sys
sys.path.insert(0, {src!r})
sys.path.insert(0, {tests!r})
from uarch.test_model_engines import _build_trace, _run_all
from repro.trace.annotate import annotate_trace
traces = {{}}
def annotate(name, target, config):
    if (name, target) not in traces:
        traces[name, target] = _build_trace(name, target)
    return annotate_trace(traces[name, target], config)
print(json.dumps(_run_all(annotate)))
"""


@pytest.fixture(scope="module")
def fresh_process_results():
    """The fast results of a process that has run nothing else."""
    src = str(pathlib.Path(repro.__file__).parents[1])
    tests = str(pathlib.Path(__file__).parents[1])
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    done = subprocess.run(
        [sys.executable, "-c", _FRESH_PROCESS.format(src=src, tests=tests)],
        capture_output=True, text=True, env=env, check=True, timeout=600)
    return json.loads(done.stdout)


class TestMemo:
    def test_shuffled_and_interleaved(self, fresh_process_results):
        """Runs of two traces in a shuffled, interleaved order fill the
        memo in an arbitrary order; results must not notice."""
        traces = {(name, target): _build_trace(name, target)
                  for name in MEMO_NAMES for target in ("ppc", "alpha")}

        def annotate(name, target, config):
            return annotate_trace(traces[name, target], config)

        shuffled = _run_all(annotate, order=random.Random(15).shuffle)
        assert shuffled == fresh_process_results

    def test_materialized_copy(self, annotated_traces,
                               fresh_process_results):
        """A ``Trace.materialize()`` copy is a distinct memo key whose
        runs (memo cold) match the original's (memo warm)."""
        copies = {}

        def annotate(name, target, config):
            original = annotated_traces(name, target, config).trace
            if (name, target) not in copies:
                copies[name, target] = original.materialize()
            return annotate_trace(copies[name, target], config)

        assert _run_all(annotate) == fresh_process_results
        assert _run_all(annotated_traces) == fresh_process_results

    def test_entry_freed_with_trace(self):
        trace = _build_trace("grep", "ppc")
        annotated = annotate_trace(trace, SIMPLE)
        PPC620Model(PPC620).run(annotated, engine="fast")
        AXP21164Model(AXP21164).run(annotated, engine="fast")
        assert trace in records._MEMO
        entries = len(records._MEMO)
        alive = weakref.ref(trace)
        del trace, annotated
        gc.collect()
        assert alive() is None
        assert len(records._MEMO) == entries - 1

    def test_21164_columns_are_compact_and_read_only(self):
        """The 21164's run-invariant columns are memoized with the
        trace as read-only one-byte arrays, not as Python lists."""
        trace = _build_trace("grep", "alpha")
        AXP21164Model(AXP21164).run(annotate_trace(trace, CONSTANT),
                                    engine="fast")
        (columns,) = [value for key, value in records._MEMO[trace].items()
                      if key[0] == "axp21164"]
        for column in columns:
            assert isinstance(column, np.ndarray)
            assert column.dtype == np.uint8
            assert len(column) == len(trace)
            assert not column.flags.writeable
