"""Differential suite: stage 2's inlined cache walk vs ``Cache`` objects.

Stage 2 of the factored timing models (``repro.uarch.factored``) walks
the L1 and L2 as inlined per-set LRU lists over precomputed line and
set numbers.  Here the same walk is made through the reference
:class:`~repro.uarch.components.cache.Cache` objects, one method call
per memory op, and every output must agree: the positions of the loads
serviced by the L2 and by memory, the L1 statistics, and the 21164's
``constant_past_miss``.  It runs on every CONSTANT-load mask the paper
configs produce on the 17 tiny traces of both targets, and on
Hypothesis programs at tiny cache geometries.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.isa.opcodes import OpClass
from repro.lvp.config import PAPER_CONFIGS
from repro.sim import run_program
from repro.trace.annotate import annotate_trace
from repro.uarch import AXP21164, PPC620
from repro.uarch.components.cache import Cache
from repro.uarch.factored import _constant_mask, _data_cache
from repro.workloads.suite import NAMES, get_benchmark
from tests.properties.test_prop_engines import _build, _step

#: Each target's machine, whose cache geometry its traces run on.
MACHINE = {"ppc": PPC620, "alpha": AXP21164}

#: Tiny geometries (the property suite's), where programs conflict-miss.
TINY = (replace(PPC620, l1_size=128, l1_assoc=2, l2_size=512, l2_assoc=2),
        replace(AXP21164, l1_size=64, l2_size=256))


def _geometry(config) -> tuple:
    return (config.l1_size, config.l1_assoc, config.l1_line,
            config.l2_size, config.l2_assoc)


def _reference_walk(trace, l1_size, l1_assoc, line_size, l2_size,
                    l2_assoc, constant):
    """Stage 2 through ``Cache`` method calls, in program order."""
    l1 = Cache(l1_size, l1_assoc, line_size)
    l2 = Cache(l2_size, l2_assoc, line_size)
    l2_loads, memory_loads = [], []
    constant_past_miss = 0
    for position, (opclass, addr) in enumerate(zip(
            trace.opclass.tolist(), trace.addr.tolist())):
        if opclass == int(OpClass.LOAD):
            if constant is not None and constant[position]:
                constant_past_miss += not l1.probe(addr)
            elif not l1.access(addr):
                (l2_loads if l2.access(addr) else memory_loads).append(
                    position)
        elif opclass == int(OpClass.STORE):
            l1.access(addr, is_store=True)
            l2.access(addr, is_store=True)
    return l2_loads, memory_loads, l1.stats, constant_past_miss


def _masks(trace) -> list:
    """The distinct CONSTANT-load masks of the paper configs' runs (None:
    no CONSTANT load, the base and Perfect runs)."""
    masks = {None: None}
    for config in PAPER_CONFIGS:
        mask = _constant_mask(annotate_trace(trace, config), True)
        if mask is not None:
            masks[np.packbits(mask).tobytes()] = mask
    return list(masks.values())


def assert_walks_agree(trace, config, constant) -> None:
    geometry = _geometry(config)
    data = _data_cache(trace, *geometry, constant)
    l2_loads, memory_loads, l1_stats, constant_past_miss = \
        _reference_walk(trace, *geometry, constant)
    assert data.l2_loads.tolist() == l2_loads
    assert data.memory_loads.tolist() == memory_loads
    assert data.l1_stats == l1_stats
    assert data.constant_past_miss == constant_past_miss
    assert data.count == len(trace)


@pytest.mark.parametrize("target", ("ppc", "alpha"))
@pytest.mark.parametrize("name", NAMES)
def test_inlined_walk_matches_cache_objects(name, target):
    program = get_benchmark(name).build_program(target, "tiny")
    trace = run_program(program, name=name, target=target).trace
    masks = _masks(trace)
    assert masks[0] is None
    for constant in masks:
        assert_walks_agree(trace, MACHINE[target], constant)


@given(st.lists(_step, max_size=60), st.sampled_from(TINY))
@settings(deadline=None, max_examples=60)
def test_inlined_walk_matches_on_random_programs(steps, config):
    trace = run_program(_build(steps), name="prop").trace
    for constant in _masks(trace):
        assert_walks_agree(trace, config, constant)
