"""Machine invariants of the reference timing loops.

The differential suites prove the fast loops equal the reference loops;
nothing there checks that the reference loops behave like a machine.
These tests do, on every tiny workload, with the reference loops alone:

* 620 and 620+ with LVP: every load accesses the L1 exactly once,
  except the loads the CVU verified as constants, which never reach the
  cache -- so L1 load accesses equal loads minus CONSTANT outcomes.
* Both machines, with and without LVP: no run finishes faster than its
  narrowest in-order stage allows -- cycles are at least instructions
  divided by the 620's completion width or the 21164's issue width.
* 620, 620+ and 21164: Perfect LVP is never slower than no LVP -- an
  oracle that supplies every load value early cannot add cycles.

An invariant that fails here is a bug in a model, not a bound to relax.
"""

import pytest

from repro.lvp.config import CONSTANT, PERFECT, SIMPLE
from repro.lvp.unit import LoadOutcome
from repro.sim import run_program
from repro.trace.annotate import annotate_trace
from repro.uarch import (
    AXP21164,
    AXP21164Model,
    PPC620,
    PPC620_PLUS,
    PPC620Model,
)
from repro.workloads.suite import BENCHMARKS, get_benchmark

ALL_NAMES = tuple(benchmark.name for benchmark in BENCHMARKS)

#: The base run (no LVP; annotated with Simple, as the session does)
#: and the two LVP configurations whose CVUs verify constants.
RUNS = ((SIMPLE, False), (SIMPLE, True), (CONSTANT, True))


@pytest.fixture(scope="module")
def annotated():
    memo = {}

    def get(name, target, config):
        if (name, target) not in memo:
            program = get_benchmark(name).build_program(target, "tiny")
            memo[name, target] = run_program(program, name=name,
                                             target=target).trace
        key = (name, target, config.name)
        if key not in memo:
            memo[key] = annotate_trace(memo[name, target], config)
        return memo[key]

    return get


@pytest.fixture(scope="module")
def reference(annotated):
    """One memoized reference-loop run per (machine, benchmark, LVP
    configuration, use_lvp)."""
    memo = {}

    def run(machine, name, config, use_lvp):
        key = (machine.name, name, config.name, use_lvp)
        if key not in memo:
            if machine is AXP21164:
                model, target = AXP21164Model(machine), "alpha"
            else:
                model, target = PPC620Model(machine), "ppc"
            memo[key] = model.run(annotated(name, target, config),
                                  use_lvp=use_lvp, engine="reference")
        return memo[key]

    return run


@pytest.mark.parametrize("name", ALL_NAMES)
def test_ppc620_invariants(reference, name):
    for machine in (PPC620, PPC620_PLUS):
        for config, use_lvp in RUNS:
            label = f"{name}/{machine.name}/{config.name}/lvp={use_lvp}"
            result = reference(machine, name, config, use_lvp)
            assert result.cycles * machine.complete_width \
                >= result.instructions, label
            if use_lvp:
                constants = result.load_outcomes[LoadOutcome.CONSTANT]
                assert result.l1_stats.accesses \
                    == result.loads - constants, label


@pytest.mark.parametrize("name", ALL_NAMES)
def test_axp21164_cycles_bound(reference, name):
    for config, use_lvp in RUNS[:2]:
        label = f"{name}/21164/{config.name}/lvp={use_lvp}"
        result = reference(AXP21164, name, config, use_lvp)
        assert result.cycles * AXP21164.issue_width \
            >= result.instructions, label


@pytest.mark.parametrize("name", ALL_NAMES)
def test_perfect_lvp_never_slower_than_none(reference, name):
    # The base run is annotated with Simple, as the session does.
    for machine in (PPC620, PPC620_PLUS, AXP21164):
        base = reference(machine, name, SIMPLE, False)
        perfect = reference(machine, name, PERFECT, True)
        assert perfect.cycles <= base.cycles, f"{name}/{machine.name}"


def test_constants_reach_the_invariant(reference):
    """The L1 check is not vacuous: the Constant configuration's CVU
    verifies loads on the suite (xlisp among them)."""
    result = reference(PPC620, "xlisp", CONSTANT, True)
    assert result.load_outcomes[LoadOutcome.CONSTANT] > 0
    assert result.l1_stats.accesses < result.loads
