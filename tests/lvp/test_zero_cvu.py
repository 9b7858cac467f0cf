"""Machine invariant: a zero-capacity CVU verifies no load as constant.

A load is CONSTANT only when the CVU holds its (address, LVPT index)
pair; a CVU with no entries holds nothing, so every load the LCT
classifies as constant falls back to a verified prediction.  Checked on
every ``cvu_entries=0`` cell of the sensitivity grid over all 17 tiny
ppc traces, on both the sweep's evaluator (the whole grid, so a
zero-capacity cell shares its stage passes with the larger CVUs) and
the oracle annotation kernel.
"""

import numpy as np
import pytest

from repro.harness.session import Session
from repro.harness.sweep import evaluate_configs
from repro.lvp import sensitivity_grid
from repro.lvp.unit import LoadOutcome
from repro.trace.annotate import annotate_trace
from repro.workloads.suite import BENCHMARKS

GRID = sensitivity_grid()
ZERO = [config for config in GRID if config.cvu_entries == 0]


@pytest.fixture(scope="module")
def session():
    return Session(scale="tiny", metrics=False)


def test_the_grid_has_zero_capacity_cells():
    assert len(ZERO) == 24


@pytest.mark.parametrize("name", [bench.name for bench in BENCHMARKS])
def test_zero_capacity_cvu_yields_no_constants(session, name):
    trace = session.trace(name, "ppc")
    cells = {cell.config.name: cell
             for cell in evaluate_configs(trace, GRID)}
    for config in ZERO:
        label = f"{name}/{config.name}"
        assert cells[config.name].stats.outcomes[LoadOutcome.CONSTANT] \
            == 0, label
        oracle = annotate_trace(trace, config, kernel="general")
        assert oracle.stats.outcomes[LoadOutcome.CONSTANT] == 0, label
        assert not np.any(oracle.outcomes == LoadOutcome.CONSTANT), label


def test_the_invariant_is_not_vacuous(session):
    """The cells with a CVU do verify constants (xlisp)."""
    trace = session.trace("xlisp", "ppc")
    twins = [config for config in GRID if config.cvu_entries > 0]
    constants = sum(cell.stats.outcomes[LoadOutcome.CONSTANT]
                    for cell in evaluate_configs(trace, twins))
    assert constants > 0
