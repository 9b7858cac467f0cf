"""Golden-exhibit regression tests.

The committed JSON files under ``tests/golden/`` pin the tiny-scale
paper numbers -- Figure 6 speedups and Table 3 LCT hit rates -- for the
standard five-benchmark test subset.  Any refactor that silently
changes an exhibit's numbers (a perf optimization reordering float
accumulation, a scheduling tweak, a table resize) fails here instead
of drifting the paper's results unnoticed.

When a change is *intentional*, regenerate with::

    pytest tests/golden --update-golden

and commit the diff -- the review then shows exactly which numbers
moved.  Values are rounded to 10 decimal places so the goldens are
stable across platforms' libm while still catching any real change.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.harness import run_experiment

GOLDEN_DIR = pathlib.Path(__file__).parent
PLACES = 10


def _rounded(value):
    """Copy of an exhibit ``data`` tree normalized for JSON comparison:
    floats rounded, tuples listified, non-string keys stringified."""
    if isinstance(value, float):
        return round(value, PLACES)
    if isinstance(value, dict):
        return {str(key): _rounded(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_rounded(item) for item in value]
    return value


def _check(exp_id: str, session, update: bool) -> None:
    data = _rounded(run_experiment(exp_id, session).data)
    path = GOLDEN_DIR / f"{exp_id}_tiny.json"
    if update:
        path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"rewrote {path.name}")
    assert path.exists(), \
        f"missing golden {path.name}; create it with --update-golden"
    golden = json.loads(path.read_text())
    assert data == golden, (
        f"{exp_id} numbers drifted from {path.name}; if the change is "
        "intentional, regenerate with: pytest tests/golden --update-golden"
    )


def test_fig6_speedups_match_golden(tiny_session, update_golden):
    _check("fig6", tiny_session, update_golden)


def test_fig6_reference_models_match_golden(tiny_session, monkeypatch):
    """The oracle timing loops alone reproduce the committed Figure 6.

    The other fig6 check runs the fast loops, with sentinels comparing
    a sample to the oracles; this one pins every model run to the
    ``reference`` loops, so an oracle cannot drift unseen even if a
    fast loop drifted the same way.  It never re-records.
    """
    from repro.harness import Session
    monkeypatch.setenv("REPRO_MODEL_ENGINE", "reference")
    session = Session(scale="tiny", benchmarks=tiny_session.benchmark_names)
    data = _rounded(run_experiment("fig6", session).data)
    golden = json.loads((GOLDEN_DIR / "fig6_tiny.json").read_text())
    assert data == golden, \
        "the reference timing models drifted from fig6_tiny.json"


def test_tab3_lct_hit_rates_match_golden(tiny_session, update_golden):
    _check("tab3", tiny_session, update_golden)


def test_goldens_have_expected_shape(tiny_session):
    """The committed files cover every benchmark of the tiny subset."""
    fig6 = json.loads((GOLDEN_DIR / "fig6_tiny.json").read_text())
    tab3 = json.loads((GOLDEN_DIR / "tab3_tiny.json").read_text())
    benches = set(tiny_session.benchmark_names)
    assert set(fig6["620"]["Simple"]) == benches
    assert set(fig6["21164"]["Perfect"]) == benches
    assert set(tab3) == benches
    for row in tab3.values():
        assert set(row) == {"ppc/Simple", "ppc/Limit",
                            "alpha/Simple", "alpha/Limit"}
