"""Exhibit stdout is invariant under engine-tier selection.

The golden tests pin exhibit bytes on the default path; these tests pin
the stronger claim that the *tier knobs themselves* cannot move a byte
-- on healthy runs and on sabotaged runs, where the degraded path (and
the annotate kernel's fallback to the general path) must also render
identically under the legacy and tiered engines.
"""

from repro.harness.experiments import EXPERIMENTS, run_experiments
from repro.harness.session import Session

BENCHES = ("grep", "compress")

#: Environment overrides pinning every tier to its slow reference path.
LEGACY_ENV = {"REPRO_ENGINE": "interp",
              "REPRO_ANNOTATE_KERNEL": "general",
              "REPRO_MODEL_ENGINE": "reference"}

#: Environment overrides pinning every tier to its fast path.  The
#: annotate knob is ``auto``, not ``vector``: exhibits also annotate
#: configs the vector kernel cannot take (the Perfect oracle), and
#: ``auto`` runs the general kernel there while forcing ``vector``
#: would refuse.
TIERED_ENV = {"REPRO_ENGINE": "compiled",
              "REPRO_ANNOTATE_KERNEL": "auto",
              "REPRO_MODEL_ENGINE": "fast"}


def _exhibit_text(monkeypatch, env, sabotage=None):
    with monkeypatch.context() as patch:
        for name, value in env.items():
            patch.setenv(name, value)
        patch.delenv("REPRO_TRACE_CACHE", raising=False)
        if sabotage is not None:
            patch.setenv("REPRO_SABOTAGE", sabotage)
        session = Session(scale="tiny", benchmarks=BENCHES)
        results = run_experiments(list(EXPERIMENTS), session, jobs=1)
        failures = len(session.failures)
    return "\n\n".join(result.text for result in results), failures


def test_healthy_run_identical_across_tiers(monkeypatch):
    legacy, _ = _exhibit_text(monkeypatch, LEGACY_ENV)
    tiered, _ = _exhibit_text(monkeypatch, TIERED_ENV)
    assert legacy == tiered


def test_sabotaged_run_identical_across_tiers(monkeypatch):
    """Degraded exhibits (footnoted gaps) must not depend on the tier."""
    legacy, legacy_failures = _exhibit_text(monkeypatch, LEGACY_ENV,
                                            sabotage="compress")
    tiered, tiered_failures = _exhibit_text(monkeypatch, TIERED_ENV,
                                            sabotage="compress")
    assert legacy_failures > 0
    assert legacy_failures == tiered_failures
    assert legacy == tiered
    assert "compress" in legacy  # the gap is footnoted, not silent
