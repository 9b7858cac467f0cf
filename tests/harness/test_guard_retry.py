"""The session's stage retry x TierGuard: retries respect the ladder.

The session retries a guarded stage that raised a
:class:`~repro.errors.RetryableError` (``Session._run_stage``); the
guard holds the sticky demotion table.  Their composition must satisfy
two properties, checked here with a planted
:class:`~repro.errors.CacheLockTimeout`:

* a unit that was demoted and then hits a transient fault on the
  oracle attempt retries **on the demoted tier** -- bouncing back to
  the fast tier would re-run the code the guard just proved wrong;
* a transient fault on the fast tier is *not* a demotion: the guard
  re-raises it untouched, and the retry runs the fast tier again.
"""

from __future__ import annotations

import pytest

from repro.errors import BenchmarkFailure, CacheLockTimeout
from repro.harness import session as session_module
from repro.harness.session import Session


@pytest.fixture(autouse=True)
def _clean_knobs(monkeypatch):
    for name in ("REPRO_ENGINE", "REPRO_TIER_FAULT", "REPRO_TRACE_CACHE",
                 "REPRO_SENTINEL_RATE", "REPRO_SENTINEL_SEED"):
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setattr(session_module.time, "sleep", lambda _s: None)


def _patched_run_program(monkeypatch, fake):
    # The guard imports run_program at call time, so a module-attribute
    # patch reaches it.
    import repro.sim.functional as functional
    monkeypatch.setattr(functional, "run_program", fake)


def _retried_trace(session):
    """grep's trace stage body through the session's retry."""
    return session._run_stage(
        "grep", "trace", "ppc", ("trace", ("grep", "ppc")),
        lambda: session.guard.run_trace("grep", "ppc", program=None))


class TestDemotedTierRetry:
    def test_transient_on_oracle_retries_on_oracle(self, monkeypatch):
        """Fast-tier fault demotes; a transient during the oracle
        retry must re-run on the *oracle*, not the original fast
        tier."""
        calls: list[str] = []

        def fake(program, name, target, engine):
            calls.append(engine)
            if engine == "compiled":
                raise ValueError("planted fast-tier fault")
            if calls.count("interp") == 1:
                raise CacheLockTimeout("planted transient")
            return "oracle-result"

        _patched_run_program(monkeypatch, fake)
        session = Session(scale="tiny", benchmarks=("grep",))
        assert _retried_trace(session) == "oracle-result"
        assert calls == ["compiled", "interp", "interp"]
        assert [d.to_tier for d in session.demotions] == ["interp"]

    def test_sticky_demotion_survives_later_retries(self, monkeypatch):
        """Once demoted, every later attempt of the key -- including
        retry re-entries -- goes straight to the oracle tier."""
        calls: list[str] = []

        def fake(program, name, target, engine):
            calls.append(engine)
            if engine == "compiled":
                raise ValueError("planted fast-tier fault")
            return "oracle-result"

        _patched_run_program(monkeypatch, fake)
        session = Session(scale="tiny", benchmarks=("grep",))
        _retried_trace(session)
        calls.clear()
        assert _retried_trace(session) == "oracle-result"
        assert calls == ["interp"]

    def test_transient_on_fast_tier_is_not_a_demotion(self, monkeypatch):
        """A RetryableError from the fast tier propagates un-demoted:
        the retry runs the fast tier again and no demotion is
        recorded."""
        monkeypatch.setenv("REPRO_SENTINEL_RATE", "0")
        calls: list[str] = []

        def fake(program, name, target, engine):
            calls.append(engine)
            if len(calls) == 1:
                raise CacheLockTimeout("planted transient")
            return "fast-result"

        _patched_run_program(monkeypatch, fake)
        session = Session(scale="tiny", benchmarks=("grep",))
        assert _retried_trace(session) == "fast-result"
        assert calls == ["compiled", "compiled"]
        assert session.demotions == []

    def test_persistent_transient_exhausts_on_demoted_tier(
            self, monkeypatch):
        """If the oracle keeps failing transiently, the retry's
        attempts are spent on the oracle tier and the failure is
        finally recorded -- never silently reverting to the fast
        tier."""
        calls: list[str] = []

        def fake(program, name, target, engine):
            calls.append(engine)
            if engine == "compiled":
                raise ValueError("planted fast-tier fault")
            raise CacheLockTimeout("still transient")

        _patched_run_program(monkeypatch, fake)
        session = Session(scale="tiny", benchmarks=("grep",))
        with pytest.raises(BenchmarkFailure) as caught:
            _retried_trace(session)
        assert isinstance(caught.value.cause, CacheLockTimeout)
        assert calls == ["compiled", "interp", "interp", "interp"]
