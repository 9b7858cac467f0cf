"""Tests for the fault-injection doctor campaign."""

from repro.faults import (
    DETECTED,
    ENGINE_CHECKS,
    JOURNAL_CHECKS,
    RECOVERED,
    SILENT,
    run_doctor,
)

#: Every campaign appends the journal- and engines-layer self-tests.
EXTRA = len(JOURNAL_CHECKS) + len(ENGINE_CHECKS)


class TestDoctorCampaign:
    def test_campaign_has_no_silent_corruption(self, grep_trace):
        report = run_doctor(seed=0, faults=18, trace=grep_trace)
        assert len(report.outcomes) == 18 + EXTRA
        assert report.silent == []
        assert report.ok

    def test_campaign_is_deterministic(self, grep_trace):
        first = run_doctor(seed=11, faults=12, trace=grep_trace)
        second = run_doctor(seed=11, faults=12, trace=grep_trace)
        assert [(o.spec, o.status) for o in first.outcomes] == \
            [(o.spec, o.status) for o in second.outcomes]

    def test_counts_cover_all_layers(self, grep_trace):
        report = run_doctor(seed=0, faults=18, trace=grep_trace)
        counts = report.counts()
        assert set(counts) == {"trace", "cache", "lvp", "journal",
                               "engines"}
        total = sum(row[status] for row in counts.values()
                    for status in (DETECTED, RECOVERED, SILENT))
        assert total == 18 + EXTRA

    def test_journal_layer_kinds(self, grep_trace):
        report = run_doctor(seed=0, faults=9, trace=grep_trace)
        kinds = [o.spec.kind for o in report.outcomes
                 if o.spec.layer == "journal"]
        assert kinds == list(JOURNAL_CHECKS)
        assert all(o.status != SILENT for o in report.outcomes
                   if o.spec.layer == "journal")

    def test_engines_layer_kinds(self, grep_trace):
        report = run_doctor(seed=0, faults=9, trace=grep_trace)
        engines = [o for o in report.outcomes
                   if o.spec.layer == "engines"]
        assert [o.spec.kind for o in engines] == list(ENGINE_CHECKS)
        assert all(o.status != SILENT for o in engines)
        forced = {o.spec.kind: o for o in engines}["forced_demotion"]
        assert forced.status == DETECTED
        assert "demoted" in forced.detail

    def test_render_reports_verdict(self, grep_trace):
        report = run_doctor(seed=0, faults=9, trace=grep_trace)
        text = report.render()
        assert "Fault-injection doctor" in text
        assert "journal" in text
        assert "engines" in text
        assert "verdict: OK" in text

    def test_silent_outcome_fails_report(self, grep_trace):
        report = run_doctor(seed=0, faults=9, trace=grep_trace)
        report.outcomes[0].status = SILENT
        assert not report.ok
        assert "verdict: FAIL" in report.render()
        assert "!!" in report.render()
