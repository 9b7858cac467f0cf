"""Tests for the command-line interface."""

import pytest

from repro.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 0
    return captured.out


class TestSuiteCommand:
    def test_lists_all_benchmarks(self, capsys):
        out = run_cli(capsys, "suite")
        for name in ("ccl-271", "compress", "tomcatv"):
            assert name in out


class TestRunCommand:
    def test_runs_and_verifies(self, capsys):
        out = run_cli(capsys, "run", "grep", "--scale", "tiny")
        assert "verified OK" in out
        assert "instructions" in out

    def test_alpha_target(self, capsys):
        out = run_cli(capsys, "run", "grep", "--scale", "tiny",
                      "--target", "alpha")
        assert "alpha" in out


class TestLocalityCommand:
    def test_depths(self, capsys):
        out = run_cli(capsys, "locality", "compress", "--scale", "tiny",
                      "--depths", "1", "4")
        assert "depth  1" in out
        assert "depth  4" in out

    def test_general_flag(self, capsys):
        out = run_cli(capsys, "locality", "compress", "--scale", "tiny",
                      "--general")
        assert "general" in out


class TestAnnotateCommand:
    def test_outcome_mix(self, capsys):
        out = run_cli(capsys, "annotate", "compress", "--scale", "tiny")
        assert "constant" in out
        assert "prediction accuracy" in out

    def test_extension_config(self, capsys):
        out = run_cli(capsys, "annotate", "compress", "--scale", "tiny",
                      "--config", "Gshare")
        assert "Gshare" in out


class TestSpeedupCommand:
    def test_three_machines(self, capsys):
        out = run_cli(capsys, "speedup", "grep", "--scale", "tiny")
        assert "620" in out
        assert "21164" in out


class TestExperimentCommand:
    def test_single_exhibit(self, capsys):
        out = run_cli(capsys, "experiment", "fig1", "--scale", "tiny",
                      "--benchmarks", "grep,compress")
        assert "Value Locality" in out
        assert "grep" in out

    def test_unknown_exhibit_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig99"])


class TestCheckCommand:
    def test_check_subset(self, capsys):
        out = run_cli(capsys, "check", "--scale", "tiny", "--benchmarks",
                      "grep,gawk,compress,quick,tomcatv,cjpeg,swm256,sc")
        assert "Paper-shape check" in out
        assert "9/9 claims hold" in out


class TestDegradedRuns:
    def test_sabotaged_experiment_all_exits_nonzero(self, capsys,
                                                    monkeypatch):
        monkeypatch.setenv("REPRO_SABOTAGE", "compress")
        code = main(["experiment", "all", "--scale", "tiny",
                     "--benchmarks", "grep,compress"])
        captured = capsys.readouterr()
        assert code == 1
        # Every exhibit still rendered, gaps footnoted.
        for marker in ("Table 1", "Table 6", "Figure 9"):
            assert marker in captured.out
        assert "Footnotes:" in captured.out
        assert "benchmark failure(s) degraded this run" in captured.err

    def test_sabotaged_check_reports_skips(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SABOTAGE", "quick")
        code = main(["check", "--scale", "tiny",
                     "--benchmarks", "grep,quick"])
        captured = capsys.readouterr()
        assert code == 1
        assert "[SKIP]" in captured.out
        assert "skipped)" in captured.out


class TestReportCommand:
    def test_writes_html(self, capsys, tmp_path):
        output = tmp_path / "report.html"
        out = run_cli(capsys, "report", "--scale", "tiny",
                      "--benchmarks", "grep", "--output", str(output))
        assert "wrote" in out
        html = output.read_text()
        assert html.startswith("<!DOCTYPE html>")
        assert "grep" in html


class TestDisasmCommand:
    def test_disassembles(self, capsys):
        out = run_cli(capsys, "disasm", "grep", "--scale", "tiny",
                      "--count", "8")
        assert ":" in out  # at least one label

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestTraceCommand:
    def test_dumps_records(self, capsys):
        out = run_cli(capsys, "trace", "grep", "--scale", "tiny",
                      "--count", "10")
        assert "0x000100" in out  # text-segment PCs

    def test_loads_only(self, capsys):
        out = run_cli(capsys, "trace", "grep", "--scale", "tiny",
                      "--count", "200", "--loads-only")
        for line in out.splitlines():
            assert "<-" in line  # every line is a load
