"""Tests for the one-shot report generator."""

import pytest

from repro.experiments.report import generate_report, main
from repro.experiments.runner import BenchConfig


class TestReport:
    @pytest.mark.slow
    def test_report_contains_all_sections(self):
        config = BenchConfig(scale=1.0, count=1, timeout=5.0, node_limit=200000, seed=3)
        report = generate_report(config)
        assert "# Reproduction report" in report
        assert "## Table I" in report
        assert "## Fig. 4" in report
        assert "## In-text statistics" in report
        assert "Paper (1820 instances, 2h/8GB):" in report
        # measured table rendered for every family
        for family in ("adder", "bitcell", "lookahead", "pec_xor", "z4", "comp", "c432"):
            assert family in report

    def test_main_writes_file(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_COUNT", "1")
        monkeypatch.setenv("REPRO_BENCH_TIMEOUT", "5")
        path = tmp_path / "report.md"
        assert main([str(path)]) == 0
        report = path.read_text()
        assert report.startswith("# Reproduction report")
        # the Stage timing section lists every HQS stage timer
        for stage in ("preprocess", "fraig", "maxsat", "eliminate", "qbf"):
            assert f"| {stage} |" in report
