"""Command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import main


class TestSolve:
    def test_solve_prints_parameters(self, capsys):
        assert main(["solve", "--pages", "1000000", "--cache", "50000",
                     "--c", "2.0", "--page-size", "1000"]) == 0
        out = capsys.readouterr().out
        assert "block size k" in out
        assert "29" in out  # the paper's 1 GB point
        assert "query time" in out

    def test_solve_invalid_config_exits_nonzero(self, capsys):
        assert main(["solve", "--pages", "100", "--cache", "1"]) == 2
        assert "error:" in capsys.readouterr().err


class TestHeadline:
    def test_table_has_all_rows(self, capsys):
        assert main(["headline"]) == 0
        out = capsys.readouterr().out
        assert "1GB" in out and "1TB" in out
        assert "0.027" in out


class TestFigure:
    @pytest.mark.parametrize("number", ["4", "5", "6", "7"])
    def test_each_figure_prints_panels(self, capsys, number):
        assert main(["figure", number]) == 0
        out = capsys.readouterr().out
        assert f"Figure {number}" in out
        assert "response (s)" in out

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            main(["figure", "9"])


class TestPrivacy:
    def test_small_run(self, capsys):
        assert main(["privacy", "--trials", "60", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "measured c" in out
        assert "offset t" in out


class TestSweep:
    def test_sweep_prints_and_writes_csv(self, capsys, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--pages", "40", "--caches", "4,8",
                     "--trials", "50", "--workload", "30",
                     "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "c measured" in printed
        assert out.exists()
        assert out.read_text().count("\n") == 3  # header + 2 rows


class TestDemo:
    def test_demo_runs_clean(self, capsys):
        assert main(["demo", "--pages", "32", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "consistency check passed" in out
        assert "trace uniform: True" in out


class TestReport:
    def test_report_to_file(self, tmp_path):
        out = tmp_path / "REPORT.md"
        assert main(["report", "--out", str(out), "--trials", "60"]) == 0
        text = out.read_text()
        assert "# Reproduction report" in text
        assert "Figure 4" in text and "Figure 7" in text
        assert "measured c" in text
        # Valid markdown tables throughout.
        assert text.count("|---|") >= 5

    def test_report_to_stdout(self, capsys):
        assert main(["report", "--trials", "40"]) == 0
        assert "headline" in capsys.readouterr().out


class TestParser:
    def test_no_command_exits(self):
        with pytest.raises(SystemExit):
            main([])

    def test_serve_has_no_workers_flag(self, capsys):
        """A plain PirDatabase is single-threaded: the flag could only fail."""
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--workers", "2"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --workers" in capsys.readouterr().err

    def test_module_entry_point_importable(self):
        import repro.cli

        assert callable(repro.cli.main)
