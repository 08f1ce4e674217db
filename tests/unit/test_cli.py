"""Unit tests for the command-line interfaces."""

import json

import pytest

from repro.__main__ import main as repro_main
from repro.bench.cli import build_parser, main as bench_main
from repro.bench.figures import SCALES, run_figure
from repro.errors import StreamConfigError


class TestBenchParser:
    def test_requires_figure_or_all(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figure_choice_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--figure", "7"])

    def test_defaults(self):
        args = build_parser().parse_args(["--figure", "3"])
        assert args.scale == "small"
        assert args.repeats == 3
        assert args.tree == "tree-skiplist"


class TestRunFigure:
    def test_unknown_scale(self):
        with pytest.raises(StreamConfigError):
            run_figure(3, scale="galactic")

    def test_unknown_figure(self):
        with pytest.raises(StreamConfigError):
            run_figure(7, scale="tiny")

    def test_tiny_scale_exists(self):
        assert "tiny" in SCALES

    @pytest.mark.parametrize("figure", [3, 4, 5, 6])
    def test_figures_run_at_tiny_scale(self, figure):
        result = run_figure(figure, scale="tiny", repeats=1)
        assert result.figure == figure
        assert result.series
        for series in result.series:
            assert series.x_values
            assert all(times for times in series.times.values())


class TestBenchMain:
    def test_single_figure_with_json(self, tmp_path, capsys):
        out = tmp_path / "results.json"
        code = bench_main(
            ["--figure", "5", "--scale", "tiny", "--repeats", "1",
             "--json", str(out)]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "Figure 5" in captured
        payload = json.loads(out.read_text())
        assert payload[0]["figure"] == 5


class TestReproMain:
    def test_help(self, capsys):
        assert repro_main([]) == 0
        assert "bench" in capsys.readouterr().out

    def test_unknown_command(self, capsys):
        assert repro_main(["fly"]) == 2
        assert "unknown command" in capsys.readouterr().err

    def test_profile_command(self, capsys):
        code = repro_main(
            ["profile", "--stream", "stream1", "--events", "2000",
             "--universe", "100", "--top", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "mode:" in out
        assert "top-3" in out
        assert "ProfileSummary" in out

    def test_profile_refuses_retired_shards_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            repro_main(["profile", "--universe", "100", "--shards", "4"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "python -m repro.cluster --replicas N" in err

    def test_bench_subcommand(self, capsys):
        code = repro_main(
            ["bench", "--figure", "5", "--scale", "tiny", "--repeats", "1"]
        )
        assert code == 0
        assert "Figure 5" in capsys.readouterr().out
