"""Integration tests for the experiment harness and CLI."""

import pytest

from repro.config import ExperimentScale
from repro.experiments import (
    FIGURES, MISS_CATEGORIES, UPDATE_CATEGORIES, combo_label,
    fig8_lock_latency, fig9_lock_misses, fig10_lock_updates,
    fig11_barrier_latency, fig13_barrier_updates,
    fig14_reduction_latency, fig16_reduction_updates,
)
from repro.experiments.cli import build_parser, main
from repro.config import Protocol

TINY = ExperimentScale(lock_total_acquires=48, barrier_episodes=4,
                       reduction_iters=4)
SIZES = (2, 4)


class TestFigureRunners:
    def test_combo_labels(self):
        assert combo_label("tk", Protocol.WI) == "tk-i"
        assert combo_label("db", Protocol.PU) == "db-u"
        assert combo_label("sr", Protocol.CU) == "sr-c"

    def test_fig8_structure(self):
        s = fig8_lock_latency(scale=TINY, sizes=SIZES)
        assert s.xs == [2, 4]
        assert set(s.lines) == {
            f"{k}-{p}" for k in ("tk", "MCS", "uc")
            for p in ("i", "u", "c")}
        for label in s.lines:
            for P in SIZES:
                assert s.get(label, P) is not None
                assert s.get(label, P) > 0

    def test_fig9_structure(self):
        b = fig9_lock_misses(scale=TINY, P=4)
        assert b.categories == MISS_CATEGORIES
        assert len(b.bars) == 9
        for label in b.bars:
            assert b.total(label) >= 0

    def test_fig10_only_update_protocols(self):
        b = fig10_lock_updates(scale=TINY, P=4)
        assert set(b.bars) == {
            f"{k}-{p}" for k in ("tk", "MCS", "uc") for p in ("u", "c")}
        assert b.categories == UPDATE_CATEGORIES

    def test_fig11_structure(self):
        s = fig11_barrier_latency(scale=TINY, sizes=SIZES)
        assert set(s.lines) == {
            f"{k}-{p}" for k in ("cb", "db", "tb")
            for p in ("i", "u", "c")}

    def test_fig13_structure(self):
        b = fig13_barrier_updates(scale=TINY, P=4)
        assert len(b.bars) == 6

    def test_fig14_structure(self):
        s = fig14_reduction_latency(scale=TINY, sizes=SIZES)
        assert set(s.lines) == {
            f"{k}-{p}" for k in ("sr", "pr") for p in ("i", "u", "c")}

    def test_fig16_structure(self):
        b = fig16_reduction_updates(scale=TINY, P=4)
        assert set(b.bars) == {"sr-u", "sr-c", "pr-u", "pr-c"}

    def test_figures_registry_complete(self):
        assert set(FIGURES) == {f"fig{i}" for i in range(8, 17)}

    def test_progress_callback_invoked(self):
        calls = []
        fig9_lock_misses(scale=TINY, P=2, progress=calls.append)
        assert len(calls) == 9
        assert all(c.startswith("fig9") for c in calls)


class TestCampaignFigures:
    """The figures are campaigns: parallel == serial, cache == live."""

    def test_parallel_table_identical_to_serial(self):
        from repro.campaign import CampaignRunner
        serial = fig14_reduction_latency(
            scale=TINY, sizes=SIZES, runner=CampaignRunner(jobs=1))
        parallel = fig14_reduction_latency(
            scale=TINY, sizes=SIZES, runner=CampaignRunner(jobs=4))
        assert parallel.render() == serial.render()

    def test_warm_cache_runs_zero_simulations(self, tmp_path):
        from repro.campaign import CampaignRunner, ResultCache
        from repro.experiments import figure_points
        runner = CampaignRunner(cache=ResultCache(tmp_path))
        cold = fig9_lock_misses(scale=TINY, P=2, runner=runner)
        points = figure_points("fig9", scale=TINY, P=2)
        warm_report = runner.run([pt.spec for pt in points])
        assert warm_report.executed == 0
        assert warm_report.cached == len(points)
        from repro.experiments import figure_table
        warm = figure_table("fig9", points, warm_report.records)
        assert warm.render() == cold.render()

    def test_figure_failure_raises_campaign_error(self):
        from repro.campaign import CampaignError, CampaignRunner
        from repro.experiments import run_figure
        with pytest.raises(CampaignError, match="failed"):
            run_figure("fig9", scale=TINY, P=2,
                       runner=CampaignRunner(), delay_mode="bogus")

    def test_points_cover_every_combination(self):
        from repro.experiments import figure_points
        points = figure_points("fig8", scale=TINY, sizes=SIZES)
        assert len(points) == 3 * 3 * len(SIZES)
        labels = {pt.label for pt in points}
        assert labels == {f"{k}-{p}" for k in ("tk", "MCS", "uc")
                          for p in ("i", "u", "c")}


class TestCLI:
    def test_parser_defaults(self):
        args = build_parser().parse_args([])
        assert args.figures == ["all"]
        assert args.scale == 0.1
        assert args.sizes == (1, 2, 4, 8, 16, 32)
        assert args.jobs == 1
        assert args.cache_dir == ".repro-cache"
        assert not args.no_cache

    def test_cli_jobs_and_cache(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cc")
        bench = str(tmp_path / "BENCH_figures.json")
        argv = ["fig16", "--scale", "0.002", "--procs", "2",
                "--jobs", "2", "--cache-dir", cache_dir,
                "--bench-json", bench, "--quiet"]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "Figure 16" in cold
        import json as _json
        with open(bench) as fh:
            tallies = _json.load(fh)["figures"]["fig16"]
        assert tallies["executed"] == tallies["specs"] > 0
        # warm re-run: identical table, zero simulations
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert warm == cold
        with open(bench) as fh:
            tallies = _json.load(fh)["figures"]["fig16"]
        assert tallies["executed"] == 0
        assert tallies["cached"] == tallies["specs"]

    def test_cli_no_cache(self, tmp_path, capsys):
        argv = ["fig16", "--scale", "0.002", "--procs", "2",
                "--no-cache", "--quiet"]
        assert main(argv) == 0
        assert "Figure 16" in capsys.readouterr().out

    def test_profile_flag_writes_reports(self, tmp_path, capsys):
        import pstats

        prefix = str(tmp_path / "prof")
        argv = ["fig16", "--scale", "0.01", "--procs", "4",
                "--jobs", "1", "--no-cache", "--quiet",
                "--profile", prefix]
        assert main(argv) == 0
        assert "Figure 16" in capsys.readouterr().out
        # the binary dump loads and saw the simulator's send path
        stats = pstats.Stats(prefix + ".pstats")
        assert any(name == "post" and path.endswith("fabric.py")
                   for path, _line, name in stats.stats)
        with open(prefix + ".txt", encoding="utf-8") as fh:
            assert "Ordered by: cumulative time" in fh.read()

    def test_check_accepts_jobs(self, capsys):
        from repro.experiments.check import main as check_main
        assert check_main(["--procs", "2", "--jobs", "2",
                           "--quiet"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_parser_sizes(self):
        args = build_parser().parse_args(["--sizes", "2,4"])
        assert args.sizes == (2, 4)

    def test_unknown_figure_rejected(self, capsys):
        rc = main(["fig99"])
        assert rc == 2
        assert "unknown figure" in capsys.readouterr().err

    def test_cli_runs_a_traffic_figure(self, capsys):
        rc = main(["fig9", "--scale", "0.002", "--procs", "4",
                   "--no-cache", "--quiet"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Figure 9" in out
        assert "tk-i" in out

    def test_cli_runs_a_latency_figure(self, capsys):
        rc = main(["fig14", "--scale", "0.002", "--sizes", "2,4",
                   "--no-cache", "--quiet"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Figure 14" in out
        assert "sr-u" in out


class TestCliErrorPaths:
    """Unknown names exit nonzero with suggestions, never a traceback
    (run through ``python -m repro.experiments`` like a user would)."""

    @staticmethod
    def run_cli(*argv, cache_args=("--no-cache",)):
        import os
        import subprocess
        import sys

        import repro

        env = dict(os.environ)
        src_root = os.path.dirname(os.path.dirname(
            os.path.abspath(repro.__file__)))
        env["PYTHONPATH"] = src_root + os.pathsep + \
            env.get("PYTHONPATH", "")
        return subprocess.run(
            [sys.executable, "-m", "repro.experiments",
             *argv, *cache_args],
            capture_output=True, text=True, env=env, timeout=120)

    def test_unknown_figure_suggests_close_names(self):
        out = self.run_cli("fig99")
        assert out.returncode == 2
        assert "unknown figure 'fig99'" in out.stderr
        assert "did you mean" in out.stderr
        assert "fig9" in out.stderr
        assert "choose from" in out.stderr
        assert "Traceback" not in out.stderr

    def test_typoed_subcommand_suggests(self):
        out = self.run_cli("modelchek")
        assert out.returncode == 2
        assert "did you mean" in out.stderr
        assert "modelcheck" in out.stderr
        assert "Traceback" not in out.stderr

    def test_every_unknown_name_reported(self):
        out = self.run_cli("fig99", "gif8")
        assert out.returncode == 2
        assert "fig99" in out.stderr and "gif8" in out.stderr

    def test_did_you_mean_in_process(self, capsys):
        assert main(["fig12a", "--no-cache"]) == 2
        err = capsys.readouterr().err
        assert "did you mean" in err and "fig12" in err

    def test_bad_cache_max_mb_rejected(self, capsys):
        rc = main(["fig9", "--cache-max-mb", "0", "--no-cache"])
        assert rc == 2
        assert "cache-max-mb" in capsys.readouterr().err
