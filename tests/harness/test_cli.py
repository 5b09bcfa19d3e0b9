"""Unit tests for the command-line interface."""

import pytest

from repro.cli import FIGURES, build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_list_shows_all_benchmarks(capsys):
    code, out = run_cli(capsys, "list")
    assert code == 0
    for name in ("astar", "mcf", "zeusmp", "parest"):
        assert name in out


def test_run_baseline(capsys):
    code, out = run_cli(capsys, "run", "bzip", "--mode", "baseline",
                        "--scale", "0.1")
    assert code == 0
    assert "bzip" in out and "ipc=" in out


def test_run_cdf_reports_cdf_counters(capsys):
    code, out = run_cli(capsys, "run", "bzip", "--mode", "cdf",
                        "--scale", "0.3")
    assert code == 0
    assert "cdf:" in out and "critical fetches" in out


def test_run_pre_reports_runahead_counters(capsys):
    code, out = run_cli(capsys, "run", "milc", "--mode", "pre",
                        "--scale", "0.15")
    assert code == 0
    assert "pre:" in out and "intervals" in out


def test_run_with_rob_override(capsys):
    code, out = run_cli(capsys, "run", "bzip", "--mode", "baseline",
                        "--scale", "0.1", "--rob", "64")
    assert code == 0


def test_run_counters_dump(capsys):
    code, out = run_cli(capsys, "run", "bzip", "--mode", "baseline",
                        "--scale", "0.1", "--counters")
    assert "fetch_uops" in out


def test_compare(capsys):
    code, out = run_cli(capsys, "compare", "bzip", "--scale", "0.1")
    assert code == 0
    for mode in ("baseline", "cdf", "pre"):
        assert mode in out


def test_figure_table1(capsys):
    code, out = run_cli(capsys, "figure", "table1")
    assert code == 0
    assert "352 Entry ROB" in out


def test_figure_fig13_small(capsys):
    code, out = run_cli(capsys, "figure", "fig13", "--scale", "0.08")
    assert code == 0
    assert "GEOMEAN" in out


def test_disasm(capsys):
    code, out = run_cli(capsys, "disasm", "nab")
    assert code == 0
    assert "load r8, [r7]" in out


def test_cache_stats_and_clear_subcommand(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    code, out = run_cli(capsys, "cache", "stats")
    assert code == 0
    assert str(tmp_path) in out
    assert "0" in out

    # Populate the cache via a run, then verify stats and clear see it.
    code, _ = run_cli(capsys, "run", "bzip", "--mode", "baseline",
                      "--scale", "0.1")
    assert code == 0
    code, out = run_cli(capsys, "cache", "stats")
    assert "1" in out
    code, out = run_cli(capsys, "cache", "clear")
    assert code == 0
    assert "removed 1 cached result" in out


def test_run_warm_cache_skips_simulation(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    code, cold = run_cli(capsys, "run", "bzip", "--mode", "baseline",
                         "--scale", "0.1")
    assert code == 0
    from repro.harness import get_engine
    assert get_engine().stats.executed == 1
    code, warm = run_cli(capsys, "run", "bzip", "--mode", "baseline",
                         "--scale", "0.1")
    assert code == 0
    assert get_engine().stats.cache_hits == 1
    assert get_engine().stats.executed == 0
    assert warm == cold                  # stdout is byte-identical


def test_no_cache_flag_forces_resimulation(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    run_cli(capsys, "run", "bzip", "--mode", "baseline", "--scale", "0.1")
    code, _ = run_cli(capsys, "run", "bzip", "--mode", "baseline",
                      "--scale", "0.1", "--no-cache")
    assert code == 0
    from repro.harness import get_engine
    assert get_engine().stats.executed == 1
    assert get_engine().stats.cache_hits == 0


def test_compare_with_jobs_flag(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    code, out = run_cli(capsys, "compare", "bzip", "--scale", "0.1",
                        "--jobs", "2")
    assert code == 0
    for mode in ("baseline", "cdf", "pre"):
        assert mode in out


def test_unknown_benchmark_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "gcc"])


def test_all_figures_registered():
    assert set(FIGURES) == {
        "table1", "fig1", "fig13", "fig14", "fig15", "fig16", "fig17",
        "ablation-branches", "ablation-partitioning",
        "ablation-thresholds",
    }


def test_cache_subcommand_covers_trace_store(capsys, tmp_path, monkeypatch):
    from repro.harness import runner
    from repro.harness.tracestore import reset_trace_store

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    runner._workload_cache.clear()
    reset_trace_store()
    code, _ = run_cli(capsys, "run", "bzip", "--mode", "baseline",
                      "--scale", "0.1")
    assert code == 0
    code, out = run_cli(capsys, "cache", "stats")
    assert code == 0
    assert "trace cache" in out
    assert str(tmp_path / "traces") in out
    code, out = run_cli(capsys, "cache", "clear")
    assert code == 0
    assert "removed 1 cached result" in out
    assert "removed 1 compiled trace" in out


def test_perf_subcommand_writes_report_and_compares(capsys, tmp_path,
                                                    monkeypatch):
    """`repro-sim perf` writes the stable-schema report and enforces the
    tolerance band against a previous run and a committed ratio floor
    (the timing itself is stubbed: CI noise is not a unit test's job)."""
    import json

    import repro.harness.perfbench as perfbench

    fake = {
        "schema": 1,
        "suite": [list(p) for p in perfbench.PERF_SUITE],
        "scale": 0.3,
        "reps": 3,
        "smoke": False,
        "timings": {"functional_s": 1.0, "trace_load_s": 0.4,
                    "sweep_cold_s": 4.0, "sweep_warm_s": 3.0},
        "derived": {"trace_compile_speedup": 2.5, "cold_over_warm": 1.33},
        "env": {"python": "x", "platform": "y"},
    }
    monkeypatch.setattr(perfbench, "run_perfbench",
                        lambda **kwargs: json.loads(json.dumps(fake)))
    report_path = tmp_path / "BENCH_perf.json"

    code, out = run_cli(capsys, "perf", "--quiet",
                        "--output", str(report_path))
    assert code == 0
    assert "report written to" in out
    on_disk = json.loads(report_path.read_text())
    assert on_disk == fake

    # Second run against its own previous report: inside the band.
    code, out = run_cli(capsys, "perf", "--quiet",
                        "--output", str(report_path))
    assert code == 0
    assert "no regressions" in out

    # A slower "previous" run does not fail (improvement), but a faster
    # one makes the current run a regression beyond the band.
    previous = json.loads(json.dumps(fake))
    previous["timings"]["sweep_warm_s"] = 1.0
    report_path.write_text(json.dumps(previous))
    code, out = run_cli(capsys, "perf", "--quiet",
                        "--output", str(report_path))
    assert code == 1
    assert "PERF REGRESSION" in out and "sweep_warm_s" in out

    # Committed ratio floors: current ratios far below the floor fail.
    report_path.unlink()
    floors = tmp_path / "floors.json"
    floors.write_text(json.dumps({"trace_compile_speedup": 9.0}))
    code, out = run_cli(capsys, "perf", "--quiet",
                        "--output", str(report_path),
                        "--baseline", str(floors))
    assert code == 1
    assert "trace_compile_speedup" in out

    floors.write_text(json.dumps({"trace_compile_speedup": 2.0}))
    report_path.unlink()
    code, out = run_cli(capsys, "perf", "--quiet",
                        "--output", str(report_path),
                        "--baseline", str(floors))
    assert code == 0


def test_sweep_subcommand_plain(capsys):
    code, out = run_cli(capsys, "sweep", "--knob", "mshrs",
                        "--values", "2", "16", "--benchmarks", "bzip",
                        "--modes", "baseline", "cdf", "--scale", "0.1")
    assert code == 0
    assert "sweep: mshrs" in out
    assert "cdf" in out


@pytest.mark.parametrize("argv, named", [
    (["--knob", "mshrs", "--modes", "cdf"], "--modes cdf:"),
    (["--knob", "mshrs", "--modes", "baseline"], "--modes baseline:"),
    (["--knob", "mshrs", "--values", "0"], "value 0:"),
    (["--knob", "llc_size", "--values", "100000"], "value 100000:"),
    (["--knob", "llc_size", "--values", "1.5e6"], "value 1500000.0:"),
    (["--knob", "memory_speed", "--values", "inf"], "value inf:"),
], ids=["no-baseline", "only-baseline", "mshrs-zero", "llc-sets-not-pow2",
        "llc-float", "memory-speed-inf"])
def test_sweep_rejects_bad_input_before_any_job(capsys, monkeypatch,
                                                argv, named):
    from repro.harness.engine import Engine

    def no_jobs(self, jobs):
        raise AssertionError("a job ran before the input was checked")

    monkeypatch.setattr(Engine, "run", no_jobs)
    with pytest.raises(SystemExit) as exit_info:
        main(["sweep", *argv])
    assert exit_info.value.code == 2
    assert named in capsys.readouterr().err


def test_sweep_default_scale_engages_cdf():
    """The default scale must train CDF enough to enter CDF mode; at
    0.15 it never did, and every sweep point read 1.000x."""
    from repro.harness import run_benchmark
    scale = build_parser().parse_args(["sweep", "--knob", "mshrs"]).scale
    cdf = run_benchmark("mcf", "cdf", scale=scale)
    baseline = run_benchmark("mcf", "baseline", scale=scale)
    assert cdf.counters["cdf_mode_cycles"] > 0
    assert cdf.cycles != baseline.cycles
