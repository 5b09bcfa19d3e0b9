"""Unit tests for the command-line interface."""

import argparse
import ast
import pathlib
import re

import pytest

import repro
from repro.cli import build_parser, main


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


def test_report_requires_a_benchmark():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["report", "--scale", "0.5"])


def test_removed_perf_subcommand_points_to_bench(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["perf"])
    assert exit_info.value.code == 2
    assert "bench/README.md" in capsys.readouterr().err


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


def test_cache_clear_leaves_no_file_under_traces(capsys, tmp_path,
                                                monkeypatch):
    """``cache stats`` counts the program entries beside the traces, and
    ``cache clear`` removes both kinds and their temp files."""
    from repro.harness import runner
    from repro.harness.tracestore import get_trace_store, reset_trace_store

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    reset_trace_store()
    for _ in range(2):                               # cold, then warm
        runner._workload_cache.clear()
        code, _ = run_cli(capsys, "run", "bzip", "--mode", "baseline",
                          "--scale", "0.1", "--no-cache")
        assert code == 0
    stats = get_trace_store().stats()
    assert (stats["entries"], stats["programs"]) == (1, 1)
    assert stats["program_bytes"] > 0
    code, out = run_cli(capsys, "cache", "stats")
    assert re.search(r"program entries\s*\|?\s*1", out)
    [program] = get_trace_store().program_entries()
    program.with_name(program.name + ".tmp4242").write_text('{"torn": ')
    code, out = run_cli(capsys, "cache", "clear")
    assert code == 0
    assert "removed 1 compiled trace" in out
    traces = tmp_path / "traces"
    assert traces.is_dir()
    assert [path for path in traces.rglob("*") if path.is_file()] == []
    runner._workload_cache.clear()
    reset_trace_store()


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


def test_verify_bench_counts_every_trace_uop(capsys):
    """A passing oracle run checked the whole trace, warm-up included,
    not only the measured uops past it."""
    from repro.harness import load_workload
    trace_uops = len(load_workload("bzip", 0.1).trace())
    code, out = run_cli(capsys, "verify", "--bench", "bzip", "--scale",
                        "0.1", "--modes", "cdf")
    assert code == 0
    assert f"bzip [cdf]: ok — {trace_uops} retired uops cross-checked" \
        in out


def test_sweep_default_scale_engages_cdf():
    """The default scale must train CDF enough to enter CDF mode; at
    0.15 it never did, and every sweep point read 1.000x."""
    from repro.harness import run_benchmark
    scale = build_parser().parse_args(["sweep", "--knob", "mshrs"]).scale
    cdf = run_benchmark("mcf", "cdf", scale=scale)
    baseline = run_benchmark("mcf", "baseline", scale=scale)
    assert cdf.counters["cdf_mode_cycles"] > 0
    assert cdf.cycles != baseline.cycles


# ------------------------------------------------------ settings surface
#: Every option string of every subcommand, ``-h``/``--help`` aside. An
#: option belongs here only if some caller outside the tests (bench/,
#: CI, a doc recipe) sets it, or no other input determines it.
PINNED_OPTIONS = {
    "list": [],
    "run": ["--jobs", "--no-cache", "--mode", "--scale", "--seed", "--rob",
            "--counters"],
    "compare": ["--jobs", "--no-cache", "--scale", "--seed"],
    "figures": ["--jobs", "--no-cache", "--quick", "--full", "--fig",
                "--list", "--seed", "--out", "--check-baseline",
                "--write-baseline", "--sync-doc", "--no-bench"],
    "disasm": [],
    "report": ["--jobs", "--no-cache", "--benchmark", "--scale", "--output",
               "--mode", "--seed", "--no-baseline"],
    "trace": ["--benchmark", "--mode", "--scale", "--seed", "--out"],
    "cache": [],
    "sweep": ["--jobs", "--no-cache", "--knob", "--values", "--benchmarks",
              "--modes", "--scale", "--seed"],
    "verify": ["--fuzz", "--seed", "--modes", "--level", "--bench",
               "--scale"],
    "lint": [],
    "perf": [],
}


def test_option_strings_are_pinned():
    [subparsers] = [action for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction)]
    found = {name: [option for action in parser._actions
                    for option in action.option_strings
                    if option not in ("-h", "--help")]
             for name, parser in subparsers.choices.items()}
    assert found == PINNED_OPTIONS
    assert sum(map(len, found.values())) == 50


def test_environment_switches_are_pinned():
    """The ``REPRO_*`` names the package reads: the cache directory, the
    worker count and the workload memo's capacity."""
    package = pathlib.Path(repro.__file__).parent
    names = {node.value
             for path in package.rglob("*.py")
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Constant)
             and isinstance(node.value, str)
             and re.fullmatch(r"REPRO_\w+", node.value)}
    assert names == {"REPRO_CACHE_DIR", "REPRO_JOBS",
                     "REPRO_WORKLOAD_CACHE"}
