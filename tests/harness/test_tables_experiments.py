"""Unit tests for table rendering and (small-scale) experiment drivers."""

from repro.core import BaselinePipeline
from repro.harness import (
    configure,
    experiments,
    fig01_rob_distribution,
    get_comparison,
    percent,
    render_table,
)
from repro.harness.experiments import extension_longlat
from repro.harness.figures import LONGLAT_NAMES, SIMPOINT_NAMES

SMALL = 0.12
SUBSET = ("bzip", "milc")


def test_render_table_alignment_and_footer():
    text = render_table("T", ("name", "v"), [("a", 1), ("bb", 22)],
                        footer=("sum", 23))
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "name" in lines[2]
    assert any("bb" in line for line in lines)
    assert "sum" in lines[-2]


def test_percent_formatting():
    assert percent(1.061) == "+6.1%"
    assert percent(0.95) == "-5.0%"


def test_comparison_cache_is_shared():
    a = get_comparison(SUBSET, SMALL)
    b = get_comparison(SUBSET, SMALL)
    assert a is b


def test_fig01_fractions_in_unit_interval():
    fractions = fig01_rob_distribution(names=SUBSET, scale=SMALL)
    for name, value in fractions.items():
        assert 0.0 <= value <= 1.0, name


def test_longlat_roots_engage_cdf_on_the_fdiv_kernel():
    """With long-latency roots marked critical, CDF finds roots in the
    miss-free FDIV-chain kernel (600 iterations), enters CDF mode and
    never violates a memory dependence."""
    runs = extension_longlat(("fdiv_chain",), scale=0.6)["fdiv_chain"]
    counters = runs["longlat"].counters
    assert counters["longlat_roots"] > 0
    assert counters["cdf_mode_cycles"] > 0
    assert counters["dependence_violations"] == 0


def test_warm_studies_simulate_nothing_outside_the_engine(tmp_path,
                                                          monkeypatch):
    """The studies that once ran pipelines themselves (hinted CDF, the
    FDIV-chain kernel, the phased programs) are engine jobs only: with
    the result cache warm and their in-process memos cleared, a rerun
    reproduces every result while simulating nothing."""
    def run_studies():
        studies = (
            experiments.extension_static_hints(("bzip",), 0.1),
            experiments.extension_longlat(LONGLAT_NAMES, 0.6),
            experiments.get_comparison(SIMPOINT_NAMES, 0.1))
        return [{name: {arm: result.fingerprint()
                        for arm, result in runs.items()}
                 for name, runs in study.items()} for study in studies]

    def clear_memos():
        monkeypatch.setattr(experiments, "_comparison_cache", {})
        experiments.extension_static_hints.cache_clear()
        experiments.extension_longlat.cache_clear()

    def refuse(pipeline):
        raise AssertionError(f"{type(pipeline).__name__} ran outside "
                             f"the engine's cache")

    try:
        clear_memos()
        configure(cache_dir=tmp_path)
        cold = run_studies()
        clear_memos()
        monkeypatch.setattr(BaselinePipeline, "run", refuse)
        engine = configure(cache_dir=tmp_path)
        assert run_studies() == cold
        assert engine.stats.executed == 0
        assert engine.stats.cache_hits == engine.stats.total > 0
    finally:
        clear_memos()
        configure()
