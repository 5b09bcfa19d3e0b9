"""Unit tests for table rendering and (small-scale) experiment drivers."""

from repro.harness import (
    fig01_rob_distribution,
    get_comparison,
    percent,
    render_table,
)
from repro.harness.experiments import extension_longlat

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
    counters = extension_longlat(scale=0.6)["longlat"].counters
    assert counters["longlat_roots"] > 0
    assert counters["cdf_mode_cycles"] > 0
    assert counters["dependence_violations"] == 0
