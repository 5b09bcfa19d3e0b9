"""Unit tests for the run-report renderer (sparklines, tables)."""

from repro.obs import render_run_report
from repro.obs.runreport import histogram, sparkline
from repro.stats import Counters, SimResult


def _result(obs=None, mode="cdf", counters=None):
    return SimResult(
        benchmark="unit", mode=mode, cycles=1000, retired_uops=1500,
        mlp=2.0, dram_reads={"demand": 10}, dram_writes={},
        full_window_stall_cycles=50, energy_nj=123.0,
        counters=Counters(counters or {}), obs=obs)


def _obs():
    return {
        "level": 2,
        "sample_interval": 100,
        "samples": {
            "cycle": [0, 100, 200, 300],
            "retired": [0, 200, 250, 600],
            "rob": [0, 64, 128, 32],
            "fetch_ahead": [0, 12, 40, 8],
        },
        "mem_latency": {"dram/demand": {"requests": 4,
                                        "total_latency": 480,
                                        "merges": 1}},
    }


# ------------------------------------------------------------ primitives
def test_sparkline_flat_series_is_all_low_blocks():
    assert sparkline([5, 5, 5]) == "▁▁▁"


def test_sparkline_spans_full_range():
    line = sparkline([0, 1, 2, 3, 4, 5, 6, 7])
    assert line[0] == "▁" and line[-1] == "█"
    assert len(line) == 8


def test_sparkline_buckets_long_series_deterministically():
    values = list(range(1000))
    assert sparkline(values, width=10) == sparkline(values, width=10)
    assert len(sparkline(values, width=10)) == 10


def test_sparkline_empty():
    assert sparkline([]) == "(no samples)"


def test_histogram_counts_every_value_once():
    lines = histogram([0, 1, 2, 3, 4, 5, 6, 7, 8, 9], bins=5)
    assert len(lines) == 5
    total = sum(int(line.split(")")[1].split()[0]) for line in lines)
    assert total == 10


def test_histogram_empty():
    assert histogram([]) == ["(no samples)"]


# ------------------------------------------------------------ the report
def test_report_headline_and_tables():
    counters = {"dispatch_stall_rob_cycles": 120}
    text = render_run_report(_result(obs=_obs(), counters=counters))
    assert "# Run report: unit / cdf" in text
    assert "**IPC**: 1.500" in text
    assert "| rob | 120 | 12.0% |" in text
    assert "| dram/demand | 4 | 1 | 120.0 |" in text
    assert "Fetch-ahead distance" in text


def test_report_with_baseline_comparison():
    baseline = _result(mode="baseline")
    baseline.cycles = 2000          # half the IPC
    text = render_run_report(_result(obs=_obs()), baseline=baseline)
    assert "**speedup over baseline**: 2.000x" in text
    assert "Baseline has no critical stream" in text


def test_report_without_obs_degrades_gracefully():
    text = render_run_report(_result(obs=None))
    assert "No sampled time-series" in text
    assert "No memory-request aggregates" in text
