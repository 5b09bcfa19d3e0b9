"""Unit tests for the experiment runner."""

import pytest

from repro.config import SimConfig
from repro.harness import (
    config_for_mode,
    load_workload,
    make_pipeline,
    run_benchmark,
    run_comparison,
    speedups,
)
from repro.cdf import CDFPipeline
from repro.core import BaselinePipeline
from repro.runahead import PREPipeline

SMALL = 0.1


def test_config_for_mode():
    assert config_for_mode("baseline").mode() == "baseline"
    assert config_for_mode("cdf").mode() == "cdf"
    assert config_for_mode("pre").mode() == "pre"
    with pytest.raises(ValueError):
        config_for_mode("runahead")


def test_make_pipeline_types():
    workload = load_workload("bzip", SMALL)
    trace = workload.trace()
    assert isinstance(
        make_pipeline("baseline", trace, config_for_mode("baseline"),
                      workload), BaselinePipeline)
    assert isinstance(
        make_pipeline("cdf", trace, config_for_mode("cdf"), workload),
        CDFPipeline)
    assert isinstance(
        make_pipeline("pre", trace, config_for_mode("pre"), workload),
        PREPipeline)
    with pytest.raises(ValueError):
        make_pipeline("x", trace, config_for_mode("baseline"), workload)


def test_workload_cache_shares_traces():
    a = load_workload("bzip", SMALL)
    b = load_workload("bzip", SMALL)
    assert a is b
    c = load_workload("bzip", SMALL, seed=99)
    assert c is not a


def test_run_benchmark_applies_warmup_and_energy():
    result = run_benchmark("bzip", "baseline", scale=SMALL)
    workload = load_workload("bzip", SMALL)
    assert result.retired_uops < len(workload.trace())
    assert result.energy_nj > 0
    assert result.benchmark == "bzip"
    assert result.mode == "baseline"


def test_run_benchmark_with_custom_config():
    config = SimConfig.baseline()
    config.core = config.core.scaled(64)
    small_rob = run_benchmark("bzip", "baseline", scale=SMALL,
                              config=config)
    default = run_benchmark("bzip", "baseline", scale=SMALL)
    assert small_rob.cycles >= default.cycles


def test_run_comparison_and_speedups():
    results = run_comparison(["bzip"], scale=SMALL)
    assert set(results["bzip"]) == {"baseline", "cdf", "pre"}
    ratio = speedups(results, "cdf")["bzip"]
    assert ratio > 0


def test_workload_cache_capacity_env(monkeypatch):
    from repro.harness import runner

    monkeypatch.delenv(runner.WORKLOAD_CACHE_ENV, raising=False)
    assert runner.workload_cache_capacity() == \
        runner.DEFAULT_WORKLOAD_CACHE
    monkeypatch.setenv(runner.WORKLOAD_CACHE_ENV, "3")
    assert runner.workload_cache_capacity() == 3
    monkeypatch.setenv(runner.WORKLOAD_CACHE_ENV, "0")
    assert runner.workload_cache_capacity() == 1    # clamped


def test_workload_cache_bad_env_warns_once(monkeypatch):
    import warnings

    from repro.harness import runner

    monkeypatch.setenv(runner.WORKLOAD_CACHE_ENV, "plenty")
    monkeypatch.setattr(runner, "_warned_bad_workload_cache", False)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert runner.workload_cache_capacity() == \
            runner.DEFAULT_WORKLOAD_CACHE
        # The fallback repeats, the warning does not.
        assert runner.workload_cache_capacity() == \
            runner.DEFAULT_WORKLOAD_CACHE
    assert len(caught) == 1
    assert "plenty" in str(caught[0].message)
    assert issubclass(caught[0].category, RuntimeWarning)
