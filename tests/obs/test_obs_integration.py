"""End-to-end obs tests: real pipelines, levels 0/1/2, one schema.

These are the tentpole's acceptance tests in miniature:

* obs_level 0 attaches nothing and changes nothing (the bit-identity
  half is pinned by tests/memory/test_hierarchy_fingerprints.py and the
  trace-smoke CI job, which also asserts the subsystem is never
  imported in a clean process);
* level 1 yields sampled gauges + latency aggregates;
* level 2 adds the uop/mem event streams that feed the Chrome-trace
  exporter and the ASCII timeline — the same schema end-to-end.
"""

import pytest

from repro.harness import run_benchmark
from repro.harness.timeline import render_timeline
from repro.obs import export_chrome_trace, validate_chrome_trace

SCALE = 0.05
OBS_COUNTERS = {"obs_samples", "obs_mem_events", "obs_uop_events"}


@pytest.fixture(scope="module")
def results():
    by_level = {}
    for level in (0, 1, 2):
        by_level[level] = run_benchmark("astar", "cdf", scale=SCALE,
                                        obs_level=level)
    return by_level


def test_level0_attaches_no_payload(results):
    assert results[0].obs is None
    assert not OBS_COUNTERS & set(results[0].counters)


def test_obs_never_perturbs_timing(results):
    r0, r1, r2 = results[0], results[1], results[2]
    assert r0.cycles == r1.cycles == r2.cycles
    assert r0.retired_uops == r1.retired_uops == r2.retired_uops
    assert r0.mlp == r1.mlp == r2.mlp
    assert r0.dram_reads == r1.dram_reads == r2.dram_reads
    # Counters may differ only by the obs bookkeeping keys.
    for other in (r1, r2):
        assert set(other.counters) - set(r0.counters) <= OBS_COUNTERS
        for key, value in r0.counters.items():
            assert other.counters[key] == value, key


def test_level1_samples_and_latency_aggregates(results):
    obs = results[1].obs
    assert obs["level"] == 1
    samples = obs["samples"]
    assert samples["cycle"][0] >= 0
    assert len(samples["cycle"]) == results[1].counters["obs_samples"]
    # The cumulative gauges are monotone.
    assert samples["retired"] == sorted(samples["retired"])
    assert samples["cycle"] == sorted(samples["cycle"])
    # CDF-only gauges are present on the cdf pipeline.
    assert "crit_partition" in samples and "fetch_ahead" in samples
    assert "mem_events" not in obs
    assert obs["mem_latency"]     # astar at 0.05 always misses some


def test_mode_samples_extend_the_baseline_sample_keys(results):
    # A mode's gauges add to the baseline's; none may drop one.
    baseline = set(run_benchmark("astar", "baseline", scale=SCALE,
                                 obs_level=1).obs["samples"])
    pre = set(run_benchmark("astar", "pre", scale=SCALE,
                            obs_level=1).obs["samples"])
    for mode, keys in (("cdf", set(results[1].obs["samples"])),
                       ("pre", pre)):
        assert baseline <= keys, (mode, sorted(baseline - keys))


def test_level2_event_streams_feed_every_consumer(results):
    result = results[2]
    obs = result.obs
    assert obs["uop_events"] and obs["mem_events"]
    assert result.counters["obs_uop_events"] == len(obs["uop_events"])

    # Chrome-trace exporter.
    trace = export_chrome_trace(obs, label="integration")
    assert validate_chrome_trace(trace) == []

    # ASCII timeline straight off the obs payload.
    from repro.harness import load_workload
    workload = load_workload("astar", SCALE)
    text = render_timeline(obs, workload.trace(), 0, 10)
    assert "legend:" in text
    assert "|" in text


def test_obs_payload_round_trips_through_simresult_json(results):
    from repro.stats import SimResult
    result = results[2]
    clone = SimResult.from_json(result.to_json())
    assert clone.obs == result.obs
    assert clone.fingerprint() == result.fingerprint()


def test_levels_share_the_same_sample_grid(results):
    s1 = results[1].obs["samples"]
    s2 = results[2].obs["samples"]
    assert s1["cycle"] == s2["cycle"]
    assert s1["rob"] == s2["rob"]


def test_run_report_needs_only_level_1():
    """`repro-sim report` runs at obs level 1: the report it renders
    reads only level-1 telemetry, so level 2 adds nothing to it.
    astar at 0.3 enters CDF mode, so the fetch-ahead histogram and the
    baseline comparison are both rendered."""
    from repro.obs import render_run_report
    baseline = run_benchmark("astar", "baseline", scale=0.3)
    reports = [render_run_report(run_benchmark("astar", "cdf", scale=0.3,
                                               obs_level=level),
                                 baseline=baseline)
               for level in (1, 2)]
    assert "## Fetch-ahead distance" in reports[0]
    assert "speedup over baseline" in reports[0]
    assert reports[0] == reports[1]


def test_every_retired_uop_has_a_fetch_event_in_cdf_mode():
    """CDF-mode regular fetch logs its ``F`` events like the baseline's
    fetch: in a run that enters CDF mode, every retired uop shows a
    fetch in the timeline."""
    result = run_benchmark("astar", "cdf", scale=0.3, obs_level=2)
    assert result.counters["cdf_mode_cycles"] > 0
    assert result.obs["dropped_uop_events"] == 0
    events = result.obs["uop_events"]
    fetched = {seq for _, kind, seq in events if kind == "F"}
    retired = {seq for _, kind, seq in events if kind == "R"}
    assert retired and retired <= fetched
