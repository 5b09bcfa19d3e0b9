"""compare.py's verdict rule on synthetic reports."""

import copy

import pytest

import compare
from report import summarize

ENV = {"python": "3.11.7", "nproc": 2, "numpy": True, "machine": "x86_64",
       "git_commit": None}


def metric(samples, better="lower", bound=0.1):
    summary = summarize(samples)
    return dict(unit="s", better=better, bound=bound, samples=samples,
                value=summary["median"], **summary)


def report(samples, better="lower", failed=0, count=7, fingerprint="f"):
    section = {"attempted": 10, "failed": failed, "fail_frac": failed / 10,
               "end_to_end": {"wall_s": metric(samples, better)},
               "per_layer": {
                   "core.ticked_cycles": {"unit": "count", "value": count,
                                          "better": "lower", "exact": True},
                   "core.self_frac": {"unit": "frac", "value": 0.5,
                                      "better": "lower", "exact": False}},
               "fingerprints": {"astar.cdf": fingerprint},
               "digest": fingerprint}
    return {"schema": 1, "smoke": False, "seed": 42, "seconds": 10,
            "env": dict(ENV), "workloads": {"quick_sweep": section}}


def only_verdict(a, b):
    rows, _ = compare.compare(a, b)
    [row] = rows
    return row["verdict"]


@pytest.mark.parametrize("after, better, expected", [
    ([1.01, 1.0, 1.02], "lower", compare.UNCHANGED),
    ([1.2, 1.21, 1.19], "lower", compare.WORSE),
    ([0.8, 0.81, 0.79], "lower", compare.IMPROVED),
    ([0.8, 0.81, 0.79], "higher", compare.WORSE),
    ([0.5, 1.5, 1.0], "lower", compare.UNRESOLVED),
])
def test_verdicts(after, better, expected):
    assert only_verdict(report([1.0, 1.01, 0.99], better),
                        report(after, better)) == expected


def test_noisy_runs_that_separate_still_get_a_verdict():
    parent = report([1.0, 1.3, 1.05])
    assert only_verdict(parent, report([1.5, 1.9, 1.6])) == compare.WORSE


def test_counts_fingerprints_and_failures_must_not_drift():
    parent = report([1.0, 1.0, 1.0])
    assert compare.compare(parent, copy.deepcopy(parent))[1] == []
    _, drifts = compare.compare(parent, report([1.0, 1.0, 1.0], count=8))
    assert any("core.ticked_cycles" in drift for drift in drifts)
    _, drifts = compare.compare(parent, report([1.0] * 3, fingerprint="g"))
    assert any("fingerprint astar.cdf" in drift for drift in drifts)
    _, drifts = compare.compare(parent, report([1.0] * 3, failed=1))
    assert any("failed ops" in drift for drift in drifts)


def test_refuses_reports_from_different_settings():
    parent = report([1.0])
    assert compare.refusal(parent, copy.deepcopy(parent)) is None
    other = copy.deepcopy(parent)
    other["env"]["nproc"] = 4
    assert "nproc" in compare.refusal(parent, other)
    other = copy.deepcopy(parent)
    other["seed"] = 7
    assert "seed" in compare.refusal(parent, other)
    other = copy.deepcopy(parent)
    other["smoke"] = True
    assert "smoke" in compare.refusal(parent, other)
