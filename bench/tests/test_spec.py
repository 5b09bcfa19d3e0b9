"""BENCHMARK.json and bench/README.md against their rules."""

import re

from conftest import ROOT
from report import load_spec
from workloads import WORKLOADS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH = re.compile(r"[A-Za-z0-9_.\-/]{1,200}")


def test_benchmark_json_keeps_to_its_caps():
    spec = load_spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    assert isinstance(spec["run_seconds"], int)
    assert 1 <= spec["run_seconds"] <= 60
    assert 1 <= len(spec["paths"]) <= 16
    for path in spec["paths"]:
        assert PATH.fullmatch(path) and not path.startswith("/")
        assert ".." not in path.split("/")
    assert len(spec["command"]) <= 32
    assert all(len(arg) <= 200 for arg in spec["command"])

    names = [entry["name"] for key in ("workloads", "end_to_end",
                                       "per_layer") for entry in spec[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.fullmatch(metric["unit"])
        assert metric["better"] in ("higher", "lower")


def test_setup_time_is_an_end_to_end_metric_with_the_largest_bound():
    metrics = {m["name"]: m for m in load_spec()["end_to_end"]}
    setup = metrics["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in metrics.values())


def test_every_workload_in_the_spec_is_implemented():
    assert [w["name"] for w in load_spec()["workloads"]] == list(WORKLOADS)


def test_readme_passes_the_docs_checker():
    from repro.harness.docscheck import check_docs
    assert check_docs(["bench/README.md"], repo_root=str(ROOT)) == []
