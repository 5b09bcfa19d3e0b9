"""Smoke runs of the whole benchmark through its command line."""

import json
import math
import shutil
import subprocess
import sys

import compare
from conftest import BENCH, ROOT, run_bench
from report import load_spec


def test_smoke_run_emits_every_metric_with_its_unit(smoke_runs):
    spec = load_spec()
    result, report = smoke_runs[0]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    for workload in spec["workloads"]:
        for metric in spec["end_to_end"] + spec["per_layer"]:
            got = result["metrics"][f"{workload['name']}/{metric['name']}"]
            assert got["unit"] == metric["unit"]
            assert math.isfinite(got["value"])
        for metric in spec["end_to_end"]:
            summary = report["workloads"][workload["name"]][
                "end_to_end"][metric["name"]]
            assert summary["value"] > 0
            assert summary["n"] == len(summary["samples"])
            assert summary["value"] in summary["samples"] \
                or summary["value"] == summary["median"]


def test_counts_and_fingerprints_repeat_exactly(smoke_runs):
    (_, first), (_, second) = smoke_runs
    for name, section in first["workloads"].items():
        again = second["workloads"][name]
        for metric, value in section["per_layer"].items():
            if value["exact"]:
                assert again["per_layer"][metric]["value"] \
                    == value["value"], (name, metric)
        assert again["fingerprints"] == section["fingerprints"]


def test_compare_refuses_smoke_output(smoke_runs, tmp_path):
    (_, first), (_, second) = smoke_runs
    assert "smoke" in compare.refusal(first, second)
    paths = []
    for index, report in enumerate((first, second)):
        paths.append(tmp_path / f"{index}.json")
        paths[-1].write_text(json.dumps(report))
    proc = subprocess.run(
        [sys.executable, str(BENCH / "compare.py"), *map(str, paths)],
        capture_output=True, text=True)
    assert proc.returncode == 2


def test_one_workload_reports_exactly_the_requested_metrics(tmp_path):
    spec = load_spec()
    args = ("--smoke", "--workload", "quick_sweep", "--seed", "3",
            "--seconds", "0.5")
    untraced, _ = run_bench(tmp_path, *args, "--trace", "0", name="0.json")
    traced, _ = run_bench(tmp_path, *args, "--trace", "1", name="1.json")
    assert set(untraced["metrics"]) == {m["name"]
                                        for m in spec["end_to_end"]}
    assert set(traced["metrics"]) == {m["name"] for m in spec["per_layer"]}
    assert untraced["correct"] and traced["correct"]


def test_refuses_to_run_without_the_simulator(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(
        "out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "quick_sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
