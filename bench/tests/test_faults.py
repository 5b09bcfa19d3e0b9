"""Planted faults the benchmark must catch.

Each fault is a ``sitecustomize.py`` put on the children's PYTHONPATH,
so it changes the simulator without touching ``src/``.
"""

import compare
from conftest import run_bench

#: Busy-waits in every issue stage call: a slower simulator that
#: computes the same results.  trace_load_full never issues a uop.
SLOW_ISSUE = '''
import time
from repro.core.pipeline import BaselinePipeline

_issue = BaselinePipeline._issue


def _slow_issue(self, cycle):
    end = time.perf_counter() + 50e-6
    while time.perf_counter() < end:
        pass
    return _issue(self, cycle)


BaselinePipeline._issue = _slow_issue
'''

#: Adds noise from an unseeded generator to one counter of every run.
NONDETERMINISM = '''
import random
from repro.core.pipeline import BaselinePipeline

_run = BaselinePipeline.run
_rng = random.SystemRandom()


def _perturbed_run(self):
    result = _run(self)
    result.counters["fetch_uops"] += _rng.randrange(1, 1 << 20)
    return result


BaselinePipeline.run = _perturbed_run
'''


def _plant(tmp_path, source):
    where = tmp_path / "fault"
    where.mkdir()
    (where / "sitecustomize.py").write_text(source)
    return where


def test_slow_issue_is_worse_on_quick_sweep_and_nowhere_else(tmp_path):
    fault = _plant(tmp_path, SLOW_ISSUE)
    verdicts = {}
    # Parent and change back to back per workload, so that drift in the
    # machine's speed has little time to act between the two.
    for workload in ("quick_sweep", "trace_load_full"):
        args = ("--workload", workload, "--trace", "0", "--seconds", "8")
        _, parent = run_bench(tmp_path, *args, name=f"{workload}-a.json")
        _, change = run_bench(tmp_path, *args, name=f"{workload}-b.json",
                              pythonpath=fault)
        assert compare.refusal(parent, change) is None
        rows, drifts = compare.compare(parent, change)
        assert drifts == []      # slower, but every result is the same
        verdicts.update({(row["metric"], workload): row["verdict"]
                         for row in rows})
    assert verdicts["kuops_per_s", "quick_sweep"] == compare.WORSE, verdicts
    assert verdicts["wall_s", "quick_sweep"] == compare.WORSE, verdicts
    assert compare.WORSE not in [verdict for (_, workload), verdict
                                 in verdicts.items()
                                 if workload == "trace_load_full"], verdicts


def test_nondeterministic_counter_makes_operations_fail(tmp_path):
    result, report = run_bench(
        tmp_path, "--smoke", "--workload", "quick_sweep", "--trace", "0",
        "--seconds", "0.5", pythonpath=_plant(tmp_path, NONDETERMINISM))
    assert not result["correct"] and result["failed"] > 0
    assert report["workloads"]["quick_sweep"]["fail_frac"] > 0
