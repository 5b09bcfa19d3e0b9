import json
import os
import pathlib
import subprocess
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))


def run_bench(tmp_path, *args, pythonpath=None, name="report.json"):
    """Run ``bench/run.py`` from the repository root; returns the result
    line and the written report.  *pythonpath* is added to the children's
    PYTHONPATH (behind ``src``), e.g. to plant a ``sitecustomize``."""
    out = tmp_path / name
    env = dict(os.environ)
    if pythonpath is not None:
        env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"),
                                             str(pythonpath)])
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args, "--out", str(out)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, json.loads(out.read_text())


@pytest.fixture(scope="session")
def smoke_runs(tmp_path_factory):
    """Two smoke runs of every workload."""
    where = tmp_path_factory.mktemp("smoke")
    return [run_bench(where, "--smoke", "--seconds", "0.5",
                      name=f"smoke{i}.json") for i in (1, 2)]
