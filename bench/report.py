"""Shared pieces of the benchmark report: the metric spec, summaries and
the environment record that :mod:`compare` checks before comparing."""

from __future__ import annotations

import importlib.util
import json
import os
import pathlib
import platform
import statistics
import subprocess
from typing import Dict, List, Optional

from session import ROOT

SPEC_PATH = ROOT / "BENCHMARK.json"

#: Per-layer units whose values come from deterministic counts only; the
#: simulator is deterministic, so these must repeat exactly.
EXACT_UNITS = frozenset(("count", "ratio", "B/uop"))

SCHEMA = 1


def load_spec(path: pathlib.Path = SPEC_PATH) -> dict:
    with open(path) as handle:
        return json.load(handle)


def summarize(samples: List[float]) -> Dict[str, float]:
    """Median, quartiles and count of *samples* (Python's default
    ``statistics.quantiles`` method)."""
    if len(samples) >= 2:
        q1, median, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = median = q3 = samples[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(samples)}


def spread(summary: Dict[str, float]) -> float:
    """Interquartile range as a share of the median."""
    if summary["median"] == 0:
        return 0.0
    return (summary["q3"] - summary["q1"]) / abs(summary["median"])


def _git_commit() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None           # an exported checkout; look no further up
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment() -> dict:
    """What the numbers depend on besides the code under test."""
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "python": platform.python_version(),
        "nproc": nproc,
        "numpy": importlib.util.find_spec("numpy") is not None,
        "machine": platform.machine(),
        "git_commit": _git_commit(),
    }


#: Environment keys that must agree for two reports to be comparable.
COMPARABLE_ENV = ("python", "nproc", "numpy", "machine")
