"""Pinned end-to-end SimResult fingerprints (post memory-timing bugfixes).

These digests were re-pinned after the PR-5 memory-hierarchy fixes
(prefetch instant-fill, ifetch MSHR bypass, cycle-0 writebacks /
dirty-L1D-victim loss — see ``test_hierarchy_timing.py``).  Probing the
suite showed the fixed paths are almost never exercised by the pinned
workloads at small scales (LLC merge count is 0 for every suite workload
except lbm at scale 0.3), so most digests are *unchanged* from the
pre-fix code; the pins exist so that any future change to memory timing,
stat plumbing, or result serialization shows up as an explicit diff here
rather than silently.

They are also the enforcement point for the ``obs_level=0`` bit-identity
contract: attaching the observability layer at level 0 must leave every
one of these digests untouched (the trace-smoke CI job re-asserts this
from the CLI side).

If a deliberate timing change shifts these, re-pin with::

    PYTHONPATH=src python - <<'EOF'
    from repro.harness import run_benchmark
    for name in ("astar", "mcf"):
        for mode in ("baseline", "cdf", "pre"):
            print(name, mode, run_benchmark(name, mode, scale=0.05)
                  .fingerprint())
    EOF

and explain the shift in the commit message.

At scale 0.05 the CDF runs never enter CDF mode, so those two pins see
no CDF-mode timing.  ``CDF_MODE_PINS`` covers that: the same kernels'
CDF runs at scale 0.3, where CDF mode is active after warm-up (each
test asserts it).  Re-pin them with ``mode="cdf"`` and
``scale=CDF_MODE_SCALE`` in the loop above.

Likewise the PRE runs at 0.05 issue no runahead uop or prefetch, so
``PRE_RUNAHEAD_PINS`` pins the same kernels' PRE runs at scale 0.3,
where runahead issues prefetches (each test asserts it).  Re-pin them
with ``mode="pre"`` and ``scale=PRE_RUNAHEAD_SCALE`` in the loop above.
"""

import pytest

from repro.config import SimConfig
from repro.harness import run_benchmark

PINS = {
    ("astar", "baseline"):
        "0f8ae37ddee109d5a4773f665779d9878a35aa012e5cf247f0648bebe06c9bc4",
    ("astar", "cdf"):
        "e137f70a5eb8819a1fc5001d0b8909bea31cfd278a5f089f3b90771f61761f10",
    ("astar", "pre"):
        "f28a1568d5abcecc6e0841c4d6d85b9a7ac54114a7f035c069c7552459f0f8b9",
    ("mcf", "baseline"):
        "92d80edbff8165fa504da587e0c740b256a465d7072db12ecfa66900be126341",
    ("mcf", "cdf"):
        "cb4683ef8f71e0b7fdf02d6e1fee7b24966f476957341884893425a8ae4a8e0e",
    ("mcf", "pre"):
        "940e3ad9002fb43e532a10d4ea8b69d9221ecd100e09681beb794b248c4b284a",
}

SCALE = 0.05

#: Re-pinned once when CDF began skipping its quiet CDF-mode stall
#: spans: the only field that moved was ``idle_skipped_cycles``.
CDF_MODE_PINS = {
    "astar":
        "cbce2335411c20787388767e410c36e95c65ae50bab924b74d49987adc3e5d83",
    "mcf":
        "7c377780f9aa018bb7eae1aaa659da71ca1871426ca133821ff87a2cb069737b",
}

CDF_MODE_SCALE = 0.3

PRE_RUNAHEAD_PINS = {
    "astar":
        "10c31a1aa3811867316a96001a0c8e7c20c967d66711bf3054fb471dcdb36035",
    "mcf":
        "7ac3679645d9afa4e457ae4ca8a41a0bf86a34e03dea6074fbc18054eaa32623",
}

PRE_RUNAHEAD_SCALE = 0.3


@pytest.mark.parametrize("name,mode", sorted(PINS))
def test_pinned_fingerprint(name, mode):
    result = run_benchmark(name, mode, scale=SCALE)
    assert result.fingerprint() == PINS[(name, mode)], (
        f"{name}/{mode} fingerprint shifted — if this is a deliberate "
        f"timing/serialization change, re-pin (see module docstring)")


@pytest.mark.parametrize("name,mode", sorted(PINS))
def test_obs_level_zero_is_bit_identical(name, mode):
    """obs_level=0 must not perturb results (hook-elision contract)."""
    result = run_benchmark(name, mode, scale=SCALE, obs_level=0)
    assert result.fingerprint() == PINS[(name, mode)]


@pytest.mark.parametrize("name", sorted(CDF_MODE_PINS))
def test_pinned_cdf_mode_fingerprint(name):
    result = run_benchmark(name, "cdf", scale=CDF_MODE_SCALE)
    assert result.counters["cdf_mode_cycles"] > 0, (
        f"{name}/cdf never entered CDF mode at scale {CDF_MODE_SCALE}: "
        f"the pin would not cover CDF-mode timing")
    assert result.fingerprint() == CDF_MODE_PINS[name], (
        f"{name}/cdf fingerprint at scale {CDF_MODE_SCALE} shifted — "
        f"re-pin only for a deliberate change (see module docstring)")


@pytest.mark.parametrize("name", sorted(PRE_RUNAHEAD_PINS))
def test_pinned_pre_runahead_fingerprint(name):
    result = run_benchmark(name, "pre", scale=PRE_RUNAHEAD_SCALE)
    assert result.counters["runahead_prefetches"] > 0, (
        f"{name}/pre issued no runahead prefetch at scale "
        f"{PRE_RUNAHEAD_SCALE}: the pin would not cover runahead timing")
    assert result.fingerprint() == PRE_RUNAHEAD_PINS[name], (
        f"{name}/pre fingerprint at scale {PRE_RUNAHEAD_SCALE} shifted — "
        f"re-pin only for a deliberate change (see module docstring)")


def test_obs_level_knob_exists_and_defaults_off():
    cfg = SimConfig.baseline()
    assert cfg.obs_level == 0
