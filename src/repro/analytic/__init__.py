"""Analytical fast tier: millisecond throughput predictions per config.

The cycle-accurate pipelines in :mod:`repro.core`, :mod:`repro.cdf`, and
:mod:`repro.runahead` cost seconds to minutes per (workload, config)
point.  This package is the screening tier: a port/resource throughput
model in the uiCA/interval-analysis tradition that predicts cycles and
IPC for a (workload, :class:`~repro.config.SimConfig`) point in
milliseconds, so large sweeps can rank hundreds of configurations
analytically and promote only the interesting few to full simulation
(see ``repro-sim sweep --screen`` and docs/analytic.md).

Two-phase design:

* :class:`~repro.analytic.profile.TraceProfile` — one O(uops) pass over
  a workload's dynamic trace collecting config-*independent* structure:
  port-class mix, dependency critical path, branch predictability,
  memory reuse histogram, fetch geometry.  Built once per workload and
  reused across every config in a sweep.
* :class:`~repro.analytic.model.AnalyticModel` — an O(1) evaluation
  combining the profile with a concrete ``SimConfig`` into throughput
  bounds (issue width, per-port pressure, frontend, dependency critical
  path, memory bandwidth/parallelism) plus branch and I-cache penalty
  terms.

Layering: ``analytic`` sits beside the harness and may import only
``config``, ``isa`` and ``stats`` — never the
cycle-accurate models it predicts (enforced by ARCH001 in
:mod:`repro.analysis.rules`).
"""

from .model import AnalyticModel, AnalyticPrediction, predict_ipc
from .profile import PROFILE_SCHEMA_VERSION, TraceProfile

__all__ = [
    "AnalyticModel",
    "AnalyticPrediction",
    "PROFILE_SCHEMA_VERSION",
    "TraceProfile",
    "predict_ipc",
]
