#!/usr/bin/env python3
"""Compiler-assisted CDF (the paper's future work, Sec. 6).

A profile-guided 'compiler pass' slices critical chains offline into
per-block hints; preloading them into the Critical Uop Cache lets CDF mode
engage from cycle 0 instead of waiting for the first hardware training
interval (10k retired uops + 1200-cycle fill latency). On short runs the
difference is dramatic — exactly why the paper suggests it 'can help
reduce the hardware overhead and complexity of CDF significantly'.

Run:  python examples/compiler_hints.py [benchmark] [scale]
"""

import sys

from repro.cdf import CDFPipeline, preload_hints, profile_chains
from repro.config import SimConfig
from repro.core import BaselinePipeline
from repro.harness import load_workload
from repro.harness.tables import render_table


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "astar"
    scale = float(sys.argv[2]) if len(sys.argv) > 2 else 0.3
    workload = load_workload(name, scale)
    trace = workload.trace()

    print(f"Profiling {name} ({len(trace)} uops) to generate chain "
          "hints ...")
    hints = profile_chains(workload.program, trace, profile_uops=8000)
    print(f"  -> {len(hints)} basic blocks hinted, "
          f"{100 * hints.critical_fraction:.1f}% of profiled uops "
          "critical\n")

    base = BaselinePipeline(trace, SimConfig.baseline()).run()
    plain = CDFPipeline(trace, SimConfig.with_cdf(), workload.program).run()
    hinted_pipe = CDFPipeline(trace, SimConfig.with_cdf(), workload.program)
    preload_hints(hinted_pipe, hints)
    hinted = hinted_pipe.run()

    rows = [
        ("baseline", f"{base.ipc:.3f}", "1.000x", "-"),
        ("CDF (hardware training only)", f"{plain.ipc:.3f}",
         f"{plain.ipc / base.ipc:.3f}x",
         plain.counters["cdf_mode_cycles"]),
        ("CDF + compiler hints", f"{hinted.ipc:.3f}",
         f"{hinted.ipc / base.ipc:.3f}x",
         hinted.counters["cdf_mode_cycles"]),
    ]
    print(render_table(f"{name}: compiler-assisted CDF",
                       ("configuration", "IPC", "speedup",
                        "CDF-mode cycles"), rows))


if __name__ == "__main__":
    main()
