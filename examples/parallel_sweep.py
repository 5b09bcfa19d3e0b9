#!/usr/bin/env python3
"""An engine-backed sensitivity sweep: MSHRs x modes, in parallel.

The serial cousin of this script is examples/scaling_study.py, which
drives the Fig. 17 study through its study function. This one goes one
layer down and uses the experiment engine directly: it expands an
MSHR-scaling sweep into a flat job list, fans it out across worker
processes, and memoizes every point in the persistent result cache —
rerun the script and it completes in milliseconds with zero simulations.

Run:  python examples/parallel_sweep.py [scale] [jobs]

  scale  workload scale (default 0.3)
  jobs   worker processes (default: $REPRO_JOBS or 2)

See docs/harness.md for the job model and cache-key anatomy.
"""

import os
import sys

from repro.harness import Engine, Job, config_for_mode
from repro.harness.sweep import mshr_knob
from repro.stats.metrics import geomean

BENCHMARKS = ("milc", "mcf", "astar")
MSHR_COUNTS = (4, 8, 16, 32)
MODES = ("baseline", "cdf")


def build_jobs(scale):
    """One job per (MSHR count, mode, benchmark) point."""
    jobs = []
    for count in MSHR_COUNTS:
        for mode in MODES:
            config = mshr_knob(config_for_mode(mode), count)
            for name in BENCHMARKS:
                jobs.append(Job(name, mode, scale=scale, config=config))
    return jobs


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.3
    workers = (int(sys.argv[2]) if len(sys.argv) > 2
               else int(os.environ.get("REPRO_JOBS", "2")))

    jobs = build_jobs(scale)
    print(f"{len(jobs)} jobs ({len(MSHR_COUNTS)} MSHR points x "
          f"{len(MODES)} modes x {len(BENCHMARKS)} benchmarks) on "
          f"{workers} workers ...")

    engine = Engine(jobs=workers,
                    progress=lambda line: print(f"  {line}"))
    flat = engine.run(jobs)

    # Reassemble (jobs come back in submission order) and reduce.
    print(f"\nCDF geomean speedup vs baseline at scale {scale}:")
    index = 0
    for count in MSHR_COUNTS:
        by_mode = {}
        for mode in MODES:
            by_mode[mode] = flat[index:index + len(BENCHMARKS)]
            index += len(BENCHMARKS)
        ratios = [cdf.speedup_over(base)
                  for base, cdf in zip(by_mode["baseline"],
                                       by_mode["cdf"])]
        print(f"  {count:3d} L1D MSHRs: {100 * (geomean(ratios) - 1):+6.1f}%")

    print(f"\n{engine.summary()}")
    print("Rerun this script: every point above becomes a cache hit.")


if __name__ == "__main__":
    main()
