#!/usr/bin/env python3
"""Marking hard-to-predict branches critical (paper Sec. 2.2 / 4.2).

Runs the branch-sensitive benchmarks (bzip, astar, mcf, soplex) with and
without critical-branch marking, reproducing the ablation the paper uses
to attribute part of CDF's speedup: 'Not marking these branches critical
... reduces the geomean speedup to 3.8%'.

Run:  python examples/branch_criticality.py [scale]
"""

import sys

from repro.config import SimConfig
from repro.harness import run_benchmark
from repro.harness.tables import percent, render_table
from repro.stats.metrics import geomean
from repro.workloads import BRANCH_SENSITIVE


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.5
    rows = []
    with_marks = {}
    without_marks = {}
    for name in BRANCH_SENSITIVE:
        base = run_benchmark(name, "baseline", scale=scale)
        cdf = run_benchmark(name, "cdf", scale=scale)
        no_branches_cfg = SimConfig.with_cdf()
        no_branches_cfg.cdf.mark_branches_critical = False
        no_branches = run_benchmark(name, "cdf", scale=scale,
                                    config=no_branches_cfg)
        with_marks[name] = cdf.speedup_over(base)
        without_marks[name] = no_branches.speedup_over(base)
        rows.append((name,
                     f"{1000 * base.counters['branch_mispredicts'] / base.retired_uops:.1f}",
                     percent(with_marks[name]),
                     percent(without_marks[name])))
    rows.append(("GEOMEAN", "",
                 percent(geomean(with_marks.values())),
                 percent(geomean(without_marks.values()))))
    print(render_table(
        "Critical-branch ablation on the branch-sensitive family",
        ("benchmark", "base MPKI", "CDF", "CDF w/o critical branches"),
        rows))
    print("\nMarking hard branches critical lets the critical fetch engine "
          "resolve them early and keep fetching critical loads past them "
          "(paper Sec. 2.2).")


if __name__ == "__main__":
    main()
