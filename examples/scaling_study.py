#!/usr/bin/env python3
"""The Fig. 17 scaling study: is CDF worth its 3.2% area?

Sweeps ROB sizes (other window structures scaled proportionately) for
both a regular OoO core and a CDF core, then compares the CDF core at
352 entries against a scaled-up baseline: the paper reports the
area-equivalent scaled baseline gains only 3.7% IPC while consuming
2.5% more energy.

Run:  python examples/scaling_study.py [scale]
"""

import sys

from repro.energy import EnergyModel
from repro.config import SimConfig
from repro.harness import fig17_scaling, render_table


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.4
    if scale < 0.3:
        print(f"note: scale {scale} is too short for CDF's training "
              "structures to engage; using 0.3")
        scale = 0.3
    subset = ("astar", "milc", "nab", "lbm", "zeusmp", "sphinx")
    rob_sizes = (192, 256, 352, 512)
    print(f"Sweeping ROB sizes {rob_sizes} x {{baseline, CDF}} over "
          f"{subset} ...\n")
    data = fig17_scaling(rob_sizes=rob_sizes, names=subset, scale=scale)
    ipc, energy = data["ipc"], data["energy"]
    rows = [(rob, *(f"{table[(rob, mode)] / table[(352, 'baseline')]:.3f}"
                    for table in (ipc, energy)
                    for mode in ("baseline", "cdf")))
            for rob in rob_sizes]
    print(render_table(
        "Fig. 17 — scaling with ROB size (geomean, normalised to the "
        "352-entry baseline)",
        ("ROB", "base IPC", "CDF IPC", "base energy", "CDF energy"), rows))

    model = EnergyModel(SimConfig.with_cdf())
    overhead = model.cdf_area_overhead()
    base_352 = data["ipc"][(352, "baseline")]
    cdf_352 = data["ipc"][(352, "cdf")]
    base_512 = data["ipc"][(512, "baseline")]
    print(f"\nCDF area overhead: +{100 * overhead:.1f}% "
          "(paper: +3.2%).")
    print(f"CDF at 352 entries:        {100 * (cdf_352 / base_352 - 1):+.1f}% IPC")
    print(f"Baseline scaled to 512:    {100 * (base_512 / base_352 - 1):+.1f}% IPC "
          "(+45% window area)")
    print("\nThe CDF core extracts more of the window's value than simply "
          "buying a bigger window (paper Sec. 4.4).")


if __name__ == "__main__":
    main()
