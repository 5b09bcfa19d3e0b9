"""The benchmark suite registry.

``SUITE`` maps benchmark name -> builder; ``get_workload(name, scale)``
instantiates one. The names (and the behaviours engineered into each
kernel) follow the paper's evaluation set: the memory-intensive SPEC
CPU2006/2017 benchmarks it reports in Figs. 13-16.  ``get_workload``
also resolves the :data:`STUDY_PROGRAMS`, which are not suite kernels.
"""

from __future__ import annotations

from typing import Dict, List

from .base import DEFAULT_SEED, Workload, WorkloadBuilder
from .irregular import build_astar, build_milc, build_soplex
from .fdiv_chain import build_fdiv_chain
from .mixed import build_leslie3d, build_parest, build_sphinx, build_wrf
from .phased import (
    build_phased,
    build_phased_compute_only,
    build_phased_memory_only,
)
from .pointer import build_mcf, build_omnetpp
from .sparse_distant import build_bzip, build_nab
from .stencil import (
    build_fotonik3d,
    build_gemsfdtd,
    build_roms,
    build_zeusmp,
)
from .streaming import build_cactubssn, build_lbm, build_libquantum

SUITE: Dict[str, WorkloadBuilder] = {
    "astar": build_astar,
    "mcf": build_mcf,
    "soplex": build_soplex,
    "milc": build_milc,
    "bzip": build_bzip,
    "nab": build_nab,
    "lbm": build_lbm,
    "libquantum": build_libquantum,
    "cactuBSSN": build_cactubssn,
    "omnetpp": build_omnetpp,
    "zeusmp": build_zeusmp,
    "GemsFDTD": build_gemsfdtd,
    "fotonik3d": build_fotonik3d,
    "roms": build_roms,
    "leslie3d": build_leslie3d,
    "sphinx": build_sphinx,
    "wrf": build_wrf,
    "parest": build_parest,
}

#: Programs built for one study each: the phased SimPoint programs
#: (Sec. 4.2 note) and the FDIV-chain kernel (Sec. 6).  Simulations
#: resolve them by name like suite kernels, but ``SUITE``,
#: :func:`suite_names` and the CLI's benchmark choices leave them out.
STUDY_PROGRAMS: Dict[str, WorkloadBuilder] = {
    "phased": build_phased,
    "phased_memory": build_phased_memory_only,
    "phased_compute": build_phased_compute_only,
    "fdiv_chain": build_fdiv_chain,
}

#: Benchmarks where the paper highlights CDF's branch-criticality benefit
#: (Sec. 4.2: 'CDF does well on bzip, astar, mcf and soplex as we mark
#: hard-to-predict branches critical').
BRANCH_SENSITIVE = ("bzip", "astar", "mcf", "soplex")

#: The PRE-favourable family ('zeusmp, GemsFDTD, fotonik3d and roms').
PRE_FAVOURABLE = ("zeusmp", "GemsFDTD", "fotonik3d", "roms")

#: The 'neither helps much' family.
NEUTRAL = ("leslie3d", "sphinx", "wrf", "parest", "omnetpp")


def suite_names() -> List[str]:
    return list(SUITE)


def get_workload(name: str, scale: float = 1.0,
                 seed: int = DEFAULT_SEED) -> Workload:
    """Instantiate one suite kernel or study program; raises KeyError
    for unknown names."""
    builder = SUITE.get(name) or STUDY_PROGRAMS.get(name)
    if builder is None:
        raise KeyError(f"unknown benchmark: {name!r}; "
                       f"known: {', '.join([*SUITE, *STUDY_PROGRAMS])}")
    return builder(scale=scale, seed=seed)
