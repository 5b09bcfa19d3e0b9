"""The benchmark's workloads: what one timed rep runs, and how it is
checked.  Why each workload exists is recorded in BENCHMARK.json and
bench/README.md."""

from __future__ import annotations

import hashlib
import json
import math
import re
import statistics
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from session import SRC, BenchError, Proc, Session, trace_key

#: The QUICK profile's kernels (``repro.harness.figures.QUICK_NAMES``).
QUICK = ("astar", "mcf", "milc", "bzip", "nab", "lbm")
MODES = ("baseline", "cdf", "pre")
#: Every kernel of the suite, fixed here so the benchmark does not
#: change when the suite does.
SUITE = ("astar", "mcf", "soplex", "milc", "bzip", "nab", "lbm",
         "libquantum", "cactuBSSN", "omnetpp", "zeusmp", "GemsFDTD",
         "fotonik3d", "roms", "leslie3d", "sphinx", "wrf", "parest")
#: The two most stall-bound kernels at scale 1.0; a rep of both is
#: ~5 s, so three reps fit a run.
MEMWALL = ("mcf", "omnetpp")

#: The seed benchmarks/figures_baseline.json is pinned at.
BASELINE_SEED = 42
#: The claim a smoke run of the CLI workloads is cut down to.
SMOKE_CLAIM = "fig13-cdf-uplift"
SMOKE_SCALE = 0.05
#: Traced reps in a traced pass, each after an untraced one.
TRACED_REPS = 2

_ENGINE_LINE = re.compile(
    r"engine: (\d+) jobs, (\d+) cache hits, (\d+) simulated, "
    r"([\d.]+)s wall \(([\d.]+)s sim, (\d+) worker")
_TOTAL_LINE = re.compile(r"(\d+) match / (\d+) within / (\d+) diverged")


@dataclass
class Rep:
    """One timed rep."""

    wall: float      # seconds of the timed region
    uops: int        # trace uops the rep loaded, simulated or served
    rss_mb: float    # peak RSS of the rep's process tree


class Workload:
    name = ""
    env: Dict[str, str] = {}

    def traces(self, smoke: bool) -> List[Tuple[str, float]]:
        raise NotImplementedError

    def prepare(self, session: Session) -> None:
        """Runs after setup, before the first rep."""

    def _run(self, session: Session, traced: bool) -> Tuple[Proc, dict]:
        """One rep through ``child.py``, traced or not, with its
        operations counted: the process and the child's result, with
        ``stderr`` (and ``uops`` where the rep has a timing) added."""
        raise NotImplementedError

    def rep(self, session: Session) -> Optional[Rep]:
        """One untraced timed rep (None when it produced no timing)."""
        proc, out = self._run(session, traced=False)
        if proc.code != 0 or "wall" not in out:
            return None
        return Rep(out["wall"], out["uops"], proc.rss_mb)

    def traced_pass(self, session: Session) -> Tuple[float, dict]:
        """Traced reps alternating with untraced ones, same code path.

        Returns the tracing overhead (median traced wall over median
        untraced wall, minus 1; medians, because a burst of load from
        elsewhere can slow any one rep) and the last traced result.
        """
        plain, traced_walls = [], []
        for _ in range(TRACED_REPS):
            plain.append(self._run(session, traced=False)[1].get("wall"))
            traced = self._run(session, traced=True)[1]
            traced_walls.append(traced.get("wall"))
        plain.append(self._run(session, traced=False)[1].get("wall"))
        plain = [wall for wall in plain if wall is not None]
        traced_walls = [wall for wall in traced_walls if wall is not None]
        if not plain or len(traced_walls) < TRACED_REPS:
            raise BenchError(f"{self.name}: a traced-pass rep failed\n"
                             + traced.get("stderr", "")[-2000:])
        overhead = statistics.median(traced_walls) \
            / statistics.median(plain) - 1
        return overhead, traced


# --------------------------------------------------------------- sims
class SimSweep(Workload):
    """Kernels x modes through ``Engine(jobs=1, use_cache=False)``."""

    def __init__(self, name: str, kernels, scale: float,
                 memory_factor: Optional[float] = None):
        self.name = name
        self.kernels = kernels
        self.scale = scale
        self.memory_factor = memory_factor

    def _shape(self, smoke: bool):
        return (self.kernels[:2], SMOKE_SCALE) if smoke \
            else (self.kernels, self.scale)

    def traces(self, smoke):
        kernels, scale = self._shape(smoke)
        return [(name, scale) for name in kernels]

    def _run(self, session: Session, traced: bool) -> Tuple[Proc, dict]:
        kernels, scale = self._shape(session.smoke)
        jobs = [(name, mode) for name in kernels for mode in MODES]
        proc, out = session.child("sim", jobs=jobs, scale=scale,
                                  memory_factor=self.memory_factor,
                                  seed=session.seed, traced=traced)
        by_job = {r["job"]: r for r in (out or {}).get("results") or ()}
        for name, mode in jobs:
            job = f"{name}.{mode}"
            result = by_job.get(job)
            ok = (result is not None and math.isfinite(result["ipc"])
                  and session.repeats(job, result["fingerprint"]))
            session.op(ok, f"{job}: " + ("no result" if result is None
                                         else "bad ipc or fingerprint"))
        out = out or {}
        out["uops"] = session.total_uops(
            trace_key(name, scale) for name, _ in jobs)
        out["stderr"] = proc.err
        return proc, out


# --------------------------------------------------------- trace load
class TraceLoad(Workload):
    """Every suite kernel's FULL trace from the warm store."""

    name = "trace_load_full"
    # One workload (and so one trace) alive at a time.
    env = {"REPRO_WORKLOAD_CACHE": "1"}

    def traces(self, smoke):
        return [(name, SMOKE_SCALE if smoke else 1.0) for name in SUITE]

    def _run(self, session: Session, traced: bool) -> Tuple[Proc, dict]:
        proc, out = session.child("load", traces=session.traces,
                                  seed=session.seed,
                                  digests=session.digests, traced=traced)
        checked = (out or {}).get("checked", {})
        for name, scale in session.traces:
            key = trace_key(name, scale)
            session.op(checked.get(key, False),
                       f"load {key}: failed or re-encoded differently")
        out = out or {}
        out["uops"] = session.total_uops(session.uops)
        out["stderr"] = proc.err
        return proc, out


# ---------------------------------------------------------------- CLI
def _result_cache(session: Session):
    """The CLI's result cache, opened from the checkout's own source."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from repro.harness.engine import ResultCache
    return ResultCache(session.cache_dir)


class FiguresCLI(Workload):
    """``python -m repro figures --quick --check-baseline`` from the
    checkout root, on an empty (cold) or full (warm) result cache."""

    def __init__(self, name: str, warm: bool):
        self.name = name
        self.warm = warm

    def traces(self, smoke):
        return [(name, 0.3) for name in QUICK]

    def argv(self, session: Session) -> List[str]:
        argv = ["figures", "--quick", "--check-baseline", "--no-bench",
                "--jobs", "2", "--seed", str(session.seed)]
        if session.smoke:
            argv += ["--fig", SMOKE_CLAIM]
        return argv

    def _check(self, session: Session, code: int, stdout: str,
               stderr: str) -> None:
        """Exit 1 means drift or a diverged claim: a failure only at the
        seed the baseline is pinned at.  A traceback or exit >= 2 is a
        failure at any seed, and so is output that differs from the
        first run's."""
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        if code not in (0, 1) \
                or "Traceback (most recent call last)" in stderr:
            session.op(False, f"figures CLI crashed (exit {code})")
        elif code != 0 and session.seed == BASELINE_SEED:
            session.op(False, "figures CLI: drift from the pinned baseline")
        else:
            session.op(session.repeats("stdout", digest),
                       "figures CLI: output differs from the first run")

    @staticmethod
    def served_uops(session: Session) -> int:
        """Uops of the traces behind every result the CLI cached."""
        total = 0
        for path in _result_cache(session).entries():
            job = json.loads(path.read_text())["job"]
            total += session.uops[trace_key(job["benchmark"],
                                            float(job["scale"]))]
        return total

    def _clear(self, session: Session) -> None:
        if not self.warm:
            _result_cache(session).clear()

    def _cli(self, session: Session) -> Proc:
        self._clear(session)
        proc = session.python("-m", "repro", *self.argv(session))
        self._check(session, proc.code, proc.out, proc.err)
        return proc

    def prepare(self, session):
        if self.warm:
            self._cli(session)       # fills the cache the reps read

    def rep(self, session):
        proc = self._cli(session)
        if proc.code not in (0, 1):
            return None
        if session.rep_uops is None:
            session.rep_uops = self.served_uops(session)
        return Rep(proc.wall, session.rep_uops, proc.rss_mb)

    def _run(self, session, traced):
        self._clear(session)
        proc, out = session.child(
            "cli", argv=self.argv(session), traced=traced,
            seed=session.seed, scale=0.3, traces=session.traces,
            jobs=[(name, mode) for name in QUICK for mode in MODES])
        # The CLI's own output, without the result line child.py adds.
        body = proc.out.rstrip("\n")
        stdout = body[:body.rfind("\n") + 1] if out is not None \
            else proc.out
        self._check(session, proc.code, stdout, proc.err)
        out = out or {}
        out["stdout"], out["stderr"] = stdout, proc.err
        return proc, out


def parse_engine_line(stderr: str) -> Optional[dict]:
    """The counts on the CLI's ``engine:`` summary line."""
    found = _ENGINE_LINE.findall(stderr)
    if not found:
        return None
    jobs, hits, executed, wall, job_s, workers = found[-1]
    return {"cache_hits": int(hits), "executed": int(executed),
            "job_s": float(job_s), "wall_s": float(wall),
            "workers": int(workers)}


def parse_verdicts(stdout: str) -> Optional[dict]:
    found = _TOTAL_LINE.findall(stdout)
    if not found:
        return None
    match, within, diverged = map(int, found[-1])
    return {"match": match, "within": within, "diverged": diverged}


WORKLOADS = {w.name: w for w in (
    SimSweep("quick_sweep", QUICK, 0.3),
    SimSweep("full_memwall", MEMWALL, 1.0, memory_factor=2.0),
    TraceLoad(),
    FiguresCLI("figures_cold", warm=False),
    FiguresCLI("figures_warm", warm=True),
)}
