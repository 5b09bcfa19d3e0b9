"""Child processes and the per-workload bookkeeping of one benchmark run.

Every measurement runs in a fresh child process, so no in-process memo
(the workload LRU, ``code_salt``, the comparison cache) can make a later
rep cheaper than the first.  Children get a private ``REPRO_CACHE_DIR``
inside the checkout and none of the caller's other ``REPRO_*``
variables.
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
CHILD = BENCH_DIR / "child.py"


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (not an operation failure)."""


@dataclass
class Proc:
    """A finished child process."""

    code: int
    out: str
    err: str
    wall: float       # spawn to exit, seconds
    rss_mb: float     # peak RSS of the child and the children it waited for


def _kill_group(pid: int, fired: threading.Event) -> None:
    fired.set()
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(argv: List[str], env: Dict[str, str], logs: pathlib.Path,
          timeout: float) -> Proc:
    """Run *argv* from the checkout root and wait for it.

    ``os.wait4`` reaps the child so its own peak RSS is known.  The child
    leads a new process group, so a timeout kills its workers too.
    """
    out_path, err_path = logs / "child.out", logs / "child.err"
    fired = threading.Event()
    with open(out_path, "w") as out, open(err_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT,
                                env=env, start_new_session=True)
        timer = threading.Timer(max(timeout, 0.0), _kill_group,
                                (proc.pid, fired))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid, fired)
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if fired.is_set():
        raise BenchError(f"{' '.join(argv[:4])} ... still running after "
                         f"{timeout:.0f}s; killed")
    return Proc(code=proc.returncode, out=out_path.read_text(),
                err=err_path.read_text(), wall=wall,
                rss_mb=usage.ru_maxrss / 1024.0)


def last_json(text: str) -> Optional[dict]:
    """The JSON object on the last non-empty line of *text*, if any."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        return None
    try:
        value = json.loads(lines[-1])
    except ValueError:
        return None
    return value if isinstance(value, dict) else None


def trace_key(name: str, scale: float) -> str:
    return f"{name}@{scale:g}"


class Session:
    """One workload's run: its cache directory, child environment, and
    the tally of operations attempted and failed."""

    #: Seconds a whole workload may take before it is abandoned.
    BUDGET_S = 170.0

    def __init__(self, workload, seed: int, smoke: bool,
                 workdir: pathlib.Path):
        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        self.dir = workdir / workload.name
        self.dir.mkdir(parents=True, exist_ok=True)
        self.cache_dir = self.dir / "cache"
        self.deadline = time.monotonic() + self.BUDGET_S
        self.traces: List[Tuple[str, float]] = workload.traces(smoke)
        self.uops: Dict[str, int] = {}       # trace key -> uops
        self.digests: Dict[str, str] = {}    # trace key -> store digest
        self.fingerprints: Dict[str, str] = {}
        #: Uops one rep covers, where only a rep can tell.
        self.rep_uops: Optional[int] = None
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.env = self._child_env()

    def _child_env(self) -> Dict[str, str]:
        env = {key: value for key, value in os.environ.items()
               if not key.startswith("REPRO_")
               and key != "PYTHONDONTWRITEBYTECODE"}
        inherited = env.get("PYTHONPATH")
        env["PYTHONPATH"] = str(SRC) + (os.pathsep + inherited
                                        if inherited else "")
        # Bytecode goes under bench/out, not into src/.
        env["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")
        env["REPRO_CACHE_DIR"] = str(self.cache_dir)
        env.update(self.workload.env)
        return env

    # ------------------------------------------------------- processes
    def run(self, argv: List[str]) -> Proc:
        return spawn(argv, self.env, self.dir,
                     self.deadline - time.monotonic())

    def python(self, *args: str) -> Proc:
        return self.run([sys.executable, *args])

    def child(self, verb: str, **payload) -> Tuple[Proc, Optional[dict]]:
        """Run a ``child.py`` verb; returns the process and its result."""
        proc = self.python(str(CHILD), verb, json.dumps(payload))
        return proc, last_json(proc.out)

    # ----------------------------------------------------- bookkeeping
    def op(self, ok: bool, what: str) -> None:
        """Count one operation; *what* says why it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)

    def repeats(self, key: str, fingerprint: Optional[str]) -> bool:
        """True when *fingerprint* matches the first one seen for *key*."""
        if fingerprint is None:
            return False
        return self.fingerprints.setdefault(key, fingerprint) == fingerprint

    def total_uops(self, names) -> int:
        return sum(self.uops[key] for key in names)

    # ----------------------------------------------------------- setup
    def setup(self) -> Tuple[float, dict]:
        """Build every trace the workload needs into an empty store.

        Returns the child's wall time (start to exit, imports included)
        and its result.  Each trace is one operation; it fails if it
        does not build or its bytes differ from an earlier setup's.
        """
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        proc, result = self.child("setup", traces=self.traces,
                                  seed=self.seed)
        built = (result or {}).get("traces", {})
        for name, scale in self.traces:
            key = trace_key(name, scale)
            entry = built.get(key)
            ok = entry is not None and self.repeats(f"trace:{key}",
                                                    entry["digest"])
            self.op(ok, f"setup {key}: "
                        + ("digest changed" if entry else "not built"))
            if entry is not None:
                self.uops[key] = entry["uops"]
                self.digests[key] = entry["digest"]
        if proc.code != 0 or len(self.uops) < len(self.traces):
            raise BenchError(f"{self.workload.name}: setup failed "
                             f"(exit {proc.code})\n{proc.err[-2000:]}")
        return proc.wall, result
