"""Parallel experiment engine with a persistent on-disk result cache.

Every figure, ablation, and sweep in this repository reduces to a flat
list of independent simulation points — ``(benchmark, mode, scale, seed,
config)`` tuples — which makes the whole evaluation embarrassingly
parallel. This module is the single execution layer those drivers share:

* **Job model** — :class:`Job` names one simulation point. ``kind``
  selects the executor: ``"sim"`` runs ``run_benchmark`` and yields a
  :class:`~repro.stats.SimResult`; ``"hinted_cdf"`` runs
  ``run_hinted_cdf`` (CDF with preloaded chain hints) and yields one
  too; ``"rob_profile"`` runs the Fig. 1 ROB-stall profile and yields a
  float-carrying dict. New kinds register in :data:`JOB_KINDS` with an
  executor plus JSON encode/decode hooks.

* **Parallel execution** — :class:`Engine` runs cache misses through a
  ``concurrent.futures.ProcessPoolExecutor``. Worker count comes from
  the constructor, the ``REPRO_JOBS`` environment variable, or defaults
  to 1 (serial). Results are reassembled in submission order, so
  parallel and serial runs return bit-identical result lists; each job
  carries its own explicit seed so placement on workers cannot perturb
  the simulated outcome.

* **Persistent cache** — :class:`ResultCache` memoizes every completed
  job under ``$REPRO_CACHE_DIR`` (default ``~/.cache/repro-sim``). The
  key is the SHA-256 of the job's identity: kind, benchmark, mode,
  scale, seed, the *canonical JSON* of its ``SimConfig``
  (:meth:`repro.config.SimConfig.fingerprint`), and a code-version salt
  hashed from the package's own source files — editing the simulator
  automatically invalidates stale entries. Entries are written
  atomically (temp file + ``os.replace``), so an interrupted sweep never
  leaves a torn entry, and unreadable/corrupt entries are discarded and
  recomputed rather than crashed on.

* **Resumability** — because every job is keyed independently,
  re-running a partially completed sweep re-executes only the missing
  points; everything already on disk is a cache hit. Inside one run, a
  worker death breaks only its pool: finished jobs are already cached,
  and the unfinished ones are resubmitted to a fresh pool, up to
  :data:`MAX_BROKEN_POOLS` broken pools in a row (then
  :class:`PoisonJobError` names them).

* **Observability** — :class:`EngineStats` counts jobs, cache hits,
  executions, and wall/sim time; ``Engine.summary()`` renders the line
  the CLI prints to stderr after every simulating command.
  Telemetry payloads compose with the cache for free: a job whose
  config sets ``obs_level > 0`` carries its collected payload on
  ``SimResult.obs`` through the JSON round-trip, and because the cache
  key includes the config's canonical JSON, obs-enabled runs never
  collide with level-0 entries (see docs/observability.md).

See docs/harness.md for the guide and cache-key anatomy.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from ..config import SimConfig
from ..stats import SimResult
from ..workloads import DEFAULT_SEED

#: Environment variable controlling worker-process count (default: 1).
JOBS_ENV = "REPRO_JOBS"
#: Environment variable overriding the cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Bump to invalidate every cache entry regardless of code content.
ENGINE_CACHE_VERSION = "1"

#: Worker pools that may break in a row, none of them finishing a job,
#: before :meth:`Engine.run` gives up with :class:`PoisonJobError`.
MAX_BROKEN_POOLS = 3

_code_salt_cache: Optional[str] = None


def code_salt() -> str:
    """Digest of the package's own source files.

    Folded into every cache key so that editing the simulator (which may
    change any result) silently invalidates the whole cache instead of
    serving stale numbers.
    """
    # A pure digest of on-disk code, identical in every process.
    global _code_salt_cache
    if _code_salt_cache is None:
        root = pathlib.Path(__file__).resolve().parent.parent
        digest = hashlib.sha256(ENGINE_CACHE_VERSION.encode())
        for path in sorted(root.rglob("*.py")):
            digest.update(path.relative_to(root).as_posix().encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
        _code_salt_cache = digest.hexdigest()[:16]
    return _code_salt_cache


# ---------------------------------------------------------------- job model
@dataclass
class Job:
    """One independent experiment point.

    A job's identity is fixed at construction: ``__post_init__`` freezes
    the attached config (:meth:`repro.config.SimConfig.freeze`), which
    both guards against accidental post-submission mutation and turns on
    the config's ``fingerprint()``/``canonical_json()`` memoization, so
    the engine's cache-key path canonicalizes each config's JSON once
    instead of once per ``cache.get``/``cache.put``.  The key itself is
    memoized per job for the same reason.
    """

    benchmark: str
    mode: str = "baseline"
    scale: float = 1.0
    seed: int = DEFAULT_SEED
    config: Optional[SimConfig] = None
    kind: str = "sim"

    def __post_init__(self) -> None:
        if self.config is not None:
            self.config.freeze()
        self._key_cache: Optional[str] = None

    def identity(self) -> dict:
        """The JSON-able dict that fully determines this job's result."""
        return {
            "kind": self.kind,
            "benchmark": self.benchmark,
            "mode": self.mode,
            "scale": repr(float(self.scale)),
            "seed": int(self.seed),
            "config": (None if self.config is None
                       else self.config.fingerprint()),
            "salt": code_salt(),
        }

    def key(self) -> str:
        """Content-addressed cache key (SHA-256 hex, memoized)."""
        if self._key_cache is None:
            blob = json.dumps(self.identity(), sort_keys=True,
                              separators=(",", ":"))
            self._key_cache = \
                hashlib.sha256(blob.encode("utf-8")).hexdigest()
        return self._key_cache

    def describe(self) -> str:
        tag = f"{self.benchmark}/{self.mode} @{self.scale:g}"
        if self.kind != "sim":
            tag += f" [{self.kind}]"
        if self.config is not None:
            tag += f" cfg:{self.config.fingerprint()[:8]}"
        return tag


def _run_sim_job(job: Job) -> SimResult:
    from .runner import run_benchmark
    return run_benchmark(job.benchmark, job.mode, scale=job.scale,
                         seed=job.seed, config=job.config)


def _run_hinted_cdf_job(job: Job) -> SimResult:
    from .runner import run_hinted_cdf
    return run_hinted_cdf(job.benchmark, scale=job.scale, seed=job.seed,
                          config=job.config)


def _run_rob_profile_job(job: Job) -> dict:
    from .runner import rob_stall_profile
    fraction = rob_stall_profile(job.benchmark, scale=job.scale,
                                 seed=job.seed)
    return {"critical_fraction": fraction}


@dataclass(frozen=True)
class JobKind:
    """Executor plus JSON (de)serialization hooks for one job kind."""

    execute: Callable[[Job], object]
    encode: Callable[[object], object]
    decode: Callable[[object], object]


#: Registry of job kinds. ``encode``/``decode`` map between the result
#: object and its JSON-able cache payload.
JOB_KINDS: Dict[str, JobKind] = {
    "sim": JobKind(execute=_run_sim_job,
                   encode=lambda result: result.to_dict(),
                   decode=SimResult.from_dict),
    "hinted_cdf": JobKind(execute=_run_hinted_cdf_job,
                          encode=lambda result: result.to_dict(),
                          decode=SimResult.from_dict),
    "rob_profile": JobKind(execute=_run_rob_profile_job,
                           encode=lambda result: dict(result),
                           decode=lambda payload: {
                               "critical_fraction":
                                   float(payload["critical_fraction"])}),
}


def _execute_job(job: Job):
    """Process-pool entry point: run one job, return (result, seconds)."""
    start = time.perf_counter()
    result = JOB_KINDS[job.kind].execute(job)
    return result, time.perf_counter() - start


# -------------------------------------------------------------------- cache
def default_cache_dir() -> pathlib.Path:
    """``$REPRO_CACHE_DIR``, else ``~/.cache/repro-sim`` (honouring
    ``$XDG_CACHE_HOME``)."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return pathlib.Path(env).expanduser()
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = pathlib.Path(xdg).expanduser() if xdg \
        else pathlib.Path.home() / ".cache"
    return base / "repro-sim"


class ResultCache:
    """Content-addressed, crash-safe, JSON-on-disk result store.

    Layout: ``<root>/<key[:2]>/<key>.json``. Each entry carries the
    decoded payload plus the job identity that produced it, so entries
    are self-describing (``repro-sim cache stats`` and humans can audit
    them). Writes are atomic; reads treat any malformed entry as a miss
    and delete it.
    """

    def __init__(self, root: Optional[os.PathLike] = None):
        self.root = pathlib.Path(root).expanduser() if root is not None \
            else default_cache_dir()

    def path_for(self, key: str) -> pathlib.Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, job: Job):
        """Decoded result for *job*, or None on miss/corruption."""
        path = self.path_for(job.key())
        try:
            document = json.loads(path.read_text())
            if document["kind"] != job.kind:
                raise ValueError("kind mismatch")
            return JOB_KINDS[job.kind].decode(document["payload"])
        except FileNotFoundError:
            return None
        except Exception:
            # Truncated write, bad JSON, schema drift, ... — recompute.
            try:
                path.unlink()
            except OSError:
                pass
            return None

    def put(self, job: Job, result) -> None:
        """Atomically persist *result* for *job* (best-effort)."""
        path = self.path_for(job.key())
        document = {
            "kind": job.kind,
            "job": job.identity(),
            "config": (None if job.config is None
                       else job.config.to_dict()),
            "payload": JOB_KINDS[job.kind].encode(result),
            "created": time.time(),
        }
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_name(path.name + f".tmp{os.getpid()}")
            tmp.write_text(json.dumps(document, sort_keys=True))
            os.replace(tmp, path)
        except OSError:
            pass                      # cache is advisory, never fatal

    def entries(self) -> List[pathlib.Path]:
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("*/*.json"))

    def stats(self) -> dict:
        entries = self.entries()
        return {
            "root": str(self.root),
            "entries": len(entries),
            "bytes": sum(path.stat().st_size for path in entries),
        }

    def clear(self) -> int:
        """Delete every entry, plus the temp files of writers killed
        before their rename; returns the number of entries removed."""
        removed = 0
        for path in self.entries():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        for path in self.root.glob("*/*.json.tmp*"):
            try:
                path.unlink()
            except OSError:
                pass
        return removed


# ------------------------------------------------------------------- engine
class PoisonJobError(RuntimeError):
    """:data:`MAX_BROKEN_POOLS` worker pools in a row died before any of
    :attr:`jobs` (the jobs still unfinished, in submission order) could
    finish. Everything that did finish is already in the result cache."""

    def __init__(self, jobs: Sequence[Job]):
        self.jobs = list(jobs)
        super().__init__(
            f"{MAX_BROKEN_POOLS} worker pools in a row died without "
            f"finishing a job; {len(self.jobs)} job(s) unfinished: "
            + ", ".join(job.describe() for job in self.jobs))


@dataclass
class EngineStats:
    """Cumulative accounting across ``Engine.run`` calls."""

    total: int = 0                    # jobs submitted
    executed: int = 0                 # simulations actually run
    cache_hits: int = 0               # jobs served from disk
    wall_seconds: float = 0.0         # engine wall-clock across runs
    job_seconds: float = 0.0          # summed per-job simulation time


def default_jobs() -> int:
    """Worker count from ``$REPRO_JOBS`` (default 1 = serial)."""
    try:
        return max(1, int(os.environ.get(JOBS_ENV, "1")))
    except ValueError:
        return 1


class Engine:
    """Fan a list of :class:`Job` out over worker processes, memoized.

    Parameters
    ----------
    jobs:
        Worker-process count; ``None`` reads ``$REPRO_JOBS`` (default 1).
        With 1 worker everything runs in-process (no pool overhead, and
        the runner's in-process workload cache is shared across modes).
    use_cache:
        Disable to force re-simulation (``--no-cache``).
    cache:
        A :class:`ResultCache`; defaults to one rooted at
        ``$REPRO_CACHE_DIR`` / ``~/.cache/repro-sim``.
    progress:
        Optional callable receiving one human-readable line per
        completed job (the CLI points this at stderr).
    """

    def __init__(self, jobs: Optional[int] = None,
                 use_cache: bool = True,
                 cache: Optional[ResultCache] = None,
                 progress: Optional[Callable[[str], None]] = None):
        self.jobs = default_jobs() if jobs is None else max(1, int(jobs))
        self.use_cache = use_cache
        self.cache = cache if cache is not None else ResultCache()
        self.progress = progress
        self.stats = EngineStats()

    # ------------------------------------------------------------- running
    def _report(self, done: int, total: int, job: Job, verb: str,
                seconds: Optional[float] = None) -> None:
        if self.progress is None:
            return
        line = f"[{done}/{total}] {verb:9s} {job.describe()}"
        if seconds is not None:
            line += f" ({seconds:.2f}s)"
        self.progress(line)

    def run(self, jobs: Sequence[Job]) -> List:
        """Execute *jobs*; returns results in submission order.

        Cache hits are filled in first; the remaining misses run either
        in-process (1 worker) or on a process pool (see
        :meth:`_run_pool` for worker deaths and failing jobs). Every
        freshly computed result is written to the cache as it lands, so
        an interrupted sweep resumes from its last completed job.
        """
        jobs = list(jobs)
        start = time.perf_counter()
        results: List = [None] * len(jobs)
        misses: List[int] = []
        done = 0
        for index, job in enumerate(jobs):
            cached = self.cache.get(job) if self.use_cache else None
            if cached is not None:
                results[index] = cached
                self.stats.cache_hits += 1
                done += 1
                self._report(done, len(jobs), job, "cache-hit")
            else:
                misses.append(index)

        def finish(index: int, result, seconds: float) -> None:
            nonlocal done
            results[index] = result
            self._finish_miss(jobs[index], result, seconds)
            done += 1
            self._report(done, len(jobs), jobs[index], "ran", seconds)

        if misses and self.jobs > 1 and len(misses) > 1:
            self._prewarm_workloads([jobs[index] for index in misses])
            self._run_pool(jobs, misses, finish)
        else:
            for index in misses:
                finish(index, *_execute_job(jobs[index]))

        self.stats.total += len(jobs)
        self.stats.wall_seconds += time.perf_counter() - start
        return results

    def _run_pool(self, jobs: List[Job], misses: List[int],
                  finish: Callable[[int, object, float], None]) -> None:
        """Run ``jobs[i]`` for each *misses* index on worker processes,
        handing every result to *finish* (which caches it) as it lands.

        A job that raises stops the sweep: jobs not yet started are
        cancelled, those already running still finish and are cached,
        then the first error is re-raised. A worker that dies breaks its
        pool and fails every job still in it; those are resubmitted to a
        fresh pool, until :data:`MAX_BROKEN_POOLS` pools in a row break
        without finishing a job, which raises :class:`PoisonJobError`.
        """
        error: Optional[Exception] = None
        broken = 0
        while misses:
            lost: List[int] = []
            progressed = False
            with ProcessPoolExecutor(
                    max_workers=min(self.jobs, len(misses))) as pool:
                waiting = {pool.submit(_execute_job, jobs[index]): index
                           for index in misses}
                while waiting:
                    landed, _ = wait(waiting, return_when=FIRST_COMPLETED)
                    for future in sorted(landed, key=waiting.__getitem__):
                        index = waiting.pop(future)
                        try:
                            result, seconds = future.result()
                        except BrokenProcessPool:
                            lost.append(index)
                            continue
                        except Exception as exc:
                            if error is None:
                                error = exc
                                # cancel() fails only on started jobs,
                                # which stay to be waited for.
                                waiting = {pending: i for pending, i
                                           in waiting.items()
                                           if not pending.cancel()}
                            continue
                        finish(index, result, seconds)
                        progressed = True
            if error is not None:
                raise error
            broken = 0 if progressed else broken + 1
            misses = sorted(lost)
            if misses and broken >= MAX_BROKEN_POOLS:
                raise PoisonJobError([jobs[index] for index in misses])

    @staticmethod
    def _prewarm_workloads(jobs: Sequence[Job]) -> None:
        """Build each unique workload trace once in the parent before the
        pool forks, so workers inherit them copy-on-write instead of each
        re-running the functional simulation (on ``fork`` platforms; a
        harmless warm-up elsewhere). This keeps the one-trace-per-
        benchmark sharing the serial path gets from the runner's
        in-process cache."""
        from .runner import load_workload
        # dict.fromkeys, not a set: dedup in first-seen order so the
        # prewarm sequence is independent of PYTHONHASHSEED (DET002).
        for key in dict.fromkeys(
                (job.benchmark, job.scale, job.seed) for job in jobs):
            load_workload(*key).trace()

    def _finish_miss(self, job: Job, result, seconds: float) -> None:
        self.stats.executed += 1
        self.stats.job_seconds += seconds
        if self.use_cache:
            self.cache.put(job, result)

    # ------------------------------------------------------------ reporting
    def summary(self) -> str:
        """One line: jobs, cache hits, executions, wall/sim time."""
        stats = self.stats
        return (f"engine: {stats.total} jobs, {stats.cache_hits} cache "
                f"hits, {stats.executed} simulated, "
                f"{stats.wall_seconds:.1f}s wall "
                f"({stats.job_seconds:.1f}s sim, {self.jobs} worker"
                f"{'s' if self.jobs != 1 else ''})")


# --------------------------------------------------------- default engine
_default_engine: Optional[Engine] = None


def get_engine() -> Engine:
    """The process-wide default engine (created lazily from the
    environment); all harness drivers run through it unless handed an
    explicit engine."""
    global _default_engine
    if _default_engine is None:
        _default_engine = Engine()
    return _default_engine


def configure(jobs: Optional[int] = None,
              use_cache: bool = True,
              cache_dir: Optional[os.PathLike] = None,
              progress: Optional[Callable[[str], None]] = None) -> Engine:
    """Rebuild the default engine (fresh stats) with the given settings;
    ``jobs`` and ``cache_dir`` fall back to the environment. Returns
    it."""
    global _default_engine
    cache = ResultCache(cache_dir) if cache_dir is not None else None
    _default_engine = Engine(jobs=jobs, use_cache=use_cache, cache=cache,
                             progress=progress)
    return _default_engine
