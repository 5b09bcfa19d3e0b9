"""Recovery semantics of ``Engine.run``: worker death, parent death, and
failing jobs.

The content-addressed result cache is the only bookkeeping: every job
is cached the moment it finishes, so a broken worker pool loses only
the jobs in flight in it, and a killed parent loses only the jobs it
had not finished. The properties pinned here:

* a worker killed mid-sweep costs one fresh pool, and the sweep still
  returns results bit-identical to a serial run;
* a job that kills every pool raises :class:`PoisonJobError` after
  ``MAX_BROKEN_POOLS`` pools in a row, with everything that finished
  in the cache;
* a job that raises cancels the jobs not yet started and is re-raised
  only after every running job has landed in the cache;
* a parent SIGKILLed mid-sweep, then rerun, executes exactly the jobs
  the killed run had not cached;
* ``repro-sim cache clear`` also removes temp files that killed writers
  left behind.

Worker-side test job kinds reach the pool by inheritance, so these
tests need the ``fork`` start method.
"""

import multiprocessing
import os
import signal
import time

import pytest

from repro import cli
from repro.harness import engine as engine_mod
from repro.harness.engine import (
    JOB_KINDS,
    MAX_BROKEN_POOLS,
    Engine,
    Job,
    JobKind,
    PoisonJobError,
    ResultCache,
)
from repro.harness.tracestore import TraceStore

SMALL = 0.05
NAMES = ("bzip", "milc")

fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="workers inherit the test job kinds through fork")


def make_jobs(seeds=(1, 2, 3), kind="sim"):
    return [Job(name, mode, scale=SMALL, seed=seed, kind=kind)
            for name in NAMES for mode in ("baseline", "cdf")
            for seed in seeds]


def serial_fingerprints(jobs):
    """Fingerprints of the same points run as plain ``sim`` jobs."""
    plain = [Job(job.benchmark, job.mode, scale=job.scale, seed=job.seed)
             for job in jobs]
    return [result.fingerprint() for result in
            Engine(jobs=1, use_cache=False).run(plain)]


def register_kind(monkeypatch, name, execute):
    sim = JOB_KINDS["sim"]
    monkeypatch.setitem(JOB_KINDS, name, JobKind(
        execute=execute, encode=sim.encode, decode=sim.decode))


@pytest.fixture
def pools(monkeypatch):
    """Every worker pool ``Engine.run`` creates, in order."""
    created = []

    class CountingPool(engine_mod.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            created.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(engine_mod, "ProcessPoolExecutor", CountingPool)
    return created


def log_attempt(path, job):
    with open(path, "a") as handle:
        handle.write(job.key() + "\n")


def attempted(path):
    return path.read_text().split() if path.exists() else []


# ----------------------------------------------------------- worker death
@fork_only
def test_worker_death_resubmits_unfinished_jobs_to_a_fresh_pool(
        tmp_path, monkeypatch, pools):
    marker = tmp_path / "died"

    def die_once(job):
        try:
            os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
        except FileExistsError:
            return JOB_KINDS["sim"].execute(job)
        os._exit(1)                       # the first attempt of the sweep

    register_kind(monkeypatch, "die_once", die_once)
    jobs = make_jobs(kind="die_once")
    cache = ResultCache(tmp_path / "cache")
    engine = Engine(jobs=2, cache=cache)
    results = engine.run(jobs)

    assert marker.exists()
    assert len(pools) == 2                # one broken, one fresh
    assert [r.fingerprint() for r in results] == serial_fingerprints(jobs)
    assert engine.stats.executed == len(jobs)   # each finished once
    rerun = Engine(jobs=2, cache=cache)
    rerun.run(jobs)
    assert rerun.stats.executed == 0
    assert rerun.stats.cache_hits == len(jobs)


@fork_only
def test_poison_job_raises_typed_error_after_bounded_pools(
        tmp_path, monkeypatch, pools):
    register_kind(monkeypatch, "poison", lambda job: os._exit(1))
    healthy = make_jobs(seeds=(1,))
    poison = Job("bzip", "baseline", scale=SMALL, seed=1, kind="poison")
    cache = ResultCache(tmp_path / "cache")

    with pytest.raises(PoisonJobError) as info:
        Engine(jobs=2, cache=cache).run(healthy + [poison])

    unfinished = {job.key() for job in info.value.jobs}
    assert poison.key() in unfinished
    assert poison.describe() in str(info.value)
    # Pools that finish a job reset the streak, so at most one extra
    # pool per healthy job before the poison breaks MAX in a row.
    assert MAX_BROKEN_POOLS <= len(pools) <= \
        MAX_BROKEN_POOLS + len(healthy)
    for job in healthy:
        assert (cache.get(job) is None) == (job.key() in unfinished)
    rerun = Engine(jobs=1, cache=cache)
    rerun.run(healthy)
    assert rerun.stats.executed == len(unfinished) - 1


# ------------------------------------------------------------ job errors
@fork_only
def test_failing_job_cancels_the_rest_and_keeps_finished_work(
        tmp_path, monkeypatch):
    log = tmp_path / "attempts"
    jobs = make_jobs(seeds=(1, 2, 3, 4), kind="boom")
    bad = jobs[0]

    def boom(job):
        log_attempt(log, job)
        if job.key() == bad.key():
            raise RuntimeError("boom: deliberate job failure")
        time.sleep(0.2)                   # keep the rest queued a while
        return JOB_KINDS["sim"].execute(job)

    register_kind(monkeypatch, "boom", boom)
    cache = ResultCache(tmp_path / "cache")
    with pytest.raises(RuntimeError, match="boom"):
        Engine(jobs=2, cache=cache).run(jobs)

    ran = attempted(log)
    assert bad.key() in ran
    assert len(ran) < len(jobs)           # the unstarted were cancelled
    assert cache.get(bad) is None
    for job in jobs[1:]:
        assert (cache.get(job) is not None) == (job.key() in ran)


# ----------------------------------------------------------- parent death
def _sweep_child(jobs, cache_dir):
    # Serial, so the SIGKILL leaves no orphaned pool workers behind; the
    # sleep widens the window between cache writes for the kill.
    engine = Engine(jobs=1, cache=ResultCache(cache_dir),
                    progress=lambda line: time.sleep(0.1))
    engine.run(jobs)


@fork_only
def test_sigkill_of_parent_then_rerun_recomputes_only_unfinished_jobs(
        tmp_path):
    jobs = make_jobs()
    cache = ResultCache(tmp_path / "cache")
    child = multiprocessing.Process(target=_sweep_child,
                                    args=(jobs, cache.root))
    child.start()
    deadline = time.monotonic() + 30.0
    while len(cache.entries()) < 2 and time.monotonic() < deadline:
        time.sleep(0.01)
    os.kill(child.pid, signal.SIGKILL)
    child.join(30)
    assert child.exitcode == -signal.SIGKILL

    cached = len(cache.entries())
    assert 2 <= cached < len(jobs)
    engine = Engine(jobs=2, cache=cache)
    results = engine.run(jobs)
    assert engine.stats.cache_hits == cached
    assert engine.stats.executed == len(jobs) - cached
    assert [r.fingerprint() for r in results] == serial_fingerprints(jobs)


# ---------------------------------------------------------- orphaned temps
def test_cache_clear_removes_orphaned_temp_files(tmp_path, monkeypatch,
                                                 capsys):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    job = Job("bzip", "baseline", scale=SMALL, kind="rob_profile")
    results = ResultCache()
    results.put(job, {"critical_fraction": 0.5})
    entry = results.path_for(job.key())
    store = TraceStore()
    trace = store.path_for(store.key("bzip", SMALL, 1))
    trace.parent.mkdir(parents=True)
    # Writers killed between their temp write and the atomic rename.
    orphans = [entry.with_name(entry.name + ".tmp4242"),
               trace.with_name(trace.name + ".tmp4242")]
    for orphan in orphans:
        orphan.write_text('{"torn": ')

    assert cli.main(["cache", "clear"]) == 0
    assert "removed 1 cached result " in capsys.readouterr().out
    assert not entry.exists()
    assert not any(orphan.exists() for orphan in orphans)
