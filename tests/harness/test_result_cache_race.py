"""Result-cache corruption races.

The content-addressed cache is shared by every worker of every engine
run, so two writers can race on the same key while a third crashes
mid-write. The contract under test:

* ``get`` never returns garbage — a torn or corrupt entry is detected,
  deleted, and reported as a miss (recompute, not wrong data);
* a crash *before* the atomic rename never disturbs the existing entry;
* concurrent same-key writers, some of them crashing mid-write, leave
  the cache in a state from which one more ``put`` fully recovers.
"""

import json
import multiprocessing
import os

import pytest

from repro.harness.engine import Engine, Job, ResultCache

PAYLOAD = {"critical_fraction": 0.25}


def profile_job(seed=1):
    return Job("bzip", "baseline", scale=0.05, seed=seed,
               kind="rob_profile")


def write_torn(cache, job):
    """What a non-atomic writer that died mid-write leaves behind: half
    a document at the entry's final path."""
    path = cache.path_for(job.key())
    path.parent.mkdir(parents=True, exist_ok=True)
    blob = json.dumps({"kind": job.kind, "payload": PAYLOAD})
    path.write_text(blob[: len(blob) // 2])


# ------------------------------------------------------------ torn entries
def test_torn_entry_is_a_miss_and_is_deleted(tmp_path):
    cache = ResultCache(tmp_path)
    job = profile_job()
    cache.put(job, PAYLOAD)
    path = cache.path_for(job.key())
    blob = path.read_text()
    for cut in range(1, len(blob)):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(blob[:cut])
        got = cache.get(job)
        if got is not None:                   # a decodable prefix must
            assert got == PAYLOAD             # still decode *correctly*
        else:
            assert not path.exists()          # torn entry removed
        cache.put(job, PAYLOAD)
    assert cache.get(job) == PAYLOAD


def test_wrong_kind_entry_is_rejected_not_returned(tmp_path):
    cache = ResultCache(tmp_path)
    job = profile_job()
    cache.put(job, PAYLOAD)
    # Same key, different kind claimed on disk: schema drift must read
    # as a miss, never as a payload of the wrong shape.
    path = cache.path_for(job.key())
    document = json.loads(path.read_text())
    document["kind"] = "sim"
    path.write_text(json.dumps(document))
    assert cache.get(job) is None


def test_crash_before_rename_leaves_previous_entry_intact(tmp_path):
    cache = ResultCache(tmp_path)
    job = profile_job()
    cache.put(job, PAYLOAD)
    path = cache.path_for(job.key())
    # A writer that died after writing its temp file but before the
    # atomic rename: the temp must not shadow or corrupt the entry.
    stale = path.with_name(path.name + ".tmp99999")
    stale.write_text('{"torn": ')
    assert cache.get(job) == PAYLOAD
    newer = {"critical_fraction": 0.75}
    cache.put(job, newer)
    assert cache.get(job) == newer


# ------------------------------------------------------- process races
def _racing_writer(cache_dir, job, crash):
    cache = ResultCache(cache_dir)
    if crash:
        write_torn(cache, job)
        os._exit(137)
    cache.put(job, PAYLOAD)
    os._exit(0)


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="racing writers use fork")
def test_concurrent_same_key_writers_with_crashers(tmp_path):
    job = profile_job()
    cache = ResultCache(tmp_path)
    for round_ in range(3):
        writers = [
            multiprocessing.Process(
                target=_racing_writer,
                args=(str(tmp_path), job, index % 2 == 1))
            for index in range(8)]
        for process in writers:
            process.start()
        for process in writers:
            process.join(30)
        # Whatever interleaving happened: either a fully valid entry
        # survived, or the torn loser is detected and read as a miss.
        got = cache.get(job)
        assert got in (PAYLOAD, None)
        # One healthy put always recovers the key.
        cache.put(job, PAYLOAD)
        assert cache.get(job) == PAYLOAD


# ---------------------------------------------------------- engine level
def test_torn_entries_converge_to_a_valid_cache_under_the_pool(tmp_path):
    """A sweep over a cache holding torn entries recomputes them, and
    afterwards every entry decodes to the serial result — the torn
    state is unobservable."""
    jobs = [Job(name, mode, scale=0.05, seed=seed)
            for name in ("bzip", "milc") for mode in ("baseline", "cdf")
            for seed in (1, 2)]
    cache = ResultCache(tmp_path)
    for job in jobs[::3]:
        write_torn(cache, job)
    engine = Engine(jobs=2, cache=cache)
    results = engine.run(jobs)
    assert engine.stats.executed == len(jobs)
    reference = [result.fingerprint() for result in
                 Engine(jobs=1, use_cache=False).run(jobs)]
    assert [result.fingerprint() for result in results] == reference
    assert [cache.get(job).fingerprint() for job in jobs] == reference
