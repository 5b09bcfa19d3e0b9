"""Tests for the persistent compiled-trace store.

The trace store must be *transparent*: simulation results are
bit-identical whether a trace was just executed functionally,
deserialized from disk, or rebuilt after corruption — serial or
parallel.  These tests pin that down, plus the store's failure modes
(corrupt entries, salt drift).
"""

import json
import multiprocessing

import pytest

from repro.config import SimConfig
from repro.harness import runner
from repro.harness.engine import Engine, Job
from repro.harness.runner import load_workload, run_benchmark
from repro.harness.tracestore import (
    TraceStore,
    get_trace_store,
    reset_trace_store,
    trace_salt,
)
from repro.isa import traceio
from repro.workloads import SUITE

SMALL = 0.1
NAMES = ("bzip", "milc")
MODES = ("baseline", "cdf", "pre")
FORK = multiprocessing.get_start_method(allow_none=False) == "fork"


@pytest.fixture(autouse=True)
def isolated_store(tmp_path, monkeypatch):
    """Every test gets a private cache dir and fresh in-process caches."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    runner._workload_cache.clear()
    reset_trace_store()
    yield
    runner._workload_cache.clear()
    reset_trace_store()


def fresh_trace(name="bzip", scale=SMALL):
    runner._workload_cache.clear()
    return load_workload(name, scale).trace()


# ------------------------------------------------------------ round-trip
def test_dumps_loads_byte_identity():
    """serialize -> deserialize -> serialize is byte-stable, and the
    reloaded uops carry identical fields."""
    trace = fresh_trace()
    blob = traceio.dumps_trace(trace)
    reloaded = traceio.loads_trace(blob)
    assert traceio.dumps_trace(reloaded) == blob
    assert len(reloaded) == len(trace)
    for a, b in zip(trace, reloaded):
        for attr in ("seq", "pc", "op", "dst", "srcs", "exec_lat",
                     "exec_class", "is_load", "is_store", "is_branch",
                     "is_cond_branch", "is_mem", "writes_reg", "mem_addr",
                     "taken", "next_pc", "src_deps", "store_dep"):
            assert getattr(a, attr) == getattr(b, attr), attr


def test_store_put_get_roundtrip(tmp_path):
    store = TraceStore(tmp_path / "private")
    trace = fresh_trace()
    store.put("bzip", SMALL, 42, trace)
    got = store.get("bzip", SMALL, 42)
    assert got is not None
    assert store.hits == 1
    assert traceio.dumps_trace(got) == traceio.dumps_trace(trace)
    assert store.get("bzip", SMALL, 43) is None      # different identity
    assert store.misses == 1


def test_load_workload_populates_and_reuses_store():
    fresh_trace()                                    # functional + put
    store = get_trace_store()
    assert len(store.entries()) == 1
    before = store.hits
    fresh_trace()                                    # new Workload object
    assert store.hits == before + 1


# ------------------------------------------------------------ corruption
def test_corrupt_entry_is_dropped_and_regenerated():
    reference = traceio.dumps_trace(fresh_trace())
    store = get_trace_store()
    [entry] = store.entries()
    entry.write_bytes(entry.read_bytes()[:50])       # truncate
    trace = fresh_trace()                            # miss -> functional
    assert traceio.dumps_trace(trace) == reference
    # The corrupt file was deleted and the regenerated trace persisted.
    [entry] = store.entries()
    assert traceio.dumps_trace(
        traceio.loads_trace(entry.read_bytes())) == reference


def test_version_mismatch_is_treated_as_corruption(tmp_path):
    store = TraceStore(tmp_path / "private")
    trace = fresh_trace()
    store.put("bzip", SMALL, 42, trace)
    [entry] = store.entries()
    blob = bytearray(entry.read_bytes())
    blob[4] = 0xEE                                   # bump version field
    entry.write_bytes(bytes(blob))
    assert store.get("bzip", SMALL, 42) is None
    assert store.entries() == []                     # deleted


def test_entry_shorter_than_header_is_treated_as_corruption(tmp_path):
    store = TraceStore(tmp_path / "private")
    store.put("bzip", SMALL, 42, fresh_trace())
    [entry] = store.entries()
    entry.write_bytes(entry.read_bytes()[:10])       # magic + version + 4
    assert store.get("bzip", SMALL, 42) is None
    assert store.entries() == []                     # deleted


# ------------------------------------------------------------ salt
def test_salt_change_invalidates_keys(monkeypatch):
    store = get_trace_store()
    trace = fresh_trace()
    assert store.get("bzip", SMALL, 42) is not None
    monkeypatch.setattr("repro.harness.tracestore.trace_salt",
                        lambda: "different-salt")
    assert store.get("bzip", SMALL, 42) is None      # old entry invisible
    store.put("bzip", SMALL, 42, trace)
    assert len(store.entries()) == 2                 # new key, old intact


def test_salt_is_stable_within_process():
    assert trace_salt() == trace_salt()
    assert len(trace_salt()) == 16


# ------------------------------------------------- zero re-execution
@pytest.mark.skipif(
    not FORK, reason="needs fork so workers inherit the monkeypatched stub")
def test_warm_store_parallel_run_never_reexecutes(monkeypatch):
    """With a warm trace store, a 2-worker engine run deserializes every
    trace: the functional model must not run in parent or children."""
    jobs = [Job(name, mode, scale=SMALL)
            for name in NAMES for mode in ("baseline", "cdf")]
    Engine(jobs=1, use_cache=False).run(jobs)        # populate the store
    runner._workload_cache.clear()

    def boom(*_args, **_kwargs):
        raise AssertionError("functional execution ran on a warm store")

    monkeypatch.setattr("repro.workloads.base.execute", boom)
    results = Engine(jobs=2, use_cache=False).run(jobs)
    assert len(results) == len(jobs)


def count_builder_calls(monkeypatch, name="bzip"):
    """Wrap *name*'s kernel builder; returns the list of its calls."""
    calls = []
    real = SUITE[name]

    def counting(**kwargs):
        calls.append(kwargs)
        return real(**kwargs)

    monkeypatch.setitem(SUITE, name, counting)
    return calls


@pytest.mark.parametrize("workers", [
    1, pytest.param(2, marks=pytest.mark.skipif(
        not FORK, reason="needs fork so workers inherit the stub"))])
def test_warm_store_never_runs_a_kernel_builder(monkeypatch, workers):
    """On a warm store, load_workload restores each workload from its
    program entry: no kernel builder runs, in parent or workers, and
    every fingerprint equals the cold run's."""
    jobs = [Job(name, mode, scale=SMALL)
            for name in NAMES for mode in MODES]
    cold = Engine(jobs=1, use_cache=False).run(jobs)
    runner._workload_cache.clear()

    def boom(**_kwargs):
        raise AssertionError("a kernel builder ran on a warm store")

    for name in NAMES:
        monkeypatch.setitem(SUITE, name, boom)
    warm = Engine(jobs=workers, use_cache=False).run(jobs)
    assert [r.fingerprint() for r in warm] == \
        [r.fingerprint() for r in cold]


def test_oracle_on_warm_store_builds_the_image_once(monkeypatch):
    """A verify_level=2 run reads workload.memory, so the restored
    workload runs its builder exactly once; runs that need no image run
    none."""
    run_benchmark("bzip", "cdf", scale=SMALL)         # cold: both entries
    runner._workload_cache.clear()
    calls = count_builder_calls(monkeypatch)
    run_benchmark("bzip", "cdf", scale=SMALL)
    assert calls == []
    config = SimConfig.with_cdf()
    config.verify_level = 2
    for _ in range(2):
        result = run_benchmark("bzip", "cdf", scale=SMALL, config=config)
        assert result.counters["verify_oracle_uops"] > 0
    assert calls == [{"scale": SMALL, "seed": 42}]


def test_restored_workload_refuses_a_different_builder(monkeypatch):
    load_workload("bzip", SMALL)
    runner._workload_cache.clear()
    monkeypatch.setitem(SUITE, "bzip", lambda scale, seed:
                        SUITE["milc"](scale=scale, seed=seed))
    workload = load_workload("bzip", SMALL)
    with pytest.raises(RuntimeError, match="differs from the stored one"):
        workload.memory


@pytest.mark.parametrize("damage", [
    lambda blob: blob[:len(blob) // 2],                   # truncated
    lambda blob: b"\xff\xfe" + blob[2:],                  # not UTF-8
    lambda blob: blob.replace(b'"max_uops"', b'"max_uopz"'),
    lambda blob: b"[]",
])
def test_corrupt_program_entry_is_dropped_and_rebuilt(monkeypatch, damage):
    cold = run_benchmark("bzip", "cdf", scale=SMALL)
    store = get_trace_store()
    [entry] = store.program_entries()
    stored = entry.read_bytes()
    entry.write_bytes(damage(stored))
    runner._workload_cache.clear()
    calls = count_builder_calls(monkeypatch)
    warm = run_benchmark("bzip", "cdf", scale=SMALL)
    assert len(calls) == 1                           # rebuilt ...
    assert warm.fingerprint() == cold.fingerprint()
    [entry] = store.program_entries()
    assert entry.read_bytes() == stored              # ... and re-stored
    assert json.loads(stored) == load_workload("bzip", SMALL).to_json()


# ------------------------------------------------------- bit identity
def test_serial_parallel_cold_warm_all_bit_identical():
    """Fingerprints must not depend on where the trace came from or how
    the sweep was executed: cold store (functional execution, then
    compile), warm store (deserialize), serial, and 2-worker parallel
    all agree for every mode."""
    jobs = [Job(name, mode, scale=SMALL)
            for name in NAMES for mode in MODES]

    runner._workload_cache.clear()
    cold = Engine(jobs=1, use_cache=False).run(jobs)
    assert len(get_trace_store().entries()) == len(NAMES)

    runner._workload_cache.clear()
    warm_serial = Engine(jobs=1, use_cache=False).run(jobs)

    runner._workload_cache.clear()
    warm_parallel = Engine(jobs=2, use_cache=False).run(jobs)

    for a, b, c in zip(cold, warm_serial, warm_parallel):
        assert a.fingerprint() == b.fingerprint() == c.fingerprint()
        assert a == b == c


# ------------------------------------------------------------ LRU memo
def test_workload_cache_is_lru_bounded(monkeypatch):
    monkeypatch.setenv("REPRO_WORKLOAD_CACHE", "2")
    runner._workload_cache.clear()
    load_workload("bzip", SMALL)
    load_workload("milc", SMALL)
    load_workload("bzip", SMALL)                     # refresh bzip
    load_workload("lbm", SMALL)                      # evicts milc (LRU)
    keys = [key[0] for key in runner._workload_cache]
    assert len(keys) == 2
    assert "milc" not in keys
    assert keys == ["bzip", "lbm"]


def test_workload_cache_hit_returns_same_object():
    first = load_workload("bzip", SMALL)
    assert load_workload("bzip", SMALL) is first

