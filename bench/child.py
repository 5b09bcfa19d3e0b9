"""Child-process side of the benchmark: ``python bench/child.py VERB JSON``.

Each verb imports the simulator, does one measured piece of work
through public entry points only, and prints one JSON object as the last
line of stdout.  Timings start after the imports.

Verbs:

* ``setup`` -- build each trace into the (empty) store and report its
  uop count, the digest of the stored bytes, and a span per call.
* ``sim``   -- simulate a job list with the serial engine, cache off.
* ``load``  -- load each trace from the warm store, one alive at a time,
  and check that it re-encodes to the digest setup recorded.
* ``cli``   -- run ``repro.cli.main`` in this process (the traced form of
  the CLI workloads).

With ``"traced": true`` a verb also records spans, runs the stack
sampler around its work, and then times the store, decoder and result
cache on its own inputs with the sampler off.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import pathlib
import sys
import time
import traceback

from session import trace_key
from tracing import StackSampler, Tracer

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"


def _check_package() -> None:
    """Refuse to measure a ``repro`` imported from anywhere else."""
    import repro
    found = pathlib.Path(repro.__file__).resolve().parent
    if found != PACKAGE.resolve():
        sys.exit(f"child: imported repro from {found}, expected {PACKAGE}")


def _sampler(traced: bool):
    return StackSampler(str(PACKAGE)) if traced \
        else contextlib.nullcontext()


# ----------------------------------------------------------- probes
def _trace_probes(traces, seed: int) -> dict:
    """Time ``loads_trace`` on the store bytes, ``TraceStore.get``, and
    ``TraceStore.put`` into a scratch store."""
    from repro.harness import TraceStore, default_cache_dir, get_trace_store
    from repro.isa.traceio import loads_trace
    store = get_trace_store()
    scratch = TraceStore(default_cache_dir() / "probe-traces")
    decode_s = get_s = put_s = 0.0
    nbytes = uops = 0
    for name, scale in traces:
        data = store.path_for(store.key(name, scale, seed)).read_bytes()
        start = time.perf_counter()
        loads_trace(data)
        decode_s += time.perf_counter() - start
        start = time.perf_counter()
        trace = store.get(name, scale, seed)
        get_s += time.perf_counter() - start
        start = time.perf_counter()
        scratch.put(name, scale, seed, trace)
        put_s += time.perf_counter() - start
        uops += len(trace)
        nbytes += len(data)
        del trace
    return {"decode_s": decode_s, "get_s": get_s, "put_s": put_s,
            "bytes": nbytes, "uops": uops}


def _cache_probes(pairs) -> dict:
    """Time ``ResultCache.put``, then ``get``, of each (job, result) in a
    scratch cache."""
    from repro.harness import ResultCache, default_cache_dir
    scratch = ResultCache(default_cache_dir() / "probe")
    get_ms, put_ms, entry_kb = [], [], []
    for job, result in pairs:
        start = time.perf_counter()
        scratch.put(job, result)
        put_ms.append(1e3 * (time.perf_counter() - start))
        start = time.perf_counter()
        scratch.get(job)
        get_ms.append(1e3 * (time.perf_counter() - start))
        entry_kb.append(scratch.path_for(job.key()).stat().st_size / 1024)
    return {"get_ms": get_ms, "put_ms": put_ms, "entry_kb": entry_kb}


# ------------------------------------------------------------ verbs
def cmd_setup(args: dict) -> dict:
    from repro.harness import get_trace_store, load_workload
    _check_package()
    seed, tracer = args["seed"], Tracer()
    store = get_trace_store()
    built = {}
    for name, scale in args["traces"]:
        key = trace_key(name, scale)
        try:
            with tracer.span("load_workload", job=key):
                workload = load_workload(name, scale, seed)
            with tracer.span("Workload.trace", job=key):
                trace = workload.trace()       # functional model, then put
            data = store.path_for(store.key(name, scale, seed)).read_bytes()
            built[key] = {"uops": len(trace), "bytes": len(data),
                          "digest": hashlib.sha256(data).hexdigest()}
            del trace, workload
        except Exception:
            traceback.print_exc()
    return {"traces": built, "spans": tracer.spans}


def _make_jobs(args: dict):
    from repro.harness import Job, config_for_mode, memory_speed_knob
    factor = args.get("memory_factor")
    jobs = []
    for name, mode in args["jobs"]:
        config = None if factor is None \
            else memory_speed_knob(config_for_mode(mode), factor)
        jobs.append(Job(name, mode, scale=args["scale"], seed=args["seed"],
                        config=config))
    return jobs


def _describe(result) -> dict:
    return {"job": f"{result.benchmark}.{result.mode}",
            "fingerprint": result.fingerprint(), "ipc": result.ipc}


def cmd_sim(args: dict) -> dict:
    from repro.harness import Engine, load_workload
    _check_package()
    jobs = _make_jobs(args)
    seed, scale = args["seed"], args["scale"]
    kernels = list(dict.fromkeys(name for name, _ in args["jobs"]))
    if not args["traced"]:
        start = time.perf_counter()
        try:
            results = Engine(jobs=1, use_cache=False).run(jobs)
        except Exception:
            traceback.print_exc()
            results = None
        wall = time.perf_counter() - start
        return {"wall": wall, "results": (None if results is None
                                          else [_describe(r)
                                                for r in results])}
    tracer = Tracer()
    engine = Engine(jobs=1, use_cache=False)
    results = []
    sampler = StackSampler(str(PACKAGE))
    start = time.perf_counter()
    with sampler:
        # Decode first, so each job span below is simulation only.
        for name in kernels:
            with tracer.span("load_workload", job=trace_key(name, scale)):
                workload = load_workload(name, scale, seed)
            with tracer.span("Workload.trace", job=trace_key(name, scale)):
                workload.trace()
        for job in jobs:
            with tracer.span("Engine.run", job=f"{job.benchmark}.{job.mode}"):
                try:
                    [result] = engine.run([job])
                except Exception:
                    traceback.print_exc()
                    result = None
            results.append(result)
    wall = time.perf_counter() - start
    done = [(job, result) for job, result in zip(jobs, results)
            if result is not None]
    stats = engine.stats
    return {
        "wall": wall,
        "results": [dict(_describe(result), result=result.to_dict())
                    for _, result in done],
        "spans": tracer.spans, "samples": sampler.counts,
        "engine": {"cache_hits": stats.cache_hits,
                   "executed": stats.executed, "job_s": stats.job_seconds,
                   "wall_s": stats.wall_seconds, "workers": engine.jobs},
        "probes": _trace_probes([(name, scale) for name in kernels], seed),
        "cache": _cache_probes(done),
    }


def cmd_load(args: dict) -> dict:
    from repro.harness import load_workload
    from repro.isa.traceio import dumps_trace
    _check_package()
    seed, traced = args["seed"], args["traced"]
    tracer = Tracer()
    seconds = 0.0
    checked = {}
    sampler = _sampler(traced)
    with sampler:
        for name, scale in args["traces"]:
            key = trace_key(name, scale)
            try:
                start = time.perf_counter()
                with tracer.span("load_workload", job=key):
                    workload = load_workload(name, scale, seed)
                with tracer.span("Workload.trace", job=key):
                    trace = workload.trace()
                seconds += time.perf_counter() - start
                with tracer.span("dumps_trace", job=key):
                    digest = hashlib.sha256(dumps_trace(trace)).hexdigest()
                checked[key] = digest == args["digests"][key]
                del trace, workload
            except Exception:
                traceback.print_exc()
                checked[key] = False
    out = {"wall": seconds, "checked": checked}
    if traced:
        out.update(spans=tracer.spans, samples=sampler.counts,
                   probes=_trace_probes(args["traces"], seed))
    return out


def cmd_cli(args: dict) -> dict:
    """``repro-sim ARGV`` in this process; its exit code is ours."""
    traced = args["traced"]
    tracer = Tracer()
    sampler = _sampler(traced)
    start = time.perf_counter()
    with sampler:
        with tracer.span("repro.cli.main"):
            from repro.cli import main
            code = main(args["argv"])
    wall = time.perf_counter() - start
    _check_package()
    sys.stdout.flush()
    out = {"wall": wall, "code": code}
    if traced:
        from repro.harness import Job, ResultCache
        cache = ResultCache()        # the one the CLI just used
        jobs = [Job(name, mode, scale=args["scale"], seed=args["seed"])
                for name, mode in args["jobs"]]
        pairs = [(job, cache.get(job)) for job in jobs]
        out.update(spans=tracer.spans, samples=sampler.counts,
                   probes=_trace_probes(args["traces"], args["seed"]),
                   cache=_cache_probes([(job, result) for job, result
                                        in pairs if result is not None]))
    return out


VERBS = {"setup": cmd_setup, "sim": cmd_sim, "load": cmd_load,
         "cli": cmd_cli}


def main(argv) -> int:
    verb, payload = argv[0], json.loads(argv[1])
    out = VERBS[verb](payload)
    print(json.dumps(out))
    return int(out.get("code", 0))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
