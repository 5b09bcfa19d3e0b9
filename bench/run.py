"""The benchmark of record for the simulator, measured from outside.

    python3 bench/run.py [--workload NAME]... [--seed S] [--seconds N]
                         [--trace 0|1] [--out PATH] [--smoke]

Without ``--trace`` each workload is measured untraced (end-to-end
metrics) and then once more traced (per-layer metrics).  ``--trace 0``
and ``--trace 1`` run only one of the two.  Every metric is printed by
name with its unit; the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full report
(samples, median, quartiles and n of every metric, fingerprints, and the
environment) goes to ``--out``.  ``wall_s`` and ``kuops_per_s`` are
headlined by the best rep, ``setup_s`` and ``peak_rss_mb`` by the median.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import sys
import time
from typing import Dict, List, Optional, Tuple

from layers import layer_metrics
from report import (EXACT_UNITS, SCHEMA, environment, load_spec,
                    summarize)
from session import OUT, SRC, BenchError, Session
from workloads import BASELINE_SEED, WORKLOADS

#: Set-ups per untraced run; setup_s is their median.
SETUPS = 3
#: Timed reps per untraced run, at least; more while --seconds allows.
#: Three, so that the median drops a rep a burst of load slowed.
MIN_REPS = 3
#: Fresh ``import repro.cli`` processes timed for cli.import_s.
IMPORTS = 3
#: Metrics headlined by the run's best rep rather than its median.  Load
#: from other tenants only ever slows a rep, in spells that can cover
#: most of a run; the best rep is the one such a spell missed.  Over ten
#: seeds in a noisy hour this cut figures_warm's spread from 0.31 to
#: 0.05 (see bench/README.md).
BEST_OF = frozenset(("wall_s", "kuops_per_s"))


def measure(workload, session: Session, seconds: float
            ) -> Tuple[Dict[str, List[float]], dict]:
    """Untraced: set up SETUPS times, then time reps for *seconds*.

    Returns the samples of every end-to-end metric and the last set-up's
    result (its store stays in place for a traced pass).
    """
    setups = [session.setup() for _ in range(SETUPS)]
    workload.prepare(session)
    reps, attempts = [], 0
    start = time.monotonic()
    while attempts < MIN_REPS or time.monotonic() - start < seconds:
        attempts += 1
        rep = workload.rep(session)
        if rep is not None:
            reps.append(rep)
    if not reps:
        raise BenchError(f"{workload.name}: no rep completed: "
                         + "; ".join(session.problems[-3:]))
    samples = {
        "setup_s": [wall for wall, _ in setups],
        "wall_s": [rep.wall for rep in reps],
        "kuops_per_s": [rep.uops / rep.wall / 1e3 for rep in reps],
        "peak_rss_mb": [rep.rss_mb for rep in reps],
    }
    return samples, setups[-1][1]


def trace_pass(workload, session: Session,
               setup: Optional[dict]) -> Dict[str, float]:
    """The traced pass; writes bench/out/trace-<name>.json.

    *setup* is the result of the set-up whose store is in place, if
    ``measure`` just ran; otherwise the pass sets up first.
    """
    import_s = statistics.median(
        session.python("-c", "import repro.cli").wall
        for _ in range(IMPORTS))
    if setup is None:
        _, setup = session.setup()
        workload.prepare(session)
    overhead, traced = workload.traced_pass(session)
    with open(OUT / f"trace-{workload.name}.json", "w") as handle:
        json.dump({"workload": workload.name, "seed": session.seed,
                   "setup_spans": setup["spans"],
                   "spans": traced.get("spans", []),
                   "samples": traced.get("samples")}, handle)
    return layer_metrics(setup, overhead, traced, import_s)


def run_workload(name: str, spec: dict, args, workdir) -> dict:
    """Measure one workload; returns its section of the report."""
    workload = WORKLOADS[name]
    session = Session(workload, args.seed, args.smoke, workdir)
    # Untimed: compiles the package's bytecode before anything is timed.
    if session.python("-c", "import repro.cli").code != 0:
        raise BenchError(f"cannot import repro from {SRC}")
    section: dict = {"end_to_end": {}, "per_layer": {}}
    setup = None
    if args.trace != 1:
        samples, setup = measure(workload, session, args.seconds)
        for metric in spec["end_to_end"]:
            values = samples[metric["name"]]
            summary = summarize(values)
            best = min if metric["better"] == "lower" else max
            summary["value"] = best(values) \
                if metric["name"] in BEST_OF else summary["median"]
            section["end_to_end"][metric["name"]] = dict(
                unit=metric["unit"], better=metric["better"],
                bound=metric["bound"], samples=values, **summary)
    if args.trace != 0:
        values = trace_pass(workload, session, setup)
        for metric in spec["per_layer"]:
            section["per_layer"][metric["name"]] = {
                "unit": metric["unit"], "better": metric["better"],
                "value": values[metric["name"]],
                "exact": metric["unit"] in EXACT_UNITS}
    fingerprints = dict(sorted(session.fingerprints.items()))
    section.update(
        attempted=session.attempted, failed=session.failed,
        fail_frac=session.failed / max(session.attempted, 1),
        correct=session.failed == 0, problems=session.problems,
        fingerprints=fingerprints,
        digest=hashlib.sha256(json.dumps(fingerprints).encode())
        .hexdigest())
    return section


def headline(section: dict) -> Dict[str, dict]:
    """Metric name -> {value, unit}, end-to-end then per-layer."""
    return {name: {"value": m["value"], "unit": m["unit"]}
            for part in ("end_to_end", "per_layer")
            for name, m in section[part].items()}


def print_section(name: str, section: dict) -> None:
    print(f"== {name}: {section['failed']} of {section['attempted']} "
          f"ops failed (fail_frac {section['fail_frac']:.3g})")
    for problem in section["problems"][:10]:
        print(f"   FAILED {problem}")
    for metric, m in section["end_to_end"].items():
        print(f"   {metric:34s} {m['value']:14.6g} {m['unit']:10s} "
              f"median {m['median']:.6g}  q1 {m['q1']:.6g}  "
              f"q3 {m['q3']:.6g}  n={m['n']}")
    for metric, m in section["per_layer"].items():
        print(f"   {metric:34s} {m['value']:14.6g} {m['unit']}")


def parse_args(argv: Optional[List[str]], spec: dict):
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(prog="bench/run.py",
                                     description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=names,
                        help="repeatable; default: every workload")
    parser.add_argument("--seed", type=int, default=BASELINE_SEED)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"],
                        help="time spent on timed reps per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics only; 1: per-layer "
                             "only; default: both")
    parser.add_argument("--out", default=str(OUT / "report.json"),
                        help="where to write the JSON report")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, to test the benchmark itself; "
                             "compare.py refuses the result")
    args = parser.parse_args(argv)
    args.workload = args.workload or names
    return args


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    args = parse_args(argv, spec)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"bench: no simulator source at {SRC}/repro; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    report = {"schema": SCHEMA, "smoke": args.smoke, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "env": environment(), "workloads": {}}
    try:
        for name in args.workload:
            section = run_workload(name, spec, args, workdir)
            report["workloads"][name] = section
            print_section(name, section)
    except BenchError as error:
        print(f"bench: {error}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=1)
    sections = report["workloads"]
    if len(sections) == 1:
        [section] = sections.values()
        metrics = headline(section)
    else:
        metrics = {f"{name}/{metric}": value
                   for name, section in sections.items()
                   for metric, value in headline(section).items()}
    attempted = sum(s["attempted"] for s in sections.values())
    failed = sum(s["failed"] for s in sections.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
