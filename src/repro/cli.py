"""Command-line interface: run benchmarks and regenerate paper figures.

Installed as ``repro-sim`` (or ``python -m repro``):

    repro-sim list
    repro-sim run astar --mode cdf --scale 0.5
    repro-sim compare astar mcf --scale 0.5
    repro-sim figures --quick --check-baseline
    repro-sim figures --full --check-baseline --jobs 2
    repro-sim figures --full --fig fig13-cdf-uplift
    repro-sim figures --quick --out dashboard/
    repro-sim report --benchmark astar --mode cdf --output astar.md
    repro-sim trace --benchmark astar --mode cdf --out trace.json
    repro-sim cache stats
    repro-sim sweep --knob memory_speed
    repro-sim disasm bzip
    repro-sim lint [paths...] [--select IDS] [--sarif-out FILE]
    repro-sim lint --docs
    repro-sim verify --fuzz 50 --seed 0
    repro-sim verify --bench astar --scale 0.2

Simulation commands accept ``--jobs N`` (or ``REPRO_JOBS``) to fan out
across worker processes and ``--no-cache`` to bypass the persistent
result cache under ``REPRO_CACHE_DIR`` (see docs/harness.md). Engine
accounting (jobs run, cache hits, wall-clock) is printed to stderr so
figure text on stdout stays byte-identical across serial, parallel, and
warm-cache runs.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .config import SimConfig
from .harness import (
    Job,
    ResultCache,
    config_for_mode,
    configure,
    get_engine,
    load_workload,
)
from .harness.figures import QUICK_SCALE
from .harness.tables import render_table
from .workloads import DEFAULT_SEED, SUITE, suite_names


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sim",
        description="Criticality Driven Fetch (MICRO 2021) reproduction")
    sub = parser.add_subparsers(dest="command", required=True)

    # Engine options shared by every simulating subcommand.
    engine_opts = argparse.ArgumentParser(add_help=False)
    engine_opts.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes (default: $REPRO_JOBS or 1)")
    engine_opts.add_argument(
        "--no-cache", action="store_true",
        help="bypass the persistent result cache ($REPRO_CACHE_DIR)")

    sub.add_parser("list", help="list the benchmark suite")

    run = sub.add_parser("run", help="run one benchmark under one core",
                         parents=[engine_opts])
    run.add_argument("benchmark", choices=suite_names())
    run.add_argument("--mode", choices=("baseline", "cdf", "pre"),
                     default="cdf")
    run.add_argument("--scale", type=float, default=0.5)
    run.add_argument("--seed", type=int, default=DEFAULT_SEED)
    run.add_argument("--rob", type=int, default=None,
                     help="override ROB size (scales RS/LQ/SQ with it)")
    run.add_argument("--counters", action="store_true",
                     help="dump all event counters")

    compare = sub.add_parser("compare",
                             help="run benchmarks under all three cores",
                             parents=[engine_opts])
    compare.add_argument("benchmarks", nargs="+", choices=suite_names())
    compare.add_argument("--scale", type=float, default=0.5)
    compare.add_argument("--seed", type=int, default=DEFAULT_SEED)

    figures = sub.add_parser(
        "figures",
        help="run the paper-parity claim registry: every headline "
             "figure/table with a match/within-tolerance/diverged "
             "verdict (see docs/PAPER_VS_CODE.md)",
        parents=[engine_opts])
    profile = figures.add_mutually_exclusive_group()
    profile.add_argument(
        "--quick", action="store_true",
        help="CI profile: 6-kernel subset at scale 0.3 (default)")
    profile.add_argument(
        "--full", action="store_true",
        help="paper-faithful profile at scale 1.0, including the "
             "FULL-only claims")
    figures.add_argument(
        "--fig", action="append", default=None, metavar="ID",
        help="run one claim (repeatable); see --list for ids")
    figures.add_argument("--list", action="store_true",
                         help="list the claim registry and exit")
    figures.add_argument("--seed", type=int, default=DEFAULT_SEED)
    figures.add_argument(
        "--out", default=None, metavar="DIR",
        help="write the HTML dashboard into DIR")
    figures.add_argument(
        "--check-baseline", action="store_true",
        help="diff values/verdicts against the pinned baseline "
             "(benchmarks/figures_baseline.json, or "
             "benchmarks/figures_baseline_full.json with --full); any "
             "drift exits nonzero")
    figures.add_argument(
        "--write-baseline", action="store_true",
        help="re-pin the baseline from this run's values")
    figures.add_argument(
        "--sync-doc", action="store_true",
        help="regenerate the claim-map block in docs/PAPER_VS_CODE.md "
             "from the registry and exit (no simulations)")
    figures.add_argument(
        "--no-bench", action="store_true",
        help="skip appending this run to BENCH_figures.json")

    disasm = sub.add_parser("disasm", help="print a kernel's assembly")
    disasm.add_argument("benchmark", choices=suite_names())

    report = sub.add_parser(
        "report",
        help="render a single-run telemetry report (sparklines, stall "
             "anatomy, memory-latency attribution); see "
             "docs/observability.md",
        parents=[engine_opts])
    report.add_argument("--benchmark", choices=suite_names(),
                        required=True)
    report.add_argument("--scale", type=float, default=0.5)
    report.add_argument("--output", default=None,
                        help="write to a file instead of stdout")
    report.add_argument("--mode", choices=("baseline", "cdf", "pre"),
                        default="cdf", help="core to run (default cdf)")
    report.add_argument("--seed", type=int, default=DEFAULT_SEED)
    report.add_argument(
        "--no-baseline", action="store_true",
        help="skip the baseline comparison run")

    trace = sub.add_parser(
        "trace",
        help="run one benchmark with full telemetry and export a "
             "Chrome-trace JSON (chrome://tracing / Perfetto); see "
             "docs/observability.md")
    trace.add_argument("--benchmark", choices=suite_names(),
                       required=True)
    trace.add_argument("--mode", choices=("baseline", "cdf", "pre"),
                       default="cdf")
    trace.add_argument("--scale", type=float, default=0.5)
    trace.add_argument("--seed", type=int, default=DEFAULT_SEED)
    trace.add_argument("--out", default="trace.json", metavar="PATH",
                       help="output path (default trace.json)")

    cache = sub.add_parser(
        "cache",
        help="inspect or clear the persistent result + trace caches")
    cache.add_argument("action", choices=("stats", "clear"))

    sweep_cmd = sub.add_parser(
        "sweep",
        help="sweep one config knob across values and print each "
             "mode's geomean speedup over baseline",
        parents=[engine_opts])
    sweep_cmd.set_defaults(error=sweep_cmd.error)
    sweep_cmd.add_argument(
        "--knob", required=True, choices=sorted(sweep_knob_names()),
        help="config knob to sweep")
    sweep_cmd.add_argument(
        "--values", nargs="+", default=None, metavar="V",
        help="sweep values (default: a five-value grid for the knob)")
    sweep_cmd.add_argument(
        "--benchmarks", nargs="+", choices=suite_names(), default=None,
        metavar="NAME",
        help="kernels to run at each point (default: astar mcf lbm)")
    sweep_cmd.add_argument(
        "--modes", nargs="+", choices=("baseline", "cdf", "pre"),
        default=None, metavar="MODE",
        help="cores to run at each point; baseline plus at least one "
             "of cdf, pre (default: baseline cdf)")
    sweep_cmd.add_argument(
        "--scale", type=float, default=QUICK_SCALE,
        help=f"workload scale (default: {QUICK_SCALE}, the QUICK "
             "figure scale; smaller scales leave CDF untrained)")
    sweep_cmd.add_argument("--seed", type=int, default=DEFAULT_SEED)

    verify = sub.add_parser(
        "verify",
        help="run pipelines under the differential oracle and invariant "
             "checker (fuzz programs by default, --bench for suite "
             "kernels); see docs/verification.md")
    verify.add_argument(
        "--fuzz", type=int, default=20, metavar="N",
        help="number of fuzz cases; case i uses seed SEED+i (default 20)")
    verify.add_argument(
        "--seed", type=int, default=0,
        help="base fuzz seed; replay one failure with --fuzz 1 --seed S")
    verify.add_argument(
        "--modes", nargs="+", choices=("baseline", "cdf", "pre"),
        default=None, metavar="MODE",
        help="pipelines to verify (default: all three)")
    verify.add_argument(
        "--level", type=int, choices=(1, 2, 3), default=2,
        help="verify_level: 1 events+oracle, 2 +cycle sweeps/periodic "
             "scans (default), 3 scans every cycle")
    verify.add_argument(
        "--bench", choices=suite_names(), default=None,
        help="verify a suite kernel instead of fuzz programs")
    verify.add_argument("--scale", type=float, default=0.2,
                        help="workload scale with --bench (default 0.2)")

    # The lint subcommand owns its argument parsing (see
    # repro.analysis.runner); main() dispatches to it before the parse
    # below, so this stub only exists for `repro-sim --help` and for the
    # unknown-command error message.
    lint = sub.add_parser(
        "lint", add_help=False,
        help="run simlint (determinism/config/counter static analysis)")
    lint.add_argument("rest", nargs=argparse.REMAINDER)

    # `perf` was a second timing harness, replaced by bench/. The name
    # stays, with no options, while bench/README.md still mentions it,
    # so an old script is told where the benchmark went.
    perf = sub.add_parser("perf", help="removed; see bench/README.md")
    perf.set_defaults(error=perf.error)

    return parser


def _make_config(args) -> SimConfig:
    config = config_for_mode(args.mode)
    if args.rob is not None:
        config.core = config.core.scaled(args.rob)
    return config


def cmd_list(_args) -> int:
    rows = []
    for name in suite_names():
        workload = SUITE[name](scale=0.02)
        rows.append((name, workload.description))
    print(render_table("benchmark suite (memory-intensive SPEC-like "
                       "kernels)", ("name", "behaviour"), rows))
    return 0


def cmd_run(args) -> int:
    config = _make_config(args)
    [result] = get_engine().run([
        Job(args.benchmark, args.mode, scale=args.scale, seed=args.seed,
            config=config)])
    print(result.summary())
    print(f"  energy: {result.energy_nj / 1000:.1f} uJ   "
          f"stall cycles: {result.full_window_stall_cycles}")
    if args.mode == "cdf":
        counters = result.counters
        print(f"  cdf: {counters['cdf_mode_entries']} entries, "
              f"{counters['cdf_mode_cycles']} mode cycles, "
              f"{counters['crit_fetch_uops']} critical fetches, "
              f"{counters['dependence_violations']} violations")
    if args.mode == "pre":
        counters = result.counters
        print(f"  pre: {counters['runahead_intervals']} intervals, "
              f"{counters['runahead_prefetches']} prefetches, "
              f"{counters['runahead_wrong_address']} wrong addresses")
    if args.counters:
        for key in sorted(result.counters):
            print(f"  {key:44s} {result.counters[key]}")
    return 0


def cmd_compare(args) -> int:
    from .harness import run_comparison
    by_name = run_comparison(args.benchmarks, scale=args.scale,
                             seed=args.seed)
    for name in args.benchmarks:
        results = by_name[name]
        base = results["baseline"]
        rows = [(mode, f"{r.ipc:.3f}", f"{r.speedup_over(base):.3f}x",
                 f"{r.mlp:.2f}", r.total_traffic,
                 f"{r.energy_nj / 1000:.1f} uJ")
                for mode, r in results.items()]
        print(render_table(name, ("core", "IPC", "speedup", "MLP",
                                  "DRAM xfers", "energy"), rows))
        print()
    return 0


def cmd_figures(args) -> int:
    from .harness import figures as figmod

    if args.list:
        print(figmod.describe_registry())
        return 0
    if args.sync_doc:
        changed = figmod.sync_claim_map()
        state = "updated" if changed else "already in sync"
        print(f"{figmod.DEFAULT_CLAIM_DOC}: claim map {state}")
        return 0

    mode = "full" if args.full else "quick"
    baseline_path = figmod.default_baseline(mode)
    full_only = figmod.full_only_ids()
    if mode == "quick" and args.fig:
        asked = [fig_id for fig_id in args.fig if fig_id in full_only]
        if asked:
            print(f"{', '.join(asked)}: FULL-only claim(s) with no quick "
                  "profile; run with --full", file=sys.stderr)
            return 2

    def progress(line):
        print(f"... {line}", file=sys.stderr)

    results = figmod.run_figures(mode, fig_ids=args.fig,
                                 seed=args.seed, progress=progress)
    print(figmod.format_figures(results, mode))
    if mode == "quick" and not args.fig and full_only:
        print(f"... {len(full_only)} FULL-only claims not run (see "
              "--list; run them with --full)", file=sys.stderr)
    record = figmod.bench_record(results, mode, seed=args.seed)

    partial = bool(args.fig)
    history = figmod.load_history()
    if not partial and not args.no_bench:
        history = figmod.append_history(record)
        print(f"run appended to {figmod.DEFAULT_BENCH_REPORT} "
              f"({len(history)} records)")

    if args.out:
        from .harness.figdash import write_dashboard
        path = write_dashboard(results, args.out, history=history,
                               mode=mode)
        print(f"dashboard written to {path}")

    failures = 0
    if args.write_baseline:
        if partial:
            print("--write-baseline needs a whole-registry run (pinned "
                  "values cover every claim)", file=sys.stderr)
            return 2
        figmod.write_baseline(record, baseline_path)
        print(f"baseline pinned to {baseline_path}")
    elif args.check_baseline:
        baseline = figmod.load_baseline(baseline_path)
        if baseline is None:
            print(f"no baseline at {baseline_path} (pin one with "
                  "--write-baseline)", file=sys.stderr)
            return 2
        if partial:
            # A subset run checks only the claims it ran.
            baseline = dict(baseline)
            baseline["claims"] = {
                fig_id: claim
                for fig_id, claim in baseline.get("claims", {}).items()
                if fig_id in record["claims"]}
        drifts = figmod.check_baseline(record, baseline)
        for drift in drifts:
            print(f"FIGURES DRIFT {drift}")
        if not drifts:
            print(f"all claims match the pinned baseline "
                  f"({baseline_path})")
        failures = len(drifts)

    diverged = figmod.summarize(results)[figmod.DIVERGED]
    if diverged:
        print(f"{diverged} claim(s) diverged from the paper",
              file=sys.stderr)
    return 1 if (failures or diverged) else 0


#: The run report reads only level-1 telemetry (gauge samples and
#: memory-latency aggregates); the Chrome trace needs level 2's per-uop
#: and memory-request slices.
REPORT_OBS_LEVEL = 1
TRACE_OBS_LEVEL = 2


def cmd_report(args) -> int:
    """Render a one-run telemetry report (``report --benchmark X``).

    Runs bypass the engine/result cache: an obs run must actually
    execute to collect its telemetry payload, and caching obs payloads
    for ad-hoc report invocations would bloat the result cache.
    """
    from .harness import run_benchmark
    from .obs import render_run_report

    print(f"... {args.benchmark} [{args.mode}] scale={args.scale} "
          f"obs_level={REPORT_OBS_LEVEL}", file=sys.stderr)
    result = run_benchmark(args.benchmark, args.mode, scale=args.scale,
                           seed=args.seed, obs_level=REPORT_OBS_LEVEL)
    baseline = None
    if args.mode != "baseline" and not args.no_baseline:
        print(f"... {args.benchmark} [baseline] scale={args.scale} "
              "(comparison run)", file=sys.stderr)
        baseline = run_benchmark(args.benchmark, "baseline",
                                 scale=args.scale, seed=args.seed)
    text = render_run_report(
        result, baseline=baseline,
        provenance=_provenance(args.benchmark, args.mode, args.scale,
                               args.seed, obs_level=REPORT_OBS_LEVEL))
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text + "\n")
        print(f"report written to {args.output}")
    else:
        print(text)
    return 0


def _provenance(benchmark: str, mode: str, scale: float,
                seed: int, **config_overrides) -> dict:
    """Attribution block for rendered artifacts (reports, traces): the
    config fingerprint plus the code-version salt pin a snapshot to an
    exact simulated configuration and tree state."""
    from .harness import code_salt
    config = config_for_mode(mode, **config_overrides)
    return {
        "benchmark": benchmark,
        "mode": mode,
        "scale": scale,
        "seed": seed,
        "config": config.fingerprint(),
        "code": code_salt(),
    }


def cmd_trace(args) -> int:
    from .harness import run_benchmark
    from .obs import write_chrome_trace

    print(f"... {args.benchmark} [{args.mode}] scale={args.scale} "
          f"obs_level={TRACE_OBS_LEVEL}", file=sys.stderr)
    result = run_benchmark(args.benchmark, args.mode, scale=args.scale,
                           seed=args.seed, obs_level=TRACE_OBS_LEVEL)
    trace = write_chrome_trace(
        result.obs, args.out,
        label=f"{args.benchmark}/{args.mode}",
        provenance=_provenance(args.benchmark, args.mode, args.scale,
                               args.seed, obs_level=TRACE_OBS_LEVEL))
    print(f"{len(trace['traceEvents'])} trace events written to "
          f"{args.out} (open in chrome://tracing or "
          f"https://ui.perfetto.dev)")
    return 0


def cmd_disasm(args) -> int:
    workload = load_workload(args.benchmark, 0.02)
    print(f"; {workload.name}: {workload.description}")
    print(workload.program.disassemble())
    return 0


def cmd_cache(args) -> int:
    from .harness import get_trace_store
    cache = ResultCache()
    store = get_trace_store()
    if args.action == "stats":
        stats = cache.stats()
        print(render_table(
            "result cache",
            ("property", "value"),
            [("directory", stats["root"]),
             ("entries", stats["entries"]),
             ("size", f"{stats['bytes'] / 1024:.1f} KiB")]))
        tstats = store.stats()
        print(render_table(
            "trace cache",
            ("property", "value"),
            [("directory", tstats["root"]),
             ("entries", tstats["entries"]),
             ("size", f"{tstats['bytes'] / 1024:.1f} KiB"),
             ("program entries", tstats["programs"]),
             ("program size", f"{tstats['program_bytes'] / 1024:.1f} KiB")]))
        return 0
    removed = cache.clear()
    print(f"removed {removed} cached result"
          f"{'s' if removed != 1 else ''} from {cache.root}")
    removed_traces = store.clear()
    print(f"removed {removed_traces} compiled trace"
          f"{'s' if removed_traces != 1 else ''} from {store.root}")
    return 0


def sweep_knob_names() -> List[str]:
    from .harness.sweep import KNOBS
    return list(KNOBS)


def _parse_sweep_value(text: str):
    """Sweep values arrive as strings; knobs want int or float."""
    try:
        return int(text)
    except ValueError:
        return float(text)


def cmd_sweep(args) -> int:
    from .harness.sweep import (
        DEFAULT_MODES,
        DEFAULT_NAMES,
        DEFAULT_VALUES,
        KNOBS,
        geomean_speedups,
        sweep,
    )
    from .memory import MemoryHierarchy

    knob = KNOBS[args.knob]
    values = ([_parse_sweep_value(value) for value in args.values]
              if args.values else list(DEFAULT_VALUES[args.knob]))
    names = tuple(args.benchmarks or DEFAULT_NAMES)
    modes = tuple(args.modes or DEFAULT_MODES)
    over = [mode for mode in modes if mode != "baseline"]
    if "baseline" not in modes:
        args.error(f"--modes {' '.join(modes)}: speedups are over "
                   "baseline, so baseline must be one of the modes")
    if not over:
        args.error("--modes baseline: nothing to compare; add cdf or pre")
    # The memory models own the rules for a legal config; build each
    # point's hierarchy once so a bad value fails before any job runs.
    for value in values:
        try:
            MemoryHierarchy(knob(config_for_mode("baseline"), value))
        except (TypeError, ValueError, OverflowError) as error:
            args.error(f"--knob {args.knob} cannot take value "
                       f"{value!r}: {error}")

    results = sweep(knob, values, names, modes=modes, scale=args.scale,
                    seed=args.seed)
    speedups = geomean_speedups(results)
    rows = [(repr(value),
             *(f"{speedups[value][mode]:.3f}x" for mode in over))
            for value in values]
    print(render_table(f"sweep: {args.knob} ({len(values)} values, "
                       f"geomean speedup over baseline)",
                       ("value", *over), rows))
    return 0


def cmd_perf(args) -> int:
    args.error("removed; time the simulator with `python3 bench/run.py` "
               "(see bench/README.md)")
    return 2


def cmd_verify(args) -> int:
    from .verify import MODES, VerificationError, run_fuzz_campaign

    modes = tuple(args.modes) if args.modes else MODES

    def progress(line: str) -> None:
        print(f"... {line}", file=sys.stderr)

    if args.bench:
        # Suite kernel under full verification: run_benchmark attaches
        # the oracle + checker via config.verify_level (bypassing the
        # engine/result cache — a verification run must actually run).
        # A run that returns had the oracle check every trace uop, the
        # warm-up included: it raises unless all of them retired.
        from .harness import load_workload, run_benchmark
        checked = len(load_workload(args.bench, args.scale).trace())
        for mode in modes:
            config = config_for_mode(mode)
            config.verify_level = args.level
            progress(f"{args.bench} [{mode}] scale={args.scale} "
                     f"level={args.level}")
            try:
                result = run_benchmark(args.bench, mode,
                                       scale=args.scale, config=config)
            except VerificationError as err:
                print(err)
                return 1
            print(f"{args.bench} [{mode}]: ok — {checked} retired uops "
                  f"cross-checked, IPC {result.ipc:.3f}")
        return 0

    report = run_fuzz_campaign(args.fuzz, seed=args.seed, modes=modes,
                               verify_level=args.level, progress=progress)
    print(report.summary())
    return 0 if report.passed else 1


#: Subcommands that simulate (and therefore configure/report the engine).
_SIMULATING = ("run", "compare", "figures", "report", "sweep")


def main(argv: Optional[List[str]] = None) -> int:
    raw = list(sys.argv[1:] if argv is None else argv)
    if raw and raw[0] == "lint":
        if "--docs" in raw[1:]:
            # The docs checker (links, CLI examples, module paths)
            # lives in the harness layer; see docs/analysis.md.
            from .harness.docscheck import main as docs_main
            rest = [arg for arg in raw[1:] if arg != "--docs"]
            return docs_main(rest)
        # simlint has its own option surface; hand it the rest verbatim.
        from .analysis import main as lint_main
        return lint_main(raw[1:])
    args = build_parser().parse_args(raw)
    if args.command in _SIMULATING:
        # Rebuild the default engine from the environment plus any
        # --jobs/--no-cache overrides; stats start at zero so the
        # summary below covers exactly this invocation.
        configure(jobs=args.jobs, use_cache=not args.no_cache)
    handlers = {
        "list": cmd_list,
        "run": cmd_run,
        "compare": cmd_compare,
        "figures": cmd_figures,
        "disasm": cmd_disasm,
        "report": cmd_report,
        "trace": cmd_trace,
        "cache": cmd_cache,
        "sweep": cmd_sweep,
        "verify": cmd_verify,
        "perf": cmd_perf,
    }
    code = handlers[args.command](args)
    if args.command in _SIMULATING:
        # stderr, so stdout figure text stays byte-identical across
        # serial / parallel / warm-cache runs.
        print(get_engine().summary(), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
