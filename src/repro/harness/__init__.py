"""Experiment harness: runners, the parallel experiment engine, sweeps,
and the paper-parity claim registry with its studies. See
docs/harness.md for the engine guide."""

from .runner import (
    MODES,
    config_for_mode,
    load_workload,
    make_pipeline,
    rob_stall_profile,
    run_benchmark,
    run_comparison,
    speedups,
)

__all__ = [
    "MODES",
    "config_for_mode",
    "load_workload",
    "make_pipeline",
    "rob_stall_profile",
    "run_benchmark",
    "run_comparison",
    "speedups",
]

from .engine import (  # noqa: E402
    Engine,
    EngineStats,
    Job,
    PoisonJobError,
    ResultCache,
    code_salt,
    configure,
    default_cache_dir,
    default_jobs,
    get_engine,
)

__all__ += [
    "Engine",
    "EngineStats",
    "Job",
    "PoisonJobError",
    "ResultCache",
    "code_salt",
    "configure",
    "default_cache_dir",
    "default_jobs",
    "get_engine",
]

from .tracestore import (  # noqa: E402
    TraceStore,
    get_trace_store,
    reset_trace_store,
    trace_salt,
)

__all__ += [
    "TraceStore",
    "get_trace_store",
    "reset_trace_store",
    "trace_salt",
]

from .experiments import (  # noqa: E402
    fig01_rob_distribution,
    fig17_scaling,
    get_comparison,
)
from .tables import percent, render_table  # noqa: E402

__all__ += [
    "fig01_rob_distribution",
    "fig17_scaling",
    "get_comparison",
    "percent",
    "render_table",
]

from .sweep import (  # noqa: E402
    geomean_speedups,
    llc_size_knob,
    memory_speed_knob,
    mshr_knob,
    sweep,
)

__all__ += [
    "geomean_speedups",
    "llc_size_knob",
    "memory_speed_knob",
    "mshr_knob",
    "sweep",
]

from .figures import (  # noqa: E402
    REGISTRY,
    ClaimResult,
    FigureSpec,
    append_history,
    bench_record,
    check_baseline,
    describe_registry,
    format_figures,
    load_baseline,
    load_history,
    render_claim_map,
    run_claim,
    run_figures,
    sync_claim_map,
    write_baseline,
)
from .figdash import render_dashboard, write_dashboard  # noqa: E402
from .docscheck import check_docs  # noqa: E402

__all__ += [
    "REGISTRY",
    "ClaimResult",
    "FigureSpec",
    "append_history",
    "bench_record",
    "check_baseline",
    "check_docs",
    "describe_registry",
    "format_figures",
    "load_baseline",
    "load_history",
    "render_claim_map",
    "render_dashboard",
    "run_claim",
    "run_figures",
    "sync_claim_map",
    "write_baseline",
    "write_dashboard",
]

from .timeline import first_seq_at_pc, render_timeline  # noqa: E402

__all__ += ["first_seq_at_pc", "render_timeline"]
