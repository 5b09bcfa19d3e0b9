"""The stack sampler charges time to the right layer, cheaply."""

import time

from conftest import ROOT, run_bench
from tracing import LAYERS, StackSampler, layer_of


def test_layer_of_maps_files_to_arch001_layers():
    assert layer_of("isa/traceio.py") == "isa.traceio"
    assert layer_of("isa/functional.py") == "isa"
    assert layer_of("frontend/bpred/tage.py") == "frontend"
    assert layer_of("harness/engine.py") == "harness.engine"
    assert layer_of("harness/service.py") == "other"
    assert layer_of("config.py") == "other"
    assert set(map(layer_of, ("cli.py", "core/pipeline.py"))) <= set(LAYERS)


def test_a_decode_loop_is_charged_to_traceio():
    from repro.isa.traceio import dumps_trace, loads_trace
    from repro.workloads import get_workload
    data = dumps_trace(get_workload("astar", scale=0.05).trace())
    loads_trace(data)                # imports what decoding needs
    with StackSampler(str(ROOT / "src" / "repro")) as sampler:
        end = time.perf_counter() + 1.0
        while time.perf_counter() < end:
            loads_trace(data)
    assert sum(sampler.counts.values()) > 200
    assert sampler.shares()["isa.traceio"] >= 0.8


def test_tracing_adds_under_a_tenth_to_quick_sweep(tmp_path):
    result, _ = run_bench(tmp_path, "--workload", "quick_sweep",
                          "--trace", "1")
    assert result["metrics"]["trace.overhead_frac"]["value"] < 0.10
