"""Unit tests for the pipeline timeline renderer."""

from repro.cdf import CDFPipeline
from repro.config import SimConfig
from repro.core import BaselinePipeline
from repro.harness import load_workload
from repro.harness.timeline import first_seq_at_pc, render_timeline
from repro.isa import assemble, execute
from repro.obs.events import group_uop_events


def small_run(pipeline_cls=BaselinePipeline, **kwargs):
    program = assemble("""
        movi r1, 12
        movi r2, 4096
    loop:
        load r3, [r2]
        add r4, r4, r3
        sub r1, r1, 1
        bnez r1, loop
        halt
    """)
    trace = execute(program)
    if pipeline_cls is BaselinePipeline:
        pipeline = pipeline_cls(trace, SimConfig.baseline())
    else:
        pipeline = pipeline_cls(trace, SimConfig.with_cdf(), program)
    pipeline.event_log = []
    pipeline.run()
    return pipeline, trace


def test_event_log_records_full_lifecycle():
    pipeline, trace = small_run()
    kinds_for_uop = {kind for cycle, kind, seq in pipeline.event_log
                     if seq == 5}
    assert {"F", "D", "I", "C", "R"} <= kinds_for_uop


def test_event_log_off_by_default():
    program = assemble("movi r1, 1\nhalt")
    pipeline = BaselinePipeline(execute(program), SimConfig.baseline())
    pipeline.run()
    assert pipeline.event_log is None


def test_group_uop_events_filters_range():
    pipeline, trace = small_run()
    grouped = group_uop_events(pipeline.event_log, 2, 5)
    assert set(grouped) <= {2, 3, 4, 5}
    assert grouped


def test_render_contains_rows_and_legend():
    pipeline, trace = small_run()
    text = render_timeline(pipeline.event_log, trace, 2, 9)
    assert "legend:" in text
    assert "#2" in text and "#9" in text
    assert "LD" in text
    # Every row fits the frame.
    lines = [line for line in text.splitlines() if line.startswith("#")]
    assert len(lines) == 8
    assert len({line.index("|") for line in lines}) == 1


def test_render_empty_range_is_graceful():
    pipeline, trace = small_run()
    assert "no events" in render_timeline(pipeline.event_log, trace,
                                          10**6, 10**6 + 3)


def test_time_compression_for_wide_windows():
    pipeline, trace = small_run()
    text = render_timeline(pipeline.event_log, trace, 0,
                           len(trace) - 1, max_width=20)
    assert "1 column =" in text


def test_first_seq_at_pc():
    _, trace = small_run()
    first = first_seq_at_pc(trace, 2, occurrence=0)
    second = first_seq_at_pc(trace, 2, occurrence=1)
    assert trace[first].pc == 2
    assert second > first
    assert first_seq_at_pc(trace, 2, occurrence=10**6) is None


def test_cdf_events_appear_in_cdf_runs():
    workload = load_workload("milc", 0.4)
    trace = workload.trace()
    pipeline = CDFPipeline(trace, SimConfig.with_cdf(), workload.program)
    pipeline.event_log = []
    pipeline.run()
    kinds = {kind for _, kind, _ in pipeline.event_log}
    assert {"f", "d", "p", "R"} <= kinds
