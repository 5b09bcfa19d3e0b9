"""The guards of CDFPipeline's quiet-span skip, on a hand-built state.

The equivalence tests compare whole runs against per-cycle ticking, but
some guards cover corners no program tried so far reaches.  Here a CDF
pipeline is parked by hand: in CDF mode, both fetch streams idle, both
rename queues empty, one completion event due at ``WAKEUP``.  Each test
adds one thing and checks whether the scheduler ticks or skips.
"""

from repro.cdf import CDFPipeline
from repro.cdf.cdf_pipeline import CRIT_FETCH_BUFFER_CAP
from repro.config import SimConfig
from repro.core.rob import COMPLETE, RobEntry
from repro.isa import assemble, execute

WAKEUP = 100
CYCLE = 10
SPAN = WAKEUP - (CYCLE + 1)


def parked():
    program = assemble("""
        movi r1, 40
        movi r2, 4096
    loop:
        load r3, [r2]
        add  r4, r3, 1
        store r4, [r2 + 8]
        sub  r1, r1, 1
        bnez r1, loop
        halt
    """)
    trace = execute(program, {4096: 5})
    pipeline = CDFPipeline(trace, SimConfig.with_cdf(), program)
    pipeline.cdf_mode = True
    pipeline.crit_stopped = True
    pipeline.crit_stop_seq = len(trace)
    pipeline.fetch_blocked_on = 0
    pipeline.events = [(WAKEUP, 0, None)]
    return pipeline


def test_parked_pipeline_skips_to_the_wakeup():
    pipeline = parked()
    assert pipeline._next_cycle(CYCLE) == WAKEUP
    assert pipeline.counters["cdf_mode_cycles"] == SPAN
    assert pipeline.counters["idle_skipped_cycles"] == SPAN


def test_rename_stall_window_ticks():
    """``_dispatch`` does nothing inside the window, so a skip would
    charge stall cycles per-cycle execution never charges."""
    pipeline = parked()
    pipeline._rename_stall_until = CYCLE + 2
    assert pipeline._next_cycle(CYCLE) == CYCLE + 1


def test_completed_critical_head_ticks_once_replayed():
    """A replay can free a completed critical head with no event due."""
    for frontier, expected in ((0, WAKEUP), (1, CYCLE + 1)):
        pipeline = parked()
        head = RobEntry(pipeline.trace[0], critical=True)
        head.state = COMPLETE
        pipeline.rob_crit.append(head)
        pipeline.replay_frontier = frontier
        assert pipeline._next_cycle(CYCLE) == expected


def test_blocked_rename_ticks_once_an_imbalance_reaches_the_threshold():
    """A blocked rename calls rebalance_all every cycle."""
    threshold = SimConfig.with_cdf().cdf.stall_cycle_threshold
    for imbalance, expected, charged in ((threshold - 1, WAKEUP, SPAN),
                                         (threshold, CYCLE + 1, 0)):
        pipeline = parked()
        uop = pipeline.trace[0]
        pipeline.frontend_q.append((0, uop))
        pipeline.critically_fetched.add(uop.seq)   # its replay waits on CMQ
        pipeline.partitions.lq.noncritical_stall_cycles = imbalance
        assert pipeline._next_cycle(CYCLE) == expected
        assert pipeline.counters["dispatch_stall_cmq_wait_cycles"] == charged


def test_stalled_critical_fetch_rereads_its_trace_every_skipped_cycle():
    pipeline = parked()
    uop = pipeline.trace[0]
    bb = pipeline.bb_start[uop.pc]
    cache = pipeline.uop_cache
    entry = cache.fill(bb, 1 << (uop.pc - bb), False, valid_from=0)
    pipeline.crit_stopped = False
    pipeline.crit_seq = 0
    pipeline.crit_fetch_buffer.extend(
        (WAKEUP, uop) for _ in range(CRIT_FETCH_BUFFER_CAP))
    lookups, hits, clock = cache.lookups, cache.hits, cache._clock

    assert pipeline._next_cycle(CYCLE) == WAKEUP
    assert pipeline.counters["uop_cache_reads"] == SPAN
    assert (cache.lookups, cache.hits) == (lookups + SPAN, hits + SPAN)
    assert entry.lru == cache._clock == clock + SPAN
