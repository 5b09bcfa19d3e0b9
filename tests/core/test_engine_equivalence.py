"""The subclass ticking hook of the cycle loop.

``run()`` jumps idle spans in O(1); a subclass pins per-cycle ticking
through ``needs_every_cycle()`` (the CDF pipeline does while its
dual-stream structures are live).  A probe that always asks for every
cycle must get exactly that, without changing the machine's results.
"""

from repro.config import SimConfig
from repro.core import BaselinePipeline
from repro.isa import assemble, execute


def small_trace():
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
    return execute(program, {4096: 5})


def assert_architecturally_identical(a, b):
    """Everything but the tick-set telemetry must match.

    Extra ticks land inside idle spans, so they cannot change machine
    state — but ``idle_skipped_cycles`` *describes the tick set* (a span
    the engine jumped counts its skipped cycles, a span it ticked
    through counts none), so it is the one counter extra ticks are
    allowed to shift.
    """
    assert a.cycles == b.cycles
    assert a.retired_uops == b.retired_uops
    ca = {k: v for k, v in a.counters.items() if k != "idle_skipped_cycles"}
    cb = {k: v for k, v in b.counters.items() if k != "idle_skipped_cycles"}
    assert ca == cb


class EveryCycleProbe(BaselinePipeline):
    """Asks for every cycle and records each ticked one."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.ticked = []

    def needs_every_cycle(self):
        return True

    def _next_cycle(self, cycle):
        self.ticked.append(cycle)
        return super()._next_cycle(cycle)


def test_needs_every_cycle_hook_ticks_every_cycle():
    plain = BaselinePipeline(small_trace(), SimConfig.baseline(),
                             benchmark="every-cycle")
    baseline_result = plain.run()
    assert baseline_result.counters["idle_skipped_cycles"] > 0, (
        "the plain run must jump idle spans for the probe to mean much")

    probe = EveryCycleProbe(small_trace(), SimConfig.baseline(),
                            benchmark="every-cycle")
    result = probe.run()

    assert_architecturally_identical(result, baseline_result)
    assert probe.ticked == list(range(probe.cycle)), (
        "a hook that says 'tick' must get every cycle ticked")
    assert result.counters["idle_skipped_cycles"] == 0
