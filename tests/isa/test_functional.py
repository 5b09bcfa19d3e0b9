"""Unit tests for the functional simulator and dynamic trace generation."""

import gc

import pytest

from repro.isa import (
    DynUop,
    ExecutionLimitExceeded,
    FunctionalMachine,
    Opcode,
    ProgramBuilder,
    assemble,
    execute,
    to_signed,
    trace_summary,
)


def run_regs(text, memory=None):
    machine = FunctionalMachine(assemble(text), memory)
    steps = 0
    while not machine.halted:
        machine.step()
        steps += 1
        assert steps < 100_000
    return machine


def test_alu_semantics():
    m = run_regs("""
        movi r1, 7
        movi r2, 3
        add r3, r1, r2
        sub r4, r1, r2
        mul r5, r1, r2
        div r6, r1, r2
        mod r7, r1, r2
        and r8, r1, r2
        or r9, r1, r2
        xor r10, r1, r2
        shl r11, r1, 2
        shr r12, r1, 1
        cmplt r13, r2, r1
        cmpeq r14, r1, r1
        halt
    """)
    assert m.regs[3] == 10
    assert m.regs[4] == 4
    assert m.regs[5] == 21
    assert m.regs[6] == 2
    assert m.regs[7] == 1
    assert m.regs[8] == 3
    assert m.regs[9] == 7
    assert m.regs[10] == 4
    assert m.regs[11] == 28
    assert m.regs[12] == 3
    assert m.regs[13] == 1
    assert m.regs[14] == 1


def test_division_by_zero_yields_zero():
    m = run_regs("""
        movi r1, 5
        movi r2, 0
        div r3, r1, r2
        mod r4, r1, r2
        halt
    """)
    assert m.regs[3] == 0
    assert m.regs[4] == 0


def test_negative_values_wrap_and_compare_signed():
    m = run_regs("""
        movi r1, 0
        sub r1, r1, 1
        cmplt r2, r1, r3
        halt
    """)
    assert to_signed(m.regs[1]) == -1
    assert m.regs[2] == 1  # -1 < 0


def test_memory_roundtrip():
    m = run_regs("""
        movi r1, 4096
        movi r2, 99
        store r2, [r1 + 8]
        load r3, [r1 + 8]
        halt
    """)
    assert m.regs[3] == 99


def test_uninitialised_memory_reads_zero():
    m = run_regs("""
        movi r1, 123456
        load r2, [r1]
        halt
    """)
    assert m.regs[2] == 0


def test_branches_taken_and_not_taken():
    m = run_regs("""
        movi r1, 2
    loop:
        sub r1, r1, 1
        bnez r1, loop
        movi r2, 77
        halt
    """)
    assert m.regs[2] == 77
    assert m.regs[1] == 0


def test_call_and_ret():
    m = run_regs("""
        call fn
        movi r2, 5
        halt
    fn:
        movi r1, 9
        ret
    """)
    assert m.regs[1] == 9
    assert m.regs[2] == 5


def test_ret_with_empty_stack_raises():
    machine = FunctionalMachine(assemble("ret\nhalt"))
    # RET needs a target validated lazily at execution time.
    with pytest.raises(RuntimeError, match="empty return stack"):
        machine.step()


def test_trace_dataflow_edges():
    trace = execute(assemble("""
        movi r1, 1
        movi r2, 2
        add r3, r1, r2
        add r4, r3, r3
        halt
    """))
    assert trace[2].src_deps == (0, 1)
    assert trace[3].src_deps == (2,)   # duplicates collapsed
    assert trace[0].src_deps == ()


def test_trace_store_to_load_forwarding_edge():
    trace = execute(assemble("""
        movi r1, 1024
        movi r2, 5
        store r2, [r1]
        load r3, [r1]
        load r4, [r1 + 8]
        halt
    """))
    load_same = trace[3]
    load_other = trace[4]
    assert load_same.store_dep == 2
    assert load_other.store_dep == -1


def test_trace_branch_outcomes():
    trace = execute(assemble("""
        movi r1, 2
    loop:
        sub r1, r1, 1
        bnez r1, loop
        halt
    """))
    branches = [u for u in trace if u.is_cond_branch]
    assert [b.taken for b in branches] == [True, False]
    assert branches[0].next_pc == 1
    assert branches[1].next_pc == 3


def test_trace_sequence_numbers_are_program_order():
    trace = execute(assemble("""
        movi r1, 3
    loop:
        sub r1, r1, 1
        bnez r1, loop
        halt
    """))
    assert [u.seq for u in trace] == list(range(len(trace)))
    for u in trace:
        for dep in u.src_deps:
            assert dep < u.seq


def test_execution_limit():
    with pytest.raises(ExecutionLimitExceeded):
        execute(assemble("""
        loop:
            jmp loop
        """), max_uops=100)


def test_execution_limit_truncates_when_allowed():
    trace = execute(assemble("""
    loop:
        jmp loop
    """), max_uops=10, require_halt=False)
    assert len(trace) == 10


def test_trace_summary_counts():
    trace = execute(assemble("""
        movi r1, 1000
        load r2, [r1]
        store r2, [r1 + 8]
        beqz r2, 4
        halt
    """))
    summary = trace_summary(trace)
    assert summary["loads"] == 1
    assert summary["stores"] == 1
    assert summary["cond_branches"] == 1
    assert summary["uops"] == len(trace)


def test_initial_memory_not_mutated_by_caller_dict():
    mem = {64: 5}
    machine = FunctionalMachine(assemble("""
        movi r1, 64
        movi r2, 9
        store r2, [r1]
        halt
    """), mem)
    while not machine.halted:
        machine.step()
    assert mem[64] == 5          # caller's dict untouched
    assert machine.memory[64] == 9


class _GCProbeUop(DynUop):
    """Records whether the cyclic collector was on when each uop was
    built."""

    seen = []

    def __init__(self, *args, **kwargs):
        _GCProbeUop.seen.append(gc.isenabled())
        super().__init__(*args, **kwargs)


@pytest.mark.parametrize("enabled", [True, False])
def test_execute_pauses_gc_and_restores_its_state(monkeypatch, enabled):
    """Functional execution builds its trace with the collector paused,
    and leaves it on or off as it found it, also when it raises."""
    program = assemble("""
        movi r1, 5
    loop:
        sub r1, r1, 1
        bnez r1, loop
        halt
    """)
    monkeypatch.setattr("repro.isa.functional.DynUop", _GCProbeUop)
    monkeypatch.setattr(_GCProbeUop, "seen", [])
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        trace = execute(program)
        assert gc.isenabled() is enabled
        with pytest.raises(ExecutionLimitExceeded):
            execute(program, max_uops=3)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert len(_GCProbeUop.seen) == len(trace) + 3
    assert not any(_GCProbeUop.seen)
