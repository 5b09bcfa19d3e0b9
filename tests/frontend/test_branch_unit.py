"""Unit tests for the combined BranchUnit."""

from repro.frontend import BranchUnit
from repro.isa import Opcode, assemble, execute


def trace_of(text):
    return execute(assemble(text))


def test_conditional_branch_training_and_mispredicts():
    unit = BranchUnit()
    trace = trace_of("""
        movi r1, 20
    loop:
        sub r1, r1, 1
        bnez r1, loop
        halt
    """)
    branches = [u for u in trace if u.is_cond_branch]
    outcomes = [unit.predict_and_train(u) for u in branches]
    # The last branch (loop exit) is the classic one-off mispredict.
    assert outcomes[-1].mispredicted
    # Steady-state loop back-edges become correctly predicted.
    mid = outcomes[5:-1]
    assert all(not o.mispredicted for o in mid)


def test_btb_miss_on_first_taken_branch_only():
    unit = BranchUnit()
    trace = trace_of("""
        movi r1, 5
    loop:
        sub r1, r1, 1
        bnez r1, loop
        halt
    """)
    taken = [u for u in trace if u.is_cond_branch and u.taken]
    outcomes = [unit.predict_and_train(u) for u in taken]
    assert outcomes[0].btb_miss
    assert all(not o.btb_miss for o in outcomes[1:])


def test_call_ret_roundtrip_predicted_by_ras():
    unit = BranchUnit()
    trace = trace_of("""
        call fn
        call fn
        halt
    fn:
        ret
    """)
    rets = [u for u in trace if u.op == Opcode.RET]
    calls = [u for u in trace if u.op == Opcode.CALL]
    assert len(rets) == 2 and len(calls) == 2
    mispredicted = []
    for uop in trace:
        if uop.is_branch:
            mispredicted.append(unit.predict_and_train(uop).mispredicted)
    # RAS predicts both returns correctly.
    assert mispredicted.count(True) == 0


def test_jmp_never_mispredicts_direction():
    unit = BranchUnit()
    trace = trace_of("""
        jmp over
        nop
    over:
        halt
    """)
    jmp = next(u for u in trace if u.op == Opcode.JMP)
    outcome = unit.predict_and_train(jmp)
    assert not outcome.mispredicted
    assert outcome.btb_miss        # first sighting
