"""Unit tests for Program construction and basic-block analysis."""

import json

import pytest

from repro.isa import (Instruction, Opcode, Program, ProgramBuilder,
                       assemble)


def _simple_loop() -> Program:
    b = ProgramBuilder()
    b.movi(1, 4)                  # 0
    b.label("loop")
    b.add(2, 2, imm=1)            # 1
    b.sub(1, 1, imm=1)            # 2
    b.bnez(1, "loop")             # 3
    b.store(2, 1)                 # 4
    b.halt()                      # 5
    return b.build()


def test_empty_program_rejected():
    with pytest.raises(ValueError):
        Program([])


def test_out_of_range_target_rejected():
    with pytest.raises(ValueError):
        Program([Instruction(op=Opcode.JMP, target=99)])


def test_out_of_range_label_rejected():
    with pytest.raises(ValueError):
        Program([Instruction(op=Opcode.NOP)], labels={"x": 5})


def test_leaders_of_simple_loop():
    p = _simple_loop()
    # entry, branch target (1), branch fall-through (4)
    assert p.leaders == frozenset({0, 1, 4})


def test_basic_block_start_mapping():
    p = _simple_loop()
    assert p.basic_block_start(0) == 0
    assert p.basic_block_start(2) == 1
    assert p.basic_block_start(3) == 1
    assert p.basic_block_start(5) == 4


def test_len_and_indexing():
    p = _simple_loop()
    assert len(p) == 6
    assert p[3].op == Opcode.BNEZ


def test_disassemble_mentions_labels():
    p = _simple_loop()
    text = p.disassemble()
    assert "loop:" in text
    assert "bnez r1" in text


def test_json_form_round_trips():
    program = assemble("""
    start:
        movi r1, -3
        load r2, [r5 + r1*8 + 64]
        store r2, [r5 + -8]
        div r3, r2, 7
        bltz r1, start
        call fn
        halt
    fn:
        ret
    """)
    data = json.loads(json.dumps(program.to_json()))
    again = Program.from_json(data)
    assert again.instructions == program.instructions
    assert again.labels == program.labels
    assert again.to_json() == program.to_json()
    assert again.leaders == program.leaders


@pytest.mark.parametrize("damage", [
    lambda data: data.pop("labels"),
    lambda data: data["instructions"][0].append(0),
    lambda data: data["instructions"][0].__setitem__(0, 999),
])
def test_malformed_json_form_is_rejected(damage):
    b = ProgramBuilder()
    b.movi(1, 1)
    b.halt()
    data = b.build().to_json()
    damage(data)
    with pytest.raises((KeyError, TypeError, ValueError)):
        Program.from_json(data)
