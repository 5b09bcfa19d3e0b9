"""Unit tests for the text assembler."""

import pytest

from repro.isa import AssemblyError, Opcode, assemble
from repro.workloads import get_workload, suite_names


def test_basic_assembly():
    p = assemble("""
        movi r1, 10
        add r2, r1, 5
        halt
    """)
    assert len(p) == 3
    assert p[0].op == Opcode.MOVI and p[0].imm == 10
    assert p[1].imm == 5 and p[1].src2 is None


def test_comments_and_blank_lines_ignored():
    p = assemble("""
        ; full-line comment
        nop      # trailing comment

        halt
    """)
    assert len(p) == 2


def test_memory_operand_forms():
    p = assemble("""
        load r1, [r2]
        load r1, [r2 + 16]
        load r1, [r2 + r3*8]
        load r1, [r2 + r3*8 + -32]
        store r1, [r2 + 8]
        halt
    """)
    assert p[0].imm == 0 and p[0].src2 is None
    assert p[1].imm == 16
    assert p[2].src2 == 3 and p[2].scale == 8
    assert p[3].imm == -32
    assert p[4].op == Opcode.STORE


def test_label_and_branch():
    p = assemble("""
    top:
        sub r1, r1, 1
        bnez r1, top
        halt
    """)
    assert p[1].target == 0
    assert p.labels["top"] == 0


def test_and_or_mnemonics():
    p = assemble("""
        and r1, r2, r3
        or r1, r2, 255
        halt
    """)
    assert p[0].op == Opcode.AND
    assert p[1].op == Opcode.OR and p[1].imm == 255


def test_unknown_mnemonic_reports_line():
    with pytest.raises(AssemblyError, match="line 2"):
        assemble("nop\nbogus r1, r2\nhalt")


def test_bad_memory_operand_rejected():
    with pytest.raises(AssemblyError):
        assemble("load r1, [r2 * 8]\nhalt")


def test_bad_register_rejected():
    with pytest.raises(AssemblyError):
        assemble("movi r99, 1\nhalt")


def test_register_range_boundary():
    p = assemble("movi r31, 1\nhalt")       # r31 is the last legal one
    assert p[0].dst == 31
    with pytest.raises(AssemblyError, match="out of range"):
        assemble("movi r32, 1\nhalt")


def test_bad_register_reports_line():
    with pytest.raises(AssemblyError, match="line 3"):
        assemble("nop\nnop\nadd r1, r40, 1\nhalt")


def test_non_register_operand_rejected():
    with pytest.raises(AssemblyError, match="not a register"):
        assemble("add r1, x7, 1\nhalt")


def test_undefined_label_reported():
    with pytest.raises(AssemblyError, match="undefined label"):
        assemble("jmp missing\nhalt")


def test_operand_count_errors():
    with pytest.raises(AssemblyError, match="needs 3 operands"):
        assemble("add r1, r2\nhalt")
    with pytest.raises(AssemblyError, match="needs 2 operands"):
        assemble("load r1\nhalt")


def test_roundtrip_through_disassembler():
    p = assemble("""
    start:
        movi r1, 3
    loop:
        load r2, [r5 + r1*8 + 64]
        fadd r3, r3, r2
        sub r1, r1, 1
        bgez r1, loop
        call fn
        halt
    fn:
        store r3, [r5]
        ret
    """)
    p2 = assemble(p.disassemble())
    assert len(p) == len(p2)
    for a, b in zip(p.instructions, p2.instructions):
        assert a == b


@pytest.mark.parametrize("name", suite_names())
def test_every_suite_program_round_trips_through_disassembler(name):
    program = get_workload(name, scale=0.05).program
    again = assemble(program.disassemble())
    assert again.instructions == program.instructions
    assert again.labels == program.labels
