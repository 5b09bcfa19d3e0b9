"""Fluent builder for constructing programs in Python code.

Workload generators use this instead of assembly text; labels may be
referenced before they are defined and are resolved in :meth:`build`.

Example::

    b = ProgramBuilder()
    b.movi(0, 0)                # r0 = 0
    b.label("loop")
    b.load(1, base=2, imm=0)    # r1 = mem[r2]
    b.add(0, 0, imm=1)
    b.bnez(1, "loop")
    b.halt()
    program = b.build()
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

from .instruction import Instruction
from .opcodes import Opcode
from .program import Program

LabelOrPc = Union[str, int]


class ProgramBuilder:
    """Accumulates instructions and resolves forward label references."""

    def __init__(self) -> None:
        self._instructions: List[dict] = []
        self._labels: Dict[str, int] = {}

    def __len__(self) -> int:
        return len(self._instructions)

    @property
    def next_pc(self) -> int:
        """The pc the next emitted instruction will occupy."""
        return len(self._instructions)

    def label(self, name: str) -> "ProgramBuilder":
        """Bind *name* to the next instruction's pc."""
        if name in self._labels:
            raise ValueError(f"duplicate label: {name!r}")
        self._labels[name] = len(self._instructions)
        return self

    def _emit(self, op: Opcode, dst=None, src1=None, src2=None, imm=0,
              scale=1, target: Optional[LabelOrPc] = None) -> "ProgramBuilder":
        self._instructions.append(dict(op=op, dst=dst, src1=src1, src2=src2,
                                       imm=imm, scale=scale, target=target))
        return self

    # --- integer ALU -----------------------------------------------------
    def _alu(self, op, dst, src1, src2, imm):
        return self._emit(op, dst=dst, src1=src1, src2=src2, imm=imm)

    def add(self, dst, src1, src2=None, imm=0):
        return self._alu(Opcode.ADD, dst, src1, src2, imm)

    def sub(self, dst, src1, src2=None, imm=0):
        return self._alu(Opcode.SUB, dst, src1, src2, imm)

    def mul(self, dst, src1, src2=None, imm=0):
        return self._alu(Opcode.MUL, dst, src1, src2, imm)

    def div(self, dst, src1, src2=None, imm=1):
        return self._alu(Opcode.DIV, dst, src1, src2, imm)

    def mod(self, dst, src1, src2=None, imm=1):
        return self._alu(Opcode.MOD, dst, src1, src2, imm)

    def and_(self, dst, src1, src2=None, imm=0):
        return self._alu(Opcode.AND, dst, src1, src2, imm)

    def or_(self, dst, src1, src2=None, imm=0):
        return self._alu(Opcode.OR, dst, src1, src2, imm)

    def xor(self, dst, src1, src2=None, imm=0):
        return self._alu(Opcode.XOR, dst, src1, src2, imm)

    def shl(self, dst, src1, src2=None, imm=0):
        return self._alu(Opcode.SHL, dst, src1, src2, imm)

    def shr(self, dst, src1, src2=None, imm=0):
        return self._alu(Opcode.SHR, dst, src1, src2, imm)

    def cmplt(self, dst, src1, src2=None, imm=0):
        return self._alu(Opcode.CMPLT, dst, src1, src2, imm)

    def cmpeq(self, dst, src1, src2=None, imm=0):
        return self._alu(Opcode.CMPEQ, dst, src1, src2, imm)

    def mov(self, dst, src):
        return self._emit(Opcode.MOV, dst=dst, src1=src)

    def movi(self, dst, imm):
        return self._emit(Opcode.MOVI, dst=dst, imm=imm)

    # --- floating point ---------------------------------------------------
    def fadd(self, dst, src1, src2=None, imm=0):
        return self._alu(Opcode.FADD, dst, src1, src2, imm)

    def fmul(self, dst, src1, src2=None, imm=0):
        return self._alu(Opcode.FMUL, dst, src1, src2, imm)

    def fdiv(self, dst, src1, src2=None, imm=1):
        return self._alu(Opcode.FDIV, dst, src1, src2, imm)

    # --- memory -----------------------------------------------------------
    # ``scale`` applies only to an index register; without one it is
    # stored as 1, the value the assembler reads back from a listing.
    def load(self, dst, base, index=None, scale=8, imm=0):
        return self._emit(Opcode.LOAD, dst=dst, src1=base, src2=index,
                          imm=imm, scale=1 if index is None else scale)

    def store(self, data, base, index=None, scale=8, imm=0):
        return self._emit(Opcode.STORE, dst=data, src1=base, src2=index,
                          imm=imm, scale=1 if index is None else scale)

    # --- control ----------------------------------------------------------
    def beqz(self, src, target: LabelOrPc):
        return self._emit(Opcode.BEQZ, src1=src, target=target)

    def bnez(self, src, target: LabelOrPc):
        return self._emit(Opcode.BNEZ, src1=src, target=target)

    def bltz(self, src, target: LabelOrPc):
        return self._emit(Opcode.BLTZ, src1=src, target=target)

    def bgez(self, src, target: LabelOrPc):
        return self._emit(Opcode.BGEZ, src1=src, target=target)

    def jmp(self, target: LabelOrPc):
        return self._emit(Opcode.JMP, target=target)

    def call(self, target: LabelOrPc):
        return self._emit(Opcode.CALL, target=target)

    def ret(self):
        return self._emit(Opcode.RET)

    def nop(self):
        return self._emit(Opcode.NOP)

    def halt(self):
        return self._emit(Opcode.HALT)

    # --- finalisation -------------------------------------------------------
    def build(self) -> Program:
        """Resolve labels and return the finished :class:`Program`."""
        resolved: List[Instruction] = []
        for pc, fields in enumerate(self._instructions):
            target = fields["target"]
            if isinstance(target, str):
                if target not in self._labels:
                    raise ValueError(f"pc {pc}: undefined label {target!r}")
                target = self._labels[target]
            resolved.append(Instruction(
                op=fields["op"], dst=fields["dst"], src1=fields["src1"],
                src2=fields["src2"], imm=fields["imm"],
                scale=fields["scale"], target=target))
        return Program(resolved, self._labels)
