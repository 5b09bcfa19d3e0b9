"""Program container and static control-flow analysis.

A :class:`Program` is an ordered list of :class:`Instruction` plus a label
map. Basic-block analysis (used by the CDF trace constructor and the
Critical Uop Cache) identifies block leaders: the entry point, branch
targets, and fall-through successors of branches.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from .instruction import Instruction
from .opcodes import Opcode


class Program:
    """An immutable program: instructions indexed by pc, plus labels."""

    def __init__(self, instructions: Sequence[Instruction],
                 labels: Dict[str, int] = None) -> None:
        if not instructions:
            raise ValueError("program must contain at least one instruction")
        self.instructions: List[Instruction] = list(instructions)
        self.labels: Dict[str, int] = dict(labels or {})
        self._validate()
        self._leaders = self._compute_leaders()
        self._bb_start = self._compute_bb_start()

    def __len__(self) -> int:
        return len(self.instructions)

    def __getitem__(self, pc: int) -> Instruction:
        return self.instructions[pc]

    def _validate(self) -> None:
        n = len(self.instructions)
        for pc, inst in enumerate(self.instructions):
            if inst.target is not None and not 0 <= inst.target < n:
                raise ValueError(
                    f"pc {pc}: branch target {inst.target} out of range")
        for name, pc in self.labels.items():
            if not 0 <= pc < n:
                raise ValueError(f"label {name!r} out of range: {pc}")

    def _compute_leaders(self) -> frozenset:
        leaders = {0}
        for pc, inst in enumerate(self.instructions):
            if inst.is_branch:
                if inst.target is not None:
                    leaders.add(inst.target)
                if pc + 1 < len(self.instructions):
                    leaders.add(pc + 1)
        return frozenset(leaders)

    def _compute_bb_start(self) -> List[int]:
        """For each pc, the pc of the leader of its basic block."""
        starts = [0] * len(self.instructions)
        current = 0
        for pc in range(len(self.instructions)):
            if pc in self._leaders:
                current = pc
            starts[pc] = current
        return starts

    @property
    def leaders(self) -> frozenset:
        """Set of pcs that start a basic block."""
        return self._leaders

    def to_json(self) -> dict:
        """JSON-able form: one ``[op, dst, src1, src2, imm, scale,
        target]`` row per instruction, and the labels.

        :meth:`from_json` rebuilds an equal program, so two programs are
        equal exactly when their JSON forms are.
        """
        return {
            "instructions": [
                [int(inst.op), inst.dst, inst.src1, inst.src2, inst.imm,
                 inst.scale, inst.target]
                for inst in self.instructions],
            "labels": dict(self.labels),
        }

    @classmethod
    def from_json(cls, data: dict) -> "Program":
        """Inverse of :meth:`to_json`.  Malformed data raises KeyError,
        TypeError or ValueError."""
        return cls([Instruction(Opcode(op), dst, src1, src2, imm, scale,
                                target)
                    for op, dst, src1, src2, imm, scale, target
                    in data["instructions"]],
                   data["labels"])

    def basic_block_start(self, pc: int) -> int:
        """Return the pc of the basic-block leader containing *pc*."""
        return self._bb_start[pc]

    def bb_start_table(self) -> List[int]:
        """Per-pc basic-block leader table (shared; do not mutate).

        The CDF/PRE pipelines index this list on their fetch hot paths;
        handing out the precomputed table avoids rebuilding a
        program-length list per pipeline instantiation.
        """
        return self._bb_start

    def disassemble(self) -> str:
        """Return a human-readable listing of the whole program."""
        pc_labels: Dict[int, List[str]] = {}
        for name, pc in self.labels.items():
            pc_labels.setdefault(pc, []).append(name)
        lines = []
        for pc, inst in enumerate(self.instructions):
            for name in pc_labels.get(pc, ()):
                lines.append(f"{name}:")
            lines.append(f"  {format_instruction(inst)}")
        return "\n".join(lines)


def format_instruction(inst: Instruction) -> str:
    """Render one instruction in assembly-like syntax."""
    op = inst.op
    if op == Opcode.MOVI:
        return f"movi r{inst.dst}, {inst.imm}"
    if op == Opcode.MOV:
        return f"mov r{inst.dst}, r{inst.src1}"
    if op == Opcode.LOAD:
        return f"load r{inst.dst}, {_addr_str(inst)}"
    if op == Opcode.STORE:
        return f"store r{inst.dst}, {_addr_str(inst)}"
    if inst.is_cond_branch:
        return f"{op.name.lower()} r{inst.src1}, {inst.target}"
    if op in (Opcode.JMP, Opcode.CALL):
        return f"{op.name.lower()} {inst.target}"
    if op in (Opcode.RET, Opcode.NOP, Opcode.HALT):
        return op.name.lower()
    if inst.src2 is not None:
        return f"{op.name.lower()} r{inst.dst}, r{inst.src1}, r{inst.src2}"
    return f"{op.name.lower()} r{inst.dst}, r{inst.src1}, {inst.imm}"


def _addr_str(inst: Instruction) -> str:
    parts = [f"r{inst.src1}"]
    if inst.src2 is not None:
        parts.append(f"r{inst.src2}*{inst.scale}")
    if inst.imm:
        parts.append(str(inst.imm))
    return "[" + " + ".join(parts) + "]"
