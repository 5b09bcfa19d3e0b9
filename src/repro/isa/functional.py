"""Functional simulator: executes a program and emits the dynamic uop trace.

This is the "execute" half of an execution-driven simulator (the paper uses
Scarab, which executes at fetch). We run the program once with full
architectural semantics, producing the program-order :class:`DynUop` stream
with resolved addresses, branch outcomes, and dataflow edges. The timing
models then replay this stream under microarchitectural constraints.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .dynuop import DynUop, gc_paused
from .instruction import Instruction
from .opcodes import EXEC_CLASS, EXEC_LATENCY, Opcode
from .program import Program
from .registers import NUM_ARCH_REGS, WORD_MASK, to_signed


class ExecutionLimitExceeded(RuntimeError):
    """Raised when a program does not halt within ``max_uops``."""


class FunctionalMachine:
    """Architectural-state interpreter for the repro uop ISA.

    Memory is a sparse word store: a dict from byte address to 64-bit
    value. Uninitialised locations read as zero. CALL/RET use a shadow
    return stack (the ISA has no architectural stack pointer).
    """

    def __init__(self, program: Program,
                 memory: Optional[Dict[int, int]] = None) -> None:
        self.program = program
        self.regs: List[int] = [0] * NUM_ARCH_REGS
        self.memory: Dict[int, int] = dict(memory) if memory else {}
        self.return_stack: List[int] = []
        self.pc = 0
        self.halted = False

    # -- architectural helpers --------------------------------------------
    def read_mem(self, addr: int) -> int:
        return self.memory.get(addr & WORD_MASK, 0)

    def write_mem(self, addr: int, value: int) -> None:
        self.memory[addr & WORD_MASK] = value & WORD_MASK

    def _operand2(self, inst: Instruction) -> int:
        if inst.src2 is not None:
            return self.regs[inst.src2]
        return inst.imm & WORD_MASK

    def _mem_addr(self, inst: Instruction) -> int:
        addr = self.regs[inst.src1]
        if inst.src2 is not None:
            addr += self.regs[inst.src2] * inst.scale
        addr += inst.imm
        return addr & WORD_MASK

    def _alu(self, op: Opcode, a: int, b: int) -> int:
        if op in (Opcode.ADD, Opcode.FADD):
            return (a + b) & WORD_MASK
        if op == Opcode.SUB:
            return (a - b) & WORD_MASK
        if op in (Opcode.MUL, Opcode.FMUL):
            return (a * b) & WORD_MASK
        if op in (Opcode.DIV, Opcode.FDIV):
            return (a // b) & WORD_MASK if b else 0
        if op == Opcode.MOD:
            return (a % b) & WORD_MASK if b else 0
        if op == Opcode.AND:
            return a & b
        if op == Opcode.OR:
            return a | b
        if op == Opcode.XOR:
            return a ^ b
        if op == Opcode.SHL:
            return (a << (b & 63)) & WORD_MASK
        if op == Opcode.SHR:
            return (a >> (b & 63)) & WORD_MASK
        if op == Opcode.CMPLT:
            return 1 if to_signed(a) < to_signed(b) else 0
        if op == Opcode.CMPEQ:
            return 1 if a == b else 0
        raise ValueError(f"not an ALU op: {op}")

    def _branch_taken(self, op: Opcode, value: int) -> bool:
        signed = to_signed(value)
        if op == Opcode.BEQZ:
            return signed == 0
        if op == Opcode.BNEZ:
            return signed != 0
        if op == Opcode.BLTZ:
            return signed < 0
        return signed >= 0  # BGEZ

    # -- single step --------------------------------------------------------
    def step(self) -> Instruction:
        """Execute one instruction, updating pc; return the instruction."""
        inst = self.program[self.pc]
        op = inst.op
        next_pc = self.pc + 1
        if op == Opcode.MOVI:
            self.regs[inst.dst] = inst.imm & WORD_MASK
        elif op == Opcode.MOV:
            self.regs[inst.dst] = self.regs[inst.src1]
        elif op == Opcode.LOAD:
            self.regs[inst.dst] = self.read_mem(self._mem_addr(inst))
        elif op == Opcode.STORE:
            self.write_mem(self._mem_addr(inst), self.regs[inst.dst])
        elif inst.is_cond_branch:
            if self._branch_taken(op, self.regs[inst.src1]):
                next_pc = inst.target
        elif op == Opcode.JMP:
            next_pc = inst.target
        elif op == Opcode.CALL:
            self.return_stack.append(self.pc + 1)
            next_pc = inst.target
        elif op == Opcode.RET:
            if not self.return_stack:
                raise RuntimeError(f"RET with empty return stack at pc {self.pc}")
            next_pc = self.return_stack.pop()
        elif op == Opcode.HALT:
            self.halted = True
        elif op == Opcode.NOP:
            pass
        else:
            self.regs[inst.dst] = self._alu(
                op, self.regs[inst.src1], self._operand2(inst))
        self.pc = next_pc
        return inst


@gc_paused()
def execute(program: Program, memory: Optional[Dict[int, int]] = None,
            max_uops: int = 2_000_000,
            require_halt: bool = True) -> List[DynUop]:
    """Run *program* and return its dynamic uop trace.

    The trace records, per uop, the sequence numbers of the dyn uops that
    produced each of its register sources (``src_deps``) and, for loads,
    the youngest older store to the same address (``store_dep``, -1 if the
    value came from initial memory).
    """
    machine = FunctionalMachine(program, memory)
    trace: List[DynUop] = []
    last_writer = [-1] * NUM_ARCH_REGS
    last_store: Dict[int, int] = {}
    seq = 0
    while not machine.halted:
        if seq >= max_uops:
            if require_halt:
                raise ExecutionLimitExceeded(
                    f"program did not halt within {max_uops} uops")
            break
        pc = machine.pc
        inst = machine.program[pc]
        mem_addr = machine._mem_addr(inst) if inst.is_mem else None
        inst = machine.step()
        next_pc = machine.pc

        srcs = inst.source_regs()
        deps = []
        for reg in srcs:
            producer = last_writer[reg]
            if producer >= 0:
                deps.append(producer)
        store_dep = -1
        if inst.is_load and mem_addr is not None:
            store_dep = last_store.get(mem_addr, -1)

        taken = inst.is_branch and next_pc != pc + 1
        if inst.op in (Opcode.JMP, Opcode.CALL, Opcode.RET):
            taken = True

        uop = DynUop(
            seq=seq, pc=pc, op=int(inst.op), dst=inst.dst, srcs=srcs,
            exec_lat=EXEC_LATENCY[inst.op],
            is_load=inst.is_load, is_store=inst.is_store,
            is_branch=inst.is_branch, is_cond_branch=inst.is_cond_branch,
            mem_addr=mem_addr, taken=taken, next_pc=next_pc,
            src_deps=tuple(dict.fromkeys(deps)), store_dep=store_dep,
            exec_class=EXEC_CLASS[inst.op])
        trace.append(uop)

        if inst.writes_reg:
            last_writer[inst.dst] = seq
        if inst.is_store and mem_addr is not None:
            last_store[mem_addr] = seq
        seq += 1
    return trace


def trace_summary(trace: List[DynUop]) -> Dict[str, int]:
    """Return basic instruction-mix counts for a trace."""
    loads = sum(1 for u in trace if u.is_load)
    stores = sum(1 for u in trace if u.is_store)
    branches = sum(1 for u in trace if u.is_cond_branch)
    return {
        "uops": len(trace),
        "loads": loads,
        "stores": stores,
        "cond_branches": branches,
        "other": len(trace) - loads - stores - branches,
    }
