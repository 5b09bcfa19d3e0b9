"""The repro uop ISA: static instructions, programs, and functional execution."""

from .assembler import AssemblyError, assemble
from .builder import ProgramBuilder
from .dynuop import DynUop
from .functional import (
    ExecutionLimitExceeded,
    FunctionalMachine,
    execute,
    trace_summary,
)
from .instruction import Instruction
from .opcodes import (
    BRANCH_OPS,
    COND_BRANCH_OPS,
    EXEC_LATENCY,
    LOAD_OPS,
    MEM_OPS,
    STORE_OPS,
    Opcode,
    is_branch,
    is_cond_branch,
    is_load,
    is_store,
    writes_register,
)
from .program import Program, format_instruction
from .registers import NUM_ARCH_REGS, WORD_MASK, parse_reg, to_signed

__all__ = [
    "AssemblyError",
    "assemble",
    "ProgramBuilder",
    "DynUop",
    "ExecutionLimitExceeded",
    "FunctionalMachine",
    "execute",
    "trace_summary",
    "Instruction",
    "Opcode",
    "BRANCH_OPS",
    "COND_BRANCH_OPS",
    "EXEC_LATENCY",
    "LOAD_OPS",
    "MEM_OPS",
    "STORE_OPS",
    "is_branch",
    "is_cond_branch",
    "is_load",
    "is_store",
    "writes_register",
    "Program",
    "format_instruction",
    "NUM_ARCH_REGS",
    "WORD_MASK",
    "parse_reg",
    "to_signed",
]
