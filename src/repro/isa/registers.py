"""Architectural register file definition.

Thirty-two general-purpose 64-bit registers, ``r0``..``r31``. Unlike MIPS,
``r0`` is a normal register (no hardwired zero) so that workload generators
can use the full set.
"""

from __future__ import annotations

#: Number of architectural registers.
NUM_ARCH_REGS = 32

#: Mask applied to all register values (64-bit wraparound semantics).
WORD_MASK = (1 << 64) - 1

#: Sign bit for interpreting values as signed in comparisons/branches.
SIGN_BIT = 1 << 63


def parse_reg(name: str) -> int:
    """Parse a register name like ``r7`` into its index.

    Raises ValueError for malformed names or out-of-range indices.
    """
    name = name.strip().lower()
    if not name.startswith("r"):
        raise ValueError(f"not a register: {name!r}")
    try:
        index = int(name[1:])
    except ValueError as exc:
        raise ValueError(f"not a register: {name!r}") from exc
    if not 0 <= index < NUM_ARCH_REGS:
        raise ValueError(f"register index out of range: {name!r}")
    return index


def to_signed(value: int) -> int:
    """Interpret a 64-bit unsigned *value* as signed two's complement."""
    value &= WORD_MASK
    if value & SIGN_BIT:
        return value - (1 << 64)
    return value
