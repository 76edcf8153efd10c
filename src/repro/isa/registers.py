"""Architectural register model for the ARM-like ISA used throughout repro.

The paper's optimization hinges on ARM's Thumb (16-bit) instruction format,
which can only name a reduced register set.  The paper states the 16-bit
format "cuts the number of architected registers as operands from 16 to 11"
(Sec. III-B), so we model:

* sixteen architected registers ``R0`` .. ``R15`` for the 32-bit format, with
  the usual special roles (``SP`` = R13, ``LR`` = R14, ``PC`` = R15), and
* the low eleven registers ``R0`` .. ``R10`` as the set addressable from the
  16-bit Thumb format.
"""

from __future__ import annotations

from typing import Iterable, Tuple

#: Total number of architected general-purpose registers (32-bit format).
NUM_REGISTERS = 16

#: Number of registers addressable from the 16-bit Thumb format (paper: 11).
NUM_THUMB_REGISTERS = 11

#: Stack pointer register index.
SP = 13
#: Link register index.
LR = 14
#: Program counter register index.
PC = 15

#: Registers usable as Thumb operands, i.e. ``R0`` .. ``R10``.
THUMB_REGISTERS: Tuple[int, ...] = tuple(range(NUM_THUMB_REGISTERS))

_SPECIAL_NAMES = {SP: "SP", LR: "LR", PC: "PC"}

#: Assembler name per register index, for the in-range ``int`` fast paths.
_NAMES: Tuple[str, ...] = tuple(
    _SPECIAL_NAMES.get(reg, f"R{reg}") for reg in range(NUM_REGISTERS))


def register_name(reg: int) -> str:
    """Return the assembler name for register index ``reg`` (e.g. ``"R3"``).

    Special registers render as ``SP``/``LR``/``PC``.

    Raises:
        ValueError: if ``reg`` is not a valid register index.
    """
    if type(reg) is int and 0 <= reg < NUM_REGISTERS:
        return _NAMES[reg]
    validate_register(reg)
    return _SPECIAL_NAMES.get(reg, f"R{reg}")


def validate_register(reg: int) -> int:
    """Validate that ``reg`` names an architected register and return it.

    Raises:
        ValueError: if ``reg`` is outside ``0 .. NUM_REGISTERS - 1``.
    """
    if type(reg) is int and 0 <= reg < NUM_REGISTERS:
        return reg
    if not isinstance(reg, int) or isinstance(reg, bool):
        raise ValueError(f"register index must be an int, got {reg!r}")
    if not 0 <= reg < NUM_REGISTERS:
        raise ValueError(
            f"register index {reg} out of range 0..{NUM_REGISTERS - 1}"
        )
    return reg


def is_thumb_register(reg: int) -> bool:
    """Return True if ``reg`` is addressable from the 16-bit Thumb format."""
    if type(reg) is int and 0 <= reg < NUM_REGISTERS:
        return reg < NUM_THUMB_REGISTERS
    validate_register(reg)
    return reg < NUM_THUMB_REGISTERS


def all_thumb_registers(regs: Iterable[int]) -> bool:
    """Return True if every register in ``regs`` is Thumb-addressable."""
    return all(is_thumb_register(r) for r in regs)
