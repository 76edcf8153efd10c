"""Static instruction representation.

An :class:`Instruction` is one static instruction of a program.  Instances are
immutable; compiler passes produce rewritten copies (``dataclasses.replace``).
Byte addresses are not stored here — they are assigned by
``repro.trace.program.Program.layout`` because they depend on each
instruction's encoding (32-bit ARM vs 16-bit Thumb).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.isa.condition import Cond
from repro.isa.opcodes import (
    InstrKind,
    Opcode,
    kind_of,
    latency_of,
    opcode_info,
)
from repro.isa.registers import register_name, validate_register

#: Maximum number of following 16-bit instructions one CDP command can cover:
#: 1 packed into the CDP word itself plus up to 2**3 indicated by the 3-bit
#: argument (paper Sec. IV-B: "1 + 2^3 = 9").
MAX_CDP_COVER = 9


class Encoding(enum.Enum):
    """Instruction encoding format."""

    ARM32 = "arm32"
    THUMB16 = "thumb16"

    @property
    def size_bytes(self) -> int:
        """Byte size of one instruction in this encoding."""
        return 4 if self is Encoding.ARM32 else 2


@dataclass(frozen=True)
class Instruction:
    """One static instruction.

    Attributes:
        opcode: the mnemonic.
        dests: registers written (architectural destinations).
        srcs: registers read.
        imm: optional immediate operand.
        cond: condition code; anything but ``Cond.AL`` means predicated.
        target: static instruction index of the branch target, for branches.
        encoding: current encoding format (compiler passes may set THUMB16).
        cdp_cover: for ``CDP`` only — how many following instructions are
            announced as 16-bit (1..MAX_CDP_COVER).
        uid: stable per-program identifier assigned by the program builder;
            lets traces reference static instructions cheaply.
    """

    opcode: Opcode
    dests: Tuple[int, ...] = ()
    srcs: Tuple[int, ...] = ()
    imm: Optional[int] = None
    cond: Cond = Cond.AL
    target: Optional[int] = None
    encoding: Encoding = Encoding.ARM32
    cdp_cover: Optional[int] = None
    uid: int = field(default=-1, compare=False)

    def __post_init__(self) -> None:
        for reg in self.dests + self.srcs:
            validate_register(reg)
        if self.opcode is Opcode.CDP:
            if self.cdp_cover is None:
                raise ValueError("CDP requires cdp_cover")
            if not 1 <= self.cdp_cover <= MAX_CDP_COVER:
                raise ValueError(
                    f"cdp_cover must be 1..{MAX_CDP_COVER}, "
                    f"got {self.cdp_cover}"
                )
        elif self.cdp_cover is not None:
            raise ValueError("cdp_cover is only valid on CDP")
        direct_branch = self.opcode in (Opcode.B, Opcode.BL)
        if direct_branch and self.target is None and self.imm is None:
            raise ValueError(f"{self.opcode.value} requires a target or imm")

    # -- classification helpers ------------------------------------------

    @property
    def kind(self) -> InstrKind:
        """Functional class (selects FU / latency)."""
        return kind_of(self.opcode)

    @property
    def latency(self) -> int:
        """Execute-stage latency in cycles (memory time excluded)."""
        return latency_of(self.opcode)

    @property
    def is_branch(self) -> bool:
        return self.kind is InstrKind.BRANCH

    @property
    def is_load(self) -> bool:
        return opcode_info(self.opcode).reads_memory

    @property
    def is_store(self) -> bool:
        return opcode_info(self.opcode).writes_memory

    @property
    def is_memory(self) -> bool:
        return self.is_load or self.is_store

    @property
    def is_predicated(self) -> bool:
        return self.cond.is_predicated

    @property
    def size_bytes(self) -> int:
        """Encoded size in bytes under the instruction's current encoding."""
        return self.encoding.size_bytes

    # -- rewriting helpers -------------------------------------------------

    def with_encoding(self, encoding: Encoding) -> "Instruction":
        """Return a copy re-encoded as ``encoding``."""
        return Instruction(self.opcode, self.dests, self.srcs, self.imm,
                           self.cond, self.target, encoding,
                           self.cdp_cover, self.uid)

    def with_uid(self, uid: int) -> "Instruction":
        """Return a copy with a new uid (used by program builders)."""
        return Instruction(self.opcode, self.dests, self.srcs, self.imm,
                           self.cond, self.target, self.encoding,
                           self.cdp_cover, uid)

    # -- rendering ----------------------------------------------------------

    def signature(self) -> Tuple:
        """Opcode+operand signature identifying this static instruction shape.

        Used to identify "unique CritIC sequences" (paper Fig. 5b counts
        opcode+operands of all constituent instructions).
        """
        return (
            self.opcode.value,
            self.dests,
            self.srcs,
            self.imm,
            self.cond.value,
        )

    def to_text(self) -> str:
        """Render an assembler-like one-line form, e.g. ``ADDEQ R1, R2, #4``."""
        suffix = "" if self.cond is Cond.AL else self.cond.value
        parts = []
        parts.extend(register_name(r) for r in self.dests)
        parts.extend(register_name(r) for r in self.srcs)
        if self.imm is not None:
            parts.append(f"#{self.imm}")
        if self.target is not None:
            parts.append(f"@{self.target}")
        if self.cdp_cover is not None:
            parts.append(f"<{self.cdp_cover}>")
        text = f"{self.opcode.value}{suffix} " + ", ".join(parts)
        if self.encoding is Encoding.THUMB16:
            text += "  ; .thumb"
        return text.rstrip()

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.to_text()
