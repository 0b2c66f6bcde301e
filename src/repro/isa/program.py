"""Program container: code, initial data image, and symbols.

A :class:`Program` is what the assembler produces and what the pipeline,
the hardware emitter, and EMSim all consume.  Code lives at
:data:`TEXT_BASE`; the initial data image is a sparse ``address -> byte``
mapping applied to main memory before execution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from .instructions import Instruction

TEXT_BASE = 0x0000_0000
"""Base address of the code segment."""

DATA_BASE = 0x0001_0000
"""Default base address of the data segment."""


@dataclass
class Program:
    """An executable image for the simulated RV32IM core."""

    instructions: List[Instruction]
    data: Dict[int, int] = field(default_factory=dict)
    symbols: Dict[str, int] = field(default_factory=dict)
    entry: int = TEXT_BASE
    name: str = "program"

    def __post_init__(self) -> None:
        for address, value in self.data.items():
            if not 0 <= value < 256:
                raise ValueError(
                    f"data byte at {address:#x} out of range: {value}")

    def __len__(self) -> int:
        return len(self.instructions)

    @property
    def machine_code(self) -> List[int]:
        """Encoded 32-bit words, one per instruction."""
        return [instr.encode() for instr in self.instructions]

    def instruction_at(self, address: int) -> Optional[Instruction]:
        """Return the instruction at byte ``address`` or None if outside."""
        offset = address - TEXT_BASE
        if offset < 0 or offset % 4:
            return None
        index = offset // 4
        if index >= len(self.instructions):
            return None
        return self.instructions[index]

    def address_of(self, index: int) -> int:
        """Byte address of the ``index``-th instruction."""
        return TEXT_BASE + 4 * index

    def with_data_words(self, base: int, words: Sequence[int]) -> "Program":
        """Return a copy with 32-bit little-endian ``words`` stored at ``base``.

        Used to poke inputs (e.g. AES plaintexts) into a program image
        without reassembling.
        """
        data = dict(self.data)
        store_words(data, base, words)
        return Program(instructions=list(self.instructions), data=data,
                       symbols=dict(self.symbols), entry=self.entry,
                       name=self.name)

    def to_asm(self) -> str:
        """Render the code segment as assembly text (no labels)."""
        return "\n".join(instr.to_asm() for instr in self.instructions)

    @classmethod
    def from_instructions(cls, instructions: Iterable[Instruction],
                          name: str = "program") -> "Program":
        """Build a program from a plain instruction sequence."""
        return cls(instructions=list(instructions), name=name)


def store_words(data: Dict[int, int], base: int,
                words: Sequence[int]) -> None:
    """Write 32-bit little-endian ``words`` into a byte map at ``base``."""
    for offset, word in enumerate(words):
        word &= 0xFFFFFFFF
        address = base + 4 * offset
        for byte_index in range(4):
            data[address + byte_index] = (word >> (8 * byte_index)) & 0xFF
