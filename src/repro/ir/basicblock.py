"""Basic blocks: straight-line instruction sequences ending in a terminator."""

from __future__ import annotations

from .instructions import Branch, Instruction


class BasicBlock:
    """A labelled sequence of instructions with a single terminator."""

    def __init__(self, name: str, parent=None):
        self.name = name
        self.parent = parent  # enclosing Function
        self.instructions: list[Instruction] = []

    def append(self, instruction: Instruction) -> Instruction:
        if self.is_terminated:
            raise ValueError(
                f"block {self.name} is already terminated; "
                f"cannot append {instruction.opcode}"
            )
        instruction.parent = self
        self.instructions.append(instruction)
        return instruction

    def insert_after(self, anchor: Instruction, new_instruction: Instruction):
        """Insert ``new_instruction`` immediately after ``anchor``."""
        index = self.instructions.index(anchor)
        new_instruction.parent = self
        self.instructions.insert(index + 1, new_instruction)
        return new_instruction

    def remove(self, instruction: Instruction) -> None:
        """Remove an instruction, detaching its operand uses."""
        self.instructions.remove(instruction)
        instruction.drop_uses()
        instruction.parent = None

    def phis(self):
        from .instructions import Phi

        result = []
        for inst in self.instructions:
            if not isinstance(inst, Phi):
                break
            result.append(inst)
        return result

    @property
    def terminator(self) -> Instruction | None:
        if self.instructions and self.instructions[-1].is_terminator:
            return self.instructions[-1]
        return None

    @property
    def is_terminated(self) -> bool:
        return self.terminator is not None

    @property
    def successors(self) -> list["BasicBlock"]:
        terminator = self.terminator
        if isinstance(terminator, Branch):
            # Deduplicate: both arms of a conditional may share a target.
            seen: list[BasicBlock] = []
            for target in terminator.targets:
                if target not in seen:
                    seen.append(target)
            return seen
        return []

    @property
    def predecessors(self) -> list["BasicBlock"]:
        if self.parent is None:
            return []
        return [
            block for block in self.parent.blocks if self in block.successors
        ]

    def __iter__(self):
        return iter(self.instructions)

    def __len__(self) -> int:
        return len(self.instructions)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<BasicBlock {self.name} ({len(self.instructions)} insts)>"
