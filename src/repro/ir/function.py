"""Functions: argument lists plus an ordered list of basic blocks."""

from __future__ import annotations

from .basicblock import BasicBlock
from .types import VOID, Type
from .values import Argument


class Function:
    """A function definition in the mini-IR."""

    def __init__(self, name: str, arg_types=None, arg_names=None,
                 return_type: Type = VOID):
        self.name = name
        self.return_type = return_type
        arg_types = list(arg_types or [])
        arg_names = list(arg_names or [f"arg{i}" for i in range(len(arg_types))])
        if len(arg_names) != len(arg_types):
            raise ValueError("arg_names and arg_types must have equal length")
        self.args = [
            Argument(t, n, i) for i, (t, n) in enumerate(zip(arg_types, arg_names))
        ]
        self.blocks: list[BasicBlock] = []
        self.parent = None  # enclosing Module

    def add_block(self, name: str) -> BasicBlock:
        existing = {block.name for block in self.blocks}
        if name in existing:
            suffix = 1
            while f"{name}.{suffix}" in existing:
                suffix += 1
            name = f"{name}.{suffix}"
        block = BasicBlock(name, parent=self)
        self.blocks.append(block)
        return block

    @property
    def entry(self) -> BasicBlock:
        if not self.blocks:
            raise ValueError(f"function {self.name} has no blocks")
        return self.blocks[0]

    def block_by_name(self, name: str) -> BasicBlock:
        for block in self.blocks:
            if block.name == name:
                return block
        raise KeyError(f"{self.name}: no block named {name}")

    def instructions(self):
        """Iterate all instructions in block order."""
        for block in self.blocks:
            yield from block.instructions

    @property
    def num_instructions(self) -> int:
        return sum(len(block) for block in self.blocks)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Function {self.name} ({len(self.blocks)} blocks, "
            f"{self.num_instructions} insts)>"
        )
