"""Segmented memory model.

Memory is a flat 64-bit address space with two segments: a data segment
holding module globals (laid out once per module) and a stack segment
grown per call frame.  Validity is tracked per *element address*: a load
or store is legal only at the exact addresses handed out by allocations.
Anything else — including addresses produced by corrupted pointer bits —
raises :class:`MemoryFault`, which the fault injector classifies as a
crash.  This matches the paper's crash model (reads/writes outside the
program's memory segments, approximated there from /proc memory maps).
"""

from __future__ import annotations

from ..ir.module import Module
from ..ir.types import Type
from .errors import MemoryFault

#: Segment bases.  Chosen so that single-bit flips of a valid address are
#: overwhelmingly out of segment, like real sparse address spaces.
GLOBAL_BASE = 0x0000_0000_0001_0000
STACK_BASE = 0x0000_7FFF_0000_0000


class GlobalLayout:
    """Per-module, immutable placement of globals in the data segment."""

    def __init__(self, module: Module):
        self.addresses: dict[str, int] = {}
        self.init_cells: list[tuple[int, object]] = []
        self.valid_addresses: list[int] = []
        self.elem_types: dict[int, Type] = {}
        cursor = GLOBAL_BASE
        for global_var in module.globals.values():
            elem_size = global_var.elem_type.size_bytes
            self.addresses[global_var.name] = cursor
            for index, value in enumerate(global_var.initializer):
                address = cursor + index * elem_size
                self.valid_addresses.append(address)
                if global_var.elem_type.is_float:
                    self.init_cells.append((address, float(value)))
                else:
                    self.init_cells.append((address, int(value)))
            cursor += global_var.count * elem_size
            # Pad between globals so a small index overflow of one array
            # does not silently land in the next one.
            cursor += 64
        self.end = cursor

    @property
    def total_bytes(self) -> int:
        return self.end - GLOBAL_BASE


class MemoryState:
    """Mutable per-run memory: cells, validity set, and a stack pointer."""

    __slots__ = ("cells", "valid", "stack_cursor", "footprint_bytes",
                 "generation")

    def __init__(self, layout: GlobalLayout):
        self.cells: dict[int, object] = dict(layout.init_cells)
        self.valid: set[int] = set(layout.valid_addresses)
        self.stack_cursor = STACK_BASE
        self.footprint_bytes = layout.total_bytes
        #: Changes whenever ``valid`` does, so facts derived from the
        #: validity set can be cached against it.
        self.generation = 0

    @classmethod
    def restored(cls, cells: dict, valid: set, stack_cursor: int,
                 footprint_bytes: int) -> "MemoryState":
        """Rebuild a run-ready memory image from snapshot fields.

        The caller must pass private copies: snapshots are immutable
        and shared across fault-injection trials, so every restore
        materializes its own cells/valid before mutating them.
        """
        memory = cls.__new__(cls)
        memory.cells = cells
        memory.valid = valid
        memory.stack_cursor = stack_cursor
        memory.footprint_bytes = footprint_bytes
        memory.generation = 0
        return memory

    # -- allocation -----------------------------------------------------------

    def allocate_stack(self, count: int, elem_size: int) -> tuple[int, list[int]]:
        """Reserve a stack array; returns (base address, element addresses)."""
        base = self.stack_cursor
        addresses = [base + i * elem_size for i in range(count)]
        self.valid.update(addresses)
        self.generation += 1
        size = count * elem_size
        self.stack_cursor += size + 16  # pad slots apart
        self.footprint_bytes += size
        return base, addresses

    def free(self, addresses: list[int]) -> None:
        """Release stack addresses when a frame is popped."""
        if addresses:
            self.generation += 1
        for address in addresses:
            self.valid.discard(address)
            self.cells.pop(address, None)

    # -- access ------------------------------------------------------------------

    def load(self, address: int, default):
        if address not in self.valid:
            raise MemoryFault(address, "load")
        return self.cells.get(address, default)

    def store(self, address: int, value) -> None:
        if address not in self.valid:
            raise MemoryFault(address, "store")
        self.cells[address] = value

    def is_valid(self, address: int) -> bool:
        return address in self.valid
