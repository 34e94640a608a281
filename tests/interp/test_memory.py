"""Segmented memory model: layout, validity, crashes."""

import pytest

from repro.interp.errors import MemoryFault
from repro.interp.memory import GLOBAL_BASE, GlobalLayout, MemoryState
from repro.ir import F64, I32, Module


def layout_with_globals() -> GlobalLayout:
    module = Module("m")
    module.new_global("a", I32, 4, [1, 2, 3, 4])
    module.new_global("b", F64, 2, [0.5, 1.5])
    return GlobalLayout(module)


class TestGlobalLayout:
    def test_addresses_in_data_segment(self):
        layout = layout_with_globals()
        assert layout.addresses["a"] >= GLOBAL_BASE
        assert layout.addresses["b"] > layout.addresses["a"]

    def test_globals_padded_apart(self):
        layout = layout_with_globals()
        end_of_a = layout.addresses["a"] + 4 * 4
        assert layout.addresses["b"] >= end_of_a + 64

    def test_init_cells(self):
        layout = layout_with_globals()
        memory = MemoryState(layout)
        base = layout.addresses["a"]
        assert memory.load(base, 0) == 1
        assert memory.load(base + 12, 0) == 4
        assert memory.load(layout.addresses["b"] + 8, 0.0) == 1.5


class TestMemoryState:
    def test_oob_load_faults(self):
        memory = MemoryState(layout_with_globals())
        with pytest.raises(MemoryFault):
            memory.load(0x1234, 0)

    def test_oob_store_faults(self):
        memory = MemoryState(layout_with_globals())
        with pytest.raises(MemoryFault):
            memory.store(0x1234, 1)

    def test_misaligned_global_access_faults(self):
        layout = layout_with_globals()
        memory = MemoryState(layout)
        with pytest.raises(MemoryFault):
            memory.load(layout.addresses["a"] + 1, 0)

    def test_stack_allocation_and_free(self):
        memory = MemoryState(layout_with_globals())
        base, elements = memory.allocate_stack(4, 4)
        memory.store(base, 42)
        assert memory.load(base, 0) == 42
        memory.free(elements)
        with pytest.raises(MemoryFault):
            memory.load(base, 0)

    def test_uninitialized_stack_reads_default(self):
        memory = MemoryState(layout_with_globals())
        base, _elements = memory.allocate_stack(2, 8)
        assert memory.load(base, 0.0) == 0.0

    def test_footprint_grows(self):
        memory = MemoryState(layout_with_globals())
        before = memory.footprint_bytes
        memory.allocate_stack(100, 4)
        assert memory.footprint_bytes == before + 400

    def test_distinct_allocations_dont_overlap(self):
        memory = MemoryState(layout_with_globals())
        base1, e1 = memory.allocate_stack(4, 4)
        base2, e2 = memory.allocate_stack(4, 4)
        assert set(e1).isdisjoint(e2)
        memory.store(base1, 7)
        memory.store(base2, 9)
        assert memory.load(base1, 0) == 7

    def test_is_valid(self):
        layout = layout_with_globals()
        memory = MemoryState(layout)
        assert memory.is_valid(layout.addresses["a"])
        assert not memory.is_valid(0)

    def test_generation_changes_with_the_validity_set(self):
        memory = MemoryState(layout_with_globals())
        start = memory.generation
        _base, elements = memory.allocate_stack(4, 4)
        allocated = memory.generation
        assert allocated != start
        memory.free([])  # a frame without stack arrays changes nothing
        assert memory.generation == allocated
        memory.free(elements)
        assert memory.generation != allocated
