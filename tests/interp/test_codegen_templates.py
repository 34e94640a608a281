"""The invariants the generated block functions' templates rest on.

The templates keep block-local values in Python locals, access memory
inline (a load probes the run's cells once and tests the validity set
only on a miss), do signed arithmetic with a xor bias, round f32
results in one call, and leave the inject variant once the fault has
fired.  The profile variant holds one IR block per block function, and
its bookkeeping helpers perform its loads and stores.  Each test below
pins one of those rules against the definition it replaces.
"""

from __future__ import annotations

import itertools
import math
import random
import struct

import pytest

from repro.bench import BENCHMARK_NAMES, build_module
from repro.interp import ExecutionEngine, Injection
from repro.interp.codegen import (
    FAST,
    PROFILE,
    _FunctionCodegen,
    block_locals,
    generate_function,
    generate_profile_function,
    round_f32,
)
from repro.interp.engine import (
    ReferenceEngine,
    _Frame,
    _ProfileState,
    _State,
)
from repro.interp.errors import MemoryFault
from repro.interp.memory import MemoryState
from repro.interp.result import CRASH
from repro.ir import (
    F64,
    I32,
    ArrayView,
    FloatType,
    FunctionBuilder,
    Module,
    pointer_to,
)
from repro.ir.bitutils import to_signed, truncate_float
from repro.ir.instructions import GetElementPtr, Load, Phi, Store
from repro.opt.pipeline import optimize
from tests.conftest import build_accumulator_module, cached_module

_F32 = FloatType(32)


def _edge_values(bits: int) -> list[int]:
    top = 1 << bits
    bias = 1 << (bits - 1)
    values = {0, 1, bias - 1, bias, bias + 1, top - 2, top - 1, top,
              top + 1, top + bias, 2 * top - 1, -1, -bias, -bias - 1,
              -top, -top - 1}
    rng = random.Random(bits)
    values.update(rng.randrange(-4 * top, 4 * top) for _ in range(40))
    return sorted(values)


class TestSignBias:
    """With ``S = 1 << (bits - 1)``, the templates' signed arithmetic."""

    @pytest.mark.parametrize("bits", [1, 8, 16, 32, 64])
    def test_biased_difference_is_to_signed(self, bits):
        bias = 1 << (bits - 1)
        for value in _edge_values(bits):
            assert (value ^ bias) - bias == to_signed(value, bits), value

    @pytest.mark.parametrize("bits", [1, 8, 16, 32, 64])
    def test_biased_order_is_signed_order(self, bits):
        bias = 1 << (bits - 1)
        values = _edge_values(bits)
        for a, b in itertools.product(values, repeat=2):
            sa, sb = to_signed(a, bits), to_signed(b, bits)
            assert ((a ^ bias) < (b ^ bias)) == (sa < sb), (a, b)
            assert ((a ^ bias) <= (b ^ bias)) == (sa <= sb), (a, b)


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


class TestRoundF32:
    def test_random_bit_patterns(self):
        """Random doubles, NaN payloads among them, round bit for bit
        as ``truncate_float`` rounds them."""
        rng = random.Random(2018)
        nans = 0
        for _ in range(20_000):
            (value,) = struct.unpack("<d", struct.pack(
                "<Q", rng.getrandbits(64)))
            nans += value != value
            assert _bits(round_f32(value)) == _bits(
                truncate_float(value, _F32)), value.hex()
        assert nans > 0

    def test_special_values(self):
        f32_max = struct.unpack("<f", struct.pack("<I", 0x7F7FFFFF))[0]
        # Halfway between the largest f32 and 2^128: the rounding
        # boundary past which a double overflows single precision.
        boundary = (2.0 - 2.0 ** -24) * 2.0 ** 127
        smallest = struct.unpack("<f", struct.pack("<I", 1))[0]
        specials = [
            0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan,
            struct.unpack("<d", struct.pack("<Q", 0x7FF0_0000_0000_0001))[0],
            struct.unpack("<d", struct.pack("<Q", 0xFFF8_0000_DEAD_BEEF))[0],
            5e-324, -5e-324, 2.2250738585072009e-308,   # f64 subnormals
            smallest, smallest / 2, smallest * 0.75, 1e-40, -1e-42,
            f32_max, -f32_max, math.nextafter(f32_max, math.inf),
            boundary, -boundary, math.nextafter(boundary, 0.0),
            math.nextafter(boundary, math.inf), 1e39, -1e300, 1.7e308,
            1.0, 0.1, -2.5, 16777217.0,
        ]
        for value in specials:
            rounded = round_f32(value)
            assert _bits(rounded) == _bits(truncate_float(value, _F32)), \
                value
            if value != value:
                assert rounded is value  # payload untouched
        assert round_f32(boundary) == math.inf
        assert round_f32(math.nextafter(boundary, 0.0)) == f32_max


class TestBlockLocals:
    def test_qualifying_values(self):
        """A block-local value is not a phi, and every user is a non-phi
        instruction of its own block."""
        module, _report = optimize(cached_module("hotspot"), 2)
        for function in module.functions.values():
            local = block_locals(function)
            assert local
            for inst in function.instructions():
                if id(inst) not in local:
                    continue
                assert inst.has_result and not isinstance(inst, Phi)
                for user in inst.users:
                    assert not isinstance(user, Phi)
                    assert user.parent is inst.parent

    @pytest.mark.parametrize("name", ["pathfinder", "sad"])
    def test_capture_holds_none_in_local_slots(self, name):
        module = cached_module(name)
        engine = ExecutionEngine(module)
        capture = engine.capture(stride=37)
        main = engine._compiled["main"]
        local_slots = [main.slot_of[key]
                       for key in block_locals(main.function)]
        assert local_slots and capture.snapshots
        for snapshot in capture.snapshots:
            assert all(snapshot.slots[index] is None
                       for index in local_slots)

    def test_rejoined_trials_return_the_cold_result(self):
        module = cached_module("sad")
        engine = ExecutionEngine(module)
        golden = engine.golden()
        capture = engine.capture(max(1, golden.dynamic_count // 192))
        counts = golden.instruction_counts()
        targets = [inst for inst in module.instructions()
                   if inst.has_result and counts.get(inst.iid, 0) > 0]
        rng = random.Random(24)
        rejoined = 0
        for _ in range(60):
            inst = rng.choice(targets)
            injection = Injection(inst.iid, rng.randint(1, counts[inst.iid]),
                                  rng.randrange(inst.type.bits))
            trial = engine.run(injection, rejoin=capture)
            cold = engine.run(injection)
            assert trial == cold
            rejoined += trial.golden_suffix > 0
        assert rejoined > 0


class TestInjectOnlyUntilFired:
    def test_guard_runs_exactly_occurrence_times(self, monkeypatch):
        """After the fault fires the armed function runs its fast
        table, so a loop's later instances pass no guard."""
        module = build_accumulator_module(n=24)
        calls = []
        inject = ExecutionEngine._maybe_inject

        def counting(state, value, value_type):
            calls.append(state.occurrence)
            return inject(state, value, value_type)

        monkeypatch.setattr(ExecutionEngine, "_maybe_inject",
                            staticmethod(counting))
        engine = ExecutionEngine(module)
        counts = engine.golden().instruction_counts()
        target = max(
            (inst for inst in module.instructions()
             if inst.has_result and not isinstance(inst, Phi)),
            key=lambda inst: counts.get(inst.iid, 0),
        )
        total = counts[target.iid]
        assert total >= 20
        occurrence = total // 3
        result = engine.run(Injection(target.iid, occurrence, 0))
        assert result.activated
        assert len(calls) == occurrence


def _crash_injections(module, access):
    """A high-bit flip of the first address each GEP feeding an
    ``access`` instruction computes: the access lands outside every
    segment."""
    for inst in module.instructions():
        if isinstance(inst, GetElementPtr) and any(
                isinstance(user, access) and user.pointer is inst
                for user in inst.users):
            yield Injection(inst.iid, 1, 40)


class TestCorruptedAddress:
    @pytest.mark.parametrize("access, kind", [(Load, "load"),
                                              (Store, "store")])
    def test_crash_reason_matches_reference(self, access, kind):
        module = build_accumulator_module()
        codegen, reference = ExecutionEngine(module), ReferenceEngine(module)
        injections = list(_crash_injections(module, access))
        assert injections
        for injection in injections:
            mine, theirs = codegen.run(injection), reference.run(injection)
            assert mine.outcome == theirs.outcome == CRASH
            assert mine.crash_reason == theirs.crash_reason
            assert mine.crash_reason.startswith(f"{kind} at invalid address")


ENGINES = [ExecutionEngine, ReferenceEngine]


def build_unwritten_module() -> Module:
    """main reads an int and a float array cell it never wrote."""
    module = Module("unwritten")
    f = FunctionBuilder(module, "main")
    ints = f.array("ints", I32, 4)
    floats = f.array("floats", F64, 4)
    f.out(ints[2] + 1)
    f.out(floats[1] * 2.0, precision=3)
    f.done()
    return module.finalize()


def build_leaking_module(access: str) -> Module:
    """``leak`` returns the address of its own stack array, which main
    then loads from or stores to after the call returned."""
    module = Module(f"leak_{access}")
    leak = FunctionBuilder(module, "leak", return_type=pointer_to(I32))
    scratch = leak.array("scratch", I32, 4)
    scratch[0] = 7
    leak.ret(scratch.base)
    leak.done()
    main = FunctionBuilder(module, "main")
    stale = ArrayView(main, main.call("leak", [], pointer_to(I32)).value, I32)
    if access == "load":
        main.out(stale[0])
    else:
        stale[0] = 3
    main.out(1)
    main.done()
    return module.finalize()


class TestLoadWithoutCell:
    """A load finds no cell at a valid address that was never written,
    and at any invalid address; only then does it test validity."""

    @pytest.mark.parametrize("engine_class", ENGINES)
    def test_unwritten_cell_reads_the_default(self, monkeypatch,
                                              engine_class):
        loaded = {}
        inject = ExecutionEngine._maybe_inject

        def recording(state, value, value_type):
            loaded[state.inject_iid] = value
            return inject(state, value, value_type)

        monkeypatch.setattr(ExecutionEngine, "_maybe_inject",
                            staticmethod(recording))
        module = build_unwritten_module()
        engine = engine_class(module)
        assert engine.run().outputs == ["1", "0"]
        loads = [inst for inst in module.instructions()
                 if isinstance(inst, Load)]
        for load in loads:
            assert engine.run(Injection(load.iid, 1, 0)).activated
        values = [loaded[load.iid] for load in loads]
        assert values == [0, 0.0]
        assert [type(value) for value in values] == [int, float]
        assert math.copysign(1.0, values[1]) == 1.0

    @pytest.mark.parametrize("engine_class", ENGINES)
    def test_invalid_address_faults(self, engine_class):
        module = build_unwritten_module()
        engine = engine_class(module)
        gep = next(inst for inst in module.instructions()
                   if isinstance(inst, GetElementPtr))
        result = engine.run(Injection(gep.iid, 1, 40))
        assert result.outcome == CRASH
        assert result.crash_reason.startswith("load at invalid address")
        address = int(result.crash_reason.rsplit(" ", 1)[1], 16)
        assert result.crash_reason == str(MemoryFault(address, "load"))


class TestFreedCalleeFrame:
    """Only main's frame outlives its return: a callee's stack cells
    are freed, so a pointer into them faults."""

    @pytest.mark.parametrize("engine_class", ENGINES)
    @pytest.mark.parametrize("access", ["load", "store"])
    def test_stale_pointer_faults(self, engine_class, access):
        result = engine_class(build_leaking_module(access)).run()
        assert result.outcome == CRASH
        assert result.crash_reason.startswith(
            f"{access} at invalid address")
        assert result.outputs == []


def emitted_sources(engine, variant):
    """(compiled block, source lines) of every block function of one
    variant, as the generator emits them."""
    for compiled in engine._compiled.values():
        codegen = _FunctionCodegen(engine, compiled)
        codegen.variant = variant
        for cblock in compiled.blocks.values():
            codegen.emit_block_fn(cblock, f"_{variant}{cblock.local_index}")
            yield cblock, codegen.lines


def blocks_entered(lines) -> int:
    return sum(line.lstrip().startswith("state.block_counts[")
               for line in lines)


class TestProfileVariant:
    """A profile runs once, so its block functions chain no superblocks
    and inline no load or store."""

    def test_each_block_function_holds_one_ir_block(self):
        chained = 0
        for name in BENCHMARK_NAMES:
            engine = ExecutionEngine(cached_module(name))
            for cblock, lines in emitted_sources(engine, PROFILE):
                assert blocks_entered(lines) == 1, (name, cblock.local_index)
                assert (f"    state.block_counts[{cblock.ordinal}] += 1"
                        in lines), (name, cblock.local_index)
            chained += sum(blocks_entered(lines) > 1
                           for _cblock, lines in emitted_sources(engine, FAST))
        assert chained > 0  # the fast variant still chains

    def test_profile_source_budget(self):
        """The profile variant of the 11 programs at ``default`` scale
        emits at most 7,000 source lines (12,439 while it chained
        superblocks and inlined loads and stores)."""
        total = 0
        for name in BENCHMARK_NAMES:
            engine = ExecutionEngine(build_module(name, "default"))
            total += sum(len(lines) for _cblock, lines
                         in emitted_sources(engine, PROFILE))
        assert total <= 7_000


def build_access_module() -> Module:
    """``load_<t>(p)`` returns ``p[0]`` and ``store_<t>(p, v)`` writes
    it, for an integer and a float element type."""
    module = Module("access")
    for elem in (I32, F64):
        load = FunctionBuilder(module, f"load_{elem}",
                               arg_types=[pointer_to(elem)], arg_names=["p"],
                               return_type=elem)
        load.ret(ArrayView(load, load.arg(0).value, elem)[0])
        load.done()
        store = FunctionBuilder(module, f"store_{elem}",
                                arg_types=[pointer_to(elem), elem],
                                arg_names=["p", "v"])
        ArrayView(store, store.arg(0).value, elem)[0] = store.arg(1)
        store.done()
    main = FunctionBuilder(module, "main")
    main.out(0)
    main.done()
    return module.finalize()


ADDRESS = 0x7FFF_0000_0040


def run_access(engine, function, variant, cell, valid, *args):
    """One call of a single-block access function, straight on its
    generated block function, over a memory that holds ``cell`` at
    :data:`ADDRESS` (none when ``cell`` is None), valid or not.
    Returns the value (with its type), the cells and validity set after
    it, or the fault's text."""
    compiled = engine._compiled[function]
    memory = MemoryState(engine.layout)
    if valid:
        memory.valid.add(ADDRESS)
    if cell is not None:
        memory.cells[ADDRESS] = cell
    if variant == FAST:
        block = generate_function(engine, compiled)[0][0]
        state = _State(memory, 100, engine._n_blocks)
    else:
        block = generate_profile_function(engine, compiled)[0]
        state = _ProfileState(memory, 100, engine._n_blocks,
                              engine.module.num_instructions, 0, None)
    frame = _Frame(compiled.n_slots)
    frame.slots[: len(args) + 1] = (ADDRESS, *args)
    try:
        assert block(state, frame) == -1
    except MemoryFault as fault:
        return "fault", str(fault)
    value = state.ret_value
    return repr(value), type(value), dict(memory.cells), set(memory.valid)


class TestProfileAccess:
    """The profile variant's load and store (``_read``, ``_wrote``)
    equal the fast template's inline ones."""

    @pytest.fixture(scope="class")
    def engine(self):
        return ExecutionEngine(build_access_module())

    @pytest.mark.parametrize("elem, cell, valid", [
        # A written cell.
        (I32, 7, True), (F64, -2.5, True), (F64, -0.0, True),
        # A valid cell never written: the type's zero.
        (I32, None, True), (F64, None, True),
        # An invalid address: the same MemoryFault.
        (I32, None, False), (F64, None, False),
        # A cell of another type or width: reinterpret_loaded.
        (I32, 2.5, True), (I32, 1 << 40, True), (I32, 1 << 32, True),
        (F64, 0x4004_0000_0000_0000, True), (F64, 1, True),
    ])
    def test_load(self, engine, elem, cell, valid):
        results = [run_access(engine, f"load_{elem}", variant, cell, valid)
                   for variant in (FAST, PROFILE)]
        assert results[0] == results[1]
        assert results[0][0] != "fault" or not valid

    @pytest.mark.parametrize("elem, value, cell, valid", [
        (I32, 7, None, True), (I32, 7, 7, True), (I32, 9, 3, True),
        (F64, 0.5, None, True), (F64, -0.0, 0.0, True),
        (I32, 7, None, False), (F64, 0.5, None, False),
    ])
    def test_store(self, engine, elem, value, cell, valid):
        results = [run_access(engine, f"store_{elem}", variant, cell, valid,
                              value)
                   for variant in (FAST, PROFILE)]
        assert results[0] == results[1]
        assert (results[0][0] == "fault") == (not valid)
