"""Seeded random IR modules for cross-tier differential fuzzing.

The execution paths (generated code, the batch tier, and the closure
steps the tests run as a reference) promise bit-identical results; the
fixed benchmark suite can only witness that promise on the code shapes
it happens to contain.  This module generates small random
programs — mixed integer widths, loops and phi nodes (via mem2reg),
div/rem statements that can trap under injection, NaN-prone float
arithmetic, and in-bounds loads/stores — as a *renewable* source of
counterexample candidates.

Design constraints:

* **Deterministic.**  A :class:`FuzzCase` (seed + enabled statement
  subset) rebuilds the exact same finalized module on every platform;
  failing cases persist as tiny JSON blobs and replay forever.

* **Statement independence.**  Statements communicate only through
  pre-declared locals and arrays (never through SSA values crossing
  statement boundaries), so *any* subset of statements is a valid
  module.  That is what makes greedy shrinking sound: dropping a
  statement never invalidates the rest.

* **Golden-clean by construction.**  Indices are masked in bounds and
  integer denominators are forced odd (``den | 1``), so the fault-free
  run never traps — while an injected bit flip can still produce
  out-of-bounds addresses and zero denominators, exercising the trap
  paths the oracle compares across tiers.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dsl import FunctionBuilder
from .module import Module
from .types import F32, F64, I8, I16, I32, I64

INT_WIDTHS = (I8, I16, I32, I64)
ARRAY_LEN = 8

#: Statement kinds, in fixed order (generation draws from the biased
#: table ``_DRAW`` below).
_N_KINDS = 12


class _Rng:
    """Self-contained 32-bit LCG (Numerical Recipes constants), so fuzz
    cases are stable across Python versions and platforms."""

    def __init__(self, seed: int):
        self.state = (seed ^ 0x9E3779B9) & 0xFFFFFFFF

    def u32(self) -> int:
        self.state = (1664525 * self.state + 1013904223) & 0xFFFFFFFF
        return self.state

    def below(self, bound: int) -> int:
        return self.u32() % bound

    def range(self, low: int, high: int) -> int:
        return low + self.u32() % (high - low + 1)

    def choice(self, items):
        return items[self.u32() % len(items)]

    def fval(self) -> float:
        return round(self.u32() / 4294967296.0 * 16.0 - 8.0, 4)


@dataclass(frozen=True)
class FuzzCase:
    """One reproducible fuzz module: a seed plus the enabled statement
    subset (None = all statements)."""

    seed: int
    enabled: tuple[int, ...] | None = None

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "enabled": None if self.enabled is None else list(self.enabled),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FuzzCase":
        enabled = data.get("enabled")
        return cls(
            seed=int(data["seed"]),
            enabled=None if enabled is None else tuple(enabled),
        )


def statement_count(seed: int) -> int:
    """Number of statements the plan for ``seed`` contains."""
    return _Rng(seed).range(6, 14)


def opt_level(seed: int) -> int:
    """Optimization level applied to the built module (level 2 runs
    mem2reg, turning the locals into SSA registers and phi nodes)."""
    rng = _Rng(seed * 31 + 7)
    return rng.choice((0, 1, 2, 2))  # bias toward phi-bearing modules


def build_fuzz_module(case: FuzzCase) -> Module:
    """Materialize a fuzz case as a finalized module."""
    rng = _Rng(case.seed)
    n_statements = rng.range(6, 14)
    # Pre-draw one independent sub-seed per statement so that disabling
    # a statement never perturbs how the others materialize.
    stmt_seeds = [rng.u32() for _ in range(n_statements)]

    module = Module(f"fuzz_{case.seed}")
    f = FunctionBuilder(module, "main")

    init_rng = _Rng(case.seed * 977 + 13)
    ctx = _Context(f, init_rng)

    enabled = case.enabled
    for index in range(n_statements):
        if enabled is not None and index not in enabled:
            continue
        _emit_statement(ctx, _Rng(stmt_seeds[index]))

    # Unconditional tail: observe every local and a checksum of every
    # array, so corrupted state is visible to the SDC comparison.
    for local, elem_type in ctx.int_locals:
        f.out(local.get())
    for local, elem_type in ctx.float_locals:
        f.out(local.get(), precision=4)
    for pos, (array, elem_type) in enumerate(ctx.arrays):
        acc_type = F64 if elem_type.is_float else I64
        total = f.local(f"sum{pos}", acc_type, init=0)

        def add_cell(i, a=array, t=total, at=acc_type, fl=elem_type.is_float):
            cell = a[i].to_float(at) if fl else a[i].to_int(at)
            t.set(t.get() + cell)

        f.for_range(0, ARRAY_LEN, add_cell)
        f.out(total.get(), precision=4 if elem_type.is_float else None)
    f.done()
    finalized = module.finalize()

    level = opt_level(case.seed)
    if level:
        from ..opt import optimize

        finalized, _report = optimize(finalized, level)
    return finalized


def shrink_case(case: FuzzCase, still_fails) -> FuzzCase:
    """Greedy ddmin-style shrink: drop statements while the failure
    (as judged by ``still_fails(case) -> bool``) persists."""
    enabled = list(
        case.enabled if case.enabled is not None
        else range(statement_count(case.seed))
    )
    changed = True
    while changed:
        changed = False
        # Chunked removal first (halves, quarters, ...), then singles.
        size = max(1, len(enabled) // 2)
        while size >= 1:
            index = 0
            while index < len(enabled):
                trial = enabled[:index] + enabled[index + size:]
                candidate = FuzzCase(case.seed, tuple(trial))
                if still_fails(candidate):
                    enabled = trial
                    changed = True
                else:
                    index += size
            size //= 2
    return FuzzCase(case.seed, tuple(enabled))


class _Context:
    """Declared storage the statements communicate through."""

    def __init__(self, f: FunctionBuilder, rng: _Rng):
        self.f = f
        self.int_locals = []
        self.float_locals = []
        self.arrays = []
        for index, width in enumerate((I8, I16, I32, I64)):
            init = rng.range(0, min(120, width.max_signed))
            self.int_locals.append(
                (f.local(f"iv{index}", width, init=init), width)
            )
        for index, ftype in enumerate((F32, F64)):
            self.float_locals.append(
                (f.local(f"fv{index}", ftype, init=rng.fval()), ftype)
            )
        data = [rng.range(0, 99) for _ in range(ARRAY_LEN)]
        self.arrays.append(
            (f.global_array("gdata", I32, ARRAY_LEN, data), I32)
        )
        stack = f.array("sdata", I64, ARRAY_LEN)
        for i in range(ARRAY_LEN):
            stack[i] = f.c(rng.range(0, 999), I64)
        self.arrays.append((stack, I64))
        fdata = f.array("fdata", F64, ARRAY_LEN)
        for i in range(ARRAY_LEN):
            fdata[i] = f.c(rng.fval(), F64)
        self.arrays.append((fdata, F64))

    # -- operand pools ----------------------------------------------------

    def int_value(self, rng: _Rng, width):
        """A width-typed int operand: local, array element, or const."""
        pick = rng.below(4)
        if pick == 0:
            local, _w = rng.choice(self.int_locals)
            return local.get().to_int(width)
        if pick == 1:
            array, elem = rng.choice(self.arrays[:2])
            return array[self.index_value(rng)].to_int(width)
        return self.f.c(rng.range(0, min(999, width.max_signed)), width)

    def float_value(self, rng: _Rng, ftype):
        pick = rng.below(4)
        if pick == 0:
            local, _t = rng.choice(self.float_locals)
            return local.get().to_float(ftype)
        if pick == 1:
            array, _t = self.arrays[2]
            return array[self.index_value(rng)].to_float(ftype)
        if pick == 2:
            local, width = rng.choice(self.int_locals)
            return local.get().to_float(ftype)
        return self.f.c(rng.fval(), ftype)

    def index_value(self, rng: _Rng):
        """An always-in-bounds array index (maskable under injection)."""
        if rng.below(2):
            return rng.below(ARRAY_LEN)
        local, _w = rng.choice(self.int_locals)
        return local.get().to_int(I32) & (ARRAY_LEN - 1)

    def int_dst(self, rng: _Rng):
        return rng.choice(self.int_locals)

    def float_dst(self, rng: _Rng):
        return rng.choice(self.float_locals)


def _emit_statement(ctx: _Context, rng: _Rng) -> None:
    _STATEMENTS[rng.choice(_DRAW)](ctx, rng)


def _stmt_int_arith(ctx: _Context, rng: _Rng) -> None:
    """Chained +,-,*,&,|,^,<<,>> at a random width."""
    width = rng.choice(INT_WIDTHS)
    value = ctx.int_value(rng, width)
    for _ in range(rng.range(1, 3)):
        op = rng.choice("+-*&|^<>")
        rhs = ctx.int_value(rng, width)
        if op == "+":
            value = value + rhs
        elif op == "-":
            value = value - rhs
        elif op == "*":
            value = value * rhs
        elif op == "&":
            value = value & rhs
        elif op == "|":
            value = value | rhs
        elif op == "^":
            value = value ^ rhs
        elif op == "<":
            value = value << (rhs & 7)
        else:
            value = value >> (rhs & 7)
    dst, dst_width = ctx.int_dst(rng)
    dst.set(value.to_int(dst_width))


def _stmt_int_div(ctx: _Context, rng: _Rng) -> None:
    """sdiv/udiv/srem/urem with a golden-nonzero denominator: ``den|1``
    never traps fault-free, but a flip of the or's destination bit 0
    can zero it and trap the division."""
    width = rng.choice(INT_WIDTHS)
    f = ctx.f
    num = ctx.int_value(rng, width)
    den = ctx.int_value(rng, width) | 1
    op = rng.choice(("sdiv", "udiv", "srem", "urem"))
    result = f.wrap(f.b.binop(op, num.value, den.value))
    dst, dst_width = ctx.int_dst(rng)
    dst.set(result.to_int(dst_width))


def _stmt_float_arith(ctx: _Context, rng: _Rng) -> None:
    ftype = rng.choice((F32, F64))
    value = ctx.float_value(rng, ftype)
    for _ in range(rng.range(1, 3)):
        op = rng.choice("+-*/")
        rhs = ctx.float_value(rng, ftype)
        if op == "+":
            value = value + rhs
        elif op == "-":
            value = value - rhs
        elif op == "*":
            value = value * rhs
        else:
            value = value / rhs
    dst, dst_type = ctx.float_dst(rng)
    dst.set(value.to_float(dst_type))


def _stmt_nan_prone(ctx: _Context, rng: _Rng) -> None:
    """0/0 and x/0 shapes: NaN and infinity propagation must format
    and compare identically on every tier."""
    ftype = rng.choice((F32, F64))
    a = ctx.float_value(rng, ftype)
    zero = a - a  # 0.0, or NaN once a is non-finite
    pick = rng.below(3)
    if pick == 0:
        value = a / zero            # +-inf (or NaN)
    elif pick == 1:
        value = zero / zero         # NaN
    else:
        value = a * (ctx.f.c(1e30, ftype) * ctx.f.c(1e30, ftype))  # overflow
    dst, dst_type = ctx.float_dst(rng)
    dst.set(value.to_float(dst_type))


def _stmt_cast_chain(ctx: _Context, rng: _Rng) -> None:
    width = rng.choice(INT_WIDTHS)
    value = ctx.int_value(rng, width)
    ftype = rng.choice((F32, F64))
    roundtrip = value.to_float(ftype) * ctx.f.c(0.5, ftype)
    dst, dst_width = ctx.int_dst(rng)
    dst.set(roundtrip.to_int(dst_width))


def _stmt_select(ctx: _Context, rng: _Rng) -> None:
    f = ctx.f
    width = rng.choice(INT_WIDTHS)
    a = ctx.int_value(rng, width)
    b = ctx.int_value(rng, width)
    pick = rng.below(3)
    if pick == 0:
        value = f.min(a, b)
    elif pick == 1:
        value = f.max(a, b)
    else:
        value = f.abs(a)
    dst, dst_width = ctx.int_dst(rng)
    dst.set(value.to_int(dst_width))


def _stmt_array_rw(ctx: _Context, rng: _Rng) -> None:
    array, elem = rng.choice(ctx.arrays)
    src_index = ctx.index_value(rng)
    dst_index = ctx.index_value(rng)
    if elem.is_float:
        array[dst_index] = array[src_index] + ctx.float_value(rng, elem)
    else:
        array[dst_index] = (
            array[src_index].to_int(elem) + ctx.int_value(rng, elem)
        )


def _stmt_loop_acc(ctx: _Context, rng: _Rng) -> None:
    """A counted loop folding an array into a local (phi nodes after
    mem2reg: the induction variable and the accumulator)."""
    f = ctx.f
    trips = rng.range(2, 6)
    array, elem = rng.choice(ctx.arrays)
    dst_pool = ctx.float_locals if elem.is_float else ctx.int_locals
    dst, dst_type = rng.choice(dst_pool)
    offset = rng.below(ARRAY_LEN)
    mul = rng.below(2)

    def body(i):
        cell = array[(i + offset) & (ARRAY_LEN - 1)]
        if elem.is_float:
            update = dst.get() + cell.to_float(dst_type)
        elif mul:
            update = (dst.get().to_int(I64) * (cell.to_int(I64) | 1)) \
                .to_int(dst_type)
        else:
            update = dst.get() + cell.to_int(dst_type)
        dst.set(update)

    f.for_range(0, trips, body, name=f"acc{trips}")


def _stmt_branchy(ctx: _Context, rng: _Rng) -> None:
    """An if/else on data: the canonical lane-divergence shape."""
    f = ctx.f
    width = rng.choice(INT_WIDTHS)
    a = ctx.int_value(rng, width)
    b = ctx.int_value(rng, width)
    predicate = rng.choice(("slt", "ult", "eq", "sgt"))
    cond = f.wrap(f.b.icmp(predicate, a.value, b.value))
    dst, dst_width = ctx.int_dst(rng)
    then_const = rng.range(0, 99)
    else_shift = rng.range(1, 3)

    f.if_(
        lambda: cond,
        lambda: dst.set(dst.get() + then_const),
        lambda: dst.set(dst.get() >> else_shift),
    )


def _stmt_loop_diamond(ctx: _Context, rng: _Rng) -> None:
    """A counted loop with a data-dependent if/else in its body — the
    nested loop-diamond shape the batch tier's reconvergence has to
    re-merge once per iteration."""
    f = ctx.f
    trips = rng.range(2, 5)
    width = rng.choice(INT_WIDTHS)
    array, _elem = rng.choice(ctx.arrays[:2])
    dst, dst_width = ctx.int_dst(rng)
    threshold = rng.range(0, 99)
    predicate = rng.choice(("slt", "ult", "sgt"))
    step = rng.range(1, 9)
    shift = rng.range(1, 3)
    offset = rng.below(ARRAY_LEN)

    def body(i):
        cell = array[(i + offset) & (ARRAY_LEN - 1)].to_int(I64)
        cond = f.wrap(f.b.icmp(
            predicate, cell.value, f.c(threshold, I64).value
        ))
        f.if_(
            lambda: cond,
            lambda: dst.set(dst.get() + step),
            lambda: dst.set(dst.get() >> shift),
        )

    f.for_range(0, trips, body, name=f"ld{trips}")


def _stmt_nested_diamond(ctx: _Context, rng: _Rng) -> None:
    """An if/else whose taken arm branches again on different data:
    two-level mask nesting for the reconvergence stack."""
    f = ctx.f
    width = rng.choice(INT_WIDTHS)
    a = ctx.int_value(rng, width)
    b = ctx.int_value(rng, width)
    outer = f.wrap(f.b.icmp(
        rng.choice(("slt", "eq", "ugt")), a.value, b.value
    ))
    dst, dst_width = ctx.int_dst(rng)
    other, _w = ctx.int_dst(rng)
    bump = rng.range(1, 99)
    shift = rng.range(1, 7)

    def inner():
        cond = f.wrap(f.b.icmp(
            "slt", dst.get().value, other.get().to_int(dst_width).value
        ))
        f.if_(
            lambda: cond,
            lambda: dst.set(dst.get() + bump),
            lambda: dst.set(dst.get() >> shift),
        )

    f.if_(
        lambda: outer,
        inner,
        lambda: dst.set(dst.get() ^ bump),
    )


def _stmt_out(ctx: _Context, rng: _Rng) -> None:
    if rng.below(2):
        local, _w = rng.choice(ctx.int_locals)
        ctx.f.out(local.get())
    else:
        local, _t = rng.choice(ctx.float_locals)
        ctx.f.out(local.get(), precision=rng.range(2, 6))


_STATEMENTS = (
    _stmt_int_arith,
    _stmt_int_div,
    _stmt_float_arith,
    _stmt_nan_prone,
    _stmt_cast_chain,
    _stmt_select,
    _stmt_array_rw,
    _stmt_loop_acc,
    _stmt_branchy,
    _stmt_out,
    _stmt_loop_diamond,
    _stmt_nested_diamond,
)

assert len(_STATEMENTS) == _N_KINDS

#: Generation draw table, biased toward branch-dense shapes: divergence
#: and reconvergence are where cross-tier bugs live, so diamonds (plain,
#: in-loop, and nested) are oversampled relative to straight-line kinds.
_DRAW = tuple(range(_N_KINDS)) + (
    _STATEMENTS.index(_stmt_branchy),
    _STATEMENTS.index(_stmt_loop_diamond),
    _STATEMENTS.index(_stmt_nested_diamond),
)
