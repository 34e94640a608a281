"""ops.py edge cases the generated code must preserve, on every path.

The generated source inlines the hot arithmetic (masked add/sub/mul,
bitwise ops, unsigned compares) and falls back to :mod:`repro.interp.ops`
for the rest, so every exactness property of the closure steps —
wraparound at each bit width, signed/unsigned comparison boundaries,
NaN-propagating float compares, division/remainder traps — is asserted
identical across the reference engine, the generated code and the batch
tier here, with concrete anchors so a semantics change in *every* path
cannot slip through as "still identical".
"""

from __future__ import annotations

import pytest

from repro.interp.batch import HAVE_NUMPY
from repro.interp.engine import ExecutionEngine, Injection, ReferenceEngine
from repro.interp.result import CRASH, OK
from repro.ir import F32, F64, I8, I16, I32, I64, Function, IRBuilder, Module

WIDTHS = {8: I8, 16: I16, 32: I32, 64: I64}


def _assert_same(left, right):
    assert left.outcome == right.outcome
    assert left.crash_reason == right.crash_reason
    assert left.outputs == right.outputs
    assert left.block_counts == right.block_counts
    assert left.dynamic_count == right.dynamic_count


def run_both(build):
    """Build a one-function module, run it on every path, assert they
    agree on everything observable, and return the reference result."""
    module = Module("ops_edge")
    fn = module.add_function(Function("main"))
    b = IRBuilder(fn, fn.add_block("entry"))
    build(b)
    b.ret()
    module.finalize()
    reference = ReferenceEngine(module).run()
    codegen_engine = ExecutionEngine(module)
    codegen = codegen_engine.run()
    _assert_same(reference, codegen)
    if HAVE_NUMPY:
        _run_batch(module, reference, codegen_engine)
    return reference


def _run_batch(module, reference, codegen_engine):
    """The same case through the batch tier's numpy paths.

    A fault-free uniform group takes the scalar fast paths, so the
    middle lane injects a bit-0 flip into the first register-producing
    instruction: its value diverges, every downstream operation runs on
    real numpy arrays, and the numpy result must still match the scalar
    tiers bit-for-bit — in the injected lane (vs a scalar run of the
    same injection) and in the clean lanes (vs the golden run), i.e.
    numpy dtype semantics must not leak into visible results.
    """
    batch_engine = ExecutionEngine(module)
    target = next(
        (inst for inst in module.instructions() if inst.has_result), None
    )
    trials = [None, None, None]
    if target is not None:
        trials[1] = Injection(target.iid, 1, 0)
    group = batch_engine.batch_runner().run_group(trials)
    for trial, lane_result in zip(trials, group.results):
        expected = (
            reference if trial is None
            else codegen_engine.run(injection=trial)
        )
        _assert_same(lane_result, expected)


def out_bool(b, cond):
    """Project an i1 into a printable 0/1 without width surprises."""
    b.output(b.select(cond, b.const(1, I32), b.const(0, I32)))


class TestIntegerWraparound:
    @pytest.mark.parametrize("bits", sorted(WIDTHS))
    def test_add_sub_mul_wrap(self, bits):
        ty = WIDTHS[bits]
        int_max = (1 << (bits - 1)) - 1
        int_min = -(1 << (bits - 1))

        def build(b):
            b.output(b.add(b.const(int_max, ty), b.const(1, ty)))
            b.output(b.sub(b.const(int_min, ty), b.const(1, ty)))
            b.output(b.mul(b.const(int_max, ty), b.const(2, ty)))
            b.output(b.shl(b.const(1, ty), b.const(bits - 1, ty)))

        result = run_both(build)
        assert result.outcome == OK
        assert result.outputs == [
            str(int_min),       # INT_MAX + 1 wraps to INT_MIN
            str(int_max),       # INT_MIN - 1 wraps to INT_MAX
            str(-2),            # INT_MAX * 2 == 2^bits - 2 == -2 signed
            str(int_min),       # 1 << (bits-1) is the sign bit
        ]

    @pytest.mark.parametrize("bits", sorted(WIDTHS))
    def test_shift_amounts_reduced_mod_bits(self, bits):
        ty = WIDTHS[bits]

        def build(b):
            b.output(b.shl(b.const(3, ty), b.const(bits, ty)))
            b.output(b.lshr(b.const(-1, ty), b.const(1, ty)))
            b.output(b.ashr(b.const(-8, ty), b.const(2, ty)))

        result = run_both(build)
        assert result.outcome == OK
        assert result.outputs[0] == "3"               # shift by width: no-op
        assert result.outputs[1] == str((1 << (bits - 1)) - 1)
        assert result.outputs[2] == "-2"              # arithmetic shift


class TestComparisonBoundaries:
    @pytest.mark.parametrize("bits", sorted(WIDTHS))
    def test_signed_vs_unsigned_of_minus_one(self, bits):
        ty = WIDTHS[bits]

        def build(b):
            minus_one, zero = b.const(-1, ty), b.const(0, ty)
            out_bool(b, b.icmp("slt", minus_one, zero))  # -1 < 0 signed
            out_bool(b, b.icmp("ult", minus_one, zero))  # UMAX < 0 unsigned
            out_bool(b, b.icmp("ugt", minus_one, zero))
            out_bool(b, b.icmp("sge", b.const(-(1 << (bits - 1)), ty), zero))

        result = run_both(build)
        assert result.outputs == ["1", "0", "1", "0"]

    def test_boundary_equalities(self):
        def build(b):
            int_min = b.const(-(1 << 31), I32)
            out_bool(b, b.icmp("eq", int_min, b.const(1 << 31, I32)))
            out_bool(b, b.icmp("sle", int_min, int_min))
            out_bool(b, b.icmp("ule", b.const(-1, I32), b.const(-1, I32)))

        result = run_both(build)
        # -2^31 and +2^31 occupy the same i32 bit pattern.
        assert result.outputs == ["1", "1", "1"]


class TestFloatCompares:
    def test_nan_makes_ordered_compares_false(self):
        def build(b):
            nan, one = b.const(float("nan"), F64), b.const(1.0, F64)
            for predicate in ("oeq", "olt", "ogt", "ole", "oge"):
                out_bool(b, b.fcmp(predicate, nan, one))
            out_bool(b, b.fcmp("oeq", nan, nan))
            out_bool(b, b.fcmp("one", one, b.const(2.0, F64)))

        result = run_both(build)
        assert result.outputs == ["0", "0", "0", "0", "0", "0", "1"]

    def test_nan_propagates_through_arithmetic(self):
        def build(b):
            nan = b.fdiv(b.const(0.0, F64), b.const(0.0, F64))
            b.output(b.fadd(nan, b.const(1.0, F64)))
            out_bool(b, b.fcmp("oeq", nan, nan))

        result = run_both(build)
        assert result.outcome == OK
        assert result.outputs == ["nan", "0"]

    def test_f32_arithmetic_truncates(self):
        def build(b):
            big = b.const(3.0e38, F32)
            b.output(b.fadd(big, big))        # overflows binary32 -> inf
            b.output(b.fmul(b.const(1.5, F32), b.const(2.0, F32)))

        result = run_both(build)
        assert result.outputs[0] == "inf"
        assert result.outputs[1] == "3"


class TestDivisionTraps:
    @pytest.mark.parametrize("op", ["sdiv", "udiv", "srem", "urem"])
    def test_integer_division_by_zero_traps(self, op):
        def build(b):
            b.output(b.binop(op, b.const(7, I32), b.const(0, I32)))

        result = run_both(build)
        assert result.outcome == CRASH
        assert result.crash_reason

    @pytest.mark.parametrize("bits", sorted(WIDTHS))
    def test_int_min_over_minus_one(self, bits):
        """sdiv overflows (trap); srem of the same operands is 0."""
        ty = WIDTHS[bits]
        int_min = -(1 << (bits - 1))

        def build_div(b):
            b.output(b.sdiv(b.const(int_min, ty), b.const(-1, ty)))

        result = run_both(build_div)
        assert result.outcome == CRASH
        assert "overflow" in result.crash_reason

        def build_rem(b):
            b.output(b.srem(b.const(int_min, ty), b.const(-1, ty)))

        result = run_both(build_rem)
        assert result.outcome == OK
        assert result.outputs == ["0"]

    def test_truncating_division_semantics(self):
        def build(b):
            b.output(b.sdiv(b.const(-7, I32), b.const(2, I32)))
            b.output(b.srem(b.const(-7, I32), b.const(2, I32)))
            b.output(b.udiv(b.const(-7, I32), b.const(2, I32)))

        result = run_both(build)
        # C-style truncation toward zero, remainder keeps dividend sign.
        assert result.outputs[:2] == ["-3", "-1"]
        assert result.outputs[2] == str(((1 << 32) - 7) // 2)

    def test_float_division_specials_do_not_trap(self):
        def build(b):
            b.output(b.fdiv(b.const(1.0, F64), b.const(0.0, F64)))
            b.output(b.fdiv(b.const(-1.0, F64), b.const(0.0, F64)))
            b.output(b.binop("frem", b.const(5.5, F64), b.const(2.0, F64)))
            b.output(b.binop("frem", b.const(1.0, F64), b.const(0.0, F64)))

        result = run_both(build)
        assert result.outcome == OK
        assert result.outputs == ["inf", "-inf", "1.5", "nan"]
