"""Fast tuple derivation against the per-flip reference enumeration.

:class:`TupleDeriver` counts flips with hoisted evaluators, batched
flips, C-level maps and integer closed forms;
:class:`ReferenceTupleDeriver` flips and re-evaluates one bit at a
time.  Every tuple must be identical, all three fields compared with
``==``.
"""

import math
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench import BENCHMARK_NAMES
from repro.core import trident_config
from repro.core.tuples import (
    ReferenceTupleDeriver,
    TupleDeriver,
    _closed_form,
    _mapped,
    minmax_cmp_of_select,
)
from repro.ir import const_float, const_int
from repro.ir.bitutils import flip_bits_typed, mask
from repro.ir.instructions import (
    ICMP_PREDICATES,
    BinOp,
    Cast,
    FCmp,
    ICmp,
    Select,
)
from repro.ir.types import FloatType, IntType
from repro.profiling import ProgramProfile
from tests.conftest import cached_module, cached_profile

WIDTHS = (1, 8, 16, 32, 64)


def fields(result):
    return (result.propagation, result.masking, result.crash)


def outcome(deriver_class, profile, inst, operand_index):
    """The derived tuple's fields, or the type of the error raised."""
    try:
        return fields(deriver_class(profile, trident_config())
                      .tuple_for(inst, operand_index))
    except Exception as exc:  # noqa: BLE001 - compared across derivers
        return type(exc)


def sampled(inst, samples) -> ProgramProfile:
    profile = ProgramProfile()
    inst.iid = 0
    profile.operand_samples[0] = samples
    return profile


def assert_matches_reference(inst, operand_index, samples):
    profile = sampled(inst, samples)
    fast = outcome(TupleDeriver, profile, inst, operand_index)
    reference = outcome(ReferenceTupleDeriver, profile, inst, operand_index)
    assert fast == reference


def assert_closed_form(inst, operand_index, sample):
    """The closed form fires on the sample and equals enumeration."""
    assert _closed_form(inst, operand_index)(sample) is not None
    assert_matches_reference(inst, operand_index, [sample])


# -- every pair of the benchmark programs -------------------------------------

def test_every_benchmark_pair_matches_reference():
    config = trident_config()
    pairs = joint_arms = 0
    mismatches = []
    for name in BENCHMARK_NAMES:
        module = cached_module(name)
        profile, _ = cached_profile(name)
        fast = TupleDeriver(profile, config)
        reference = ReferenceTupleDeriver(profile, config)
        for inst in module.instructions():
            if isinstance(inst, (BinOp, ICmp, FCmp, Cast)):
                indices = range(len(inst.operands))
                pairs += len(indices)
            elif isinstance(inst, Select):
                indices = (1, 2)
                cmp = minmax_cmp_of_select(inst)
                if cmp is not None and profile.samples(cmp.iid):
                    joint_arms += 2
            else:
                continue
            for index in indices:
                got = fields(fast.tuple_for(inst, index))
                want = fields(reference.tuple_for(inst, index))
                if got != want:
                    mismatches.append((name, inst.iid, index, got, want))
    assert mismatches == []
    assert pairs >= 745
    assert joint_arms > 0


# -- closed forms against enumeration, one property per rule -------------------

def canonical(width: int):
    """Canonical values of a width, biased to 0, all-ones and 2**k."""
    special = [0, mask(width)] + [1 << k for k in range(width)]
    return st.one_of(st.sampled_from(special),
                     st.integers(min_value=0, max_value=mask(width)))


@st.composite
def binop_cases(draw, ops):
    width = draw(st.sampled_from(WIDTHS))
    op = draw(st.sampled_from(ops))
    a, b = draw(canonical(width)), draw(canonical(width))
    return op, IntType(width), a, b


def binop(op, value_type, a, b):
    return BinOp(op, const_int(a, value_type), const_int(b, value_type))


@settings(max_examples=150)
@given(binop_cases(("add", "sub", "xor")), st.sampled_from((0, 1)))
def test_add_sub_xor_propagate_every_flip(case, operand_index):
    op, value_type, a, b = case
    inst = binop(op, value_type, a, b)
    assert _closed_form(inst, operand_index)((a, b)) == value_type.bits
    assert_closed_form(inst, operand_index, (a, b))


@settings(max_examples=150)
@given(binop_cases(("and",)), st.sampled_from((0, 1)))
def test_and_propagates_where_other_bit_is_set(case, operand_index):
    op, value_type, a, b = case
    assert_closed_form(binop(op, value_type, a, b), operand_index, (a, b))


@settings(max_examples=150)
@given(binop_cases(("or",)), st.sampled_from((0, 1)))
def test_or_propagates_where_other_bit_is_clear(case, operand_index):
    op, value_type, a, b = case
    assert_closed_form(binop(op, value_type, a, b), operand_index, (a, b))


@settings(max_examples=150)
@given(binop_cases(("mul",)), st.sampled_from((0, 1)))
def test_mul_masks_the_top_trailing_zero_bits(case, operand_index):
    op, value_type, a, b = case
    assert_closed_form(binop(op, value_type, a, b), operand_index, (a, b))


@st.composite
def shift_cases(draw):
    width = draw(st.sampled_from(WIDTHS))
    at_or_above = [amount for amount in (width, width + 1, 2 * width,
                                         mask(width))
                   if amount <= mask(width)]
    amount = draw(st.one_of(canonical(width), st.sampled_from(at_or_above)))
    return (draw(st.sampled_from(("shl", "lshr", "ashr"))), IntType(width),
            draw(canonical(width)), amount)


@settings(max_examples=200)
@given(shift_cases())
def test_shifted_value_propagates_the_kept_bits(case):
    op, value_type, value, amount = case
    inst = binop(op, value_type, value, amount)
    assert_closed_form(inst, 0, (value, amount))
    # The shift amount has no closed form: it enumerates.
    assert _closed_form(inst, 1) is None
    assert_matches_reference(inst, 1, [(value, amount)])


@st.composite
def cast_cases(draw, op):
    source = draw(st.sampled_from(WIDTHS))
    if op == "trunc":
        target = draw(st.sampled_from([w for w in WIDTHS if w <= source]))
    else:
        target = draw(st.sampled_from([w for w in WIDTHS if w >= source]))
    return IntType(source), IntType(target), draw(canonical(source))


@settings(max_examples=100)
@given(st.sampled_from(("zext", "sext")), st.data())
def test_extension_sources_propagate_every_flip(op, data):
    source, target, value = data.draw(cast_cases(op))
    inst = Cast(op, const_int(value, source), target)
    assert _closed_form(inst, 0)((value,)) == source.bits
    assert_closed_form(inst, 0, (value,))


@settings(max_examples=100)
@given(st.data())
def test_trunc_propagates_the_low_bits(data):
    source, target, value = data.draw(cast_cases("trunc"))
    inst = Cast("trunc", const_int(value, source), target)
    assert _closed_form(inst, 0)((value,)) == target.bits
    assert_closed_form(inst, 0, (value,))


# -- samples that are not canonical enumerate -----------------------------------

I8 = IntType(8)


@pytest.mark.parametrize("inst, operand_index, sample", [
    # A bool operand.
    (binop("add", I8, 1, 5), 0, (True, 5)),
    (binop("and", I8, 5, 1), 1, (5, True)),
    (binop("mul", I8, 1, 3), 0, (True, 3)),
    # A float in an integer op: trunc and zext convert it, add raises.
    (Cast("trunc", const_int(2, IntType(64)), IntType(32)), 0, (2.5,)),
    (Cast("zext", const_int(2, I8), IntType(32)), 0, (2.0,)),
    (binop("add", I8, 2, 1), 0, (2.5, 1)),
    # A value of 2**bits or more.
    (binop("and", I8, 0, 0x0F), 0, (0x1FF, 0x0F)),
    (binop("or", I8, 0, 0x0F), 0, (0x3, 0x10F)),
    (binop("mul", I8, 0, 3), 0, (256, 3)),
    (binop("lshr", I8, 0, 1), 0, (0x1FF, 1)),
    (binop("ashr", I8, 0, 9), 0, (0x80, 0x109)),
    (Cast("sext", const_int(0, I8), IntType(32)), 0, (0x180,)),
    (Cast("trunc", const_int(0, IntType(16)), I8), 0, (1 << 16,)),
])
def test_non_canonical_sample_gives_the_reference_tuple(inst, operand_index,
                                                        sample):
    assert _closed_form(inst, operand_index)(sample) is None
    assert_matches_reference(inst, operand_index, [sample])


# -- flips evaluated by C-level maps against enumeration, one per family ------

def _f32(pattern: int) -> float:
    return struct.unpack("<f", struct.pack("<I", pattern))[0]


F32_MAX = _f32(0x7F7FFFFF)
#: NaN, infinities, signed zeros, subnormals of both widths, and values
#: whose sums and products overflow f32.
FLOAT_SPECIALS = [
    math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0,
    5e-324, -5e-324, _f32(1), -_f32(1), _f32(0x007FFFFF),
    F32_MAX, -F32_MAX, F32_MAX / 2, 1e38, -3e38, 1.0, -2.5, 0.1,
]


def float_values(width: int):
    if width == 32:
        drawn = st.floats(width=32, allow_nan=True, allow_infinity=True)
    else:
        drawn = st.floats(allow_nan=True, allow_infinity=True,
                          allow_subnormal=True)
    return st.one_of(st.sampled_from(FLOAT_SPECIALS), drawn)


@st.composite
def float_binop_cases(draw):
    width = draw(st.sampled_from((32, 64)))
    values = float_values(width)
    return (draw(st.sampled_from(("fadd", "fsub", "fmul"))),
            FloatType(width), draw(values), draw(values))


@settings(max_examples=300)
@given(float_binop_cases(), st.sampled_from((0, 1)))
def test_float_binop_flips_mapped_at_c_speed(case, operand_index):
    op, value_type, a, b = case
    inst = BinOp(op, const_float(a, value_type), const_float(b, value_type))
    flips = flip_bits_typed((a, b)[operand_index], value_type)
    assert _mapped(inst, operand_index)([a, b], flips) is not None
    assert_matches_reference(inst, operand_index, [(a, b)])


PREDICATES = sorted(ICMP_PREDICATES)


@st.composite
def icmp_cases(draw):
    width = draw(st.sampled_from((1, 8, 32, 64)))
    return (draw(st.sampled_from(PREDICATES)), IntType(width),
            draw(canonical(width)), draw(canonical(width)))


@settings(max_examples=300)
@given(icmp_cases(), st.sampled_from((0, 1)))
def test_icmp_flips_mapped_at_c_speed(case, operand_index):
    predicate, value_type, a, b = case
    inst = ICmp(predicate, const_int(a, value_type), const_int(b, value_type))
    flips = flip_bits_typed((a, b)[operand_index], value_type)
    assert _mapped(inst, operand_index)([a, b], flips) is not None
    assert_matches_reference(inst, operand_index, [(a, b)])


@pytest.mark.parametrize("predicate", PREDICATES)
@pytest.mark.parametrize("sample", [
    (2.5, 1), (1, 2.0),          # a float in an integer slot
    (0x100, 3), (3, 0x1FF),      # a value of 2**bits or more
    (-1, 3), (True, 0),          # a negative int, a bool
])
def test_non_canonical_icmp_sample_flips_one_at_a_time(predicate, sample):
    inst = ICmp(predicate, const_int(0, I8), const_int(0, I8))
    for operand_index in (0, 1):
        flips = flip_bits_typed(sample[operand_index], I8)
        assert _mapped(inst, operand_index)(list(sample), flips) is None
        assert_matches_reference(inst, operand_index, [sample])


def test_mixed_samples_count_each_one_its_own_way():
    inst = binop("and", I8, 0, 0)
    samples = [(3, 0x0F), (True, 0x0F), (0x1FF, 0xF0), (7, 0xFF)]
    assert_matches_reference(inst, 0, samples)
    assert_matches_reference(inst, 1, samples)
