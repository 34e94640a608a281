"""Unit and property tests for bit-level helpers."""

import math
import struct

import pytest
from hypothesis import given, strategies as st

from repro.ir.bitutils import (
    bits_to_float,
    flip_bit_float,
    flip_bit_int,
    flip_bit_typed,
    flip_bits_typed,
    float_to_bits,
    format_with_precision,
    from_signed,
    mask,
    popcount,
    to_signed,
    trailing_zeros,
    truncate_float,
    wrap_unsigned,
)
from repro.ir.types import F32, F64, I32, VOID, IntType, PointerType


class TestMaskAndWrap:
    def test_mask(self):
        assert mask(1) == 1
        assert mask(8) == 0xFF
        assert mask(32) == 0xFFFFFFFF

    def test_wrap_unsigned(self):
        assert wrap_unsigned(-1, 8) == 0xFF
        assert wrap_unsigned(256, 8) == 0
        assert wrap_unsigned(257, 8) == 1

    def test_signed_round_trip(self):
        assert to_signed(0xFF, 8) == -1
        assert to_signed(0x7F, 8) == 127
        assert from_signed(-128, 8) == 0x80
        assert to_signed(from_signed(-5, 32), 32) == -5


class TestFloatBits:
    def test_known_encoding(self):
        assert float_to_bits(1.0, 32) == 0x3F800000
        assert float_to_bits(1.0, 64) == 0x3FF0000000000000

    def test_round_trip_f64(self):
        for value in (0.0, 1.5, -2.25, 1e300, -1e-300):
            assert bits_to_float(float_to_bits(value, 64), 64) == value

    def test_sign_flip(self):
        assert flip_bit_float(1.0, 63, 64) == -1.0
        assert flip_bit_float(2.5, 31, 32) == -2.5

    def test_unsupported_width(self):
        with pytest.raises(ValueError):
            float_to_bits(1.0, 16)


class TestFlip:
    def test_flip_int(self):
        assert flip_bit_int(0, 0, 32) == 1
        assert flip_bit_int(1, 0, 32) == 0
        assert flip_bit_int(0, 31, 32) == 0x80000000

    def test_flip_out_of_range(self):
        with pytest.raises(ValueError):
            flip_bit_int(0, 32, 32)

    def test_flip_typed_dispatch(self):
        assert flip_bit_typed(5, 1, I32) == 7
        assert flip_bit_typed(1.0, 63, F64) == -1.0

    def test_flip_is_involution(self):
        value = 0xDEADBEEF
        for bit in range(32):
            assert flip_bit_int(flip_bit_int(value, bit, 32), bit, 32) == value


class TestTruncateFloat:
    def test_f64_identity(self):
        assert truncate_float(1.1, F64) == 1.1

    def test_f32_loses_precision(self):
        truncated = truncate_float(1.1, F32)
        assert truncated != 1.1
        assert abs(truncated - 1.1) < 1e-6

    def test_f32_overflow_to_inf(self):
        assert truncate_float(1e300, F32) == math.inf
        assert truncate_float(-1e300, F32) == -math.inf

    def test_nan_preserved(self):
        assert math.isnan(truncate_float(math.nan, F32))


class TestFormatting:
    def test_precision_g(self):
        assert format_with_precision(123.456, 2) == "1.2e+02"
        assert format_with_precision(0.0001234, 2) == "0.00012"
        assert format_with_precision(1.0, 3) == "1"

    def test_popcount(self):
        assert popcount(0) == 0
        assert popcount(0xFF) == 8
        assert popcount(1 << 40) == 1

    def test_trailing_zeros(self):
        assert trailing_zeros(1) == 0
        assert trailing_zeros(12) == 2
        assert trailing_zeros(1 << 63) == 63


def one_by_one(value, value_type):
    return [flip_bit_typed(value, bit, value_type)
            for bit in range(value_type.bits)]


def encodings(values):
    """Each float's IEEE-754 double encoding: equality bit for bit."""
    return [struct.pack("<d", value) for value in values]


F32_MAX = struct.unpack("<f", struct.pack("<I", 0x7F7FFFFF))[0]


class TestBatchedFlips:
    @pytest.mark.parametrize("value_type", [F32, F64], ids=str)
    @pytest.mark.parametrize("value", [
        0.0, -0.0, 1.0, -2.5, math.inf, -math.inf, math.nan,
        2.0 ** -149, 2.0 ** -140, 5e-324, 2.0 ** -1030, F32_MAX, -F32_MAX,
    ])
    def test_float_flips_match_bit_for_bit(self, value_type, value):
        batched = flip_bits_typed(value, value_type)
        assert len(batched) == value_type.bits
        assert encodings(batched) == encodings(one_by_one(value, value_type))

    def test_float_value_overflowing_f32_raises_like_one_by_one(self):
        with pytest.raises(OverflowError):
            flip_bit_typed(1e300, 0, F32)
        with pytest.raises(OverflowError):
            flip_bits_typed(1e300, F32)

    @pytest.mark.parametrize("bits", range(1, 65))
    def test_int_flips_match_at_every_width(self, bits):
        value_type = IntType(bits)
        for value in (0, mask(bits), 1 << (bits - 1), 0x5A5A5A5A & mask(bits)):
            assert (flip_bits_typed(value, value_type)
                    == one_by_one(value, value_type))

    def test_pointer_and_non_canonical_values(self):
        pointer = PointerType(I32)
        assert flip_bits_typed(0x1000, pointer) == one_by_one(0x1000, pointer)
        for value in (True, 2.75, 1 << 40):
            assert flip_bits_typed(value, I32) == one_by_one(value, I32)

    def test_void_has_no_flips(self):
        assert flip_bits_typed(0, VOID) == one_by_one(0, VOID) == []


# -- property-based -----------------------------------------------------------

@given(st.integers(min_value=-(2**31), max_value=2**31 - 1))
def test_signed_unsigned_round_trip(value):
    assert to_signed(from_signed(value, 32), 32) == value


@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.integers(min_value=0, max_value=31))
def test_flip_changes_exactly_one_bit(value, bit):
    flipped = flip_bit_int(value, bit, 32)
    assert popcount(value ^ flipped) == 1


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_float_bits_round_trip(value):
    assert bits_to_float(float_to_bits(value, 64), 64) == value


@given(st.integers(min_value=1, max_value=64), st.integers())
def test_wrap_bounds(bits, value):
    wrapped = wrap_unsigned(value, bits)
    assert 0 <= wrapped <= mask(bits)
