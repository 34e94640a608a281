"""Bit-level helpers shared by the interpreter, fault injector and model.

All integer register values are stored as Python ints in two's-complement
*unsigned* canonical form for their bit width (``0 <= v < 2**bits``).
Floating point registers are stored as Python floats; bit flips on them go
through the IEEE-754 encoding via ``struct``.
"""

from __future__ import annotations

import math
import struct

from .types import FloatType, IntType, PointerType, Type


def mask(bits: int) -> int:
    """All-ones mask for a bit width."""
    return (1 << bits) - 1


def wrap_unsigned(value: int, bits: int) -> int:
    """Canonicalize an integer into unsigned two's-complement form."""
    return value & mask(bits)


def to_signed(value: int, bits: int) -> int:
    """Interpret a canonical unsigned value as a signed integer."""
    sign_bit = 1 << (bits - 1)
    return value - (1 << bits) if value & sign_bit else value


def from_signed(value: int, bits: int) -> int:
    """Encode a (possibly negative) Python int as canonical unsigned."""
    return value & mask(bits)


def float_to_bits(value: float, bits: int) -> int:
    """IEEE-754 encode a float into an integer of the given width."""
    if bits == 32:
        return struct.unpack("<I", struct.pack("<f", value))[0]
    if bits == 64:
        return struct.unpack("<Q", struct.pack("<d", value))[0]
    raise ValueError(f"unsupported float width: {bits}")


def bits_to_float(pattern: int, bits: int) -> float:
    """Decode an IEEE-754 bit pattern into a Python float."""
    if bits == 32:
        return struct.unpack("<f", struct.pack("<I", pattern & mask(32)))[0]
    if bits == 64:
        return struct.unpack("<d", struct.pack("<Q", pattern & mask(64)))[0]
    raise ValueError(f"unsupported float width: {bits}")


def flip_bit_int(value: int, bit: int, bits: int) -> int:
    """Flip one bit of a canonical unsigned integer."""
    if not 0 <= bit < bits:
        raise ValueError(f"bit {bit} out of range for i{bits}")
    return value ^ (1 << bit)


def flip_bit_float(value: float, bit: int, bits: int) -> float:
    """Flip one bit of the IEEE-754 encoding of a float."""
    pattern = flip_bit_int(float_to_bits(value, bits), bit, bits)
    return bits_to_float(pattern, bits)


def flip_bit_typed(value, bit: int, value_type: Type):
    """Flip one bit of a register value of the given IR type."""
    if isinstance(value_type, FloatType):
        return flip_bit_float(float(value), bit, value_type.bits)
    if isinstance(value_type, (IntType, PointerType)):
        return flip_bit_int(int(value), bit, value_type.bits)
    raise ValueError(f"cannot flip bits of a {value_type} value")


#: struct codes of a float width's (bit pattern, value) pair.
_FLOAT_CODES = {32: ("I", "f"), 64: ("Q", "d")}


def flip_bits_typed(value, value_type: Type) -> list:
    """Every single-bit flip of a register value, low bit first.

    Equals ``[flip_bit_typed(value, bit, value_type) for bit in
    range(value_type.bits)]``; a float's flips share one ``struct``
    pack/unpack pair instead of a round trip per bit.  Fault injection
    keeps :func:`flip_bit_typed`: a trial flips one bit.
    """
    bits = value_type.bits
    if isinstance(value_type, FloatType):
        pattern_code, value_code = _FLOAT_CODES[bits]
        pattern = float_to_bits(float(value), bits)
        packed = struct.pack(f"<{bits}{pattern_code}",
                             *[pattern ^ (1 << bit) for bit in range(bits)])
        return list(struct.unpack(f"<{bits}{value_code}", packed))
    if isinstance(value_type, (IntType, PointerType)):
        value = int(value)
        return [value ^ (1 << bit) for bit in range(bits)]
    return [flip_bit_typed(value, bit, value_type) for bit in range(bits)]


def popcount(value: int) -> int:
    """Number of set bits."""
    return bin(value & ((1 << 128) - 1)).count("1")


def trailing_zeros(value: int) -> int:
    """Number of trailing zero bits of a positive integer."""
    return (value & -value).bit_length() - 1


def truncate_float(value: float, float_type: FloatType) -> float:
    """Round-trip a Python float through the given IEEE width.

    f64 is the native Python float so it is an identity; f32 rounds to
    single precision, matching what a real register would hold.
    """
    if float_type.bits == 64:
        return value
    if math.isnan(value) or math.isinf(value):
        return value
    try:
        return struct.unpack("<f", struct.pack("<f", value))[0]
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def format_with_precision(value: float, digits: int) -> str:
    """Render a float the way a ``%.<digits>g`` printf conversion would.

    This is the output formatting whose reduced precision the paper's
    floating-point masking rule models (Sec. IV-E, "Floating Point").
    """
    return f"%.{digits}g" % value
