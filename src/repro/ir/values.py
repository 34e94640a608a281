"""Value hierarchy for the mini-IR: constants, arguments, globals.

Instructions are also values (they produce a result); they live in
``instructions.py`` and subclass :class:`Value`.
"""

from __future__ import annotations

from .bitutils import truncate_float, wrap_unsigned
from .types import F64, I32, FloatType, IntType, PointerType, Type


class Value:
    """Anything that can appear as an instruction operand."""

    def __init__(self, value_type: Type, name: str = ""):
        self.type = value_type
        self.name = name
        #: Instructions that use this value as an operand (def-use chain).
        self.users: list = []

    def short(self) -> str:
        """Short textual form used inside operand lists."""
        return f"%{self.name}" if self.name else "%?"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.__class__.__name__} {self.short()}: {self.type}>"


class Constant(Value):
    """An immediate constant of integer or floating point type."""

    def __init__(self, value_type: Type, value):
        super().__init__(value_type)
        if isinstance(value_type, IntType):
            value = wrap_unsigned(int(value), value_type.bits)
        elif isinstance(value_type, FloatType):
            value = truncate_float(float(value), value_type)
        elif isinstance(value_type, PointerType):
            value = int(value)
        else:
            raise ValueError(f"constants of type {value_type} not supported")
        self.value = value

    def short(self) -> str:
        if isinstance(self.type, FloatType):
            return repr(self.value)
        return str(self.value)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Constant)
            and other.type == self.type
            and other.value == self.value
        )

    def __hash__(self) -> int:
        return hash((self.type, self.value))


def const_int(value: int, value_type: IntType = I32) -> Constant:
    """Convenience constructor for integer constants."""
    return Constant(value_type, value)


def const_float(value: float, value_type: FloatType = F64) -> Constant:
    """Convenience constructor for floating point constants."""
    return Constant(value_type, value)


class Argument(Value):
    """A formal parameter of a function."""

    def __init__(self, value_type: Type, name: str, index: int):
        super().__init__(value_type, name)
        self.index = index


class GlobalVariable(Value):
    """A module-level array (or scalar) living in the data segment.

    The value of a global, when used as an operand, is its address; its
    type is therefore a pointer to the element type.  ``initializer`` is a
    list of Python numbers (or a single number for scalars) copied into
    memory before execution.
    """

    def __init__(
        self,
        name: str,
        elem_type: Type,
        count: int = 1,
        initializer=None,
    ):
        super().__init__(PointerType(elem_type), name)
        if count < 1:
            raise ValueError("global must have at least one element")
        self.elem_type = elem_type
        self.count = count
        if initializer is None:
            initializer = [0] * count
        elif not isinstance(initializer, (list, tuple)):
            initializer = [initializer]
        if len(initializer) != count:
            raise ValueError(
                f"global {name}: initializer has {len(initializer)} elements, "
                f"expected {count}"
            )
        self.initializer = list(initializer)

    @property
    def size_bytes(self) -> int:
        return self.count * self.elem_type.size_bytes

    def short(self) -> str:
        return f"@{self.name}"
