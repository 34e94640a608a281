"""Instruction set of the mini-IR.

The instruction families mirror the LLVM IR subset that TRIDENT reasons
about: integer/floating arithmetic, bitwise logic, shifts, comparisons,
casts, memory operations (alloca/load/store/getelementptr), control flow
(br/ret), calls, and a ``output`` instruction standing in for the printf
calls the paper treats as program output.

Every instruction is also a :class:`~repro.ir.values.Value` (its result).
Def-use chains are maintained eagerly: constructing an instruction appends
it to each operand's ``users`` list.
"""

from __future__ import annotations

from .types import I1, VOID, PointerType, Type
from .values import Value


# ---------------------------------------------------------------------------
# Opcode families
# ---------------------------------------------------------------------------

INT_ARITH_OPS = frozenset({"add", "sub", "mul", "sdiv", "udiv", "srem", "urem"})
INT_LOGIC_OPS = frozenset({"and", "or", "xor"})
INT_SHIFT_OPS = frozenset({"shl", "lshr", "ashr"})
INT_BINARY_OPS = INT_ARITH_OPS | INT_LOGIC_OPS | INT_SHIFT_OPS
FLOAT_BINARY_OPS = frozenset({"fadd", "fsub", "fmul", "fdiv", "frem"})
BINARY_OPS = INT_BINARY_OPS | FLOAT_BINARY_OPS

ICMP_PREDICATES = frozenset(
    {"eq", "ne", "slt", "sle", "sgt", "sge", "ult", "ule", "ugt", "uge"}
)
FCMP_PREDICATES = frozenset({"oeq", "one", "olt", "ole", "ogt", "oge"})

CAST_OPS = frozenset(
    {"trunc", "zext", "sext", "fptrunc", "fpext", "sitofp", "fptosi",
     "uitofp", "fptoui", "bitcast"}
)

#: Opcodes whose corrupted result terminates a static data-dependent
#: instruction sequence (Sec. IV-C: store, comparison, or program output).
SEQUENCE_TERMINATORS = frozenset({"store", "icmp", "fcmp", "output", "ret", "call"})


class Instruction(Value):
    """Base class for all instructions."""

    opcode: str = "?"

    def __init__(self, result_type: Type, operands, name: str = ""):
        super().__init__(result_type, name)
        self.operands: list[Value] = []
        #: Enclosing basic block; set when appended to a block.
        self.parent = None
        #: Module-wide static instruction id, assigned by Module.finalize().
        self.iid: int = -1
        for operand in operands:
            self._add_operand(operand)

    # -- operand management -------------------------------------------------

    def _add_operand(self, operand: Value) -> None:
        if not isinstance(operand, Value):
            raise TypeError(
                f"{self.opcode}: operand must be a Value, got {operand!r}"
            )
        self.operands.append(operand)
        operand.users.append(self)

    def replace_operand(self, index: int, new_operand: Value) -> None:
        """Swap one operand, keeping def-use chains consistent."""
        old = self.operands[index]
        if self in old.users:
            old.users.remove(self)
        self.operands[index] = new_operand
        new_operand.users.append(self)

    def drop_uses(self) -> None:
        """Remove this instruction from its operands' use lists."""
        for operand in self.operands:
            while self in operand.users:
                operand.users.remove(self)

    # -- classification helpers used by the model ---------------------------

    @property
    def has_result(self) -> bool:
        return not self.type.is_void

    @property
    def is_terminator(self) -> bool:
        return isinstance(self, (Branch, Ret))

    @property
    def is_comparison(self) -> bool:
        return isinstance(self, (ICmp, FCmp))

    @property
    def is_logic(self) -> bool:
        return isinstance(self, BinOp) and self.op in INT_LOGIC_OPS

    @property
    def is_shift(self) -> bool:
        return isinstance(self, BinOp) and self.op in INT_SHIFT_OPS

    @property
    def is_cast(self) -> bool:
        return isinstance(self, Cast)

    def short(self) -> str:
        if self.has_result:
            return f"%{self.name or self.iid}"
        return f"<{self.opcode}#{self.iid}>"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        ops = ", ".join(op.short() for op in self.operands)
        return f"<{self.opcode} #{self.iid} ({ops})>"


# ---------------------------------------------------------------------------
# Arithmetic, logic, comparisons, casts
# ---------------------------------------------------------------------------

class BinOp(Instruction):
    """A two-operand arithmetic, logic or shift instruction."""

    def __init__(self, op: str, lhs: Value, rhs: Value, name: str = ""):
        if op not in BINARY_OPS:
            raise ValueError(f"unknown binary op: {op}")
        if lhs.type != rhs.type:
            raise TypeError(f"{op}: operand types differ: {lhs.type} vs {rhs.type}")
        if op in FLOAT_BINARY_OPS and not lhs.type.is_float:
            raise TypeError(f"{op} requires float operands, got {lhs.type}")
        if op in INT_BINARY_OPS and not lhs.type.is_integer:
            raise TypeError(f"{op} requires integer operands, got {lhs.type}")
        super().__init__(lhs.type, [lhs, rhs], name)
        self.op = op

    opcode = "binop"

    @property
    def lhs(self) -> Value:
        return self.operands[0]

    @property
    def rhs(self) -> Value:
        return self.operands[1]


class ICmp(Instruction):
    """Integer comparison producing an i1."""

    opcode = "icmp"

    def __init__(self, predicate: str, lhs: Value, rhs: Value, name: str = ""):
        if predicate not in ICMP_PREDICATES:
            raise ValueError(f"unknown icmp predicate: {predicate}")
        if lhs.type != rhs.type:
            raise TypeError(f"icmp: operand types differ: {lhs.type} vs {rhs.type}")
        super().__init__(I1, [lhs, rhs], name)
        self.predicate = predicate

    @property
    def lhs(self) -> Value:
        return self.operands[0]

    @property
    def rhs(self) -> Value:
        return self.operands[1]


class FCmp(Instruction):
    """Ordered floating point comparison producing an i1."""

    opcode = "fcmp"

    def __init__(self, predicate: str, lhs: Value, rhs: Value, name: str = ""):
        if predicate not in FCMP_PREDICATES:
            raise ValueError(f"unknown fcmp predicate: {predicate}")
        if lhs.type != rhs.type or not lhs.type.is_float:
            raise TypeError(f"fcmp: bad operand types: {lhs.type} vs {rhs.type}")
        super().__init__(I1, [lhs, rhs], name)
        self.predicate = predicate

    @property
    def lhs(self) -> Value:
        return self.operands[0]

    @property
    def rhs(self) -> Value:
        return self.operands[1]


class Cast(Instruction):
    """Width/representation conversion (trunc, zext, sitofp, ...)."""

    opcode = "cast"

    def __init__(self, op: str, value: Value, to_type: Type, name: str = ""):
        if op not in CAST_OPS:
            raise ValueError(f"unknown cast op: {op}")
        super().__init__(to_type, [value], name)
        self.op = op

    @property
    def value(self) -> Value:
        return self.operands[0]


class Select(Instruction):
    """``select cond, a, b`` — ternary choice without control flow."""

    opcode = "select"

    def __init__(self, cond: Value, true_value: Value, false_value: Value,
                 name: str = ""):
        if cond.type != I1:
            raise TypeError("select condition must be i1")
        if true_value.type != false_value.type:
            raise TypeError("select arms must have the same type")
        super().__init__(true_value.type, [cond, true_value, false_value], name)

    @property
    def cond(self) -> Value:
        return self.operands[0]

    @property
    def true_value(self) -> Value:
        return self.operands[1]

    @property
    def false_value(self) -> Value:
        return self.operands[2]


# ---------------------------------------------------------------------------
# Memory
# ---------------------------------------------------------------------------

class Alloca(Instruction):
    """Reserve ``count`` elements of ``elem_type`` in the stack frame."""

    opcode = "alloca"

    def __init__(self, elem_type: Type, count: int = 1, name: str = ""):
        if count < 1:
            raise ValueError("alloca count must be positive")
        super().__init__(PointerType(elem_type), [], name)
        self.elem_type = elem_type
        self.count = count

    @property
    def size_bytes(self) -> int:
        return self.count * self.elem_type.size_bytes


class Load(Instruction):
    """Load a value through a pointer."""

    opcode = "load"

    def __init__(self, pointer: Value, name: str = ""):
        if not pointer.type.is_pointer:
            raise TypeError(f"load requires a pointer, got {pointer.type}")
        super().__init__(pointer.type.pointee, [pointer], name)

    @property
    def pointer(self) -> Value:
        return self.operands[0]


class Store(Instruction):
    """Store a value through a pointer (no result)."""

    opcode = "store"

    def __init__(self, value: Value, pointer: Value):
        if not pointer.type.is_pointer:
            raise TypeError(f"store requires a pointer, got {pointer.type}")
        if pointer.type.pointee != value.type:
            raise TypeError(
                f"store type mismatch: {value.type} into {pointer.type}"
            )
        super().__init__(VOID, [value, pointer])

    @property
    def value(self) -> Value:
        return self.operands[0]

    @property
    def pointer(self) -> Value:
        return self.operands[1]


class GetElementPtr(Instruction):
    """Pointer arithmetic: ``base + index * sizeof(elem)``."""

    opcode = "gep"

    def __init__(self, base: Value, index: Value, name: str = ""):
        if not base.type.is_pointer:
            raise TypeError(f"gep requires a pointer base, got {base.type}")
        if not index.type.is_integer:
            raise TypeError(f"gep index must be an integer, got {index.type}")
        super().__init__(base.type, [base, index], name)

    @property
    def base(self) -> Value:
        return self.operands[0]

    @property
    def index(self) -> Value:
        return self.operands[1]

    @property
    def elem_size(self) -> int:
        return self.type.pointee.size_bytes


# ---------------------------------------------------------------------------
# Control flow and calls
# ---------------------------------------------------------------------------

class Branch(Instruction):
    """Conditional or unconditional branch.

    ``targets`` holds BasicBlock references: one for an unconditional
    branch, two (taken, not-taken) for a conditional one.
    """

    opcode = "br"

    def __init__(self, cond, true_block, false_block=None):
        if cond is None:
            if false_block is not None:
                raise ValueError("unconditional branch takes one target")
            super().__init__(VOID, [])
        else:
            if cond.type != I1:
                raise TypeError("branch condition must be i1")
            if false_block is None:
                raise ValueError("conditional branch needs two targets")
            super().__init__(VOID, [cond])
        self.true_block = true_block
        self.false_block = false_block

    @property
    def is_conditional(self) -> bool:
        return bool(self.operands)

    @property
    def cond(self) -> Value:
        if not self.operands:
            raise ValueError("unconditional branch has no condition")
        return self.operands[0]

    @property
    def targets(self) -> list:
        if self.false_block is None:
            return [self.true_block]
        return [self.true_block, self.false_block]


class Ret(Instruction):
    """Return from the current function, optionally with a value."""

    opcode = "ret"

    def __init__(self, value: Value | None = None):
        super().__init__(VOID, [] if value is None else [value])

    @property
    def value(self) -> Value | None:
        return self.operands[0] if self.operands else None


class Call(Instruction):
    """Call a user function or an intrinsic by name.

    ``callee`` is a string; user functions are resolved against the module
    at execution time, everything else is looked up in the intrinsic table
    (abs, sqrt, exp, min, max, ...).
    """

    opcode = "call"

    def __init__(self, callee: str, args, result_type: Type, name: str = ""):
        super().__init__(result_type, list(args), name)
        self.callee = callee

    @property
    def args(self) -> list[Value]:
        return list(self.operands)


class Output(Instruction):
    """Emit one value to the program's output stream (printf stand-in).

    ``precision`` — if set for a floating point value, the value is
    formatted with that many significant decimal digits (like ``%.Ng``),
    which is what the paper's floating point masking rule models.
    """

    opcode = "output"

    def __init__(self, value: Value, precision: int | None = None):
        super().__init__(VOID, [value])
        if precision is not None and precision < 1:
            raise ValueError("precision must be >= 1")
        self.precision = precision

    @property
    def value(self) -> Value:
        return self.operands[0]


class Phi(Instruction):
    """SSA phi node: selects a value based on the predecessor block.

    ``incoming`` pairs each operand with the predecessor block it flows
    from.  Phis only appear after the mem2reg pass promotes stack slots
    to registers (the builder eDSL emits alloca/load/store form).
    """

    opcode = "phi"

    def __init__(self, value_type, incoming, name: str = ""):
        values = [value for value, _block in incoming]
        for value in values:
            if value.type != value_type:
                raise TypeError(
                    f"phi incoming type {value.type} != {value_type}"
                )
        super().__init__(value_type, values, name)
        self.incoming_blocks = [block for _value, block in incoming]

    @property
    def incoming(self):
        return list(zip(self.operands, self.incoming_blocks))

    def value_for(self, block):
        for value, pred in self.incoming:
            if pred is block:
                return value
        raise KeyError(f"phi has no incoming edge from {block.name}")


class Detect(Instruction):
    """Protection check inserted by the duplication pass.

    Compares the original and duplicated computation; a mismatch at
    runtime raises a detection trap (outcome ``DETECTED``).  This stands
    in for the cmp + branch-to-handler pair the paper's LLVM pass emits.
    """

    opcode = "detect"

    def __init__(self, original: Value, duplicate: Value):
        if original.type != duplicate.type:
            raise TypeError("detect operands must have the same type")
        super().__init__(VOID, [original, duplicate])

    @property
    def original(self) -> Value:
        return self.operands[0]

    @property
    def duplicate(self) -> Value:
        return self.operands[1]
