"""Selective instruction duplication pass (Sec. VI).

For each protected instruction the pass inserts a clone computing the
same operation from the same (or cloned) operands, and a ``detect``
check comparing original and clone — the cmp + branch-to-handler pair
of the paper's LLVM pass.  When protected instructions form a
data-dependent chain, clones feed clones and one check suffices at the
chain's end ("we only place one comparison instruction at the latter
protected instruction"), reducing overhead exactly as the paper does.

The pass works on a *clone* of the input module (via the textual
round-trip), so the original stays untouched for baseline comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ir.instructions import (
    BinOp,
    Cast,
    Detect,
    FCmp,
    GetElementPtr,
    ICmp,
    Instruction,
    Load,
    Select,
)
from ..ir.module import Module
from ..ir.parser import parse_module
from ..ir.printer import print_module
from ..ir.values import Value

#: Instruction classes the pass can duplicate.  Calls and allocas have
#: side effects / identity; stores and terminators have no result.
DUPLICABLE = (BinOp, Cast, ICmp, FCmp, GetElementPtr, Select, Load)


def is_duplicable(inst: Instruction) -> bool:
    return isinstance(inst, DUPLICABLE)


def clone_module(module: Module) -> Module:
    """Deep-copy a module through its textual form (iids preserved)."""
    return parse_module(print_module(module))


@dataclass
class DuplicationReport:
    """What the pass did."""

    protected_iids: set[int]
    duplicated: int
    checks_inserted: int
    checks_merged: int
    #: Functions that received clones/checks; all other functions keep
    #: their fingerprints, so their model queries survive the pass.
    touched_functions: set[str] = field(default_factory=set)


def duplicate_instructions(module: Module,
                           protected_iids) -> tuple[Module, DuplicationReport]:
    """Return a protected clone of ``module`` plus a transformation report.

    ``protected_iids`` refers to static ids of the *input* module; ids
    of the returned module differ (it is re-finalized after insertion).
    """
    protected_iids = set(protected_iids)
    protected_module = clone_module(module)

    # Collect target instructions in definition order so operand clones
    # exist before their users' clones.
    targets: list[Instruction] = []
    for inst in protected_module.instructions():
        if inst.iid in protected_iids:
            if not is_duplicable(inst):
                raise ValueError(
                    f"instruction #{inst.iid} ({inst.opcode}) cannot be "
                    "duplicated"
                )
            targets.append(inst)

    clone_of: dict[int, Instruction] = {}  # id(original) -> clone
    protected_set = {id(inst) for inst in targets}
    duplicated = checks = merged = 0

    for inst in targets:
        clone = _clone_instruction(inst, clone_of)
        inst.parent.insert_after(inst, clone)
        clone_of[id(inst)] = clone
        duplicated += 1

        # Chain optimization: if some protected instruction consumes this
        # result, its own clone re-checks downstream — skip the check here.
        if any(id(user) in protected_set for user in inst.users
               if isinstance(user, Instruction)):
            merged += 1
            continue
        check = Detect(inst, clone)
        inst.parent.insert_after(clone, check)
        checks += 1

    protected_module.finalize()
    report = DuplicationReport(
        protected_iids=protected_iids,
        duplicated=duplicated,
        checks_inserted=checks,
        checks_merged=merged,
        touched_functions={inst.parent.parent.name for inst in targets},
    )
    return protected_module, report


def _clone_instruction(inst: Instruction,
                       clone_of: dict[int, Instruction]) -> Instruction:
    def operand(value: Value) -> Value:
        replacement = clone_of.get(id(value))
        return replacement if replacement is not None else value

    if isinstance(inst, BinOp):
        return BinOp(inst.op, operand(inst.lhs), operand(inst.rhs))
    if isinstance(inst, ICmp):
        return ICmp(inst.predicate, operand(inst.lhs), operand(inst.rhs))
    if isinstance(inst, FCmp):
        return FCmp(inst.predicate, operand(inst.lhs), operand(inst.rhs))
    if isinstance(inst, Cast):
        return Cast(inst.op, operand(inst.value), inst.type)
    if isinstance(inst, GetElementPtr):
        return GetElementPtr(operand(inst.base), operand(inst.index))
    if isinstance(inst, Select):
        return Select(operand(inst.cond), operand(inst.true_value),
                      operand(inst.false_value))
    if isinstance(inst, Load):
        return Load(operand(inst.pointer))
    raise ValueError(f"cannot clone {inst.opcode}")


def duplicable_iids(module: Module) -> list[int]:
    """Static ids of every instruction the pass could protect."""
    return [
        inst.iid for inst in module.instructions() if is_duplicable(inst)
    ]
