"""Per-instruction propagation tuples (Sec. IV-C).

Each instruction gets a (propagation, masking, crash) tuple: the
probabilities that an error sitting in one of its operands propagates to
its result, is masked, or crashes the program, with the three summing
to 1.  The paper derives these from "the mechanism of the instruction
and/or the profiled values of the instruction's operands"; we do the
same, but where the paper hand-derives per-opcode rules we can afford to
*measure* the tuple, because our IR semantics are executable: for each
profiled operand sample we flip every operand bit, re-evaluate the
instruction, and count propagated / masked / trapped results.  This
covers the paper's cmp, logic and cast masking rules exactly (e.g. the
``cmp sgt $1, 0`` example of Fig. 2b yields 1/32) and also the divisor-
becomes-zero crash case.

That enumeration defines the tuples.  :class:`TupleDeriver` gets the
same counts for less work (DESIGN.md §5):

* the opcode dispatch is resolved once per (instruction, operand) into
  an evaluator over the ``interp/ops.py`` helpers, and only division
  and remainder, the ops that can trap, pay a ``try`` per flip;
* all flips of an operand come from one
  :func:`~repro.ir.bitutils.flip_bits_typed` call, which packs and
  unpacks a float's flips in one ``struct`` round trip;
* add, sub, xor, and, or, mul, the value operand of a shift, zext, sext
  and trunc count a sample's propagated flips in closed form when every
  operand of the sample is a canonical integer of its width;
* fadd, fsub and fmul (f32 results rounded by
  :func:`~repro.interp.codegen.round_f32`), and every icmp predicate on a
  sample of canonical integers, evaluate all flips of an operand with
  C-level maps over the same Python operations;
* any other sample calls the evaluator once per flip.

:class:`ReferenceTupleDeriver` keeps the per-flip enumeration as the
oracle that the tests and CI compare every tuple against, bit for bit.

Instructions without profiled samples — and opcode families the paper
treats as transparent — default to (1, 0, 0), the paper's heuristic.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import repeat

from ..interp.codegen import round_f32
from ..interp.errors import ArithmeticTrap
from ..interp.ops import (
    eval_cast,
    eval_fcmp,
    eval_float_binop,
    eval_icmp,
    eval_int_binop,
)
from ..ir.bitutils import (
    flip_bit_typed,
    flip_bits_typed,
    popcount,
    trailing_zeros,
)
from ..ir.instructions import (
    BinOp,
    Branch,
    Cast,
    FCmp,
    ICmp,
    Instruction,
    Load,
    Phi,
    Select,
    Store,
)
from ..ir.values import Constant
from ..query.engine import MISS
from .config import TridentConfig


@dataclass(frozen=True)
class PropTuple:
    """(propagation, masking, crash) — sums to 1."""

    propagation: float
    masking: float
    crash: float

    def __post_init__(self):
        total = self.propagation + self.masking + self.crash
        if not math.isclose(total, 1.0, abs_tol=1e-6):
            raise ValueError(f"tuple must sum to 1, got {total}")


IDENTITY = PropTuple(1.0, 0.0, 0.0)


def _same_operand(a, b) -> bool:
    """Operand identity modulo constant interning.

    The builder reuses one :class:`Constant` object across a min/max
    cluster while the parser mints a fresh one per occurrence; matching
    equal constants keeps cluster detection — and therefore the model's
    numbers — invariant under a textual round trip.
    """
    return a is b or (isinstance(a, Constant) and a == b)


def minmax_cmp_of_select(select: Select):
    """The comparison of a min/max-shaped select, or None.

    Matches ``select(cmp(a, b), a, b)`` (arms identical to the compared
    values, in either order) — the lowering of min/max/clamp idioms.
    """
    cond = select.cond
    if not isinstance(cond, (ICmp, FCmp)):
        return None
    true_arm, false_arm = select.true_value, select.false_value
    straight = (_same_operand(cond.lhs, true_arm)
                and _same_operand(cond.rhs, false_arm))
    swapped = (_same_operand(cond.lhs, false_arm)
               and _same_operand(cond.rhs, true_arm))
    if not (straight or swapped):
        return None
    return cond


def cmp_feeds_only_minmax_selects(cmp, value) -> bool:
    """Is every use of this comparison a min/max select over ``value``?

    When true, the corruption of ``value`` is fully accounted for by the
    joint select-arm tuples, and the value→cmp edge must be suppressed
    in the propagation DAG to avoid double counting the same event.
    """
    if not cmp.users:
        return False
    for user in cmp.users:
        if not isinstance(user, Select):
            return False
        if minmax_cmp_of_select(user) is not cmp:
            return False
        if value not in (user.true_value, user.false_value):
            return False
    return True


def _values_equal(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        if a != a and b != b:  # both NaN: no observable difference
            return True
        return a == b
    return a == b


def _masked_count(results: list, original) -> int:
    """How many results :func:`_values_equal` finds equal to ``original``."""
    if original != original:  # NaN: only a NaN result shows no difference
        return sum(1 for result in results if result != result)
    return results.count(original)


def _evaluate(inst: Instruction, operands: list):
    """Re-evaluate a pure instruction on concrete operand values."""
    if isinstance(inst, BinOp):
        if inst.type.is_float:
            return eval_float_binop(inst.op, operands[0], operands[1],
                                    inst.type.bits)
        return eval_int_binop(inst.op, operands[0], operands[1],
                              inst.type.bits)
    if isinstance(inst, ICmp):
        return eval_icmp(inst.predicate, operands[0], operands[1],
                         inst.lhs.type.bits)
    if isinstance(inst, FCmp):
        return eval_fcmp(inst.predicate, operands[0], operands[1])
    if isinstance(inst, Cast):
        return eval_cast(inst.op, operands[0], inst.value.type, inst.type)
    raise TypeError(f"cannot re-evaluate {inst.opcode}")


def _evaluator(inst: Instruction):
    """:func:`_evaluate` with its dispatch resolved: a function of the
    instruction's operand values, positionally."""
    if isinstance(inst, BinOp):
        op, bits = inst.op, inst.type.bits
        if inst.type.is_float:
            return lambda a, b: eval_float_binop(op, a, b, bits)
        return lambda a, b: eval_int_binop(op, a, b, bits)
    if isinstance(inst, ICmp):
        predicate, bits = inst.predicate, inst.lhs.type.bits
        return lambda a, b: eval_icmp(predicate, a, b, bits)
    if isinstance(inst, FCmp):
        predicate = inst.predicate
        return lambda a, b: eval_fcmp(predicate, a, b)
    if isinstance(inst, Cast):
        op, source, target = inst.op, inst.value.type, inst.type
        return lambda value: eval_cast(op, value, source, target)
    raise TypeError(f"cannot re-evaluate {inst.opcode}")


#: The integer ops that can trap: only their flips need a ``try``.
_TRAPPING_OPS = frozenset({"sdiv", "udiv", "srem", "urem"})

#: A flip's result when its evaluation trapped (a crash).
_TRAP = object()


def _trap_as_result(evaluate):
    """``evaluate`` returning :data:`_TRAP` where it would trap."""
    def guarded(*operands):
        try:
            return evaluate(*operands)
        except ArithmeticTrap:
            return _TRAP
    return guarded


def _flip_results(evaluate, operands: list, operand_index: int,
                  flips: list) -> list:
    """``evaluate`` with each flip in place of one operand."""
    if len(operands) == 1:
        return [evaluate(flipped) for flipped in flips]
    a, b = operands
    if operand_index == 0:
        return [evaluate(flipped, b) for flipped in flips]
    return [evaluate(a, flipped) for flipped in flips]


#: Closed forms (DESIGN.md §5): how many of the ``bits`` single-bit flips
#: of one binop operand change the result, given the other operand.
_BINOP_RULES = {
    "add": lambda other, bits: bits,
    "sub": lambda other, bits: bits,
    "xor": lambda other, bits: bits,
    "and": lambda other, bits: popcount(other),
    "or": lambda other, bits: bits - popcount(other),
    "mul": lambda other, bits: bits - trailing_zeros(other) if other else 0,
}
#: The shifted value's flips, given the shift amount.
_SHIFT_RULE = lambda amount, bits: bits - amount % bits


def _canonical(value, bits: int) -> bool:
    """Is ``value`` an int (not a bool) in ``[0, 2**bits)``?"""
    return type(value) is int and 0 <= value < (1 << bits)


#: The Python operation of each float binop and icmp predicate that
#: :func:`_mapped` evaluates flips with (signed predicates compare
#: xor-biased operands, as the generated code does).
_FLOAT_OPERATIONS = {"fadd": operator.add, "fsub": operator.sub,
                     "fmul": operator.mul}
_ICMP_OPERATIONS = {
    "eq": operator.eq, "ne": operator.ne,
    "ult": operator.lt, "ule": operator.le,
    "ugt": operator.gt, "uge": operator.ge,
    "slt": operator.lt, "sle": operator.le,
    "sgt": operator.gt, "sge": operator.ge,
}


def _mapped(inst: Instruction, operand_index: int):
    """An evaluator of all flips of one operand at C speed, or None.

    It takes ``(operands, flips)`` and returns the results the per-flip
    evaluator gives, or None for a sample it does not cover, which must
    call the evaluator per flip: an icmp sample that is not made of
    canonical integers.  None when the instruction has no such form:
    anything but fadd, fsub, fmul and icmp.
    """
    if isinstance(inst, BinOp) and inst.type.is_float:
        operation = _FLOAT_OPERATIONS.get(inst.op)
        if operation is None:
            return None
        if inst.type.bits == 64:
            return lambda operands, flips: list(
                _apply(operation, operands, operand_index, flips))
        return lambda operands, flips: list(map(
            round_f32, _apply(operation, operands, operand_index, flips)))
    if not isinstance(inst, ICmp):
        return None
    operation = _ICMP_OPERATIONS[inst.predicate]
    bits = inst.lhs.type.bits
    bias = 1 << (bits - 1) if inst.predicate in ("slt", "sle", "sgt",
                                                  "sge") else 0

    def results(operands, flips):
        if not (_canonical(operands[0], bits)
                and _canonical(operands[1], bits)):
            return None
        if bias:
            operands = [operands[0] ^ bias, operands[1] ^ bias]
            flips = map(bias.__xor__, flips)
        return list(_apply(operation, operands, operand_index, flips))

    return results


def _apply(operation, operands: list, operand_index: int, flips):
    """``operation`` over two operands with each flip in place of one,
    as a lazy map."""
    if operand_index == 0:
        return map(operation, flips, repeat(operands[1]))
    return map(operation, repeat(operands[0]), flips)


def _closed_form(inst: Instruction, operand_index: int):
    """A counter of one sample's propagated flips in closed form, or None.

    The counter returns the enumeration's count of result-changing
    flips of the operand, or None for a sample that is not made of
    canonical integers, which must enumerate.  None when the operand
    has no closed form: shift amounts, division and remainder,
    compares, float ops, float casts and bitcast.
    """
    if isinstance(inst, Cast):
        source, target = inst.value.type.bits, inst.type.bits
        if not inst.value.type.is_integer:
            return None
        if inst.op == "zext" or (inst.op == "sext" and target >= source):
            count = source
        elif inst.op == "trunc":
            count = min(source, target)
        else:
            return None
        return lambda sample: (count if _canonical(sample[0], source)
                               else None)
    if not isinstance(inst, BinOp) or inst.type.is_float:
        return None
    op, bits = inst.op, inst.type.bits
    if op in ("shl", "lshr", "ashr"):
        rule = _SHIFT_RULE if operand_index == 0 else None
    else:
        rule = _BINOP_RULES.get(op)
    if rule is None:
        return None
    other = 1 - operand_index

    def count(sample):
        if (len(sample) < 2 or not _canonical(sample[0], bits)
                or not _canonical(sample[1], bits)):
            return None
        return rule(sample[other], bits)

    return count


class TupleDeriver:
    """Derives and caches propagation tuples for one profiled program.

    With a :class:`~repro.query.QueryEngine` attached, derived tuples
    additionally live in the shared ``model.tuples`` query store keyed
    on (local index, operand index) per function content — so a rebuilt
    or transformed module re-derives tuples only for functions whose
    code or profile slice actually changed.
    """

    QUERY = "model.tuples"

    def __init__(self, profile, config: TridentConfig, engine=None):
        self.profile = profile
        self.config = config
        self.engine = engine
        self._cache: dict[tuple[int, int], PropTuple] = {}

    def tuple_for(self, inst: Instruction, operand_index: int) -> PropTuple:
        """Tuple for an error entering ``inst`` via operand ``operand_index``."""
        key = (inst.iid, operand_index)
        cached = self._cache.get(key)
        if cached is None:
            cached = self._query(inst, operand_index)
            self._cache[key] = cached
        return cached

    def _query(self, inst: Instruction, operand_index: int) -> PropTuple:
        engine = self.engine
        if engine is None:
            return self._derive(inst, operand_index)
        home, local = engine.index.local(inst.iid)
        view = engine.view(self.QUERY, home)
        stored = view.get((local, operand_index))
        if stored is not MISS:
            return stored
        return view.put((local, operand_index),
                        self._derive(inst, operand_index))

    # ------------------------------------------------------------------

    def _derive(self, inst: Instruction, operand_index: int) -> PropTuple:
        if isinstance(inst, (BinOp, ICmp, FCmp, Cast)):
            return self._empirical(inst, operand_index)
        if isinstance(inst, Select):
            return self._select_tuple(inst, operand_index)
        if isinstance(inst, Phi):
            return self._phi_tuple(inst, operand_index)
        if isinstance(inst, Load) and operand_index == 0:
            # Corrupted load address: crash with the footprint-derived
            # probability; a surviving flip reads wrong data (propagates).
            crash = self.profile.crash_probability(inst.iid)
            return PropTuple(1.0 - crash, 0.0, crash)
        if isinstance(inst, Store) and operand_index == 1:
            crash = self.profile.crash_probability(inst.iid)
            return PropTuple(1.0 - crash, 0.0, crash)
        # gep, call, output, branch, store-value, ret, detect, alloca:
        # transparent (the paper's default heuristic).
        return IDENTITY

    def _empirical(self, inst: Instruction, operand_index: int) -> PropTuple:
        samples = self.profile.samples(inst.iid)
        if not samples:
            return self._fallback(inst, operand_index)
        operand_type = inst.operands[operand_index].type
        bits = operand_type.bits
        closed_form = _closed_form(inst, operand_index)
        mapped = _mapped(inst, operand_index)
        evaluate = _evaluator(inst)
        arity = 1 if isinstance(inst, Cast) else 2
        can_trap = isinstance(inst, BinOp) and inst.op in _TRAPPING_OPS
        evaluate_flip = _trap_as_result(evaluate) if can_trap else evaluate
        propagated = crashed = trials = 0
        for sample in samples[: self.config.tuple_samples]:
            if len(sample) <= operand_index:
                continue
            count = closed_form(sample) if closed_form else None
            if count is not None:
                propagated += count
                trials += bits
                continue
            operands = [sample[i] for i in range(arity)]
            try:
                original = evaluate(*operands)
            except ArithmeticTrap:
                continue  # fault-free run cannot have trapped here
            flips = flip_bits_typed(operands[operand_index], operand_type)
            results = mapped(operands, flips) if mapped else None
            if results is None:
                results = _flip_results(evaluate_flip, operands,
                                        operand_index, flips)
            traps = results.count(_TRAP) if can_trap else 0
            trials += len(results)
            crashed += traps
            propagated += (len(results) - traps
                           - _masked_count(results, original))
        return self._counted_tuple(inst, operand_index, propagated, crashed,
                                   trials)

    def _counted_tuple(self, inst: Instruction, operand_index: int,
                       propagated: int, crashed: int,
                       trials: int) -> PropTuple:
        """The tuple of flip counts (the fallback when nothing was flipped)."""
        if trials == 0:
            return self._fallback(inst, operand_index)
        extra_mask = self._fdiv_masking(inst, operand_index)
        p = (propagated / trials) * (1.0 - extra_mask)
        c = crashed / trials
        return PropTuple(p, max(0.0, 1.0 - p - c), c)

    def _fdiv_masking(self, inst: Instruction, operand_index: int) -> float:
        """Optional extension: fdiv averages out mantissa corruption."""
        if not self.config.model_fdiv_masking:
            return 0.0
        if not (isinstance(inst, BinOp) and inst.op == "fdiv"
                and operand_index == 0):
            return 0.0
        mantissa = inst.type.mantissa_bits
        return 0.25 * mantissa / inst.type.bits

    def _fallback(self, inst: Instruction, operand_index: int) -> PropTuple:
        """Analytic tuples when no runtime samples exist."""
        if isinstance(inst, (ICmp, FCmp)):
            # Only flips near the comparison boundary matter; without
            # value knowledge assume ~2 decisive bits (sign + LSB).
            bits = inst.operands[operand_index].type.bits
            p = min(1.0, 2.0 / bits)
            return PropTuple(p, 1.0 - p, 0.0)
        if isinstance(inst, Cast) and inst.op in ("trunc", "fptrunc"):
            p = min(1.0, inst.type.bits / inst.value.type.bits)
            return PropTuple(p, 1.0 - p, 0.0)
        if isinstance(inst, BinOp) and inst.is_logic:
            if inst.op == "xor":
                return IDENTITY
            return PropTuple(0.5, 0.5, 0.0)  # unknown mask word
        return IDENTITY

    def _select_tuple(self, inst: Select, operand_index: int) -> PropTuple:
        true_prob = self.profile.select_true_probability(inst.iid)
        if operand_index == 0:
            # A flipped condition matters only when the arms differ.
            samples = self.profile.samples(inst.iid)
            if samples:
                differing = sum(
                    1 for s in samples
                    if len(s) == 3 and not _values_equal(s[1], s[2])
                )
                p = differing / len(samples)
            else:
                p = 1.0
            return PropTuple(p, 1.0 - p, 0.0)
        if self.config.model_minmax_joint:
            joint = self._minmax_joint_tuple(inst, operand_index)
            if joint is not None:
                return joint
        if operand_index == 1:
            return PropTuple(true_prob, 1.0 - true_prob, 0.0)
        return PropTuple(1.0 - true_prob, true_prob, 0.0)

    def _phi_tuple(self, inst: Phi, operand_index: int) -> PropTuple:
        """A phi propagates an operand iff control arrived over its edge;
        the propagation probability is the profiled edge frequency."""
        phi_count = self.profile.count(inst.iid)
        if phi_count == 0:
            return IDENTITY
        pred = inst.incoming_blocks[operand_index]
        terminator = pred.terminator
        if isinstance(terminator, Branch) and terminator.is_conditional:
            counts = self.profile.branch_counts.get(terminator.iid, [0, 0])
            edge = 0
            if terminator.true_block is inst.parent:
                edge += counts[1]
            if terminator.false_block is inst.parent:
                edge += counts[0]
        else:
            edge = self.profile.count(terminator.iid)
        p = min(1.0, edge / phi_count)
        return PropTuple(p, 1.0 - p, 0.0)

    # -- min/max select clusters ------------------------------------------

    def _minmax_joint_tuple(self, inst: Select,
                            operand_index: int) -> PropTuple | None:
        """Joint tuple for min/max-shaped selects (cmp + select cluster).

        When the select's condition compares the very arms it selects
        between (``select(a < b, a, b)``), the cmp result and the arm
        value are driven by the same corrupted operand; composing their
        tuples independently misses the correlation (a corrupted loser
        that stays the loser is fully masked).  We therefore evaluate
        the *pair* empirically on the cmp's profiled operand values.
        """
        cmp = minmax_cmp_of_select(inst)
        if cmp is None:
            return None
        samples = self.profile.samples(cmp.iid)
        if not samples:
            return None
        true_is_lhs = _same_operand(inst.true_value, cmp.lhs)
        corrupted_arm = inst.operands[operand_index]
        position = 0 if _same_operand(corrupted_arm, cmp.lhs) else 1
        compare = _evaluator(cmp)

        def evaluate(a, b):
            chosen = compare(a, b)
            true_value = a if true_is_lhs else b
            false_value = b if true_is_lhs else a
            return true_value if chosen else false_value

        propagated, trials = self._joint_counts(
            evaluate, samples[: self.config.tuple_samples], position,
            corrupted_arm.type,
        )
        if trials == 0:
            return None
        p = propagated / trials
        return PropTuple(p, 1.0 - p, 0.0)

    def _joint_counts(self, evaluate, samples, position: int,
                      operand_type) -> tuple[int, int]:
        """(propagated, trials) of flipping one compared operand of a
        min/max pair."""
        propagated = trials = 0
        for sample in samples:
            if len(sample) < 2:
                continue
            operands = [sample[0], sample[1]]
            original = evaluate(*operands)
            flips = flip_bits_typed(operands[position], operand_type)
            results = _flip_results(evaluate, operands, position, flips)
            trials += len(results)
            propagated += len(results) - _masked_count(results, original)
        return propagated, trials


class ReferenceTupleDeriver(TupleDeriver):
    """The per-flip enumeration that defines the tuples, kept as the oracle.

    Every sample and bit goes through :func:`flip_bit_typed` and
    :func:`_evaluate`'s dispatch, with no closed form; a min/max pair's
    flips are evaluated and compared one at a time.  The tests and
    CI's ``tuples`` phase require :class:`TupleDeriver` to equal it on
    every (instruction, operand) pair, all three fields compared with
    ``==``.  Like :class:`~repro.interp.engine.ReferenceEngine`, no
    production path uses it, and it never reads a query store.
    """

    def __init__(self, profile, config: TridentConfig):
        super().__init__(profile, config)

    def _empirical(self, inst: Instruction, operand_index: int) -> PropTuple:
        samples = self.profile.samples(inst.iid)
        if not samples:
            return self._fallback(inst, operand_index)
        samples = samples[: self.config.tuple_samples]
        operand_type = inst.operands[operand_index].type
        bits = operand_type.bits
        propagated = crashed = trials = 0
        for sample in samples:
            operands = list(sample)
            if len(operands) <= operand_index:
                continue
            try:
                original = _evaluate(inst, operands)
            except ArithmeticTrap:
                continue  # fault-free run cannot have trapped here
            faulty = list(operands)
            for bit in range(bits):
                faulty[operand_index] = flip_bit_typed(
                    operands[operand_index], bit, operand_type
                )
                trials += 1
                try:
                    result = _evaluate(inst, faulty)
                except ArithmeticTrap:
                    crashed += 1
                    continue
                if not _values_equal(result, original):
                    propagated += 1
        return self._counted_tuple(inst, operand_index, propagated, crashed,
                                   trials)

    def _joint_counts(self, evaluate, samples, position: int,
                      operand_type) -> tuple[int, int]:
        propagated = trials = 0
        for sample in samples:
            if len(sample) < 2:
                continue
            a, b = sample[0], sample[1]
            original = evaluate(a, b)
            for bit in range(operand_type.bits):
                flipped = flip_bit_typed(
                    (a, b)[position], bit, operand_type
                )
                faulty = (flipped, b) if position == 0 else (a, flipped)
                trials += 1
                if not _values_equal(evaluate(*faulty), original):
                    propagated += 1
        return propagated, trials
