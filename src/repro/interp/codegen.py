"""Generated code: basic blocks compiled to Python functions.

This is how :class:`repro.interp.engine.ExecutionEngine` executes.  The
tests' closure steps pay a Python call per step plus one or two calls
per operand fetch.  This module eliminates that dispatch by translating
every compiled block — and, in the fast and inject variants,
straight-line *superblocks* along unconditional-jump chains — into a
single Python function generated as source, ``compile()``'d and
``exec``'d once per engine, on its first run.  A value whose every user
is a non-phi instruction of its own block (:func:`block_locals`) lives
in a Python local ``v<slot>``; it is dead at every block boundary, so
its frame slot stays ``None``.  Other operands are ``slots[i]``
subscripts or embedded literals.  Common operations are inlined: masked
adds, compares (signed ones as ``(a ^ S) OP (b ^ S)`` with
``S = 1 << (bits - 1)``), sign extension as ``(x ^ S) - S``, direct
float arithmetic with one-call f32 rounding (:func:`round_f32`), and,
in the fast and inject variants, loads and stores straight on the run's
``memory.cells`` and ``memory.valid``, which a block function binds
once where it uses them (they stay the same objects for a whole run).
A load is one ``cells.get`` probe: every cell sits at a valid address
and none holds ``None`` (see :class:`~repro.interp.memory.MemoryState`),
so only a miss calls a helper, which tests validity.  A store tests
validity and assigns.  Rare or trap-raising operations call the exact
helpers of :mod:`repro.interp.ops`.  Results stay bit-identical with
the closure steps, which the tests run through
:class:`repro.interp.engine.ReferenceEngine`.

Three specializations are generated from the same step templates:

* the **fast** variant carries *zero* injection checks — golden runs,
  the snapshot-capturing golden pass, and every trial executing
  outside the armed instruction's blocks use it;
* the **inject** variant guards every destination register (steps and
  phi edge copies) with the closure steps' ``state.inject_iid`` check;
* the **profile** variant adds the profiler's bookkeeping into the
  run's state (:meth:`repro.interp.engine.ExecutionEngine.profile`).
  Only profiling builds it, and a profile runs once, so it shares
  neither the superblock chains (each block function holds one IR
  block) nor the inline load and store: its bookkeeping helpers
  :func:`_read` and :func:`_wrote` perform the access, with the same
  values, defaults, reinterpretation and :class:`MemoryFault` texts.  A
  sampling site numbers its instances by its block's counter, except
  after a call into the module, which may re-enter the block.

A function the generator cannot translate raises
:class:`InterpreterBug`; there is no fallback.

A generated function's *covered* iid set records exactly which
instructions the inject variant guards; the engine dispatches through a
per-``inject_iid`` table that selects the inject variant only for
functions covering the armed iid, and only until the fault fires, so
occurrence bookkeeping is identical to the closure steps' while the
common path stays clean.

Block functions have the signature ``(state, frame) -> int``: they
execute one (super)block iteration — successor phi moves included —
and return the local index of the next block, or ``-1`` after ``ret``
(the return value parks in ``state.ret_value``).  Each is compiled on
its own, which peaks at a fraction of the memory of one ``compile()``
over a whole function.  The driver loop lives in
:meth:`repro.interp.engine.ExecutionEngine._cg_run`; a call goes
through the run's dispatch, ``state.call``.
"""

from __future__ import annotations

from struct import Struct

from ..ir.bitutils import mask, to_signed
from ..ir.instructions import (
    Alloca,
    BinOp,
    Branch,
    Call,
    Cast,
    Detect,
    FCmp,
    GetElementPtr,
    ICmp,
    Instruction,
    Load,
    Output,
    Phi,
    Ret,
    Select,
    Store,
)
from ..ir.types import FloatType, IntType
from ..ir.values import Argument, Constant, GlobalVariable
from .errors import DetectionTrap, HangFault, InterpreterBug, MemoryFault
from .intrinsics import call_intrinsic, is_intrinsic
from .ops import (
    eval_cast,
    eval_fcmp,
    eval_float_binop,
    eval_icmp,
    eval_int_binop,
    format_output,
    reinterpret_loaded,
)

#: Interpreter tier names, a setting of
#: :class:`repro.fi.campaign.FaultInjector`, and the environment knob
#: that selects one.  On the batch tier (:mod:`repro.interp.batch`)
#: campaign trials run in numpy lockstep, and a lane that leaves
#: lockstep re-runs as a trial on the generated block functions.
TIER_CODEGEN = "codegen"
TIER_BATCH = "batch"
TIERS = (TIER_CODEGEN, TIER_BATCH)
TIER_ENV = "REPRO_INTERP_TIER"

#: Longest unconditional-jump chain inlined into one superblock.
CHAIN_LIMIT = 16

_MASK64 = mask(64)


def resolve_tier(tier: str | None = None) -> str:
    """Resolve a tier request: explicit arg > $REPRO_INTERP_TIER > codegen."""
    if tier is None:
        # Late import: repro.core.env is dependency-free, but keeping the
        # interpreter importable without the core package helps tooling.
        from ..core.env import env_choice
        tier = env_choice(TIER_ENV, TIER_CODEGEN, TIERS)
    if tier not in TIERS:
        raise ValueError(
            f"unknown interpreter tier {tier!r}; expected one of {TIERS}"
        )
    return tier


_F32 = Struct("<f")
_pack_f32, _unpack_f32 = _F32.pack, _F32.unpack
_INF = float("inf")


def round_f32(value: float) -> float:
    """A float rounded to single precision, in one call: equal to
    ``truncate_float(value, FloatType(32))`` bit for bit.  A NaN passes
    through unchanged, payload included (packing it would narrow the
    payload), and a finite value beyond the f32 range rounds to ±inf."""
    if value != value:
        return value
    try:
        return _unpack_f32(_pack_f32(value))[0]
    except OverflowError:
        return _INF if value > 0 else -_INF


_ICMP_UNSIGNED = {"eq": "==", "ne": "!=", "ult": "<", "ule": "<=",
                  "ugt": ">", "uge": ">="}
_ICMP_SIGNED = {"slt": "<", "sle": "<=", "sgt": ">", "sge": ">="}
_FCMP_ORDERED = {"oeq": "==", "one": "!=", "olt": "<", "ole": "<=",
                 "ogt": ">", "oge": ">="}
_INT_MASKED = {"add": "+", "sub": "-", "mul": "*"}
_INT_BITWISE = {"and": "&", "or": "|", "xor": "^"}
_FLOAT_DIRECT = {"fadd": "+", "fsub": "-", "fmul": "*"}


#: Block-function specializations, all emitted from the same step
#: templates.
FAST, INJECT, PROFILE = "fast", "inject", "profile"

#: Steps whose operand tuples the profile variant samples, and memory
#: accesses whose P(crash | address bit flip) it samples.
SAMPLED_OPERANDS = (BinOp, ICmp, FCmp, Cast, Select)
MEMORY_ACCESSES = (Load, Store)

_ADDRESS_FLIPS = tuple(1 << bit for bit in range(64))


def next_kept(draw, n: int, cap: int) -> tuple[int, int]:
    """The first instance after the ``n``-th that reservoir sampling
    keeps, and the slot it replaces.

    Instance ``m > cap`` draws ``randrange(m)`` from the site's stream
    (``draw`` is its ``getrandbits``) and replaces that slot when it is
    below ``cap``.  The draw is CPython's ``_randbelow_with_getrandbits``
    (3.10 to 3.13) bit for bit, and which instances are kept does not
    depend on the sampled values, so the schedule is drawn ahead here
    and the generated code only compares a counter against it.
    """
    while True:
        n += 1
        k = n.bit_length()
        r = draw(k)
        while r >= n:
            r = draw(k)
        if r < cap:
            return n, r


def _keep(state, iid: int, value) -> None:
    """Store the sample of a kept instance, then schedule the site's
    next one: the first ``cap`` instances fill the reservoir, and the
    site's stream is created when they have."""
    n = state.next_kept[iid]
    cap = state.sample_cap
    if n <= cap:
        state.samples[iid].append(value)
        if n < cap:
            state.next_kept[iid] = n + 1
            return
        state.draws[iid] = state.site_rng(iid).getrandbits
    else:
        state.samples[iid][state.kept_slot[iid]] = value
    state.next_kept[iid], state.kept_slot[iid] = next_kept(
        state.draws[iid], n, cap
    )


def _crash_prob(state, address: int) -> float:
    """P(crash) over the 64 single-bit flips of an access address,
    against the live validity set (the paper approximates this from the
    program's allocated memory).  Memoized per address and
    ``MemoryState.generation``, which moves whenever the set does."""
    memory = state.memory
    key = (address, memory.generation)
    prob = state.crash_probs.get(key)
    if prob is None:
        valid = sum(map(memory.valid.__contains__,
                        map(address.__xor__, _ADDRESS_FLIPS)))
        prob = state.crash_probs[key] = (64 - valid) / 64
    return prob


def _unset(state, address: int, default):
    """A load that found no cell: ``default`` at a valid address that
    was never written, else the same ``MemoryFault`` as
    ``MemoryState.load``."""
    if address in state.memory.valid:
        return default
    raise MemoryFault(address, "load")


def _read(state, address: int, iid: int, value_type):
    """The profile variant's load of a ``value_type`` value.

    A load of a stored address adds one dynamic dependency to the (last
    writer, load) edge and joins that store instance's readers.  The
    value is the fast template's: the cell, :func:`_unset`'s default or
    ``MemoryFault`` on a miss, and ``reinterpret_loaded`` for a cell of
    another type or width."""
    entry = state.writers.get(address)
    if entry is not None:
        key = (entry[0], iid)
        state.edges[key] = state.edges.get(key, 0) + 1
        if entry[1] is None:
            entry[1] = {iid}
        else:
            entry[1].add(iid)
    value = state.memory.cells.get(address)
    is_float = value_type.__class__ is FloatType
    if value is None:
        return _unset(state, address, 0.0 if is_float else 0)
    if (value.__class__ is not float if is_float else
            value.__class__ is float or value >= 1 << value_type.bits):
        return reinterpret_loaded(value, value_type)
    return value


def _wrote(state, address: int, iid: int, value) -> None:
    """The profile variant's store.

    It closes the address's previous instance and becomes its last
    writer; rewriting the value already there is silent.  Then the
    fast template's store: the same ``MemoryFault`` at an invalid
    address, else the assignment."""
    memory = state.memory
    if value == memory.cells.get(address):
        state.events[iid] += 1
    entry = state.writers.get(address)
    if entry is None:
        state.writers[address] = [iid, None]
    else:
        finish_store(state, entry)
        entry[:] = iid, None
    if address not in memory.valid:
        raise MemoryFault(address, "store")
    memory.cells[address] = value


def finish_store(state, entry) -> None:
    """Close one store instance ``[store iid, reader iids or None]``:
    record which loads observed it."""
    store_iid, readers = entry
    if readers:
        read = state.read_instances
        read[store_iid] = read.get(store_iid, 0) + 1
    key = (store_iid, frozenset(readers or ()))
    state.reader_sets[key] = state.reader_sets.get(key, 0) + 1


def generate_function(engine, compiled):
    """Generate, compile and exec the fast and inject variants of one
    function.

    Returns ``(fast, inject, covered)``: block-function lists indexed by
    the blocks' local indices, and the per-block-function frozensets of
    iids the inject variant guards.  Raises on any instruction the
    generator cannot translate; the engine reports that as an
    :class:`InterpreterBug`.
    """
    codegen = _FunctionCodegen(engine, compiled)
    fast, _ = codegen.build(FAST)
    inject, covered = codegen.build(INJECT)
    return fast, inject, covered


def generate_profile_function(engine, compiled):
    """Generate, compile and exec only the profile variant of one
    function; returns its block functions by local index."""
    return _FunctionCodegen(engine, compiled).build(PROFILE)[0]


def block_locals(function) -> frozenset:
    """ids of the instructions of ``function`` whose value is dead at
    every block boundary: it has a result, it is not a phi, and every
    user is a non-phi instruction of its own block.  Generated code
    keeps such a value in a Python local, never in its frame slot."""
    escaping = set()
    for inst in function.instructions():
        for operand in inst.operands:
            if isinstance(operand, Instruction) and (
                    isinstance(inst, Phi) or inst.parent is not operand.parent):
                escaping.add(id(operand))
    return frozenset(
        id(inst) for inst in function.instructions()
        if inst.has_result and not isinstance(inst, Phi)
        and id(inst) not in escaping
    )


class _FunctionCodegen:
    def __init__(self, engine, compiled):
        self.engine = engine
        self.compiled = compiled
        self.local = block_locals(compiled.function)
        self.variant = FAST
        self.lines: list[str] = []
        #: The locals (``_c``, ``_va``, ``_nk``, ...) the block function
        #: being emitted binds so far.
        self.bound_locals: set[str] = set()
        #: What numbers the profile's sampling sites in the block being
        #: emitted: its count's expression, ``_n`` once read, or None
        #: after a call into the module (see :meth:`emit_profile`).
        self.instance_number: str | None = None
        self._bound: dict[int, str] = {}
        self.namespace = {
            "_ib": eval_int_binop,
            "_fb": eval_float_binop,
            "_icmp": eval_icmp,
            "_fcmp": eval_fcmp,
            "_cast": eval_cast,
            "_f32": round_f32,
            "_intr": call_intrinsic,
            "_fmt": format_output,
            "_rl": reinterpret_loaded,
            "_inj": engine._maybe_inject,
            "_Hang": HangFault,
            "_Det": DetectionTrap,
            "_MF": MemoryFault,
            "_unset": _unset,
            "_keep": _keep,
            "_cp": _crash_prob,
            "_read": _read,
            "_wrote": _wrote,
        }

    # -- namespace ----------------------------------------------------

    def bind(self, obj) -> str:
        """Name a non-literal object (type, callee, nan/inf) in the
        exec namespace and return the name."""
        key = id(obj)
        name = self._bound.get(key)
        if name is None:
            name = f"_k{len(self._bound)}"
            self._bound[key] = name
            self.namespace[name] = obj
        return name

    def home(self, inst) -> str:
        """Where a step's value lives: ``v<slot>``, a Python local, for
        a block-local value, else its frame slot."""
        index = self.compiled.slot_of[id(inst)]
        return f"v{index}" if id(inst) in self.local else f"slots[{index}]"

    def expr(self, value) -> str:
        """Side-effect-free source expression for an operand."""
        if isinstance(value, Constant):
            constant = value.value
            if isinstance(constant, float) and (
                    constant != constant or constant in
                    (float("inf"), float("-inf"))):
                return self.bind(constant)  # no nan/inf literals
            return repr(constant)
        if isinstance(value, GlobalVariable):
            return repr(self.engine.layout.addresses[value.name])
        if isinstance(value, Argument):
            return f"slots[{value.index}]"
        if isinstance(value, Instruction):
            return self.home(value)
        raise InterpreterBug(f"cannot fetch {value!r}")

    # With ``S = 1 << (bits - 1)``, ``(x ^ S) - S == to_signed(x, bits)``
    # for every Python int ``x``, so ``x ^ S`` orders values as signed.

    def signed_expr(self, value, bits: int) -> str:
        """An integer operand as a signed value: ``(x ^ S) - S``."""
        if isinstance(value, Constant) and not isinstance(value.value, float):
            return repr(to_signed(value.value, bits))
        bias = 1 << (bits - 1)
        return f"(({self.expr(value)} ^ {bias}) - {bias})"

    def biased_expr(self, value, bits: int) -> str:
        """``x ^ S``, which orders integer operands as signed values."""
        bias = 1 << (bits - 1)
        if isinstance(value, Constant) and not isinstance(value.value, float):
            return repr(value.value ^ bias)
        return f"({self.expr(value)} ^ {bias})"

    # -- whole-function assembly --------------------------------------

    def build(self, variant: str):
        """One specialization of every block function, each compiled
        separately and exec'd into the shared namespace.  Returns the
        functions by local index and the iid sets each one guards."""
        self.variant = variant
        functions, covered = [], []
        for cblock in self.compiled.blocks.values():
            name = f"_{variant}{cblock.local_index}"
            guarded = self.emit_block_fn(cblock, name)
            code = compile("\n".join(self.lines) + "\n",
                           f"<codegen:{self.compiled.function.name}>", "exec")
            exec(code, self.namespace)
            functions.append(self.namespace[name])
            covered.append(frozenset(guarded))
        return functions, covered

    def emit_block_fn(self, cblock, name: str) -> set:
        """One block function: (super)block body + phi moves + dispatch.
        The profile variant never chains: a profile runs once."""
        self.lines = [f"def {name}(state, frame):", "    slots = frame.slots"]
        self.bound_locals = set()
        w = self.lines.append
        covered: set[int] = set()
        current = cblock
        seen = {id(cblock)}
        while True:
            self.emit_block_core(current, covered)
            term = current.block.terminator
            if isinstance(term, Ret):
                value = ("None" if term.value is None
                         else self.expr(term.value))
                w(f"    state.ret_value = {value}")
                w("    return -1")
                return covered
            if not isinstance(term, Branch):
                raise InterpreterBug(f"unknown terminator {term!r}")
            if not term.is_conditional:
                succ = self.compiled.blocks[term.true_block]
                if (id(succ) not in seen and len(seen) < CHAIN_LIMIT
                        and self.variant != PROFILE):
                    # Straight-line superblock: inline the successor's
                    # entire iteration (phi moves first, then its body).
                    self.emit_phi_moves(current, succ, covered, 1)
                    seen.add(id(succ))
                    current = succ
                    continue
                self.emit_phi_moves(current, succ, covered, 1)
                w(f"    return {succ.local_index}")
                return covered
            true_succ = self.compiled.blocks[term.true_block]
            false_succ = self.compiled.blocks[term.false_block]
            w(f"    if {self.expr(term.cond)}:")
            if self.variant == PROFILE:
                self.bind_local("_evt", "state.events")
                w(f"        _evt[{term.iid}] += 1")  # taken instances
            self.emit_phi_moves(current, true_succ, covered, 2)
            w(f"        return {true_succ.local_index}")
            self.emit_phi_moves(current, false_succ, covered, 1)
            w(f"    return {false_succ.local_index}")
            return covered

    def emit_block_core(self, cblock, covered: set) -> None:
        """Cost, budget check, block count, and steps of one block —
        the same order as one iteration of the closure dispatch loop."""
        w = self.lines.append
        w(f"    state.dynamic_count += {cblock.cost}")
        w("    if state.dynamic_count > state.budget:")
        w("        raise _Hang(state.dynamic_count)")
        w(f"    state.block_counts[{cblock.ordinal}] += 1")
        # The profile's sampling sites number their instances by this
        # count until a call into the module, which may re-enter the
        # block (see emit_profile).
        self.instance_number = f"state.block_counts[{cblock.ordinal}]"
        for inst in cblock.step_insts:
            if self.variant == PROFILE:
                self.emit_profile(inst)
            self.emit_step(inst, covered)
            if (isinstance(inst, Call)
                    and inst.callee in self.engine.module.functions):
                self.instance_number = None

    def emit_phi_moves(self, pred, succ, covered: set, depth: int) -> None:
        """Parallel phi copy for the edge ``pred -> succ``: evaluate
        every source first, then assign (with per-phi injection checks
        in the inject variant) — exactly ``_apply_phi_moves``' order."""
        phis = succ.block.phis()
        if not phis:
            return
        w = self.lines.append
        ind = "    " * depth
        inject = self.variant == INJECT
        moves = [
            (self.compiled.slot_of[id(phi)],
             self.expr(phi.value_for(pred.block)), phi.iid, phi.type)
            for phi in phis
        ]
        if len(moves) == 1 and not inject:
            dest, source, _iid, _type = moves[0]
            w(f"{ind}slots[{dest}] = {source}")
            return
        for index, (_dest, source, _iid, _type) in enumerate(moves):
            w(f"{ind}_p{index} = {source}")
        for index, (dest, _source, iid, value_type) in enumerate(moves):
            if inject:
                covered.add(iid)
                w(f"{ind}if state.inject_iid == {iid}:")
                w(f"{ind}    _p{index} = "
                  f"_inj(state, _p{index}, {self.bind(value_type)})")
            w(f"{ind}slots[{dest}] = _p{index}")

    # -- profile bookkeeping ------------------------------------------

    def emit_profile(self, inst) -> None:
        """The profiler's bookkeeping for one step, ahead of it: its
        operands are already defined, and a store sees the old cell.

        A sampling site's instance number is its block's count, read
        once into ``_n`` at the block's first site; after a call into
        the module (``instance_number`` is None), which may re-enter
        the block, the site counts its own instances in ``state.seen``.
        """
        w = self.lines.append
        iid = inst.iid
        if isinstance(inst, Select):
            self.bind_local("_evt", "state.events")
            w(f"    if {self.expr(inst.cond)}:")
            w(f"        _evt[{iid}] += 1")
            sample = (f"((1 if {self.expr(inst.cond)} else 0), "
                      f"{self.expr(inst.true_value)}, "
                      f"{self.expr(inst.false_value)})")
        elif isinstance(inst, Cast):
            sample = f"({self.expr(inst.value)},)"
        elif isinstance(inst, SAMPLED_OPERANDS):
            sample = f"({self.expr(inst.lhs)}, {self.expr(inst.rhs)})"
        elif isinstance(inst, MEMORY_ACCESSES):
            sample = f"_cp(state, {self.expr(inst.pointer)})"
        else:
            return
        if self.instance_number is None:
            self.bind_local("_seen", "state.seen")
            w(f"    _seen[{iid}] += 1")
            number = f"_seen[{iid}]"
        else:
            if self.instance_number != "_n":
                w(f"    _n = {self.instance_number}")
                self.instance_number = "_n"
            number = "_n"
        # Evaluate the sample only for the instances next_kept scheduled.
        self.bind_local("_nk", "state.next_kept")
        w(f"    if {number} == _nk[{iid}]:")
        w(f"        _keep(state, {iid}, {sample})")

    # -- steps --------------------------------------------------------

    def emit_step(self, inst, covered: set) -> None:
        w = self.lines.append
        if isinstance(inst, Store):
            for line in self.store_lines(inst):
                w(f"    {line}")
            return
        if isinstance(inst, Output):
            w(f"    state.outputs.append({self.output_expr(inst)})")
            return
        if isinstance(inst, Detect):
            self.emit_detect(inst)
            return
        if not inst.has_result:
            # Void user call: execute for effect only.
            w(f"    {self.call_expr(inst)}")
            return
        dest = self.home(inst)
        guard = self.variant == INJECT
        # A value computed in several lines, or guarded, goes through a
        # temporary: the local itself, or ``_v`` for a slot.
        temp = dest if id(inst) in self.local else "_v"
        setup, value = self.value_lines(inst, temp)
        if not (setup or guard):
            w(f"    {dest} = {value}")
            return
        for line in setup:
            w(f"    {line}")
        if value != temp:
            w(f"    {temp} = {value}")
        if guard:
            covered.add(inst.iid)
            w(f"    if state.inject_iid == {inst.iid}:")
            w(f"        {temp} = _inj(state, {temp}, {self.bind(inst.type)})")
        if temp != dest:
            w(f"    {dest} = {temp}")

    def value_lines(self, inst, temp: str) -> tuple[list[str], str]:
        """(setup lines, result expression) for a value-producing step.

        Setup lines compute the value into ``temp``, which is then the
        expression; setup lines and expression are both
        side-effect-safe to follow with the injection guard.
        """
        if isinstance(inst, BinOp):
            return [], self.binop_expr(inst)
        if isinstance(inst, ICmp):
            return [], self.icmp_expr(inst)
        if isinstance(inst, FCmp):
            return [], self.fcmp_expr(inst)
        if isinstance(inst, Cast):
            return [], self.cast_expr(inst)
        if isinstance(inst, Select):
            return [], (f"({self.expr(inst.true_value)} "
                        f"if {self.expr(inst.cond)} "
                        f"else {self.expr(inst.false_value)})")
        if isinstance(inst, GetElementPtr):
            return [], self.gep_expr(inst)
        if isinstance(inst, Alloca):
            return self.alloca_lines(inst, temp), temp
        if isinstance(inst, Load):
            if self.variant == PROFILE:  # _read does the access
                return [], (f"_read(state, {self.expr(inst.pointer)}, "
                            f"{inst.iid}, {self.bind(inst.type)})")
            return self.load_lines(inst, temp), temp
        if isinstance(inst, Call):
            return [], self.call_expr(inst)
        raise InterpreterBug(f"cannot compile {inst!r}")

    def binop_expr(self, inst: BinOp) -> str:
        op, bits = inst.op, inst.type.bits
        a, b = self.expr(inst.lhs), self.expr(inst.rhs)
        if inst.type.is_float:
            sym = _FLOAT_DIRECT.get(op)
            if sym is None:  # fdiv/frem: zero/NaN special cases
                return f'_fb("{op}", {a}, {b}, {bits})'
            core = f"({a} {sym} {b})"
            return core if bits == 64 else f"_f32{core}"
        sym = _INT_MASKED.get(op)
        if sym is not None:
            return f"(({a} {sym} {b}) & {mask(bits)})"
        sym = _INT_BITWISE.get(op)
        if sym is not None:
            return f"({a} {sym} {b})"
        # Shifts, divisions, remainders: trap/masking semantics live in
        # one place (ops.eval_int_binop) for the steps and this code.
        return f'_ib("{op}", {a}, {b}, {bits})'

    def icmp_expr(self, inst: ICmp) -> str:
        predicate, bits = inst.predicate, inst.lhs.type.bits
        sym = _ICMP_UNSIGNED.get(predicate)
        if sym is not None:
            return (f"(1 if {self.expr(inst.lhs)} {sym} "
                    f"{self.expr(inst.rhs)} else 0)")
        sym = _ICMP_SIGNED.get(predicate)
        if sym is not None:
            return (f"(1 if {self.biased_expr(inst.lhs, bits)} {sym} "
                    f"{self.biased_expr(inst.rhs, bits)} else 0)")
        return (f'_icmp("{predicate}", {self.expr(inst.lhs)}, '
                f'{self.expr(inst.rhs)}, {bits})')

    def fcmp_expr(self, inst: FCmp) -> str:
        sym = _FCMP_ORDERED.get(inst.predicate)
        a, b = self.expr(inst.lhs), self.expr(inst.rhs)
        if sym is None:
            return f'_fcmp("{inst.predicate}", {a}, {b})'
        # Ordered comparisons are false on NaN (x != x).
        return (f"(0 if ({a} != {a} or {b} != {b}) "
                f"else (1 if {a} {sym} {b} else 0))")

    def cast_expr(self, inst: Cast) -> str:
        op = inst.op
        a = self.expr(inst.value)
        if op == "trunc":
            return f"({a} & {mask(inst.type.bits)})"
        if op in ("zext", "bitcast"):
            return a  # operands are already canonical for their width
        if op == "sext":
            return (f"({self.signed_expr(inst.value, inst.value.type.bits)}"
                    f" & {mask(inst.type.bits)})")
        return (f'_cast("{op}", {a}, {self.bind(inst.value.type)}, '
                f'{self.bind(inst.type)})')

    def gep_expr(self, inst: GetElementPtr) -> str:
        base = self.expr(inst.base)
        bits = inst.index.type.bits
        if isinstance(inst.index, Constant):
            offset = to_signed(inst.index.value, bits) * inst.elem_size
            return f"(({base} + {offset}) & {_MASK64})"
        # The address is taken modulo 2^64, where a 64-bit index equals
        # its signed value.
        index = (self.expr(inst.index) if bits == 64
                 else self.signed_expr(inst.index, bits))
        return f"(({base} + {index} * {inst.elem_size}) & {_MASK64})"

    def alloca_lines(self, inst: Alloca, temp: str) -> list[str]:
        return [
            f"{temp} = frame.allocas.get({inst.iid})",
            f"if {temp} is None:",
            f"    {temp}, _owned = state.memory.allocate_stack("
            f"{inst.count}, {inst.elem_type.size_bytes})",
            f"    frame.allocas[{inst.iid}] = {temp}",
            "    frame.owned.extend(_owned)",
        ]

    def bind_local(self, local: str, source: str) -> None:
        """Bind ``source`` to ``local`` at the top of the block function
        being emitted, on its first use there: the run's memory cells
        and validity set, and the profile's per-site lists, stay the
        same objects for a whole run."""
        if local not in self.bound_locals:
            self.bound_locals.add(local)
            self.lines.insert(2, f"    {local} = {source}")

    def store_lines(self, inst: Store) -> list[str]:
        """A store: the validity test (the same ``MemoryFault`` as
        ``MemoryState.store``), then the assignment.  The profile
        variant's :func:`_wrote` does both after its bookkeeping."""
        address = self.expr(inst.pointer)
        if self.variant == PROFILE:
            return [f"_wrote(state, {address}, {inst.iid}, "
                    f"{self.expr(inst.value)})"]
        self.bind_local("_c", "state.memory.cells")
        self.bind_local("_va", "state.memory.valid")
        return [f"if {address} not in _va:",
                f'    raise _MF({address}, "store")',
                f"_c[{address}] = {self.expr(inst.value)}"]

    def load_lines(self, inst: Load, temp: str) -> list[str]:
        """A load: one probe of the cells.  Every cell sits at a valid
        address and none holds ``None`` (``MemoryState``), so only a
        miss needs the validity set: :func:`_unset` gives a valid
        address that was never written its default, and raises the
        same ``MemoryFault`` as ``MemoryState.load`` for any other."""
        self.bind_local("_c", "state.memory.cells")
        value_type = inst.type
        default = "0.0" if value_type.is_float else "0"
        address = self.expr(inst.pointer)
        lines = [f"{temp} = _c.get({address})",
                 f"if {temp} is None:",
                 f"    {temp} = _unset(state, {address}, {default})"]
        # Same reinterpretation fast path as the closure steps: only a
        # corrupted address can land on a cell of another type/width.
        if value_type.is_float:
            lines.append(f"elif {temp}.__class__ is not float:")
        else:
            lines.append(f"elif {temp}.__class__ is float "
                         f"or {temp} > {value_type.max_unsigned}:")
        lines.append(f"    {temp} = _rl({temp}, {self.bind(value_type)})")
        return lines

    def call_expr(self, inst: Call) -> str:
        args = ", ".join(self.expr(argument) for argument in inst.args)
        callee = inst.callee
        if (is_intrinsic(callee)
                and callee not in self.engine.module.functions):
            return f'_intr("{callee}", [{args}], {self.bind(inst.type)})'
        compiled = self.engine._compiled.get(callee)
        if compiled is None:
            raise InterpreterBug(f"unknown callee {callee}")
        target = self.bind(compiled)
        return f"state.call({target}, [{args}], state)"

    def output_expr(self, inst: Output) -> str:
        value_type = inst.value.type
        a = self.expr(inst.value)
        if isinstance(value_type, IntType):
            return f"str({self.signed_expr(inst.value, value_type.bits)})"
        if isinstance(value_type, FloatType):
            digits = inst.precision if inst.precision is not None else 17
            return f'"%.{digits}g" % ({a})'
        return f"_fmt({a}, {self.bind(value_type)}, {inst.precision!r})"

    def emit_detect(self, inst: Detect) -> None:
        w = self.lines.append
        a, b = self.expr(inst.original), self.expr(inst.duplicate)
        message = (f'f"detect #{inst.iid}: '
                   f'{{{a}!r}} != {{{b}!r}}"')
        w(f"    if not ({a} == {b}):")
        if inst.original.type.is_float:
            # Both NaN: duplicate agrees with the original, no trap.
            w(f"        if not ({a} != {a} and {b} != {b}):")
            w(f"            raise _Det({message})")
        else:
            w(f"        raise _Det({message})")
