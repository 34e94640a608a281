"""Forward propagation of corruption probabilities over the def-use DAG.

fs as presented in the paper multiplies tuples along a *sequence*; real
IR fans out (one value feeds a cmp, a select and an arithmetic chain
that all reconverge on the same store).  Enumerating sequences and
summing their contributions double-counts the shared suffixes, so we
evaluate the whole def-use DAG instead:

* ``P(corrupt(v))`` for every value reachable from the fault site, where
  a node with several corrupted operands merges them as a union of
  events: ``P = 1 - prod(1 - P(op) * tuple(op).propagation)``;
* every *terminal* (store value, store address, branch condition,
  program output, return, protection check) is reported once, with the
  probability corruption enters it.

Interprocedural edges (call argument -> callee formal, return ->
call-site result) are part of the same graph; recursion makes it cyclic
in the worst case, so probabilities are solved by monotone fixed-point
iteration (they only grow, bounded by 1).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ir.instructions import (
    Branch,
    Call,
    Detect,
    FCmp,
    ICmp,
    Instruction,
    Output,
    Ret,
    Store,
)
from ..ir.module import Module
from ..ir.values import Argument, Value
from ..query.engine import CALLGRAPH_DEP, MISS
from .config import TridentConfig
from .tuples import TupleDeriver, cmp_feeds_only_minmax_selects

#: Terminal event kinds.
EV_STORE = "store"
EV_STORE_ADDR = "store_addr"
EV_BRANCH = "branch"
EV_OUTPUT = "output"
EV_RET = "ret"
EV_DETECT = "detect"

_MAX_FIXPOINT_ITERATIONS = 50


@dataclass(frozen=True)
class TerminalEvent:
    """Corruption arriving at one terminal instruction."""

    kind: str
    instruction: Instruction
    probability: float  # P(corrupted data enters this terminal)


@dataclass
class PropagationResult:
    """All terminal events of one fault site, event-merged."""

    events: list[TerminalEvent]
    #: Probability the fault crashes somewhere along the data flow.
    crash_probability: float
    #: Number of values the corruption could reach (diagnostics).
    reached_values: int
    #: Functions the propagation walked through (dependency tracking).
    functions: frozenset = frozenset()
    #: Did the walk consult the callgraph (Ret/Call handling)?  A new
    #: caller changes Ret routing without changing any walked function.
    callgraph: bool = False


class ForwardPropagator:
    """Computes :class:`PropagationResult` for fault sites in a module.

    With a query engine attached, results live in a per-function query
    store (``model.fs`` by default; the PVF/ePVF baselines use their own
    flavors since their tuples differ).  Stored entries symbolize the
    terminal instructions as function-local coordinates and carry the
    dependency key map of every *other* function the walk crossed, so an
    entry survives exactly as long as every function it was derived from
    is unchanged.
    """

    def __init__(self, module: Module, tuples: TupleDeriver,
                 config: TridentConfig, engine=None,
                 query: str = "model.fs"):
        self.module = module
        self.tuples = tuples
        self.config = config
        self.engine = engine
        self.query = query
        self._call_sites: dict[str, list[Call]] = {}
        for function in module.functions.values():
            for inst in function.instructions():
                if isinstance(inst, Call):
                    self._call_sites.setdefault(inst.callee, []).append(inst)
        self._touched: set[str] = set()
        self._callgraph = False

    # ------------------------------------------------------------------

    def propagate(self, origin: Value) -> PropagationResult:
        """Terminal events for a fault in ``origin``'s value."""
        engine = self.engine
        if engine is None:
            return self._propagate(origin)
        site = engine.index.to_local.get(getattr(origin, "iid", -1))
        if site is None:
            return self._propagate(origin)
        home, local = site
        view = engine.view(self.query, home)
        stored = view.get(local)
        if stored is not MISS:
            return self._rehydrate(stored, home)
        result = self._propagate(origin)
        dep_names = set(result.functions)
        if result.callgraph:
            dep_names.add(CALLGRAPH_DEP)
        payload = (
            [(event.kind,
              engine.index.symbolize(event.instruction.iid, home),
              event.probability) for event in result.events],
            result.crash_probability,
            result.reached_values,
            sorted(result.functions),
            result.callgraph,
        )
        view.put(local, payload, engine.deps_for(dep_names, exclude=home))
        return result

    def _rehydrate(self, payload, home: str) -> PropagationResult:
        events_raw, crash, reached, functions, callgraph = payload
        index = self.engine.index
        events = [
            TerminalEvent(kind, index.instruction_of(ref, home), probability)
            for kind, ref, probability in events_raw
        ]
        return PropagationResult(events, crash, reached,
                                 frozenset(functions), callgraph)

    def _propagate(self, origin: Value) -> PropagationResult:
        self._touched = set()
        self._callgraph = False
        parent = getattr(origin, "parent", None)
        if isinstance(origin, Instruction) and parent is not None:
            self._touched.add(parent.parent.name)
        nodes, edges, terminals = self._reachable_graph(origin)
        prob: dict[int, float] = {id(node): 0.0 for node in nodes}
        prob[id(origin)] = 1.0

        incoming: dict[int, list[tuple[int, float]]] = {}
        for src, dst, p_edge in edges:
            incoming.setdefault(id(dst), []).append((id(src), p_edge))

        # Monotone fixed point (single pass suffices for a DAG when nodes
        # happen to come out in topological order; recursion needs more).
        for _ in range(_MAX_FIXPOINT_ITERATIONS):
            changed = False
            for node in nodes:
                key = id(node)
                if key == id(origin):
                    continue
                survive = 1.0
                for src_key, p_edge in incoming.get(key, ()):  # union merge
                    survive *= 1.0 - prob[src_key] * p_edge
                updated = 1.0 - survive
                if updated > prob[key] + 1e-12:
                    prob[key] = updated
                    changed = True
            if not changed:
                break

        events = []
        for kind, terminal, source, p_edge in terminals:
            probability = prob[id(source)] * p_edge
            if probability > self.config.epsilon:
                events.append(TerminalEvent(kind, terminal, probability))

        crash = self._crash_probability(nodes, prob)
        return PropagationResult(events, crash, len(nodes),
                                 frozenset(self._touched), self._callgraph)

    # ------------------------------------------------------------------

    def _reachable_graph(self, origin: Value):
        """BFS over def-use edges from the origin.

        Returns (nodes in discovery order, edges (src, dst, p), terminal
        records (kind, terminal_inst, source_value, p_edge)).
        """
        nodes: list[Value] = [origin]
        seen: set[int] = {id(origin)}
        edges: list[tuple[Value, Value, float]] = []
        terminals: list[tuple[str, Instruction, Value, float]] = []
        worklist = [origin]

        def reach(value: Value) -> None:
            if id(value) not in seen:
                seen.add(id(value))
                nodes.append(value)
                worklist.append(value)

        while worklist:
            value = worklist.pop()
            # Sort users by position: the builder and the parser register
            # uses in different orders, and float accumulation along the
            # walk must not depend on which of the two built the module.
            users = sorted(
                (u for u in list(value.users) if isinstance(u, Instruction)),
                key=lambda u: u.iid,
            )
            for user in users:
                for operand_index, operand in enumerate(user.operands):
                    if operand is not value:
                        continue
                    self._visit_use(value, user, operand_index, edges,
                                    terminals, reach)
        return nodes, edges, terminals

    def _visit_use(self, value, user, operand_index, edges, terminals,
                   reach) -> None:
        self._touched.add(user.parent.parent.name)
        if isinstance(user, Store):
            kind = EV_STORE if operand_index == 0 else EV_STORE_ADDR
            terminals.append((kind, user, value, 1.0))
            return
        if isinstance(user, Branch):
            terminals.append((EV_BRANCH, user, value, 1.0))
            return
        if isinstance(user, Output):
            terminals.append((EV_OUTPUT, user, value, 1.0))
            return
        if isinstance(user, Detect):
            terminals.append((EV_DETECT, user, value, 1.0))
            return
        if isinstance(user, Ret):
            # Routing depends on who calls this function: record the
            # callgraph pseudo-dependency either way.
            self._callgraph = True
            function = user.parent.parent
            sites = self._call_sites.get(function.name, [])
            if function.name == "main" or not sites:
                terminals.append((EV_RET, user, value, 1.0))
                return
            for call in sites:
                self._touched.add(call.parent.parent.name)
                reach(call)
                edges.append((value, call, 1.0))
            return
        if isinstance(user, Call):
            self._callgraph = True
            if user.callee in self.module.functions:
                callee = self.module.functions[user.callee]
                self._touched.add(callee.name)
                formal: Argument = callee.args[operand_index]
                reach(formal)
                edges.append((value, formal, 1.0))
                return
            # Intrinsic: corruption flows through to the result.
            reach(user)
            edges.append((value, user, 1.0))
            return
        # min/max cluster: when the comparison exists only to drive
        # selects over this same value, the joint select-arm tuples carry
        # the whole effect — the value→cmp edge would double count it.
        if (self.config.model_minmax_joint
                and isinstance(user, (ICmp, FCmp))
                and cmp_feeds_only_minmax_selects(user, value)):
            return
        # Ordinary computation: the user's result may be corrupted.
        p_edge = self.tuples.tuple_for(user, operand_index).propagation
        if p_edge <= self.config.epsilon:
            return
        reach(user)
        edges.append((value, user, p_edge))

    def _crash_probability(self, nodes, prob) -> float:
        """Union of per-node crash events (diagnostic estimate)."""
        survive = 1.0
        for node in nodes:
            if not isinstance(node, Instruction):
                continue
            for operand_index, operand in enumerate(node.operands):
                if id(operand) in prob:
                    crash = self.tuples.tuple_for(node, operand_index).crash
                    survive *= 1.0 - prob[id(operand)] * crash
        return 1.0 - survive
