"""fm — the memory sub-model (Sec. IV-E).

Tracks a corrupted store's value through the pruned memory dependency
graph until the program output: which loads observe the corrupted cells
(with what fraction of the store's instances), and from each load, where
the reloaded error goes — invoking the forward propagator on the load's
static data-dependent sequences and fc when a sequence ends in a branch.

Three design points beyond the paper's prose, each forced by a concrete
failure mode:

* **Cycles.**  The memory graph of real programs is cyclic (an
  accumulator is a store→load→store loop; corrupted data entering it
  persists until the loop exits), so store probabilities are solved as
  a monotone fixed point rather than by walking the graph.
* **Reader sets.**  One store's instances may be read by several static
  loads.  Those loads can partition the instances (accumulator: every
  instance feeds the next iteration except the last, which feeds the
  output) or observe the *same* instances (a DP stencil reads each cell
  three times).  The profiler records the exact reader set per instance;
  contributions sum across sets (exclusive) and union within one
  (joint observation of the same corrupted value).
* **Per-output reach.**  Output-precision masking (the %g rule) is a
  property of the corrupted value, not of the route it took; a cycle
  that replicates the corruption into many cells must not amplify past
  it.  fm therefore computes factor-free *reach* probabilities per
  output instruction and applies each output's masking factor exactly
  once, at the end.

Per-store results are memoized (the paper's memoization, Sec. IV-E).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ir.instructions import Branch, Output, Store
from ..ir.module import Module
from ..profiling.profile import ProgramProfile, StoreGroups
from ..query.engine import CALLGRAPH_DEP, MISS
from .config import TridentConfig
from .fc import ControlFlowSubModel
from .masking import output_masking_factor
from .propagation import (
    EV_BRANCH,
    EV_OUTPUT,
    EV_STORE,
    EV_STORE_ADDR,
    ForwardPropagator,
)
from .weighting import ExecutionWeigher

#: Fixed-point iteration cap; the per-output reach map is monotone and
#: bounded by 1, converging geometrically for sub-1 cycle weights.
_MAX_ITERATIONS = 100
_CONVERGENCE_EPS = 1e-7

#: Pseudo-output key for the optional store-address-SDC extension.
_ADDR_SINK = -1


@dataclass(frozen=True)
class _Contribution:
    """One precompiled term of a load's propagation function."""

    kind: str    # "out" (reaches an output sink) or "store"
    weight: float
    ref: int     # output iid (or _ADDR_SINK) / store iid


class MemorySubModel:
    """P(SDC | a given store instruction writes a corrupted value).

    The fixed point is solved per strongly-connected component of the
    store graph, in reverse topological order, with SCC members iterated
    in canonical (function, local-position) order.  That makes every
    store's converged reach a function of *content only* — independent
    of which store was queried first — which is what lets per-store
    results live in the shared ``model.fm`` query store and be adopted
    by an incrementally rebuilt model with bit-identical values.
    """

    QUERY = "model.fm"

    def __init__(self, module: Module, profile: ProgramProfile,
                 config: TridentConfig,
                 control_model: ControlFlowSubModel,
                 propagator: ForwardPropagator,
                 weigher=None, engine=None):
        self.module = module
        self.profile = profile
        self.config = config
        self.fc = control_model
        self.propagator = propagator
        self.engine = engine
        self.weigher = weigher or ExecutionWeigher(module, profile, engine)
        self._groups: StoreGroups | None = None
        #: store iid -> {output iid -> reach probability}
        self._memo: dict[int, dict[int, float]] = {}
        self._load_terms: dict[int, list[_Contribution]] = {}
        self._term_fns: dict[int, set] = {}
        self._store_edges: dict[int, list[tuple[int, float]]] = {}
        self._factors: dict[int, float] = {}
        #: store iid -> dependency names (functions + pseudo-inputs) its
        #: reach was derived from, including transitive successors.
        self._dep_fns: dict[int, frozenset] = {}

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def propagate_store(self, store: Store) -> float:
        """P(a corrupted instance of ``store`` causes an SDC).

        Sinks are combined with max, not a union: the visibility of one
        corrupted value at several outputs is driven by the same bit
        position and magnitude, so the events are strongly correlated —
        "the most revealing output it reaches" is the better estimate.
        """
        reach = self.store_reach(store)
        best = 0.0
        for sink, probability in reach.items():
            best = max(best, min(1.0, probability) * self._factor(sink))
        return best

    def store_reach(self, store: Store) -> dict[int, float]:
        """Factor-free reach probability per output sink."""
        cached = self._memo.get(store.iid)
        if cached is not None:
            return cached
        self._solve(store.iid)
        return self._memo[store.iid]

    def result_deps(self, store_iid: int) -> frozenset:
        """Dependency names of a solved store's reach (for model.sdc)."""
        return self._dep_fns.get(store_iid, frozenset())

    def clear_cache(self) -> None:
        self._memo.clear()
        self._load_terms.clear()
        self._term_fns.clear()
        self._store_edges.clear()
        self._dep_fns.clear()

    @property
    def memoized_stores(self) -> int:
        return len(self._memo)

    # ------------------------------------------------------------------
    # Graph construction
    # ------------------------------------------------------------------

    def _factor(self, sink: int) -> float:
        if sink == _ADDR_SINK:
            return 1.0
        factor = self._factors.get(sink)
        if factor is None:
            output = self.module.instruction(sink)
            assert isinstance(output, Output)
            factor = output_masking_factor(output)
            self._factors[sink] = factor
        return factor

    def _store_groups(self) -> StoreGroups:
        """The profile's store statistics, grouped once per model."""
        if self._groups is None:
            self._groups = StoreGroups(self.profile)
        return self._groups

    def _edges_of(self, store_iid: int) -> list[tuple[int, float]]:
        edges = self._store_edges.get(store_iid)
        if edges is None:
            edges = [
                (load_iid, weight)
                for load_iid, weight in self._store_groups().loads_reading(
                    store_iid
                )
                if weight > self.config.epsilon
            ]
            self._store_edges[store_iid] = edges
        return edges

    def _successors(self, store_iid: int) -> list[int]:
        """Stores this store's corruption can flow into (one hop)."""
        out: list[int] = []
        seen: set[int] = set()
        for load_iid, _weight in self._edges_of(store_iid):
            for term in self._terms_of(load_iid):
                if term.kind == "store" and term.ref not in seen:
                    seen.add(term.ref)
                    out.append(term.ref)
        return out

    # ------------------------------------------------------------------
    # SCC solving (iterative Tarjan, reverse topological emission)
    # ------------------------------------------------------------------

    def _solve(self, root_iid: int) -> None:
        """Solve every unsolved SCC reachable from ``root_iid``.

        Tarjan pops an SCC only after all its successors' SCCs popped,
        so by the time :meth:`_solve_scc` runs, every out-of-component
        reference is already finalized in ``_memo`` — each component's
        fixed point is self-contained and order-independent.
        """
        indices: dict[int, int] = {}
        low: dict[int, int] = {}
        on_stack: set[int] = set()
        stack: list[int] = []
        counter = 0

        def fresh_children(iid: int):
            return iter([s for s in self._successors(iid)
                         if s not in self._memo])

        indices[root_iid] = low[root_iid] = counter
        counter += 1
        stack.append(root_iid)
        on_stack.add(root_iid)
        frames: list[tuple[int, object]] = [
            (root_iid, fresh_children(root_iid))
        ]
        while frames:
            node, children = frames[-1]
            descended = False
            for child in children:
                if child not in indices:
                    indices[child] = low[child] = counter
                    counter += 1
                    stack.append(child)
                    on_stack.add(child)
                    frames.append((child, fresh_children(child)))
                    descended = True
                    break
                if child in on_stack:
                    low[node] = min(low[node], indices[child])
            if descended:
                continue
            frames.pop()
            if frames:
                parent = frames[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == indices[node]:
                component: list[int] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                self._solve_scc(component)

    def _canonical(self, component: list[int]) -> list[int]:
        if self.engine is not None:
            return sorted(component, key=self.engine.index.local)
        return sorted(component)

    def _home(self, iid: int) -> str:
        if self.engine is not None:
            return self.engine.index.home[iid]
        return self.module.instruction(iid).parent.parent.name

    def _solve_scc(self, component: list[int]) -> None:
        members = self._canonical(component)
        if self._try_adopt(members):
            return
        values: dict[int, dict[int, float]] = {iid: {} for iid in members}
        for _ in range(_MAX_ITERATIONS):
            delta = 0.0
            for iid in members:
                updated = self._evaluate_store(iid, values)
                current = values[iid]
                for sink, probability in updated.items():
                    previous = current.get(sink, 0.0)
                    if probability > previous + 1e-12:
                        delta = max(delta, probability - previous)
                        current[sink] = probability
            if delta < _CONVERGENCE_EPS:
                break
        deps = self._scc_deps(members)
        for iid in members:
            self._memo[iid] = values[iid]
            self._dep_fns[iid] = deps
        self._publish(members, values, deps)

    def _scc_deps(self, members: list[int]) -> frozenset:
        if self.engine is None:
            return frozenset()
        member_set = set(members)
        deps: set = set()
        for iid in members:
            deps.add(self._home(iid))
            for load_iid, _weight in self._edges_of(iid):
                deps.add(self._home(load_iid))
                deps |= self._term_fns.get(load_iid, set())
                for term in self._terms_of(load_iid):
                    if term.kind == "store" and term.ref not in member_set:
                        deps |= self._dep_fns.get(term.ref, frozenset())
        return frozenset(deps)

    def _try_adopt(self, members: list[int]) -> bool:
        """Adopt a whole SCC from the query store, all-or-nothing.

        Partial adoption would seed the fixed point with converged
        values for some members and zeros for others — a different
        iteration trajectory than the cold solve, hence potentially
        different low-order bits.  All-or-nothing keeps warm results
        bit-identical to cold ones.
        """
        engine = self.engine
        if engine is None:
            return False
        adopted: list[tuple[int, str, list, dict | None]] = []
        for iid in members:
            home, local = engine.index.local(iid)
            view = engine.view(self.QUERY, home)
            stored = view.get(local)
            if stored is MISS:
                return False
            entry = view.entries.get(local)
            adopted.append(
                (iid, home, stored, entry.deps if entry else None)
            )
        for iid, home, stored, deps in adopted:
            reach: dict[int, float] = {}
            for ref, probability in stored:
                if ref == _ADDR_SINK:
                    reach[_ADDR_SINK] = probability
                else:
                    reach[engine.index.resolve(ref, home)] = probability
            self._memo[iid] = reach
            self._dep_fns[iid] = frozenset(set(deps or ()) | {home})
        return True

    def _publish(self, members: list[int],
                 values: dict[int, dict[int, float]],
                 deps: frozenset) -> None:
        engine = self.engine
        if engine is None:
            return
        for iid in members:
            home, local = engine.index.local(iid)
            view = engine.view(self.QUERY, home)
            payload = sorted(
                ([self._symbolize_sink(sink, home), probability]
                 for sink, probability in values[iid].items()),
                key=repr,
            )
            view.put(local, payload, engine.deps_for(deps, exclude=home))

    def _symbolize_sink(self, sink: int, home: str):
        if sink == _ADDR_SINK:
            return _ADDR_SINK
        return self.engine.index.symbolize(sink, home)

    def _terms_of(self, load_iid: int) -> list[_Contribution]:
        """Precompiled propagation terms of one load."""
        terms = self._load_terms.get(load_iid)
        if terms is not None:
            return terms
        terms = []
        load = self.module.instruction(load_iid)
        load_count = self.profile.count(load_iid)
        if load_count == 0:
            self._load_terms[load_iid] = terms
            self._term_fns[load_iid] = set()
            return terms
        result = self.propagator.propagate(load)
        fns: set = set(result.functions)
        if result.callgraph:
            fns.add(CALLGRAPH_DEP)
        for event in result.events:
            terminal = event.instruction
            fns.add(terminal.parent.parent.name)
            alive = event.probability
            # Divergence weighting (Fig. 4): scale by how often the
            # terminal executes relative to the load; post-dominating
            # terminals are always reached.
            alive *= self.weigher.weight(load, terminal)
            if alive <= self.config.epsilon:
                continue
            if event.kind == EV_OUTPUT:
                terms.append(_Contribution("out", alive, terminal.iid))
            elif event.kind == EV_STORE:
                terms.append(_Contribution("store", alive, terminal.iid))
            elif event.kind == EV_BRANCH:
                assert isinstance(terminal, Branch)
                terms.extend(self._branch_terms(terminal, alive))
            elif event.kind == EV_STORE_ADDR:
                if self.config.model_store_address_sdc:
                    crash = self.profile.crash_probability(terminal.iid)
                    terms.append(_Contribution(
                        "out", alive * (1.0 - crash), _ADDR_SINK
                    ))
            # ret/detect: masked (or detected), no term.
        self._load_terms[load_iid] = terms
        self._term_fns[load_iid] = fns
        return terms

    def _branch_terms(self, branch: Branch,
                      alive: float) -> list[_Contribution]:
        """fc invoked inside the memory walk: branch → corrupted stores."""
        if not self.config.enable_control_flow:
            return []
        terms = []
        for store, pc in self.fc.corrupted_stores(branch):
            weight = alive * pc
            if weight > self.config.epsilon:
                terms.append(_Contribution("store", weight, store.iid))
        return terms

    # ------------------------------------------------------------------
    # Fixed-point evaluation
    # ------------------------------------------------------------------

    def _sinks_of(self, store_iid: int, values) -> set[int]:
        sinks: set[int] = set()
        for load_iid, _weight in self._edges_of(store_iid):
            for term in self._terms_of(load_iid):
                if term.kind == "out":
                    sinks.add(term.ref)
                else:
                    # Explicit None check: an SCC member's (possibly
                    # still-empty) in-flight value must never fall back
                    # to a finalized memo entry mid-iteration.
                    reach = values.get(term.ref)
                    if reach is None:
                        reach = self._memo.get(term.ref)
                    if reach:
                        sinks.update(reach)
        return sinks

    def _evaluate_store(self, store_iid: int, values) -> dict[int, float]:
        """One fixed-point update: per-sink reach of one store.

        Reader sets partition the store's instances, so their
        contributions sum; loads within one set observed the same
        corrupted value, so their reach probabilities union.
        """
        distribution = self._store_groups().reader_set_distribution(
            store_iid
        )
        if not distribution:
            return {}
        result: dict[int, float] = {}
        for sink in self._sinks_of(store_iid, values):
            contributions = {
                load_iid: min(1.0, self._load_total(load_iid, sink, values))
                for load_iid, _w in self._edges_of(store_iid)
            }
            total = 0.0
            for readers, fraction in distribution:
                survive = 1.0
                for load_iid in readers:
                    survive *= 1.0 - contributions.get(load_iid, 0.0)
                total += fraction * (1.0 - survive)
            if total > self.config.epsilon:
                result[sink] = min(1.0, total)
        return result

    def _load_total(self, load_iid: int, sink: int, values) -> float:
        total = 0.0
        for term in self._terms_of(load_iid):
            if term.kind == "out":
                if term.ref == sink:
                    total += term.weight
            else:
                reach = values.get(term.ref)
                if reach is None:
                    reach = self._memo.get(term.ref, {})
                total += term.weight * reach.get(sink, 0.0)
        return total
