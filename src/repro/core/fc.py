"""fc — the control-flow sub-model (Sec. IV-D).

Given a corrupted conditional branch, fc returns the store instructions
whose execution becomes incorrect and the probability of each, using the
paper's two equations:

* Non-Loop-Terminating branch (NLT):  ``Pc = Pe / Pd``  (Eq. 1)
* Loop-Terminating branch (LT):       ``Pc = Pb * Pe``  (Eq. 2)

where ``Pe`` is the store's fault-free execution probability relative to
the branch, ``Pd`` the probability of the branch direction that governs
the store, and ``Pb`` the probability of the loop back-edge direction.
All probabilities come from the branch/instruction profile.
"""

from __future__ import annotations

from ..analysis.controldep import ControlDependence
from ..analysis.loops import LoopInfo
from ..ir.basicblock import BasicBlock
from ..ir.function import Function
from ..ir.instructions import Branch, Store
from ..ir.module import Module
from ..profiling.profile import ProgramProfile
from ..query.engine import MISS
from .config import TridentConfig


class ControlFlowSubModel:
    """Maps corrupted branches to (store, corruption probability) pairs."""

    QUERY = "model.fc"

    def __init__(self, module: Module, profile: ProgramProfile,
                 config: TridentConfig, engine=None):
        self.module = module
        self.profile = profile
        self.config = config
        self.engine = engine
        self._cache: dict[int, list[tuple[Store, float]]] = {}

    # ------------------------------------------------------------------

    def corrupted_stores(self, branch: Branch) -> list[tuple[Store, float]]:
        """Stores corrupted by a flipped branch, with probabilities."""
        if not branch.is_conditional:
            return []
        cached = self._cache.get(branch.iid)
        if cached is not None:
            return cached
        result = self._query(branch)
        self._cache[branch.iid] = result
        return result

    def _query(self, branch: Branch) -> list[tuple[Store, float]]:
        """fc via the per-function query store (branch and its governed
        stores are always intra-function, so entries carry no deps)."""
        engine = self.engine
        if engine is None:
            return self._compute(branch)
        home, local = engine.index.local(branch.iid)
        view = engine.view(self.QUERY, home)
        stored = view.get(local)
        if stored is not MISS:
            return [
                (engine.index.instruction(home, store_local), pc)
                for store_local, pc in stored
            ]
        result = self._compute(branch)
        view.put(local, [
            (engine.index.local(store.iid)[1], pc) for store, pc in result
        ])
        return result

    def classify(self, branch: Branch) -> str:
        """"LT" or "NLT" (Sec. IV-D classification), for reporting."""
        function = branch.parent.parent
        _, loops = self._info(function)
        return "LT" if loops.is_loop_terminating(branch) else "NLT"

    # ------------------------------------------------------------------

    def _info(self, function: Function) -> tuple[ControlDependence, LoopInfo]:
        if self.engine is None:
            return ControlDependence(function), LoopInfo(function)
        return (
            self.engine.cfg("cfg.control_dependence", function),
            self.engine.cfg("cfg.loop_info", function),
        )

    def _compute(self, branch: Branch) -> list[tuple[Store, float]]:
        branch_count = self.profile.count(branch.iid)
        if branch_count == 0:
            return []
        function = branch.parent.parent
        control_deps, loops = self._info(function)

        governed_true = self._transitive_governed(control_deps, branch, True)
        governed_false = self._transitive_governed(control_deps, branch, False)

        is_lt = loops.is_loop_terminating(branch)
        continue_dir = loops.continue_direction(branch) if is_lt else None

        results: list[tuple[Store, float]] = []
        seen: set[int] = set()
        for direction, governed in ((True, governed_true),
                                    (False, governed_false)):
            # Layout order, not set order: the caller sums our pc values
            # against fm terms, so the result order must be a function
            # of program content alone (bit-reproducible builds).
            for block in (b for b in function.blocks if b in governed):
                for inst in block.instructions:
                    if not isinstance(inst, Store) or inst.iid in seen:
                        continue
                    seen.add(inst.iid)
                    pe = self.profile.execution_probability(
                        inst.iid, branch.iid
                    )
                    if is_lt:
                        pc = self._lt_probability(branch, pe, continue_dir)
                    else:
                        pc = self._nlt_probability(branch, pe, direction)
                    if self.config.fc_silent_store_discount:
                        # Lucky-store discount (Sec. VII-A): a store whose
                        # instances usually rewrite the value already in
                        # the cell is coincidentally correct when its
                        # execution flips, in both the spurious-execution
                        # and the missed-execution case.
                        pc *= (
                            1.0
                            - self.profile.silent_store_fraction(inst.iid)
                        )
                    if pc > self.config.epsilon:
                        results.append((inst, min(1.0, pc)))
        return results

    def _nlt_probability(self, branch: Branch, pe: float,
                         direction: bool) -> float:
        """Eq. 1: Pc = Pe / Pd."""
        pd = self.profile.branch_direction_probability(branch.iid, direction)
        if pd <= self.config.epsilon:
            return 0.0
        return min(1.0, pe / pd)

    def _lt_probability(self, branch: Branch, pe: float,
                        continue_dir: bool | None) -> float:
        """Eq. 2: Pc = Pb * Pe.

        The paper's Pe is the store's per-iteration execution probability
        *given the loop continues*; our count-based ``pe`` is measured
        relative to the branch itself, which already folds in the
        back-edge probability: count(store)/count(branch) = Pb * Pe.
        The Pb factor therefore cancels and Pc equals the count ratio
        (the Fig. 3b example: 0.99 * 0.9 * 0.7 = 0.62).
        """
        return pe

    @staticmethod
    def _transitive_governed(control_deps: ControlDependence, branch: Branch,
                             direction: bool) -> set[BasicBlock]:
        """Blocks reached (possibly via nested branches) under a direction."""
        if branch not in control_deps.governed:
            return set()
        result: set[BasicBlock] = set()
        worklist = list(control_deps.governed[branch][direction])
        while worklist:
            block = worklist.pop()
            if block in result:
                continue
            result.add(block)
            terminator = block.terminator
            if (isinstance(terminator, Branch) and terminator.is_conditional
                    and terminator is not branch
                    and terminator in control_deps.governed):
                worklist.extend(
                    control_deps.governed[terminator][True]
                    | control_deps.governed[terminator][False]
                )
        return result
