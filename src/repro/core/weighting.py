"""Divergence weighting: P(terminal executes | origin executed).

The Fig. 4 weighting scales a propagation contribution by how likely the
terminal instruction is to execute at all (a print reached on 60% of
paths contributes 0.6).  The naive estimate count(T)/count(O) conflates
two different situations:

* the terminal is *conditionally guarded* (Fig. 4's if-print): the count
  ratio is the right execution probability;
* the origin sits in a *loop* and the terminal runs after it (a register
  accumulator flowing into one final output): the terminal executes with
  certainty even though it runs once per N origin executions.

The discriminator is control structure: if the terminal's block
post-dominates the origin's block (same function), every execution of
the origin eventually reaches the terminal — the weight is 1.  Otherwise
the profiled count ratio applies.
"""

from __future__ import annotations

from ..analysis.dominators import compute_postdominators
from ..ir.instructions import Instruction
from ..ir.module import Module
from ..profiling.profile import ProgramProfile
from ..query.engine import MISS


class ExecutionWeigher:
    """Divergence weighting over per-function post-dominator sets.

    With a query engine, weights live in the per-function
    ``model.weighting`` store keyed on (origin local, symbolized
    terminal); a cross-function pair records the terminal's home as an
    entry dependency (the weight reads its execution counts).
    """

    QUERY = "model.weighting"

    def __init__(self, module: Module, profile: ProgramProfile, engine=None):
        self.module = module
        self.profile = profile
        self.engine = engine

    def weight(self, origin: Instruction, terminal: Instruction) -> float:
        """P(terminal executes | origin executed), in [0, 1]."""
        engine = self.engine
        if engine is None:
            return self._weight(origin, terminal)
        home, origin_local = engine.index.local(origin.iid)
        terminal_ref = engine.index.symbolize(terminal.iid, home)
        view = engine.view(self.QUERY, home)
        key = (origin_local, terminal_ref)
        stored = view.get(key)
        if stored is not MISS:
            return stored
        deps = None
        if not isinstance(terminal_ref, int):
            deps = engine.deps_for((terminal_ref[0],), exclude=home)
        return view.put(key, self._weight(origin, terminal), deps)

    def _weight(self, origin: Instruction, terminal: Instruction) -> float:
        origin_function = origin.parent.parent
        terminal_function = terminal.parent.parent
        if origin_function is terminal_function:
            postdoms = self._postdoms_of(origin_function)
            if terminal.parent in postdoms.get(origin.parent, ()):
                return 1.0
        return self.profile.execution_probability(terminal.iid, origin.iid)

    def _postdoms_of(self, function) -> dict:
        if self.engine is None:
            return compute_postdominators(function)
        return self.engine.cfg("cfg.postdominators", function)
