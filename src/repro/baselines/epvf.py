"""ePVF — enhanced PVF (Fang et al., DSN 2016).

ePVF tightens PVF by removing *crash-causing* faults from the SDC
prediction with a bit-level error propagation analysis; it still cannot
tell benign faults from SDCs, so it consistently over-predicts (mean
absolute error 36.78% in the paper's Fig. 9).

Implementation notes, mirroring Sec. VII-C of the paper:

* bit-level masking along data-dependent sequences is modeled (we reuse
  the empirical tuples, which include the cmp/logic/cast masking ePVF's
  propagation analysis captures);
* crash-causing faults are removed.  The paper could not run ePVF's own
  crash model at their workload sizes and substituted FI-measured
  crashes ("we assume ePVF identifies 100% of the crashes accurately");
  we support the same substitution via ``measured_crash_probability``,
  and default to the model's footprint-derived crash tuples otherwise;
* no control-flow or memory-level modeling: any error reaching a store,
  branch, output or return is declared an SDC.
"""

from __future__ import annotations

from ..core.tuples import PropTuple, TupleDeriver
from ..ir.instructions import Cast, Instruction
from ..ir.module import Module
from ..profiling.profile import ProgramProfile
from .pvf import PvfModel


class _EpvfTuples(TupleDeriver):
    """ePVF's propagation rules: bit-discard and crashes, no value masking.

    ePVF tracks which *bits* a result depends on, so width-reducing
    casts mask; but it has no notion of value-level masking (a cmp whose
    outcome a bit flip cannot change, a multiply by zero), so everything
    else propagates modulo the crash probability.  The base (empirical)
    tuples ride the shared ``model.tuples`` store; the transformation is
    applied on top of each read.
    """

    def tuple_for(self, inst: Instruction, operand_index: int) -> PropTuple:
        base = super().tuple_for(inst, operand_index)
        if isinstance(inst, Cast):
            return base  # bit-discard masking is within ePVF's model
        if base.crash > 0.0:
            return PropTuple(1.0 - base.crash, 0.0, base.crash)
        return PropTuple(1.0, 0.0, 0.0)


class EpvfModel(PvfModel):
    """ePVF as an SDC predictor (Fig. 9 comparison).

    PVF's terminal accounting over ePVF's tuples: the empirical tuples
    already deduct footprint-derived crash mass along the way, and
    reaching any architectural sink then counts as SDC (no benign/SDC
    distinction).
    """

    TUPLES = _EpvfTuples
    FS_QUERY = "model.fs.epvf"
    QUERY = "model.epvf"
    CRASH_QUERY = "model.crash.epvf"

    def __init__(self, module: Module, profile: ProgramProfile, config=None,
                 measured_crash_probability: float | None = None, *,
                 shared_queries: bool = True):
        super().__init__(module, profile, config,
                         shared_queries=shared_queries)
        self.measured_crash_probability = measured_crash_probability

    def _query_salt(self):
        # The subtracted FI-measured crash fraction is a model input
        # living outside the config dataclass: different measurements
        # must not share per-instruction results.
        return self.measured_crash_probability

    def _compute_sdc(self, iid: int) -> float:
        vulnerable = super()._compute_sdc(iid)
        if self.measured_crash_probability is not None:
            # Paper-style substitution: remove the FI-measured crash
            # fraction instead of the model's own crash estimate.
            vulnerable = max(
                0.0, vulnerable - self.measured_crash_probability
            )
        return vulnerable
