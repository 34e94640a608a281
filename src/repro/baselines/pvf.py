"""PVF — Program Vulnerability Factor (Sridharan & Kaeli, HPCA 2009).

PVF measures the fraction of architecturally-required state: a fault in
any bit whose value the architecturally correct execution depends on
counts as vulnerable.  It distinguishes neither crashes nor benign
faults from SDCs, so its SDC prediction is a gross over-estimate (the
paper measures a mean absolute error of 75.19%, Fig. 9).

Implementation: corruption is propagated with *identity* tuples (no
masking, no crash discount — PVF has no notion of either) and every
reached terminal (store, address, branch, output, return) marks the
fault ACE.
"""

from __future__ import annotations

from ..core.trident import Trident
from ..core.tuples import IDENTITY, PropTuple, TupleDeriver
from ..ir.instructions import Instruction


class _IdentityTuples(TupleDeriver):
    """Every instruction propagates corruption with probability 1."""

    def tuple_for(self, inst: Instruction, operand_index: int) -> PropTuple:
        return IDENTITY


class PvfModel(Trident):
    """PVF as an SDC predictor (the strawman of Fig. 9).

    Eligibility and weighting are TRIDENT's, so all approaches predict
    over the fault injector's fault space; fc and fm are never asked.
    """

    TUPLES = _IdentityTuples
    FS_QUERY = "model.fs.pvf"
    QUERY = "model.pvf"
    CRASH_QUERY = "model.crash.pvf"

    def _event_contribution(self, origin, event) -> float:
        # Everything that reaches architectural state is vulnerable: every
        # terminal kind counts, weighted by how often the terminal runs
        # per execution of the faulty instruction.
        probability = event.probability
        origin_count = self.profile.count(origin.iid)
        if origin_count > 0:
            probability *= min(
                1.0, self.profile.count(event.instruction.iid) / origin_count
            )
        return probability
