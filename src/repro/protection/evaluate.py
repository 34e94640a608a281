"""End-to-end selective protection pipeline (Sec. VI / Fig. 8).

Given a program and a model name, predict per-instruction SDC
probabilities, choose instructions with the knapsack under an overhead
bound (a fraction of the full-duplication overhead), apply the
duplication pass, and measure the protected program's SDC probability
with fault injection (FI is used only for evaluation, as in the paper).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..cache import cached_profile
from ..core.simple_models import create_model
from ..fi.campaign import CampaignResult
from ..ir.module import Module
from ..profiling.profile import ProgramProfile
from ..sched.executor import run_store_campaign
from ..sched.shard import golden_summary
from .duplication import (
    DuplicationReport,
    duplicable_iids,
    duplicate_instructions,
)
from .knapsack import KnapsackItem, knapsack_select


@dataclass
class ProtectionOutcome:
    """Result of protecting one program at one overhead level."""

    model_name: str
    overhead_bound: float            # requested, as fraction of full dup
    selected_iids: set[int] = field(default_factory=set)
    measured_overhead: float = 0.0   # dynamic-instruction overhead
    baseline: CampaignResult | None = None
    protected: CampaignResult | None = None
    report: DuplicationReport | None = None
    #: Model-predicted SDC probability of the *protected* program, from
    #: the incremental re-model step (no FI involved).
    predicted_protected_sdc: float = 0.0
    #: Wall-clock seconds of that re-model; with warm shared query
    #: stores only the touched functions' queries recompute.
    remodel_seconds: float = 0.0

    @property
    def baseline_sdc(self) -> float:
        return self.baseline.sdc_probability if self.baseline else 0.0

    @property
    def protected_sdc(self) -> float:
        return self.protected.sdc_probability if self.protected else 0.0

    @property
    def sdc_reduction(self) -> float:
        """Fractional SDC probability reduction achieved (Fig. 8)."""
        if self.baseline_sdc == 0.0:
            return 0.0
        return 1.0 - self.protected_sdc / self.baseline_sdc


def duplication_cost(profile: ProgramProfile, iid: int) -> int:
    """Extra dynamic instructions for protecting one instruction.

    One clone per execution, plus (pessimistically) one check — chains
    share checks, so this slightly over-estimates, which only makes the
    knapsack conservative.
    """
    return 2 * profile.count(iid)


def full_duplication_cost(module: Module, profile: ProgramProfile) -> int:
    """Dynamic cost of duplicating every duplicable instruction."""
    return sum(duplication_cost(profile, iid) for iid in duplicable_iids(module))


def select_instructions(module: Module, profile: ProgramProfile,
                        model_name: str,
                        overhead_fraction: float) -> set[int]:
    """Knapsack-choose the iids to protect under the overhead bound.

    The candidates' SDC probabilities come from ``sdc_map``, which also
    stores the model's results, so the next selection loads them.
    """
    model = create_model(model_name, module, profile)
    candidates = [
        iid for iid in duplicable_iids(module) if profile.count(iid) > 0
    ]
    sdc = model.sdc_map(candidates)
    items = [
        KnapsackItem(
            key=iid,
            cost=duplication_cost(profile, iid),
            profit=sdc[iid] * profile.count(iid),
        )
        for iid in candidates
    ]
    capacity = int(full_duplication_cost(module, profile) * overhead_fraction)
    return knapsack_select(items, capacity)


def evaluate_protection(module: Module, profile: ProgramProfile,
                        model_name: str, overhead_fraction: float,
                        fi_samples: int = 1000,
                        seed: int = 0) -> ProtectionOutcome:
    """Protect with one model at one overhead level; measure with FI.

    Both campaigns go through the shared result store, so evaluating
    the same protection again replays their counts.
    """
    outcome = ProtectionOutcome(model_name, overhead_fraction)
    outcome.selected_iids = select_instructions(
        module, profile, model_name, overhead_fraction
    )
    protected_module, outcome.report = duplicate_instructions(
        module, outcome.selected_iids
    )

    # Incremental re-model (the paper's protect-then-re-predict loop):
    # the selection model above warmed the shared per-function query
    # stores, so re-modeling the protected clone recomputes only the
    # functions the pass touched — everything else is served from cache.
    protected_profile, _outputs = cached_profile(protected_module)
    started = time.perf_counter()
    remodel = create_model(model_name, protected_module, protected_profile)
    outcome.predicted_protected_sdc = remodel.overall_sdc(
        samples=fi_samples, seed=seed
    )
    outcome.remodel_seconds = time.perf_counter() - started

    outcome.baseline = run_store_campaign(fi_samples, seed, module=module)
    outcome.protected = run_store_campaign(fi_samples, seed + 1,
                                           module=protected_module)
    # Read after the campaigns, whose store misses published both.
    outcome.measured_overhead = (
        golden_summary(protected_module).dynamic_count
        / golden_summary(module).dynamic_count - 1.0
    )
    return outcome
