"""Resilience report: a human-readable summary of a program's SDC risk.

This is the artifact a developer consumes in the Fig. 1a development
cycle: where the program is vulnerable, whether it meets a target SDC
probability, and what protecting the top instructions would buy.
Rendered as markdown.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.simple_models import create_model
from ..fi.campaign import SDC, CampaignResult
from ..ir.instructions import Instruction
from ..ir.module import Module
from ..ir.printer import format_instruction
from ..profiling.profile import ProgramProfile
from ..protection.duplication import is_duplicable
from ..protection.evaluate import duplication_cost, full_duplication_cost
from ..protection.knapsack import KnapsackItem, knapsack_select
from ..stats.confidence import wilson_confidence


@dataclass
class FunctionSummary:
    name: str
    instructions: int
    eligible: int
    weighted_sdc: float      # execution-weighted mean SDC probability
    hottest: list[tuple[int, float, str]] = field(default_factory=list)


@dataclass
class ResilienceReport:
    program: str
    overall_sdc: float
    overall_crash: float
    dynamic_instructions: int
    functions: list[FunctionSummary]
    target_sdc: float | None
    meets_target: bool | None
    recommended_iids: set[int]
    recommended_coverage: float   # fraction of SDC mass covered
    recommended_overhead: float   # fraction of full-duplication cost
    #: Optional FI validation campaign backing the predictions.
    fi: CampaignResult | None = None

    def render(self) -> str:
        lines = [
            f"# Resilience report: {self.program}",
            "",
            f"* overall SDC probability (predicted): "
            f"**{self.overall_sdc:.2%}**",
            f"* overall crash probability (predicted): "
            f"{self.overall_crash:.2%}",
            f"* dynamic instructions profiled: {self.dynamic_instructions}",
        ]
        if self.target_sdc is not None:
            verdict = "MEETS" if self.meets_target else "EXCEEDS"
            lines.append(
                f"* target SDC probability {self.target_sdc:.2%}: "
                f"**{verdict}**"
            )
        lines.append("")
        lines.append("## Per-function breakdown")
        lines.append("")
        lines.append("| function | instructions | weighted SDC |")
        lines.append("|---|---|---|")
        for summary in self.functions:
            lines.append(
                f"| {summary.name} | {summary.instructions} "
                f"| {summary.weighted_sdc:.2%} |"
            )
        lines.append("")
        lines.append("## Most SDC-prone instructions")
        lines.append("")
        for summary in self.functions:
            for iid, probability, text in summary.hottest:
                lines.append(
                    f"* `#{iid}` ({summary.name}) {probability:.2%} — "
                    f"`{text}`"
                )
        if self.fi is not None:
            fi = self.fi
            interval = wilson_confidence(fi.counts[SDC], fi.total)
            stopped = " — stopped early at CI target" if fi.stopped_early \
                else ""
            lines.append("")
            lines.append("## Fault injection validation")
            lines.append("")
            lines.append(
                f"* measured SDC probability: **{interval.probability:.2%} "
                f"± {interval.margin:.2%}** (Wilson 95%)"
            )
            lines.append(
                f"* runs executed: {fi.total} of {fi.runs_requested} "
                f"requested{stopped}"
            )
            lines.append(
                f"* wall clock: {fi.wall_seconds:.2f} s on {fi.workers} "
                f"worker(s), {fi.cpu_seconds:.2f} CPU-seconds"
            )
        lines.append("")
        lines.append("## Protection recommendation")
        lines.append("")
        lines.append(
            f"Duplicating **{len(self.recommended_iids)}** instructions "
            f"(~{self.recommended_overhead:.0%} of the full-duplication "
            f"overhead) covers ~{self.recommended_coverage:.0%} of the "
            f"predicted SDC mass."
        )
        return "\n".join(lines)


def generate_report(module: Module, profile: ProgramProfile,
                    target_sdc: float | None = None,
                    overhead_budget: float = 1 / 3,
                    top_per_function: int = 3,
                    samples: int = 2000,
                    fi: CampaignResult | None = None) -> ResilienceReport:
    """Build the report from one profiled execution.

    ``fi`` optionally attaches a measured FI campaign, rendered as a
    validation section with its wall-clock/runs-executed summary.
    """
    model = create_model("trident", module, profile)
    # Every eligible instruction's prediction, read and stored at once
    # (before the sampled overall, so the store is written once).
    sdc = model.sdc_map()
    overall = model.overall_sdc(samples=samples, seed=0)
    crash = model.overall_crash(samples=min(samples, 1000), seed=0)

    functions = []
    for function in module.functions.values():
        insts: list[Instruction] = list(function.instructions())
        eligible = [i for i in insts if i.iid in sdc]
        total_weight = sum(profile.count(i.iid) for i in eligible)
        if total_weight:
            weighted = sum(
                profile.count(i.iid) * sdc[i.iid] for i in eligible
            ) / total_weight
        else:
            weighted = 0.0
        ranked = sorted(
            eligible, key=lambda i: sdc[i.iid], reverse=True,
        )[:top_per_function]
        functions.append(FunctionSummary(
            name=function.name,
            instructions=len(insts),
            eligible=len(eligible),
            weighted_sdc=weighted,
            hottest=[
                (i.iid, sdc[i.iid], format_instruction(i)) for i in ranked
            ],
        ))

    # Knapsack recommendation at the requested budget.
    candidates = [
        iid for iid in model.eligible
        if is_duplicable(module.instruction(iid))
    ]
    items = [
        KnapsackItem(
            key=iid,
            cost=duplication_cost(profile, iid),
            profit=sdc[iid] * profile.count(iid),
        )
        for iid in candidates
    ]
    capacity = int(full_duplication_cost(module, profile) * overhead_budget)
    chosen = knapsack_select(items, capacity)
    total_mass = sum(item.profit for item in items)
    covered = sum(item.profit for item in items if item.key in chosen)

    return ResilienceReport(
        program=module.name,
        overall_sdc=overall,
        overall_crash=crash,
        dynamic_instructions=profile.dynamic_count,
        functions=functions,
        target_sdc=target_sdc,
        meets_target=None if target_sdc is None else overall <= target_sdc,
        recommended_iids=chosen,
        recommended_coverage=covered / total_mass if total_mass else 0.0,
        recommended_overhead=overhead_budget,
        fi=fi,
    )
