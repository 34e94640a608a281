"""Figure 8 — SDC reduction from selective duplication under overhead
bounds, with protection guided by each of the three models.

The paper's setting: the overhead budget is 1/3 or 2/3 of the measured
full-duplication overhead; the chosen instructions are duplicated and
the resulting binary is evaluated with FI (FI is never used to choose).
Expected shape: TRIDENT ≥ fs+fc > fs reductions at both levels.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.simple_models import MODEL_NAMES
from ..protection.duplication import duplicate_instructions
from ..protection.evaluate import select_instructions
from ..sched.executor import run_store_campaign
from ..sched.shard import golden_summary
from .context import Workspace
from .report import format_table, percent

#: The paper's two budget levels (fractions of full duplication).
OVERHEAD_LEVELS = (1.0 / 3.0, 2.0 / 3.0)


@dataclass
class Fig8Cell:
    protected_sdc: float
    reduction: float
    measured_overhead: float
    instructions_protected: int


@dataclass
class Fig8Row:
    benchmark: str
    baseline_sdc: float
    cells: dict[tuple[str, float], Fig8Cell]  # (model, level) -> cell


@dataclass
class Fig8Result:
    rows: list[Fig8Row]
    average_reduction: dict[tuple[str, float], float]

    def render(self) -> str:
        headers = ["Benchmark", "base SDC"]
        for level in OVERHEAD_LEVELS:
            for name in MODEL_NAMES:
                headers.append(f"{name}@{level:.0%}")
        body = []
        for row in self.rows:
            cells = [row.benchmark, percent(row.baseline_sdc)]
            for level in OVERHEAD_LEVELS:
                for name in MODEL_NAMES:
                    cells.append(percent(row.cells[(name, level)].protected_sdc))
            body.append(cells)
        table = format_table(
            headers, body,
            title="Figure 8: Protected SDC Probability by Model and "
                  "Overhead Bound",
        )
        summary = ["", "average SDC reduction:"]
        for level in OVERHEAD_LEVELS:
            parts = [
                f"{name} {percent(self.average_reduction[(name, level)], 0)}"
                for name in MODEL_NAMES
            ]
            summary.append(
                f"  at {level:.0%} of full-dup overhead: " + ", ".join(parts)
            )
        return table + "\n" + "\n".join(summary)


def run_fig8(workspace: Workspace) -> Fig8Result:
    config = workspace.config
    rows = []
    sums: dict[tuple[str, float], float] = {
        (name, level): 0.0
        for name in MODEL_NAMES for level in OVERHEAD_LEVELS
    }
    settings = config.campaign_settings()
    for ctx in workspace.contexts():
        baseline = ctx.fi_campaign(config.protection_fi_samples)
        baseline_dynamic = golden_summary(ctx.module).dynamic_count
        cells: dict[tuple[str, float], Fig8Cell] = {}
        for name in MODEL_NAMES:
            for level in OVERHEAD_LEVELS:
                selected = select_instructions(
                    ctx.module, ctx.profile, name, level
                )
                protected_module, _report = duplicate_instructions(
                    ctx.module, selected
                )
                # Models that pick the same instructions share one
                # protected module, so one stored campaign.
                campaign = run_store_campaign(
                    config.protection_fi_samples, config.seed + 1,
                    module=protected_module, settings=settings,
                )
                protected_dynamic = golden_summary(
                    protected_module).dynamic_count
                reduction = (
                    1.0 - campaign.sdc_probability / baseline.sdc_probability
                    if baseline.sdc_probability > 0 else 0.0
                )
                cells[(name, level)] = Fig8Cell(
                    protected_sdc=campaign.sdc_probability,
                    reduction=reduction,
                    measured_overhead=(
                        protected_dynamic / baseline_dynamic - 1.0
                    ),
                    instructions_protected=len(selected),
                )
                sums[(name, level)] += reduction
        rows.append(Fig8Row(
            benchmark=ctx.name,
            baseline_sdc=baseline.sdc_probability,
            cells=cells,
        ))
    averages = {key: total / len(rows) for key, total in sums.items()}
    return Fig8Result(rows, averages)
