"""Optimization-level study (extension).

The paper evaluates LLVM -O2 binaries; our eDSL emits -O0 style
alloca/load/store form.  With the optimizer (`repro.opt`) both forms
exist for every benchmark, so we can ask a question the paper could
not: how do SDC probabilities — measured and predicted — shift when
variables move from memory into SSA registers?

Expected effects (and what the table shows):

* dynamic instruction count drops (fewer loads/stores);
* crash probability tends to drop slightly (fewer address calculations
  per useful operation);
* the model keeps tracking FI, though register-resident loop state makes
  loop-control faults more SDC-prone, which the model is conservative
  about (store-address survivors are unmodeled, Sec. VII-A).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cache import cached_profile
from ..core.simple_models import create_model
from ..opt.pipeline import optimize
from ..sched.executor import run_store_campaign
from ..sched.shard import golden_summary
from ..stats import mean_absolute_error
from .context import Workspace
from .report import format_table, percent

LEVELS = (0, 2)


@dataclass
class OptLevelRow:
    benchmark: str
    dynamic_counts: dict[int, int]
    fi_sdc: dict[int, float]
    model_sdc: dict[int, float]
    promoted: int


@dataclass
class OptLevelResult:
    rows: list[OptLevelRow]
    mae: dict[int, float]

    def render(self) -> str:
        headers = ["Benchmark", "dyn O0", "dyn O2", "promoted",
                   "FI O0", "model O0", "FI O2", "model O2"]
        body = []
        for row in self.rows:
            body.append([
                row.benchmark,
                row.dynamic_counts[0], row.dynamic_counts[2],
                row.promoted,
                percent(row.fi_sdc[0]), percent(row.model_sdc[0]),
                percent(row.fi_sdc[2]), percent(row.model_sdc[2]),
            ])
        table = format_table(
            headers, body,
            title="Optimization levels: SDC at -O0 (memory form) vs "
                  "-O2 (SSA register form)",
        )
        return (
            table
            + f"\nmodel MAE at O0: {percent(self.mae[0])}; "
              f"at O2: {percent(self.mae[2])}"
        )


def run_optlevels(workspace: Workspace) -> OptLevelResult:
    config = workspace.config
    settings = config.campaign_settings()
    rows = []
    fi_series: dict[int, list[float]] = {level: [] for level in LEVELS}
    model_series: dict[int, list[float]] = {level: [] for level in LEVELS}
    for ctx in workspace.contexts():
        dynamic_counts: dict[int, int] = {}
        fi_sdc: dict[int, float] = {}
        model_sdc: dict[int, float] = {}
        promoted = 0
        for level in LEVELS:
            module, report = optimize(ctx.module, level)
            if level == 2:
                promoted = report.slots_promoted
            profile, _ = cached_profile(module)
            campaign = run_store_campaign(
                config.fi_samples, config.seed, module=module,
                settings=settings,
            )
            dynamic_counts[level] = golden_summary(module).dynamic_count
            fi_sdc[level] = campaign.sdc_probability
            model = create_model("trident", module, profile)
            model_sdc[level] = model.overall_sdc(
                samples=config.model_samples, seed=config.seed
            )
            fi_series[level].append(fi_sdc[level])
            model_series[level].append(model_sdc[level])
        rows.append(OptLevelRow(
            ctx.name, dynamic_counts, fi_sdc, model_sdc, promoted
        ))
    mae = {
        level: mean_absolute_error(model_series[level], fi_series[level])
        for level in LEVELS
    }
    return OptLevelResult(rows, mae)
