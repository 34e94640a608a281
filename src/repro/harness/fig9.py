"""Figure 9 — overall SDC probabilities: FI vs TRIDENT vs ePVF vs PVF.

Expected shape (Sec. VII-C): PVF grossly over-predicts (no crash or
masking knowledge), ePVF over-predicts (crashes removed, benign faults
still counted), TRIDENT tracks FI.  Paper MAEs: 4.75% / 36.78% / 75.19%.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.simple_models import create_model
from ..stats import mean_absolute_error
from .context import Workspace
from .report import format_table, percent

APPROACHES = ("trident", "epvf", "pvf")


@dataclass
class Fig9Row:
    benchmark: str
    fi_sdc: float
    predictions: dict[str, float]


@dataclass
class Fig9Result:
    rows: list[Fig9Row]
    mean_absolute_errors: dict[str, float]

    def render(self) -> str:
        table = format_table(
            ["Benchmark", "FI", "TRIDENT", "ePVF", "PVF"],
            [
                [r.benchmark, percent(r.fi_sdc),
                 percent(r.predictions["trident"]),
                 percent(r.predictions["epvf"]),
                 percent(r.predictions["pvf"])]
                for r in self.rows
            ],
            title="Figure 9: Overall SDC — TRIDENT vs ePVF vs PVF",
        )
        maes = "  ".join(
            f"{name}: {percent(self.mean_absolute_errors[name])}"
            for name in APPROACHES
        )
        return table + "\nmean absolute error — " + maes


def run_fig9(workspace: Workspace) -> Fig9Result:
    config = workspace.config
    rows = []
    for ctx in workspace.contexts():
        campaign = ctx.fi_campaign(config.fi_samples, seed=config.seed)
        # Paper-faithful substitution: ePVF's crash model is replaced by
        # the FI-measured crash probability (Sec. VII-C).  The measured
        # probability is a model input from outside the config, so it
        # salts ePVF's query-store key.
        models = {
            "trident": ctx.model("trident"),
            "epvf": create_model(
                "epvf", ctx.module, ctx.profile,
                measured_crash_probability=campaign.crash_probability,
            ),
            "pvf": ctx.model("pvf"),
        }
        rows.append(Fig9Row(
            benchmark=ctx.name,
            fi_sdc=campaign.sdc_probability,
            predictions={
                name: model.overall_sdc(samples=config.model_samples,
                                        seed=config.seed)
                for name, model in models.items()
            },
        ))
    fi_values = [r.fi_sdc for r in rows]
    maes = {
        name: mean_absolute_error(
            [r.predictions[name] for r in rows], fi_values
        )
        for name in APPROACHES
    }
    return Fig9Result(rows, maes)
