"""Ablation study over the model's design choices (DESIGN.md §5-6).

For each configuration variant, the full model is rebuilt and its
overall-SDC mean absolute error against FI recomputed across the
benchmark suite.  Variants:

* ``full``              — the shipped TRIDENT configuration
* ``no-minmax-joint``   — cmp+select clusters composed independently
* ``no-silent-discount``— fc without the lucky-store discount
* ``fdiv-masking``      — paper extension: fdiv mantissa averaging ON
* ``store-addr-sdc``    — paper extension: surviving store-address
                          corruption counted as SDC

Also validates the crash-prediction extension against FI crash rates.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.config import TridentConfig, trident_config
from ..core.simple_models import create_model
from ..stats import mean_absolute_error
from .context import Workspace
from .report import format_table, percent

ABLATIONS: dict[str, TridentConfig] = {
    "full": trident_config(),
    "no-minmax-joint": trident_config(model_minmax_joint=False),
    "no-silent-discount": trident_config(fc_silent_store_discount=False),
    "fdiv-masking": trident_config(model_fdiv_masking=True),
    "store-addr-sdc": trident_config(model_store_address_sdc=True),
}


@dataclass
class AblationResult:
    fi_sdc: dict[str, float]            # benchmark -> FI SDC
    fi_crash: dict[str, float]          # benchmark -> FI crash
    predictions: dict[str, dict[str, float]]  # variant -> bench -> SDC
    crash_predictions: dict[str, float]  # benchmark -> model crash
    mean_absolute_errors: dict[str, float]
    crash_mae: float

    def render(self) -> str:
        benches = list(self.fi_sdc)
        headers = ["Benchmark", "FI"] + list(ABLATIONS) + ["FI-crash",
                                                           "model-crash"]
        rows = []
        for bench in benches:
            row = [bench, percent(self.fi_sdc[bench])]
            row += [
                percent(self.predictions[variant][bench])
                for variant in ABLATIONS
            ]
            row += [percent(self.fi_crash[bench]),
                    percent(self.crash_predictions[bench])]
            rows.append(row)
        table = format_table(
            headers, rows,
            title="Ablations: overall SDC by model variant "
                  "(+ crash-prediction extension)",
        )
        summary = ["", "mean absolute error vs FI:"]
        for variant in ABLATIONS:
            summary.append(
                f"  {variant:20s} {percent(self.mean_absolute_errors[variant])}"
            )
        summary.append(f"  {'crash prediction':20s} {percent(self.crash_mae)}")
        return table + "\n" + "\n".join(summary)


def run_ablations(workspace: Workspace) -> AblationResult:
    config = workspace.config
    fi_sdc: dict[str, float] = {}
    fi_crash: dict[str, float] = {}
    predictions: dict[str, dict[str, float]] = {v: {} for v in ABLATIONS}
    crash_predictions: dict[str, float] = {}

    for ctx in workspace.contexts():
        campaign = ctx.fi_campaign(config.fi_samples, seed=config.seed)
        fi_sdc[ctx.name] = campaign.sdc_probability
        fi_crash[ctx.name] = campaign.crash_probability
        for variant, variant_config in ABLATIONS.items():
            model = create_model("trident", ctx.module, ctx.profile,
                                 config=variant_config)
            predictions[variant][ctx.name] = model.overall_sdc(
                samples=config.model_samples, seed=config.seed
            )
        crash_model = create_model("trident", ctx.module, ctx.profile)
        crash_predictions[ctx.name] = crash_model.overall_crash(
            samples=config.model_samples, seed=config.seed
        )

    benches = list(fi_sdc)
    maes = {
        variant: mean_absolute_error(
            [predictions[variant][b] for b in benches],
            [fi_sdc[b] for b in benches],
        )
        for variant in ABLATIONS
    }
    crash_mae = mean_absolute_error(
        [crash_predictions[b] for b in benches],
        [fi_crash[b] for b in benches],
    )
    return AblationResult(fi_sdc, fi_crash, predictions,
                          crash_predictions, maes, crash_mae)
