"""Input-sensitivity study (the paper's future work, Sec. VII-B/IX).

Di Leo et al. found SDC probabilities change across program inputs;
the paper runs one input per program (like all prior work) and names
multiple-input modeling as future work.  We implement the study: for
each benchmark, several inputs are generated (same code, different
data), FI measures the per-input SDC probability, and TRIDENT —
rebuilt per input, since its profile is input-specific — predicts it.

Two questions are answered:

1. how much does the true SDC probability move across inputs?
2. does TRIDENT track the per-input values (not just the average)?
"""

from __future__ import annotations

from dataclasses import dataclass

from ..bench.registry import build_module
from ..cache import cached_profile
from ..core.simple_models import create_model
from ..sched.executor import run_store_campaign
from ..stats import mean_absolute_error
from .context import Workspace
from .report import format_table, percent


@dataclass
class InputRow:
    benchmark: str
    fi_by_input: list[float]
    model_by_input: list[float]

    @property
    def fi_spread(self) -> float:
        return max(self.fi_by_input) - min(self.fi_by_input)

    @property
    def per_input_mae(self) -> float:
        return mean_absolute_error(self.model_by_input, self.fi_by_input)


@dataclass
class InputSensitivityResult:
    rows: list[InputRow]
    inputs: int

    def render(self) -> str:
        headers = ["Benchmark"]
        for i in range(self.inputs):
            headers += [f"FI#{i}", f"model#{i}"]
        headers += ["FI spread", "MAE"]
        body = []
        for row in self.rows:
            cells = [row.benchmark]
            for fi, model in zip(row.fi_by_input, row.model_by_input):
                cells += [percent(fi), percent(model)]
            cells += [percent(row.fi_spread), percent(row.per_input_mae)]
            body.append(cells)
        table = format_table(
            headers, body,
            title="Input sensitivity: SDC probability across program "
                  "inputs (paper future work, Sec. VII-B)",
        )
        avg_spread = sum(r.fi_spread for r in self.rows) / len(self.rows)
        avg_mae = sum(r.per_input_mae for r in self.rows) / len(self.rows)
        return (
            table
            + f"\naverage FI spread across inputs: {percent(avg_spread)}"
            + f"\naverage per-input model MAE:     {percent(avg_mae)}"
        )


def run_input_sensitivity(workspace: Workspace,
                          inputs: int = 3) -> InputSensitivityResult:
    config = workspace.config
    settings = config.campaign_settings()
    rows = []
    for name in config.benchmarks:
        fi_values = []
        model_values = []
        for input_seed in range(inputs):
            module = build_module(name, config.scale, input_seed=input_seed)
            profile, _ = cached_profile(module)
            campaign = run_store_campaign(
                config.fi_samples, config.seed, module=module,
                settings=settings,
            )
            fi_values.append(campaign.sdc_probability)
            model = create_model("trident", module, profile)
            model_values.append(model.overall_sdc(
                samples=config.model_samples, seed=config.seed
            ))
        rows.append(InputRow(name, fi_values, model_values))
    return InputSensitivityResult(rows, inputs)
