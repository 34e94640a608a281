"""Table II — per-instruction SDC prediction quality (paired t-tests).

For each benchmark: FI measures the SDC probability of individual
static instructions (N runs per instruction); each model predicts the
same instructions; a paired t-test asks whether prediction and
measurement are statistically distinguishable.  The paper finds 3/11
rejections for TRIDENT vs 9/11 (fs+fc) and 7/11 (fs).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..core.simple_models import MODEL_NAMES
from ..stats import paired_t_test
from .context import Workspace
from .report import format_table


@dataclass
class Table2Row:
    benchmark: str
    instructions_tested: int
    p_values: dict[str, float]  # model -> p-value


@dataclass
class Table2Result:
    rows: list[Table2Row]
    rejections: dict[str, int]  # model -> #benchmarks with p <= 0.05

    def render(self) -> str:
        table = format_table(
            ["Benchmark", "#insts", "TRIDENT", "fs+fc", "fs"],
            [
                [r.benchmark, r.instructions_tested,
                 f"{r.p_values['trident']:.3f}",
                 f"{r.p_values['fs+fc']:.3f}",
                 f"{r.p_values['fs']:.3f}"]
                for r in self.rows
            ],
            title=(
                "Table II: p-values, per-instruction SDC predictions "
                "(p > 0.05: indistinguishable from FI)"
            ),
        )
        footer = "  ".join(
            f"{name}: {self.rejections[name]}/{len(self.rows)} rejections"
            for name in MODEL_NAMES
        )
        return table + "\nNull-hypothesis rejections — " + footer


def run_table2(workspace: Workspace) -> Table2Result:
    config = workspace.config
    rows = []
    rejections = {name: 0 for name in MODEL_NAMES}
    for ctx in workspace.contexts():
        iids = ctx.injector.eligible_iids()
        if len(iids) > config.max_instructions:
            rng = random.Random(config.seed)
            iids = sorted(rng.sample(iids, config.max_instructions))
        measured = [
            ctx.fi_campaign(config.per_instruction_runs,
                            target=iid).sdc_probability
            for iid in iids
        ]
        p_values = {}
        for name in MODEL_NAMES:
            # sdc_map flushes the model's query stores, so a warm render
            # reads every prediction back from the store.
            sdc = ctx.model(name).sdc_map(iids)
            predicted = [sdc[iid] for iid in iids]
            result = paired_t_test(predicted, measured)
            p_values[name] = result.p_value
            if result.rejects_null():
                rejections[name] += 1
        rows.append(Table2Row(
            benchmark=ctx.name,
            instructions_tested=len(iids),
            p_values=p_values,
        ))
    return Table2Result(rows, rejections)
