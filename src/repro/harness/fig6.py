"""Figure 6 — computation spent to predict SDC probabilities.

(a) overall SDC probability: wall-clock versus the number of sampled
    dynamic instructions.  FI cost grows linearly (one complete run per
    sample); TRIDENT pays a fixed profiling cost plus a near-flat
    incremental inference cost (memoized per static instruction).
(b) per-instruction SDC probabilities: wall-clock versus the number of
    static instructions, for FI with 100/500/1000 runs per instruction
    versus TRIDENT.

Like the paper, FI cost is projected from the measured mean time of a
small batch of real injection runs (Sec. V-C: "projected based on the
measurement of one FI trial (averaged over 30 FI runs)").
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from .context import Workspace
from .report import format_table

#: Sample counts swept in Fig. 6a (paper: 500..7000).
SAMPLE_POINTS = (500, 1000, 2000, 3000, 5000, 7000)
#: Static instruction counts swept in Fig. 6b (paper: 50..7000).
INSTRUCTION_POINTS = (10, 25, 50, 100, 200)
#: Per-instruction FI run counts in Fig. 6b.
FI_RUNS_PER_INSTRUCTION = (100, 500, 1000)


@dataclass
class Fig6aSeries:
    samples: list[int]
    fi_seconds: list[float]
    trident_seconds: list[float]


@dataclass
class Fig6bSeries:
    instruction_counts: list[int]
    fi_seconds: dict[int, list[float]]  # runs-per-inst -> series
    trident_seconds: list[float]


@dataclass
class Fig6Result:
    per_run_seconds: float
    series_a: Fig6aSeries
    series_b: Fig6bSeries
    notes: list[str] = field(default_factory=list)

    def render(self) -> str:
        rows_a = [
            [n, f"{fi:.3f}", f"{tr:.3f}", f"{fi / max(tr, 1e-9):.1f}x"]
            for n, fi, tr in zip(
                self.series_a.samples, self.series_a.fi_seconds,
                self.series_a.trident_seconds,
            )
        ]
        table_a = format_table(
            ["#samples", "FI (s)", "TRIDENT (s)", "speedup"],
            rows_a,
            title="Figure 6a: Time to Predict the Overall SDC Probability",
        )
        headers_b = ["#instructions"] + [
            f"FI-{k} (s)" for k in FI_RUNS_PER_INSTRUCTION
        ] + ["TRIDENT (s)"]
        rows_b = []
        for index, count in enumerate(self.series_b.instruction_counts):
            row = [count]
            for k in FI_RUNS_PER_INSTRUCTION:
                row.append(f"{self.series_b.fi_seconds[k][index]:.3f}")
            row.append(f"{self.series_b.trident_seconds[index]:.3f}")
            rows_b.append(row)
        table_b = format_table(
            headers_b, rows_b,
            title="Figure 6b: Time for Individual-Instruction SDC "
                  "Probabilities",
        )
        note = (f"(FI projected from measured mean run time "
                f"{self.per_run_seconds * 1000:.2f} ms, averaged across "
                f"benchmarks)")
        return "\n\n".join([table_a, table_b, note] + self.notes)


def _measure_per_run_seconds(workspace: Workspace, batch: int = 30) -> float:
    """Mean wall-clock of one complete FI run, across benchmarks."""
    total = 0.0
    runs = 0
    for ctx in workspace.contexts():
        rng = random.Random(workspace.config.seed)
        injector = ctx.injector
        started = time.perf_counter()
        for _ in range(batch):
            injector.run_one(injector.sample_injection(rng))
        total += time.perf_counter() - started
        runs += batch
    return total / runs


def run_fig6(workspace: Workspace) -> Fig6Result:
    config = workspace.config
    per_run = _measure_per_run_seconds(workspace)
    contexts = workspace.contexts()

    # -- (a): overall SDC, time vs #samples ---------------------------------
    fi_series = [per_run * n for n in SAMPLE_POINTS]
    trident_series = []
    for n in SAMPLE_POINTS:
        total = 0.0
        for ctx in contexts:
            # fresh and unwarmed: fig6 measures true cold inference cost
            model = ctx.model("trident", shared=False)
            started = time.perf_counter()
            model.overall_sdc(samples=n, seed=config.seed)
            inference = time.perf_counter() - started
            total += ctx.profile.profiling_seconds + inference
        trident_series.append(total / len(contexts))
    series_a = Fig6aSeries(list(SAMPLE_POINTS), fi_series, trident_series)

    # -- (b): per-instruction SDC, time vs #instructions --------------------
    fi_b: dict[int, list[float]] = {k: [] for k in FI_RUNS_PER_INSTRUCTION}
    trident_b: list[float] = []
    for count in INSTRUCTION_POINTS:
        for k in FI_RUNS_PER_INSTRUCTION:
            fi_b[k].append(per_run * k * count)
        total = 0.0
        for ctx in contexts:
            iids = ctx.injector.eligible_iids()[:count]
            model = ctx.model("trident", shared=False)
            started = time.perf_counter()
            for iid in iids:
                model.instruction_sdc(iid)
            inference = time.perf_counter() - started
            total += ctx.profile.profiling_seconds + inference
        trident_b.append(total / len(contexts))
    series_b = Fig6bSeries(list(INSTRUCTION_POINTS), fi_b, trident_b)

    return Fig6Result(per_run, series_a, series_b)
