#!/usr/bin/env python3
"""Compare every SDC model against fault injection (Figs. 5 and 9).

For each benchmark: FI ground truth vs TRIDENT, the two ablated models
(fs+fc, fs), and the prior-work baselines (ePVF, PVF).

Run:  python examples/model_comparison.py [scale]
"""

import sys

from repro import (
    EpvfModel,
    FaultInjector,
    PvfModel,
    all_benchmarks,
    build_all_models,
)
from repro.profiling import ProfilingInterpreter
from repro.stats import mean_absolute_error, paired_t_test


def main(scale: str = "test", fi_samples: int = 500) -> None:
    columns = ("trident", "fs+fc", "fs", "epvf", "pvf")
    print(f"{'benchmark':14s} {'FI':>7s} " +
          " ".join(f"{c:>8s}" for c in columns))
    fi_series: list[float] = []
    prediction_series: dict[str, list[float]] = {c: [] for c in columns}

    for spec in all_benchmarks():
        module = spec.build(scale)
        profile, _ = ProfilingInterpreter(module).run()
        campaign = FaultInjector(module).campaign(fi_samples, seed=1)
        predictions = {
            name: model.overall_sdc(samples=fi_samples, seed=2)
            for name, model in build_all_models(module, profile).items()
        }
        predictions["epvf"] = EpvfModel(
            module, profile,
            measured_crash_probability=campaign.crash_probability,
        ).overall_sdc(samples=fi_samples, seed=2)
        predictions["pvf"] = PvfModel(module, profile).overall_sdc(
            samples=fi_samples, seed=2
        )
        fi_series.append(campaign.sdc_probability)
        for column in columns:
            prediction_series[column].append(predictions[column])
        print(f"{spec.name:14s} {campaign.sdc_probability:7.2%} " +
              " ".join(f"{predictions[c]:8.2%}" for c in columns))

    print("\nmean absolute error vs FI:")
    for column in columns:
        mae = mean_absolute_error(prediction_series[column], fi_series)
        print(f"  {column:8s} {mae:6.2%}")
    t_test = paired_t_test(prediction_series["trident"], fi_series)
    verdict = (
        "statistically indistinguishable from FI"
        if t_test.p_value > 0.05 else "distinguishable from FI"
    )
    print(f"\npaired t-test, TRIDENT vs FI: p = {t_test.p_value:.3f} "
          f"({verdict})")


if __name__ == "__main__":
    main(*(sys.argv[1:2] or ["test"]))
