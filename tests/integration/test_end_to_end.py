"""End-to-end integration: the paper's headline claims on our substrate.

These are the acceptance tests of the reproduction — each asserts one
qualitative result of the evaluation (Sec. V/VI/VII).
"""

import json
from pathlib import Path

import pytest

from repro.baselines import EpvfModel, PvfModel
#: The full Table I suite — MAE comparisons are only meaningful across
#: all 11 programs (any subset can flip on a single outlier).
from repro.bench import BENCHMARK_NAMES as NAMES
from repro.core import build_all_models
from repro.fi import FaultInjector
from repro.protection import evaluate_protection
from repro.stats import mean_absolute_error, paired_t_test
from tests.conftest import cached_module, cached_profile


@pytest.fixture(scope="module")
def evaluation():
    """FI + all model predictions for the selected benchmarks."""
    rows = []
    for name in NAMES:
        module = cached_module(name)
        profile, _ = cached_profile(name)
        injector = FaultInjector(module)
        campaign = injector.campaign(250, seed=3)
        models = build_all_models(module, profile)
        predictions = {
            key: model.overall_sdc(samples=250, seed=1)
            for key, model in models.items()
        }
        predictions["pvf"] = PvfModel(module, profile).overall_sdc(
            250, seed=1)
        predictions["epvf"] = EpvfModel(
            module, profile,
            measured_crash_probability=campaign.crash_probability,
        ).overall_sdc(250, seed=1)
        rows.append((name, campaign, predictions))
    return rows


class TestFig5Claims:
    def test_trident_closest_to_fi(self, evaluation):
        fi = [c.sdc_probability for _n, c, _p in evaluation]
        errors = {
            key: mean_absolute_error(
                [p[key] for _n, _c, p in evaluation], fi
            )
            for key in ("trident", "fs+fc", "fs")
        }
        assert errors["trident"] < errors["fs+fc"]
        assert errors["trident"] < errors["fs"]

    def test_fs_fc_always_over_predicts(self, evaluation):
        """Sec. V-B1: 'the model fs+fc always over-predicts SDCs
        compared with TRIDENT'."""
        for _name, _campaign, predictions in evaluation:
            assert predictions["fs+fc"] >= predictions["trident"] - 1e-9

    def test_trident_statistically_close(self, evaluation):
        """Analogue of the paper's paired t-test (they report p=0.764).

        Our reproduction retains a mild conservatism on self-healing
        loop structures (the lucky-store effect the paper itself names
        in Sec. VII-A), so we assert the weaker bound p > 0.01 and that
        TRIDENT is far closer to FI than the simpler models are.
        """
        fi = [c.sdc_probability for _n, c, _p in evaluation]
        trident = [p["trident"] for _n, _c, p in evaluation]
        result = paired_t_test(trident, fi)
        assert result.p_value > 0.01
        fs_fc = [p["fs+fc"] for _n, _c, p in evaluation]
        assert paired_t_test(fs_fc, fi).p_value < result.p_value

    def test_mean_levels_sane(self, evaluation):
        fi_mean = sum(
            c.sdc_probability for _n, c, _p in evaluation
        ) / len(evaluation)
        trident_mean = sum(
            p["trident"] for _n, _c, p in evaluation
        ) / len(evaluation)
        assert abs(trident_mean - fi_mean) < 0.15


#: Per-model MAE of the ``evaluation`` fixture, committed as a baseline.
ACCURACY_BASELINE = (Path(__file__).resolve().parents[2]
                     / "benchmarks" / "results" / "accuracy.json")
#: How far an intended change may move a model's MAE before the
#: baseline must be re-measured and committed with it.
ACCURACY_BAND = 0.01


class TestAccuracyBand:
    """Orderings alone would let TRIDENT's MAE double unnoticed: keep
    every model's MAE within a band of the committed baseline."""

    @pytest.mark.parametrize("key", ["trident", "fs+fc", "fs", "epvf",
                                     "pvf"])
    def test_mae_within_band_of_baseline(self, evaluation, key):
        baseline = json.loads(ACCURACY_BASELINE.read_text())["mae"][key]
        fi = [c.sdc_probability for _n, c, _p in evaluation]
        mae = mean_absolute_error([p[key] for _n, _c, p in evaluation], fi)
        assert abs(mae - baseline) <= ACCURACY_BAND, (
            f"{key} MAE {mae:.4f} is outside {baseline:.4f} "
            f"± {ACCURACY_BAND}"
        )


class TestFig9Claims:
    def test_ordering_pvf_worst(self, evaluation):
        fi = [c.sdc_probability for _n, c, _p in evaluation]
        errors = {
            key: mean_absolute_error(
                [p[key] for _n, _c, p in evaluation], fi
            )
            for key in ("trident", "epvf", "pvf")
        }
        assert errors["pvf"] > errors["epvf"] > errors["trident"]

    def test_pvf_near_one(self, evaluation):
        for _name, _campaign, predictions in evaluation:
            assert predictions["pvf"] > 0.8


class TestFig8Claims:
    def test_trident_guided_protection_beats_fs(self):
        """Fig. 8: at the same overhead bound, TRIDENT-guided selection
        reduces SDC at least as much as the fs-only model's."""
        module = cached_module("pathfinder")
        profile, _ = cached_profile("pathfinder")
        trident = evaluate_protection(
            module, profile, "trident", 1 / 3, fi_samples=300, seed=11
        )
        fs_only = evaluate_protection(
            module, profile, "fs", 1 / 3, fi_samples=300, seed=11
        )
        assert trident.sdc_reduction >= fs_only.sdc_reduction - 0.05

    def test_higher_budget_higher_reduction(self):
        module = cached_module("bfs_rodinia")
        profile, _ = cached_profile("bfs_rodinia")
        low = evaluate_protection(
            module, profile, "trident", 1 / 3, fi_samples=300, seed=13
        )
        high = evaluate_protection(
            module, profile, "trident", 2 / 3, fi_samples=300, seed=13
        )
        assert high.sdc_reduction >= low.sdc_reduction - 0.05
        assert high.measured_overhead > low.measured_overhead


class TestScalabilityClaim:
    def test_model_amortizes_over_samples(self):
        """Fig. 6a's core claim: model cost is ~flat in sample count
        while FI cost is linear by construction."""
        import time

        module = cached_module("hotspot")
        profile, _ = cached_profile("hotspot")
        from repro.core import Trident

        model = Trident(module, profile)
        started = time.perf_counter()
        model.overall_sdc(samples=500, seed=0)
        first = time.perf_counter() - started
        started = time.perf_counter()
        model.overall_sdc(samples=5000, seed=0)
        tenfold = time.perf_counter() - started
        # 10x the samples must cost far less than 10x the time.
        assert tenfold < max(first, 1e-4) * 10
