"""Typed artifacts: profiles, golden summaries, model results, campaigns."""

from __future__ import annotations

import pytest

from repro.cache import (
    GoldenSummary,
    bind_model_results,
    campaign_key,
    golden_key,
    load_cached_profile,
    load_golden_summary,
    load_model_results,
    model_results_key,
    module_fingerprint,
    profile_digest,
    profile_key,
    store_cached_profile,
    store_golden_summary,
    store_model_results,
)
from repro.core.simple_models import build_model
from repro.fi.campaign import OUTCOMES, SDC, CampaignResult, FaultInjector
from repro.interp.engine import ExecutionEngine
from repro.profiling import ProfilingInterpreter
from repro.profiling.serialize import profile_to_dict
from tests.conftest import cached_module, cached_profile


@pytest.fixture(scope="module")
def pathfinder():
    module = cached_module("pathfinder")
    profile, outputs = cached_profile("pathfinder")
    return module, profile, outputs


class TestProfileArtifacts:
    def test_roundtrip_preserves_content(self, cache, pathfinder):
        module, profile, outputs = pathfinder
        key = profile_key(module_fingerprint(module))
        assert store_cached_profile(cache, key, profile, outputs)
        restored = load_cached_profile(cache, key)
        assert restored is not None
        assert profile_to_dict(restored) == profile_to_dict(profile)
        assert profile_digest(restored) == profile_digest(profile)

    def test_digest_ignores_wall_time(self):
        module = cached_module("pathfinder")
        first, _ = ProfilingInterpreter(module).run()
        second, _ = ProfilingInterpreter(module).run()
        second.profiling_seconds = first.profiling_seconds + 1.0
        assert profile_digest(first) == profile_digest(second)

    def test_digest_sees_one_changed_operand_sample(self):
        module = cached_module("pathfinder")
        reference, _ = ProfilingInterpreter(module).run()
        edited, _ = ProfilingInterpreter(module).run()
        iid, samples = next(iter(edited.operand_samples.items()))
        first = samples[0]
        samples[0] = (first[0] + 1,) + tuple(first[1:])
        assert edited.operand_samples[iid] != reference.operand_samples[iid]
        assert profile_digest(edited) != profile_digest(reference)

    def test_key_depends_on_profiler_knobs(self):
        fp = "f" * 64
        assert profile_key(fp) == profile_key(fp, sample_cap=32, seed=2018)
        assert profile_key(fp) != profile_key(fp, sample_cap=64)
        assert profile_key(fp) != profile_key(fp, seed=1)

    def test_malformed_payload_is_a_miss(self, cache):
        key = profile_key("f" * 64)
        cache.store("profile", key, {"not-a-profile": True})
        assert load_cached_profile(cache, key) is None


class TestGoldenSummary:
    def test_substitutes_for_a_real_golden_run(self, cache, pathfinder):
        module, _profile, _outputs = pathfinder
        golden = ExecutionEngine(module).golden()
        summary = GoldenSummary.from_run(golden)
        key = golden_key(module_fingerprint(module))
        assert store_golden_summary(cache, key, summary)
        restored = load_golden_summary(cache, key)

        assert restored.outputs == golden.outputs
        assert restored.dynamic_count == golden.dynamic_count
        assert restored.instruction_counts() == golden.instruction_counts()

        # An injector built on the summary classifies like one built on
        # the real run (same outputs/counts drive the classification).
        injector = FaultInjector(module, golden=restored)
        result = injector.campaign(20, seed=7)
        reference = FaultInjector(module).campaign(20, seed=7)
        assert result.counts == reference.counts


class TestModelResults:
    def test_roundtrip_and_int_keys(self, cache):
        results = {3: 0.25, 17: 0.0, 4: 1.0}
        store_model_results(cache, "k" * 64, results)
        assert load_model_results(cache, "k" * 64) == results

    def test_bind_warms_and_writes_back(self, cache, pathfinder):
        module, profile, _outputs = pathfinder
        cold = build_model("trident", module, profile)
        assert bind_model_results(cache, cold, "trident") == 0
        cold_map = cold.sdc_map()  # triggers the write-back sink

        warm = build_model("trident", module, profile)
        restored = bind_model_results(cache, warm, "trident")
        assert restored == len(cold_map) > 0
        assert warm.sdc_map() == cold_map

    def test_key_separates_models_and_extras(self, pathfinder):
        module, profile, _outputs = pathfinder
        model = build_model("trident", module, profile)
        base = model_results_key(module, profile, "trident", model.config)
        assert base == model_results_key(
            module, profile, "trident", model.config
        )
        assert base != model_results_key(
            module, profile, "fs", model.config
        )
        assert base != model_results_key(
            module, profile, "trident", model.config, extra=0.125
        )


class TestCampaignArtifacts:
    def test_result_roundtrip(self):
        result = CampaignResult(completed_ranges=[(0, 20)])
        result.counts[SDC] = 7
        result.counts["benign"] = 13
        result.cpu_seconds = 1.5
        result.runs_requested = 20
        result.rounds = 2
        restored = CampaignResult.from_dict(result.to_dict())
        assert restored.counts == result.counts
        assert restored.from_cache
        assert restored.cpu_seconds == 1.5
        assert restored.runs_requested == 20
        assert restored.wall_seconds == 0.0

    def test_unknown_outcome_rejected(self):
        data = CampaignResult().to_dict()
        data["counts"]["mystery"] = 1
        with pytest.raises(ValueError, match="unknown campaign outcome"):
            CampaignResult.from_dict(data)

    #: A batch-tier campaign entry with every stored key, as existing
    #: result stores hold it (pathfinder, test scale, 40 runs, seed 3).
    STORED_ENTRY = {
        "counts": {"sdc": 19, "crash": 10, "hang": 0, "benign": 11,
                   "detected": 0},
        "cpu_seconds": 0.0314, "runs_requested": 40,
        "stopped_early": False, "rounds": 1,
        "dynamic_instructions": 10918, "skipped_instructions": 85577,
        "converged_trials": 0, "snapshot_bytes": 3351024,
        "checkpointed": True, "checkpoint_degraded": False,
        "interp_tier": "batch", "batch_lanes": 8, "batch_divergences": 10,
        "batch_fallbacks": 0, "batch_reconverged": 8, "batch_drains": 0,
        "drain_instructions": 0, "completed_ranges": [[0, 40]],
    }

    def test_stored_entry_loads_every_field(self):
        restored = CampaignResult.from_dict(self.STORED_ENTRY)
        for name, value in self.STORED_ENTRY.items():
            if name == "completed_ranges":
                value = [tuple(r) for r in value]
            assert getattr(restored, name) == value, name
        assert restored.to_dict() == self.STORED_ENTRY

    def test_key_ignores_parallelism_without_stopping_rule(self):
        fp = "a" * 64
        assert campaign_key(fp, 100, 0, round_size=50) == \
            campaign_key(fp, 100, 0, round_size=200)
        assert campaign_key(fp, 100, 0) != campaign_key(fp, 101, 0)
        assert campaign_key(fp, 100, 0) != campaign_key(fp, 100, 1)

    def test_key_honours_stopping_rule_knobs(self):
        fp = "a" * 64
        base = campaign_key(fp, 100, 0, ci_halfwidth=0.01, round_size=50)
        assert base == campaign_key(fp, 100, 0, ci_halfwidth=0.01,
                                    round_size=50)
        assert base != campaign_key(fp, 100, 0, ci_halfwidth=0.01,
                                    round_size=200)
        assert base != campaign_key(fp, 100, 0, ci_halfwidth=0.02,
                                    round_size=50)
        assert base != campaign_key(fp, 100, 0)

    def test_key_without_target_is_unchanged(self):
        # Stores written before targets existed must stay reachable.
        fp = "a" * 64
        assert campaign_key(fp, 100, 0) == (
            "cfc0dab8a60fdcb8f23131b383e233e16efeeba48d630f07c347b465bc8958d0"
        )
        assert campaign_key(fp, 100, 0, ci_halfwidth=0.01,
                            round_size=50) == (
            "4656db349937c31e7f87291abf98c7956dc3c48593487f2be77d55bcf9b51579"
        )

    def test_key_names_the_target(self):
        fp = "a" * 64
        keys = {
            campaign_key(fp, 100, 0),
            campaign_key(fp, 100, 0, target=3),
            campaign_key(fp, 100, 0, target=4),
            campaign_key(fp, 100, 0, ci_halfwidth=0.01, target=3),
        }
        assert len(keys) == 4

    def test_all_outcomes_serialized(self):
        data = CampaignResult().to_dict()
        assert set(data["counts"]) == set(OUTCOMES)
