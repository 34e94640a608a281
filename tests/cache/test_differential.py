"""Cold-vs-warm differentials: a warm run is bit-identical and faster.

The acceptance bar of the cache PR: re-running fig5 against a populated
cache must render byte-for-byte the same report while skipping the
expensive work (profiling runs, injections, model inference).
"""

from __future__ import annotations

import gc
import time

import pytest

from repro.cache import get_cache
from repro.harness.context import ExperimentConfig, Workspace
from repro.harness.fig5 import run_fig5
from repro.sched import CampaignSettings, ModuleSpec, run_store_campaign

SMALL = ExperimentConfig(
    scale="test", fi_samples=120, model_samples=120,
    benchmarks=("pathfinder", "hotspot"),
)


@pytest.mark.usefixtures("fresh_default_cache")
class TestFig5Differential:
    def test_warm_rerun_is_bit_identical_and_faster(self):
        # Collect before each timed run, so a full collection of the
        # suite's heap (~110 ms) cannot land inside the ~20 ms warm run.
        gc.collect()
        started = time.perf_counter()
        cold = run_fig5(Workspace(SMALL)).render()
        cold_seconds = time.perf_counter() - started

        stats = get_cache().stats
        hits_before = stats.hits

        gc.collect()
        started = time.perf_counter()
        warm = run_fig5(Workspace(SMALL)).render()
        warm_seconds = time.perf_counter() - started

        assert warm == cold
        assert stats.hits > hits_before  # profiles/goldens/models/campaigns
        # The ISSUE acceptance bar is >=2x; a warm run only reads JSON, so
        # this holds with a wide margin on any machine.
        assert warm_seconds < cold_seconds / 2

    def test_campaign_artifacts_are_replayed(self):
        run_fig5(Workspace(SMALL))
        workspace = Workspace(SMALL)
        campaign = workspace.context("pathfinder").fi_campaign()
        assert campaign.from_cache
        assert campaign.total == SMALL.fi_samples


@pytest.mark.usefixtures("fresh_default_cache")
class TestCachedCampaign:
    SPEC = ModuleSpec.from_benchmark("pathfinder", "test")

    def test_miss_then_hit_bit_identical(self):
        first = run_store_campaign(60, seed=3, spec=self.SPEC)
        assert not first.from_cache
        second = run_store_campaign(60, seed=3, spec=self.SPEC)
        assert second.from_cache
        assert second.counts == first.counts
        assert second.cpu_seconds == first.cpu_seconds

    def test_different_seed_misses(self):
        run_store_campaign(60, seed=3, spec=self.SPEC)
        other = run_store_campaign(60, seed=4, spec=self.SPEC)
        assert not other.from_cache

    def test_corrupt_entry_recomputes(self):
        from repro.cache import campaign_key, module_fingerprint
        from repro.cache.artifacts import CAMPAIGN_KIND

        first = run_store_campaign(60, seed=3, spec=self.SPEC)
        cache = get_cache()
        key = campaign_key(
            module_fingerprint(self.SPEC.materialize()), 60, 3,
        )
        cache.store(CAMPAIGN_KIND, key, {"counts": {"sdc": "NaN?"},
                                         "malformed": True})
        again = run_store_campaign(60, seed=3, spec=self.SPEC)
        assert not again.from_cache
        assert again.counts == first.counts
        # ... and the recomputation repaired the entry.
        repaired = run_store_campaign(60, seed=3, spec=self.SPEC)
        assert repaired.from_cache

    def test_lazy_injector_factory_not_built_on_hit(self):
        run_store_campaign(60, seed=3, spec=self.SPEC)
        built = []

        def factory():
            built.append(True)
            raise AssertionError("factory must not run on a cache hit")

        result = run_store_campaign(
            60, seed=3, module=self.SPEC.materialize(), injector=factory,
            settings=CampaignSettings(),
        )
        assert result.from_cache and not built
