"""Engine reuse: one compilation per worker per module revision.

Compiling an :class:`ExecutionEngine` (closure steps for every
instruction, then generated code on its first run) is the expensive
per-module step; a campaign must pay it once per worker and amortize it
across every shard, round, and trial.
``engine_build_count`` counts compilations process-wide, so these tests
lock the invariant by measuring deltas.
"""

from __future__ import annotations

import pytest

from repro.fi import FaultInjector
from repro.sched import CampaignSettings, ModuleSpec, ShardSpec, run_shard
from repro.sched import shard as sched_shard
from repro.interp import engine_build_count
from repro.interp.codegen import resolve_tier
from tests.conftest import cached_module


@pytest.fixture
def fresh_worker():
    """Simulate a fresh pool worker: clear the per-process cache."""
    sched_shard.MODULE_CACHE.clear()


def shard(spec, start, count, seed=1, checkpoint=True, stride=0,
          tier=None, lanes=0):
    return ShardSpec(
        module=spec, start=start, count=count, seed=seed,
        settings=CampaignSettings(
            checkpoint=checkpoint, checkpoint_stride=stride,
            interp_tier=tier, batch_lanes=lanes,
        ),
    )


class TestInjectorReuse:
    def test_campaign_compiles_exactly_once(self):
        before = engine_build_count()
        injector = FaultInjector(cached_module("pathfinder"))
        assert engine_build_count() == before + 1
        injector.campaign(60, seed=1)
        injector.campaign(60, seed=2)
        injector.run_span(0, 40, 3)
        assert engine_build_count() == before + 1

    def test_checkpoint_capture_reuses_engine(self):
        injector = FaultInjector(cached_module("hotspot"))
        before = engine_build_count()
        assert injector.checkpoints() is not None
        injector.run_span(0, 40, 1)
        injector.configure_checkpoints(True, stride=100)
        injector.run_span(0, 40, 1)
        assert engine_build_count() == before


class TestWorkerReuse:
    def test_same_spec_shards_share_one_build(self, fresh_worker):
        spec = ModuleSpec.from_benchmark("pathfinder", "test")
        before = engine_build_count()
        run_shard(shard(spec, 0, 30))
        assert engine_build_count() == before + 1
        run_shard(shard(spec, 30, 30))
        run_shard(shard(spec, 60, 30, checkpoint=False, tier="batch"))
        run_shard(shard(spec, 90, 30, tier="codegen", lanes=8))  # toggling
        assert engine_build_count() == before + 1            # knobs keeps it

    def test_default_tier_shard_after_batch_shard(self, fresh_worker):
        """A shard with no tier runs on the default tier, whatever
        tier the previous shard left on the cached injector."""
        spec = ModuleSpec.from_benchmark("pathfinder", "test")
        batch = run_shard(shard(spec, 0, 20, tier="batch"))
        default = run_shard(shard(spec, 20, 20))
        assert batch.interp_tier == "batch"
        assert default.interp_tier == resolve_tier(None)

    def test_new_module_revision_recompiles(self, fresh_worker):
        before = engine_build_count()
        run_shard(shard(ModuleSpec.from_benchmark("pathfinder", "test"),
                        0, 20))
        run_shard(shard(ModuleSpec.from_benchmark("nw", "test"), 0, 20))
        assert engine_build_count() == before + 2

    def test_direct_injector_bypasses_worker_cache(self, fresh_worker):
        injector = FaultInjector(cached_module("pathfinder"))
        before = engine_build_count()
        result = run_shard(shard(ModuleSpec(), 0, 20), injector=injector)
        assert engine_build_count() == before  # no materialization
        assert len(sched_shard.MODULE_CACHE) == 0  # cache untouched
        assert sum(result.counts.values()) == 20
