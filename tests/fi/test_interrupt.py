"""Interrupt-safe campaign teardown and partial-shard checkpoints.

An interrupted campaign must (1) terminate instead of hanging, (2) keep
every completed shard's counts, (3) report exactly which seed ranges
finished, and (4) leave per-shard checkpoints in the shared result
store so the next run of the same campaign resumes instead of
restarting.  These tests drive the serial executor path (the pool path
shares the same merge/checkpoint plumbing) by making ``run_span`` raise
``KeyboardInterrupt`` partway through a sharded campaign.
"""

from __future__ import annotations

import pytest

from repro.cache import campaign_key, get_cache, module_fingerprint, shard_key
from repro.cache.artifacts import CAMPAIGN_KIND, SHARD_KIND
from repro.fi import FaultInjector
from repro.sched import (
    CampaignExecutor,
    CampaignInterrupted,
    CampaignSettings,
    ModuleSpec,
    run_store_campaign,
)
from tests.conftest import cached_module

BENCH = "pathfinder"
RUNS = 100
CHUNK = 20
SEED = 77


class InterruptingInjector:
    """Delegates to a real injector; interrupts after ``allow`` spans."""

    def __init__(self, injector: FaultInjector, allow: int):
        self._injector = injector
        self._allow = allow
        self.spans: list[tuple[int, int]] = []

    def __getattr__(self, name):
        return getattr(self._injector, name)

    def __call__(self):
        # run_store_campaign treats non-FaultInjector injectors as
        # lazy factories, invoked only on a store miss.
        return self

    def run_span(self, start, count, seed, target=None):
        if len(self.spans) >= self._allow:
            raise KeyboardInterrupt
        self.spans.append((start, count))
        return self._injector.run_span(start, count, seed, target)


class TestSerialInterrupt:
    def run_interrupted(self, allow: int):
        injector = InterruptingInjector(
            FaultInjector(cached_module(BENCH)), allow
        )
        campaign = CampaignExecutor(
            injector=injector,
            settings=CampaignSettings(chunk_size=CHUNK),
        )
        with pytest.raises(CampaignInterrupted) as exc:
            campaign.run(RUNS, seed=SEED)
        return exc.value.result

    def test_interrupt_surfaces_partial_result(self):
        partial = self.run_interrupted(allow=2)
        assert partial.interrupted
        assert partial.total == 2 * CHUNK

    def test_completed_ranges_reported_coalesced(self):
        partial = self.run_interrupted(allow=3)
        assert partial.completed_ranges == [(0, 3 * CHUNK)]

    def test_partial_counts_match_a_clean_prefix_run(self):
        partial = self.run_interrupted(allow=2)
        prefix = FaultInjector(cached_module(BENCH)).run_span(
            0, 2 * CHUNK, SEED
        )
        assert partial.counts == prefix.counts

    def test_interrupt_is_still_a_keyboardinterrupt(self):
        # Callers that only handle KeyboardInterrupt see a plain
        # interrupt; the partial result is opt-in.
        assert issubclass(CampaignInterrupted, KeyboardInterrupt)


class TestCheckpointResume:
    def test_interrupted_store_campaign_resumes(self):
        spec = ModuleSpec.from_benchmark(BENCH, "test")
        settings = CampaignSettings(chunk_size=CHUNK)
        flaky = InterruptingInjector(
            FaultInjector(cached_module(BENCH)), allow=2
        )
        with pytest.raises(CampaignInterrupted):
            run_store_campaign(
                RUNS, seed=SEED, spec=spec, injector=flaky,
                settings=settings,
            )
        resumed = run_store_campaign(
            RUNS, seed=SEED, spec=spec, settings=settings,
        )
        # The two interrupted shards replayed from the store...
        assert resumed.shards_resumed == 2
        # ...and the finished campaign is bit-identical to a clean run.
        clean = FaultInjector(cached_module(BENCH)).campaign(
            RUNS, seed=SEED
        )
        assert resumed.counts == clean.counts
        assert not resumed.interrupted

    def test_completed_campaign_compacts_shard_checkpoints(self):
        # After the resumed run stored its merged result, a repeat is a
        # pure campaign-cache hit with no shard replay.
        spec = ModuleSpec.from_benchmark(BENCH, "test")
        settings = CampaignSettings(chunk_size=CHUNK)
        replay = run_store_campaign(
            RUNS, seed=SEED, spec=spec, settings=settings,
        )
        assert replay.from_cache
        assert replay.shards_resumed == 0

    def test_corrupt_shard_checkpoint_is_recomputed(self):
        """A JSON-valid shard entry that is not a campaign payload
        covering its planned range is dropped and recomputed, not
        merged: counts of an unknown outcome that overshoot the range,
        and the older per-shard form (a ``perf`` block, no ranges) even
        when its counts are consistent."""
        spec = ModuleSpec.from_benchmark(BENCH, "test")
        module = spec.materialize()
        key = campaign_key(module_fingerprint(module), 100, 7)
        cache = get_cache()
        clean = FaultInjector(module).campaign(100, seed=7).counts
        for counts in ({"sdc": 49, "bogus": 7}, {"sdc": 10, "benign": 40}):
            cache.remove(CAMPAIGN_KIND, key)
            cache.store(SHARD_KIND, shard_key(key, 0, 50), {
                "start": 0, "count": 50, "counts": counts,
                "cpu_seconds": 0.0, "perf": {},
            })
            result = run_store_campaign(
                100, seed=7, spec=spec,
                settings=CampaignSettings(chunk_size=50),
            )
            assert result.total == 100
            assert result.shards_resumed == 0, counts
            assert result.counts == clean
