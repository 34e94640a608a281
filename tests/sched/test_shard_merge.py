"""Cross-"machine" shard merging: the distributed determinism lock.

The service shards campaign seed ranges across worker processes, and
the deterministic seed-substream protocol makes any such partition
merge to the same counts.  These tests emulate independent workers:
each "machine" is a ``run_shard`` invocation on a cold worker cache,
fed a pickled :class:`ShardSpec` (as a pool worker receives it), with
its :class:`CampaignResult` round-tripped back through the JSON wire
form of the result store.  Merged counts must be bit-identical to the
serial and local-pool runs, and the Wilson-CI early-stop decision
computed from merged counts must be consistent regardless of sharding.
"""

from __future__ import annotations

import json
import pickle

import pytest

from repro.fi import CampaignResult, FaultInjector
from repro.sched import (
    CampaignExecutor,
    CampaignSettings,
    ModuleSpec,
    ShardPlan,
    ShardSpec,
    run_shard,
)
from repro.sched import shard as sched_shard
from repro.stats import wilson_confidence
from tests.conftest import cached_module

RUNS = 150
SEED = 9
BENCH = "pathfinder"


def remote_run_shard(spec: ShardSpec) -> CampaignResult:
    """One shard on an emulated independent worker.

    Cold injector cache (a fresh worker shares no process state), the
    spec pickled as a pool worker receives it, and the result
    round-tripped through the JSON form a shard checkpoint stores.
    """
    sched_shard.MODULE_CACHE.clear()
    result = run_shard(pickle.loads(pickle.dumps(spec)))
    return CampaignResult.from_dict(json.loads(json.dumps(result.to_dict())))


def merge_counts(shards) -> dict[str, int]:
    merged = CampaignResult()
    for shard in shards:
        merged.absorb(shard)
    return merged.counts


def run_on_machines(machines: int,
                    runs: int = RUNS, seed: int = SEED) -> dict[str, int]:
    spec = ModuleSpec.from_benchmark(BENCH, "test")
    plan = ShardPlan.split(0, runs, machines)
    assert len(plan) == machines
    shards = [
        remote_run_shard(
            ShardSpec(module=spec, start=rng.start, count=rng.count,
                      seed=seed),
        )
        for rng in plan
    ]
    return merge_counts(shards)


class TestCrossMachineMerge:
    def test_three_machines_match_serial(self):
        serial = FaultInjector(cached_module(BENCH)).campaign(
            RUNS, seed=SEED
        )
        merged = run_on_machines(machines=3)
        assert merged == serial.counts

    def test_three_machines_match_local_pool(self):
        pooled = CampaignExecutor(
            ModuleSpec.from_benchmark(BENCH, "test"),
            settings=CampaignSettings(workers=4),
        ).run(RUNS, seed=SEED)
        merged = run_on_machines(machines=3)
        assert merged == pooled.counts

    def test_machine_count_is_invisible(self):
        by_two = run_on_machines(machines=2)
        by_five = run_on_machines(machines=5)
        assert by_two == by_five

    def test_disjoint_plans_share_no_runs(self):
        plan = ShardPlan.split(0, RUNS, 3)
        covered = []
        for rng in plan:
            covered.extend(range(rng.start, rng.stop))
        assert covered == list(range(RUNS))  # every run exactly once


class TestWilsonConsistency:
    HALFWIDTH = 0.08

    def stop_decision(self, counts: dict[str, int]) -> bool:
        interval = wilson_confidence(counts.get("sdc", 0),
                                     sum(counts.values()))
        return interval.margin <= self.HALFWIDTH

    def test_stop_decision_identical_across_sharding(self):
        serial = FaultInjector(cached_module(BENCH)).campaign(
            RUNS, seed=SEED
        )
        merged = run_on_machines(machines=3)
        assert self.stop_decision(merged) == self.stop_decision(
            serial.counts
        )

    def early_stop_campaign(self, workers: int):
        # A pinned round size makes the stopping rule check the same
        # merged prefixes regardless of worker count, so the stopped
        # total — not just the decision — must agree bit-for-bit.
        return CampaignExecutor(
            ModuleSpec.from_benchmark(BENCH, "test"),
            settings=CampaignSettings(
                workers=workers, ci_halfwidth=self.HALFWIDTH,
                round_size=50, min_runs=50,
            ),
        ).run(400, seed=SEED)

    def test_early_stop_campaigns_agree(self):
        serial = self.early_stop_campaign(workers=1)
        sharded = self.early_stop_campaign(workers=3)
        assert sharded.counts == serial.counts
        assert sharded.total == serial.total
        assert sharded.stopped_early == serial.stopped_early
        assert serial.stopped_early  # the rule fires well before 400


class TestRunShard:
    def test_returns_its_span_as_a_campaign_result(self):
        spec = ShardSpec(module=ModuleSpec.from_benchmark(BENCH, "test"),
                         start=40, count=30, seed=SEED)
        result = run_shard(spec)
        assert isinstance(result, CampaignResult)
        assert result.completed_ranges == [(40, 30)]
        assert result.counts == FaultInjector(cached_module(BENCH)).run_span(
            40, 30, SEED
        ).counts


class TestShardPayload:
    GOOD = {"counts": {"sdc": 2, "benign": 3}, "cpu_seconds": 0.1,
            "completed_ranges": [[0, 5]]}

    def test_valid_payload_loads(self):
        shard = CampaignResult.from_dict(self.GOOD)
        assert shard.counts["sdc"] == 2 and shard.counts["benign"] == 3
        assert shard.completed_ranges == [(0, 5)]

    def test_corrupt_counts_refused(self):
        for counts in (
            {"sdc": 2, "bogus": 3},      # unknown outcome
            {"sdc": -1, "benign": 6},    # negative
            {"sdc": 2.0, "benign": 3},   # not an int
            {"sdc": "2", "benign": 3},
            {"sdc": True, "benign": 4},
            {"sdc": 2, "benign": 4},     # sums past the ranges
            {"sdc": 1, "benign": 3},     # falls short of the ranges
        ):
            with pytest.raises(ValueError):
                CampaignResult.from_dict({**self.GOOD, "counts": counts})

    def test_missing_ranges_refused(self):
        payload = dict(self.GOOD)
        del payload["completed_ranges"]
        with pytest.raises(ValueError):
            CampaignResult.from_dict(payload)
