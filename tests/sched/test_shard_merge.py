"""Cross-"machine" shard merging: the distributed determinism lock.

The service shards campaign seed ranges across worker processes — and,
via the deterministic seed-substream protocol, across machines.  These
tests emulate the distributed case honestly: each "machine" is an
independent ``run_shard`` invocation on a cold worker cache, fed a
:class:`ShardSpec` that round-tripped through its JSON wire form, with
its :class:`ShardResult` round-tripped back.  Merged counts must be
bit-identical to the serial and local-pool runs, and the Wilson-CI
early-stop decision computed from merged counts must be consistent
regardless of sharding.
"""

from __future__ import annotations

import json

import pytest

from repro.fi import FaultInjector
from repro.sched import (
    CampaignExecutor,
    CampaignSettings,
    ModuleSpec,
    ShardPlan,
    ShardResult,
    ShardSpec,
    run_shard,
)
from repro.sched import shard as sched_shard
from repro.stats import wilson_confidence
from tests.conftest import cached_module

RUNS = 150
SEED = 9
BENCH = "pathfinder"


def remote_run_shard(spec: ShardSpec) -> ShardResult:
    """One shard on an emulated remote machine.

    Cold injector cache (a different host shares no process state) and
    JSON wire forms in both directions, exactly as the service protocol
    ships them.
    """
    sched_shard.MODULE_CACHE.clear()
    wire_spec = ShardSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    result = run_shard(wire_spec)
    return ShardResult.from_dict(json.loads(json.dumps(result.to_dict())))


def merge_counts(shards) -> dict[str, int]:
    merged: dict[str, int] = {}
    for shard in shards:
        for outcome, n in shard.counts.items():
            merged[outcome] = merged.get(outcome, 0) + n
    return merged


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


class TestShardPayload:
    GOOD = {"start": 0, "count": 5, "counts": {"sdc": 2, "benign": 3},
            "cpu_seconds": 0.1, "perf": {}}

    def test_valid_payload_loads(self):
        shard = ShardResult.from_dict(self.GOOD)
        assert shard.counts == {"sdc": 2, "benign": 3}

    def test_corrupt_counts_refused(self):
        for counts in (
            {"sdc": 2, "bogus": 3},      # unknown outcome
            {"sdc": -1, "benign": 6},    # negative
            {"sdc": 2.0, "benign": 3},   # not an int
            {"sdc": "2", "benign": 3},
            {"sdc": True, "benign": 4},
            {"sdc": 2, "benign": 4},     # sums past count
        ):
            with pytest.raises(ValueError):
                ShardResult.from_dict({**self.GOOD, "counts": counts})
