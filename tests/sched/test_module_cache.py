"""The per-process module and injector cache of the campaign path.

A long-lived process (the daemon, a pool worker) must materialize and
compile each module once, not once per request: these tests count
``ModuleSpec.materialize`` calls and ``engine_build_count`` deltas
across the scheduler, and lock the cache's bound, its one-capture rule,
its failure policy and its thread safety.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.interp import engine_build_count
from repro.interp.codegen import resolve_tier
from repro.ir.printer import print_module
from repro.sched import (
    CampaignRequest,
    CampaignSettings,
    ModuleSpec,
    Scheduler,
    run_store_campaign,
)
from repro.sched import shard as sched_shard
from tests.conftest import build_straightline_module

CACHE = sched_shard.MODULE_CACHE
PATHFINDER = ModuleSpec.from_benchmark("pathfinder", "test")  # 119 insts
NW = ModuleSpec.from_benchmark("nw", "test")                  # 116 insts
BFS = ModuleSpec.from_benchmark("bfs_parboil", "test")        # 102 insts


@pytest.fixture
def empty_cache():
    CACHE.clear()
    yield CACHE
    CACHE.clear()


@pytest.fixture
def materialized(monkeypatch, empty_cache) -> list:
    """Every spec materialized from here on, in call order."""
    calls = []
    original = ModuleSpec.materialize

    def counting(spec):
        calls.append(spec)
        return original(spec)

    monkeypatch.setattr(ModuleSpec, "materialize", counting)
    return calls


def request(spec: ModuleSpec, seed: int, runs: int = 20) -> CampaignRequest:
    return CampaignRequest(spec=spec, runs=runs, seed=seed)


def holding_capture() -> int:
    return sum(injector._capture is not None
               for injector in CACHE.injectors())


class TestReuse:
    def test_interleaved_specs_build_each_once(self, materialized):
        scheduler = Scheduler(max_pending=16)
        scheduler.start()
        before = engine_build_count()
        try:
            for seed in range(711, 715):
                for spec in (PATHFINDER, NW):
                    job = scheduler.submit(request(spec, seed))
                    assert job.wait(timeout=120.0)
                    assert job.status == "done", job.error
                    assert not job.cached
        finally:
            scheduler.stop(timeout=10.0)
        assert engine_build_count() == before + 2
        assert materialized == [PATHFINDER, NW]

    def test_repeat_submit_materializes_nothing(self, materialized):
        scheduler = Scheduler(max_pending=4)
        first = scheduler.submit(request(PATHFINDER, 721))
        assert materialized == [PATHFINDER]
        again = scheduler.submit(request(PATHFINDER, 722))
        assert materialized == [PATHFINDER]
        assert again.fingerprint == first.fingerprint

    def test_default_settings_after_other_settings(self, empty_cache):
        batch = run_store_campaign(
            20, 731, spec=PATHFINDER,
            settings=CampaignSettings(interp_tier="batch",
                                      checkpoint=False),
        )
        default = run_store_campaign(20, 732, spec=PATHFINDER)
        assert batch.interp_tier == "batch"
        assert not batch.checkpointed
        assert default.interp_tier == resolve_tier(None)
        assert default.checkpointed


class TestBound:
    def test_least_recently_used_entry_is_evicted(self, monkeypatch,
                                                  materialized):
        monkeypatch.setattr(sched_shard, "MAX_CACHED_INSTRUCTIONS", 240)
        CACHE.module(PATHFINDER)
        CACHE.module(NW)
        CACHE.module(PATHFINDER)  # now NW is least recently used
        CACHE.module(BFS)         # 119 + 116 + 102 > 240
        assert PATHFINDER in CACHE and BFS in CACHE
        assert NW not in CACHE
        assert CACHE.instructions == 119 + 102
        assert materialized == [PATHFINDER, NW, BFS]

    def test_oversized_module_is_used_but_not_kept(self, monkeypatch,
                                                   materialized):
        monkeypatch.setattr(sched_shard, "MAX_CACHED_INSTRUCTIONS", 110)
        CACHE.module(BFS)
        result = run_store_campaign(20, 741, spec=PATHFINDER)
        assert result.total == 20
        assert PATHFINDER not in CACHE
        assert BFS in CACHE  # the oversized module evicted nothing
        assert CACHE.instructions == 102
        # The key and the injector each needed the module again.
        assert materialized == [BFS, PATHFINDER, PATHFINDER]


class TestCaptures:
    def test_at_most_one_entry_holds_a_capture(self, empty_cache):
        first = run_store_campaign(20, 751, spec=PATHFINDER)
        assert holding_capture() == 1
        repeat = run_store_campaign(20, 752, spec=PATHFINDER)
        run_store_campaign(20, 753, spec=NW)
        assert len(CACHE.injectors()) == 2
        assert holding_capture() == 1
        back = run_store_campaign(20, 754, spec=PATHFINDER)
        assert holding_capture() == 1
        # A capture pass is accounted by the campaign that paid for it:
        # the repeat reused the first campaign's capture, while the
        # return to PATHFINDER after NW captured again.
        assert first.snapshot_bytes > 0
        assert repeat.snapshot_bytes == 0
        assert back.snapshot_bytes == first.snapshot_bytes


class TestFailures:
    def test_failed_injector_build_is_not_kept(self, materialized):
        ir_text = print_module(build_straightline_module()).replace(
            "@main", "@start")
        spec = ModuleSpec(ir_text=ir_text)
        scheduler = Scheduler(max_pending=4)
        scheduler.start()
        try:
            for seed in (761, 762):
                job = scheduler.submit(request(spec, seed))
                assert job.wait(timeout=60.0)
                assert job.status == "failed"
                assert "no main function" in job.error
                assert spec not in CACHE
        finally:
            scheduler.stop(timeout=10.0)
        assert materialized == [spec, spec]  # once per request

    def test_failed_materialization_is_not_kept(self, empty_cache):
        spec = ModuleSpec.from_benchmark("no-such-benchmark", "test")
        for _attempt in range(2):
            with pytest.raises(KeyError):
                CACHE.module(spec)
            assert len(CACHE) == 0


class TestThreads:
    def test_concurrent_submits_of_one_spec(self, empty_cache):
        scheduler = Scheduler(max_pending=4)
        barrier = threading.Barrier(8)
        fingerprints, modules, errors = [], [], []

        def submit():
            try:
                barrier.wait(timeout=30.0)
                fingerprints.append(
                    scheduler.submit(request(PATHFINDER, 771)).fingerprint)
                modules.append(id(CACHE.module(PATHFINDER)))
            except Exception as exc:  # noqa: BLE001 - collected below
                errors.append(exc)

        threads = [threading.Thread(target=submit) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the threads finely
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(fingerprints) == 8 and len(set(fingerprints)) == 1
        assert len(set(modules)) == 1
        assert len(CACHE) == 1
        assert CACHE.instructions == 119  # no entry counted twice
