"""The service scheduler: queueing, coalescing, cache hits, backpressure.

A :class:`Scheduler` that has *not* been started keeps admitted jobs
queued, which makes admission-control behavior deterministic to test:
coalescing attaches duplicate submits to the in-flight job, the bounded
queue rejects at capacity, and a store hit completes without consuming
a queue slot at all.
"""

from __future__ import annotations

import threading

import pytest

from repro.cache import (
    campaign_key,
    configure_cache,
    get_cache,
    module_fingerprint,
)
from repro.cache.artifacts import (
    CAMPAIGN_KIND,
    GOLDEN_KIND,
    MODEL_FN_KIND,
    PROFILE_KIND,
    SHARD_KIND,
)
from repro.fi import CampaignResult, FaultInjector
from repro.ir.printer import print_module
from repro.sched import (
    INTERACTIVE,
    NIGHTLY,
    CampaignRequest,
    CampaignSettings,
    JobQueue,
    ModuleSpec,
    QueueFull,
    Scheduler,
    resolve_priority,
    run_store_campaign,
)
from tests.conftest import cached_module

BENCH = "pathfinder"

#: Request fields of the wrong JSON type.  Coerced, ``"runs": 2.5``
#: would run 2 trials and ``"checkpoint": "false"`` would checkpoint;
#: the wire form refuses each of them.
WRONG_JSON_TYPES = (
    {"runs": True}, {"runs": 2.5}, {"runs": "12"}, {"seed": "7"},
    {"workers": 1.9}, {"checkpoint": "false"}, {"ci_halfwidth": True},
    {"input_seed": "3"}, {"scale": 5},
)


def request(runs=40, seed=21, benchmark=BENCH, **settings) -> CampaignRequest:
    return CampaignRequest(
        spec=ModuleSpec.from_benchmark(benchmark, "test"),
        runs=runs, seed=seed, settings=CampaignSettings(**settings),
    )


@pytest.fixture
def scheduler():
    sched = Scheduler(max_pending=4)
    yield sched
    sched.stop(timeout=5.0)


class TestQueue:
    def test_interactive_overtakes_nightly(self):
        queue = JobQueue(8)
        queue.push("slow", NIGHTLY)
        queue.push("fast", INTERACTIVE)
        assert queue.pop(0) == "fast"
        assert queue.pop(0) == "slow"

    def test_fifo_within_class(self):
        queue = JobQueue(8)
        for item in ("a", "b", "c"):
            queue.push(item, INTERACTIVE)
        assert [queue.pop(0) for _ in range(3)] == ["a", "b", "c"]

    def test_bounded_push_raises(self):
        queue = JobQueue(2)
        queue.push("a")
        queue.push("b")
        with pytest.raises(QueueFull):
            queue.push("c")

    def test_close_wakes_poppers(self):
        queue = JobQueue(2)
        queue.close()
        assert queue.pop(timeout=5.0) is None

    def test_priority_names(self):
        assert resolve_priority("interactive") == INTERACTIVE
        assert resolve_priority("NIGHTLY") == NIGHTLY
        assert resolve_priority(3) == 3
        with pytest.raises(ValueError):
            resolve_priority("urgent")


class TestCoalescing:
    def test_duplicate_submits_share_one_job(self, scheduler):
        first = scheduler.submit(request(seed=31))
        second = scheduler.submit(request(seed=31))
        assert second is first
        assert first.coalesced == 1
        assert scheduler.counters["coalesced"] == 1

    def test_different_configs_do_not_coalesce(self, scheduler):
        a = scheduler.submit(request(seed=32))
        b = scheduler.submit(request(seed=33))
        c = scheduler.submit(request(seed=32, runs=80))
        assert len({a.id, b.id, c.id}) == 3


class TestBackpressure:
    def test_full_queue_rejects_new_requests(self):
        scheduler = Scheduler(max_pending=1)
        scheduler.submit(request(seed=41))
        with pytest.raises(QueueFull):
            scheduler.submit(request(seed=42))
        assert scheduler.counters["rejected"] == 1

    def test_coalesced_requests_bypass_the_full_queue(self):
        scheduler = Scheduler(max_pending=1)
        job = scheduler.submit(request(seed=43))
        # Identical request: attaches to the in-flight job even though
        # the queue has no free slot.
        assert scheduler.submit(request(seed=43)) is job


class TestStoreHoldsArtifactsOnly:
    def test_checkpoints_coalescing_and_rejection_leave_only_kinds(
            self, tmp_path):
        """Shard checkpoints and their compaction, a coalesced submit
        and a queue-full rejection write artifacts and nothing else:
        the store root holds kind directories only."""
        root = tmp_path / "store"
        configure_cache(root)
        try:
            run_store_campaign(
                60, seed=61, spec=ModuleSpec.from_benchmark(BENCH, "test"),
                settings=CampaignSettings(chunk_size=20),
            )
            scheduler = Scheduler(max_pending=1)
            job = scheduler.submit(request(seed=62))
            assert scheduler.submit(request(seed=62)) is job
            with pytest.raises(QueueFull):
                scheduler.submit(request(seed=63))
            scheduler.stop(timeout=5.0)
        finally:
            configure_cache(None)
        kinds = {CAMPAIGN_KIND, GOLDEN_KIND, MODEL_FN_KIND, PROFILE_KIND,
                 SHARD_KIND}
        entries = sorted(root.iterdir())
        assert CAMPAIGN_KIND in {path.name for path in entries}
        assert all(path.is_dir() and path.name in kinds
                   for path in entries), entries


class TestCacheHit:
    def test_precomputed_campaign_completes_instantly(self, scheduler):
        spec = ModuleSpec.from_benchmark(BENCH, "test")
        computed = run_store_campaign(50, seed=51, spec=spec)
        job = scheduler.submit(request(runs=50, seed=51))
        assert job.status == "done"
        assert job.cached
        assert job.result.counts == computed.counts
        assert job.result.from_cache
        assert scheduler.counters["cache_hits"] == 1

    def test_corrupt_campaign_entry_is_recomputed(self):
        """A stored campaign entry whose counts are negative, not ints,
        or short of its ranges is neither served nor admitted as a hit:
        the campaign recomputes and overwrites it."""
        spec = ModuleSpec.from_benchmark(BENCH, "test")
        module = spec.materialize()
        key = campaign_key(module_fingerprint(module), 100, 7)
        clean = FaultInjector(module).campaign(100, seed=7).counts
        cache = get_cache()
        for counts in ({"sdc": -1, "benign": 101},
                       {"sdc": True, "benign": "99"},
                       {"sdc": 2, "benign": 8}):
            cache.store(CAMPAIGN_KIND, key, {
                "counts": counts, "cpu_seconds": 0.0, "runs_requested": 100,
                "stopped_early": False, "rounds": 1,
                "completed_ranges": [[0, 100]],
            })
            scheduler = Scheduler(max_pending=4)  # never started
            try:
                job = scheduler.submit(request(runs=100, seed=7))
                assert not job.cached, counts
            finally:
                scheduler.stop(timeout=5.0)
            result = run_store_campaign(100, seed=7, spec=spec)
            assert not result.from_cache, counts
            assert result.counts == clean
            stored = CampaignResult.from_dict(cache.load(CAMPAIGN_KIND, key))
            assert stored.counts == clean


class TestExecution:
    def test_dispatched_job_matches_serial_counts(self, scheduler):
        serial = FaultInjector(cached_module(BENCH)).campaign(40, seed=61)
        scheduler.start()
        job = scheduler.submit(request(runs=40, seed=61))
        assert job.wait(timeout=120.0)
        assert job.status == "done"
        assert job.result.counts == serial.counts

    def test_failed_job_reports_error(self, scheduler, monkeypatch):
        def boom(*_args, **_kwargs):
            raise RuntimeError("worker exploded")

        monkeypatch.setattr(
            "repro.sched.scheduler.run_store_campaign", boom
        )
        scheduler.start()
        job = scheduler.submit(request(runs=10, seed=62))
        assert job.wait(timeout=60.0)
        assert job.status == "failed"
        assert "worker exploded" in job.error
        assert scheduler.counters["failed"] == 1


class TestStop:
    def test_stop_fails_queued_jobs_and_wakes_waiters(self):
        """A client waiting on a job still queued at stop() returns at
        once instead of holding shutdown for its whole wait timeout."""
        scheduler = Scheduler(max_pending=4)  # never started
        job = scheduler.submit(request(runs=10, seed=63))
        waiter = threading.Thread(target=job.wait, args=(30.0,),
                                  daemon=True)
        waiter.start()
        scheduler.stop(timeout=5.0)
        waiter.join(2.0)
        assert not waiter.is_alive()
        assert job.status == "failed"
        assert "stopped before the job ran" in job.error
        assert scheduler.counters["failed"] == 1
        # Dropped from the coalescing index: a repeat submit is refused
        # by the closed queue instead of joining the failed job.
        with pytest.raises(RuntimeError, match="closed"):
            scheduler.submit(request(runs=10, seed=63))


class TestWireForm:
    def test_from_payload_roundtrip(self):
        req = CampaignRequest.from_payload({
            "benchmark": BENCH, "scale": "test", "runs": 25, "seed": 3,
            "workers": 2, "priority": "nightly",
        })
        assert req.spec.benchmark == BENCH
        assert req.runs == 25
        assert req.settings.workers == 2
        assert req.priority == NIGHTLY

    def test_from_payload_takes_every_json_type(self):
        req = CampaignRequest.from_payload({
            "benchmark": BENCH, "scale": "test", "input_seed": 2,
            "runs": 25, "seed": 3, "workers": 1, "checkpoint": False,
            "checkpoint_stride": 37, "batch_lanes": 8, "ci_halfwidth": 1,
        })
        assert req.spec == ModuleSpec.from_benchmark(BENCH, "test", 2)
        assert req.settings.checkpoint is False
        assert req.settings.checkpoint_stride == 37
        assert req.settings.batch_lanes == 8
        assert req.settings.ci_halfwidth == 1.0
        req = CampaignRequest.from_payload(
            {"benchmark": BENCH, "runs": 25, "ci_halfwidth": None}
        )
        assert req.settings.ci_halfwidth is None

    def test_from_payload_rejects_garbage(self):
        with pytest.raises((KeyError, TypeError, ValueError)):
            CampaignRequest.from_payload({"runs": 10})  # no module
        with pytest.raises((TypeError, ValueError)):
            CampaignRequest.from_payload(
                {"benchmark": BENCH, "runs": "many"}
            )
        with pytest.raises(ValueError):
            CampaignRequest.from_payload({"benchmark": BENCH, "runs": 0})
        with pytest.raises(ValueError):  # two modules: which one runs?
            CampaignRequest.from_payload({
                "benchmark": BENCH, "runs": 10,
                "ir_text": print_module(cached_module("nw")),
            })
        with pytest.raises(ValueError):  # no longer a tier
            CampaignRequest.from_payload(
                {"benchmark": BENCH, "runs": 10, "interp_tier": "closure"}
            )
        for module in ({"ir_text": 5}, {"ir_text": ["x"]},
                       {"benchmark": 3}):
            with pytest.raises(ValueError):  # not a string
                CampaignRequest.from_payload({**module, "runs": 10})
        for field in WRONG_JSON_TYPES:
            with pytest.raises(TypeError):
                CampaignRequest.from_payload(
                    {"benchmark": BENCH, "runs": 10, **field}
                )
