"""The campaign scheduler behind the ``repro.serve`` daemon.

One :class:`Scheduler` owns a bounded priority queue of campaign
requests and a dispatcher thread that drains it through the same
:func:`~repro.sched.executor.run_store_campaign` path the CLI uses —
so a result computed by ``repro inject`` and one computed by the daemon
are byte-identical, and either serves the other's repeat requests from
the shared result store without executing a single trial.

Admission control happens at submit time, in order:

1. **store hit** — the fingerprint+config key already has a merged
   result: the job completes immediately (``cached``), microseconds,
   no queue slot consumed;
2. **coalescing** — an identical request is already queued or running:
   the submitter is attached to the in-flight job (one computation,
   many waiters);
3. **backpressure** — the queue is full: :class:`QueueFull` propagates
   and the HTTP layer answers 429; accepted work is never dropped.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from ..cache import get_cache, module_fingerprint
from ..cache.artifacts import CAMPAIGN_KIND
from ..fi.campaign import CampaignResult
from ..interp.codegen import resolve_tier
from .executor import campaign_request_key, run_store_campaign
from .queue import INTERACTIVE, JobQueue, QueueFull, resolve_priority
from .shard import MODULE_CACHE
from .spec import CampaignSettings, ModuleSpec, json_field

__all__ = ["CampaignRequest", "Job", "Scheduler", "QueueFull"]

JOB_QUEUED = "queued"
JOB_RUNNING = "running"
JOB_DONE = "done"
JOB_FAILED = "failed"


@dataclass(frozen=True)
class CampaignRequest:
    """One analyze/campaign request as it enters the scheduler."""

    spec: ModuleSpec
    runs: int
    seed: int = 0
    settings: CampaignSettings = field(default_factory=CampaignSettings)
    priority: int = INTERACTIVE

    @classmethod
    def from_payload(cls, payload: dict, *,
                     default_workers: int = 1) -> "CampaignRequest":
        """Build a request from the JSON wire form (see repro.serve).

        Raises ``ValueError``/``KeyError``/``TypeError`` on malformed
        payloads, including a value of the wrong JSON type (see
        :func:`~repro.sched.spec.json_field`); the HTTP layer maps those
        to 400 responses.
        """
        spec = ModuleSpec.from_request(payload)
        runs = json_field(payload, "runs", int)
        if runs < 1:
            raise ValueError(f"runs must be >= 1, got {runs}")
        halfwidth = json_field(payload, "ci_halfwidth", float, None)
        tier = payload.get("interp_tier")
        if tier is not None:
            resolve_tier(tier)  # raises ValueError on an unknown tier
        settings = CampaignSettings(
            workers=max(1, json_field(payload, "workers", int,
                                      default_workers)),
            ci_halfwidth=float(halfwidth) if halfwidth is not None else None,
            checkpoint=json_field(payload, "checkpoint", bool, True),
            checkpoint_stride=json_field(payload, "checkpoint_stride", int,
                                         0),
            interp_tier=tier,
            batch_lanes=json_field(payload, "batch_lanes", int, 0),
        )
        return cls(
            spec=spec,
            runs=runs,
            seed=json_field(payload, "seed", int, 0),
            settings=settings,
            priority=resolve_priority(payload.get("priority", "interactive")),
        )


class Job:
    """One scheduled campaign and its lifecycle."""

    def __init__(self, job_id: str, key: str, fingerprint: str,
                 request: CampaignRequest):
        self.id = job_id
        self.key = key
        self.fingerprint = fingerprint
        self.request = request
        self.status = JOB_QUEUED
        self.result = None
        self.error: str | None = None
        self.cached = False
        #: How many submits this job absorbed beyond the first.
        self.coalesced = 0
        self.created = time.time()
        self.started: float | None = None
        self.finished: float | None = None
        self._done = threading.Event()

    def wait(self, timeout: float | None = None) -> bool:
        return self._done.wait(timeout)

    def resolve(self, status: str, *, result=None,
                error: str | None = None) -> None:
        self.result = result
        self.error = error
        self.status = status
        self.finished = time.time()
        self._done.set()

    def to_dict(self, include_result: bool = True) -> dict:
        payload = {
            "job_id": self.id,
            "status": self.status,
            "fingerprint": self.fingerprint,
            "runs": self.request.runs,
            "seed": self.request.seed,
            "priority": self.request.priority,
            "cached": self.cached,
            "coalesced": self.coalesced,
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
        }
        if self.error is not None:
            payload["error"] = self.error
        if include_result and self.result is not None:
            body = self.result.to_dict()
            body["total"] = self.result.total
            body["from_cache"] = self.result.from_cache
            body["shards_resumed"] = self.result.shards_resumed
            payload["result"] = body
        return payload


class Scheduler:
    """Dispatcher thread + queue + coalescing index over the store."""

    def __init__(self, *, max_pending: int = 64, default_workers: int = 1):
        self.default_workers = default_workers
        self._queue = JobQueue(max_pending)
        self._jobs: dict[str, Job] = {}
        #: key -> queued/running job, for request coalescing.
        self._active: dict[str, Job] = {}
        self._lock = threading.Lock()
        self._counter = 0
        self._thread: threading.Thread | None = None
        self._running = False
        self.counters = {
            "submitted": 0, "cache_hits": 0, "coalesced": 0,
            "rejected": 0, "completed": 0, "failed": 0,
        }

    # -- lifecycle -------------------------------------------------------

    def start(self) -> None:
        if self._thread is not None:
            return
        self._running = True
        self._thread = threading.Thread(
            target=self._dispatch_loop, name="repro-sched", daemon=True
        )
        self._thread.start()

    def pause(self, timeout: float = 10.0) -> None:
        """Stop draining the queue without closing it.

        Admission control (store hits, coalescing, backpressure) keeps
        working; queued jobs wait until :meth:`start` is called again.
        """
        self._running = False
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None

    def stop(self, timeout: float = 10.0) -> None:
        """Close the queue, fail every job still queued (so its waiters
        return), then stop the dispatcher, waiting up to ``timeout``
        for a running job."""
        self._queue.close()
        for job in self._queue.drain():
            with self._lock:
                if self._active.get(job.key) is job:
                    del self._active[job.key]
                self.counters["failed"] += 1
            job.resolve(JOB_FAILED,
                        error="scheduler stopped before the job ran")
        self.pause(timeout)

    # -- submission ------------------------------------------------------

    def submit(self, request: CampaignRequest) -> Job:
        """Admit one request: store hit, coalesce, or enqueue (429)."""
        module = MODULE_CACHE.module(request.spec)
        fingerprint = module_fingerprint(module)
        key = campaign_request_key(
            module, request.runs, request.seed, request.settings
        )
        cache = get_cache()
        with self._lock:
            self.counters["submitted"] += 1
            active = self._active.get(key)
            if active is not None:
                active.coalesced += 1
                self.counters["coalesced"] += 1
                return active
            job = self._new_job(key, fingerprint, request)
            payload = cache.load(CAMPAIGN_KIND, key)
            if payload is not None:
                try:
                    result = CampaignResult.from_dict(payload)
                except (KeyError, TypeError, ValueError):
                    result = None
                if result is not None:
                    job.cached = True
                    job.resolve(JOB_DONE, result=result)
                    self.counters["cache_hits"] += 1
                    self._jobs[job.id] = job
                    return job
            try:
                self._queue.push(job, request.priority)
            except QueueFull:
                self.counters["rejected"] += 1
                raise
            self._jobs[job.id] = job
            self._active[key] = job
            return job

    def _new_job(self, key: str, fingerprint: str,
                 request: CampaignRequest) -> Job:
        self._counter += 1
        return Job(f"job-{self._counter:06d}", key, fingerprint, request)

    # -- execution -------------------------------------------------------

    def _dispatch_loop(self) -> None:
        while self._running:
            job = self._queue.pop(timeout=0.1)
            if job is None:
                continue
            self.execute(job)

    def execute(self, job: Job) -> None:
        """Run one job through the shared store-backed campaign path."""
        job.status = JOB_RUNNING
        job.started = time.time()
        try:
            result = run_store_campaign(
                job.request.runs, job.request.seed,
                spec=job.request.spec, settings=job.request.settings,
            )
        except Exception as exc:  # noqa: BLE001 - job isolation boundary
            job.resolve(JOB_FAILED, error=f"{type(exc).__name__}: {exc}")
            self.counters["failed"] += 1
        else:
            job.resolve(JOB_DONE, result=result)
            self.counters["completed"] += 1
        finally:
            with self._lock:
                if self._active.get(job.key) is job:
                    del self._active[job.key]

    # -- inspection ------------------------------------------------------

    def job(self, job_id: str) -> Job | None:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> list[Job]:
        with self._lock:
            return list(self._jobs.values())

    def stats(self) -> dict:
        with self._lock:
            by_status: dict[str, int] = {}
            for job in self._jobs.values():
                by_status[job.status] = by_status.get(job.status, 0) + 1
            return {
                "counters": dict(self.counters),
                "jobs": by_status,
                "pending": len(self._queue),
            }
