"""Campaign scheduling: shard planning, execution, queueing, service.

This package is the execution spine shared by every campaign entry
point — ``repro inject``, the pytest harness, and the ``repro.serve``
daemon all flow through :func:`run_store_campaign`, so their merged
counts are byte-identical by construction:

* :mod:`~repro.sched.spec` — picklable module/shard/settings records;
* :mod:`~repro.sched.plan` — deterministic run-range sharding
  (:class:`ShardPlan`), independent of worker placement;
* :mod:`~repro.sched.shard` — :func:`run_shard`, the one entrypoint a
  pool worker or the serial path executes, which returns the shard's
  own :class:`~repro.fi.campaign.CampaignResult`, and
  :data:`MODULE_CACHE`, the per-process modules and injectors by spec;
* :mod:`~repro.sched.executor` — the campaign driver, which merges
  shard results with :meth:`~repro.fi.campaign.CampaignResult.absorb`,
  with store-backed partial-shard checkpoints and interrupt-safe
  teardown;
* :mod:`~repro.sched.queue` / :mod:`~repro.sched.scheduler` — bounded
  priority queue, request coalescing and the service dispatcher.
"""

from .executor import (
    CampaignExecutor,
    CampaignInterrupted,
    campaign_request_key,
    run_store_campaign,
)
from .plan import ShardPlan, ShardRange, coalesce_ranges
from .queue import INTERACTIVE, NIGHTLY, JobQueue, QueueFull, resolve_priority
from .scheduler import CampaignRequest, Job, Scheduler
from .shard import MODULE_CACHE, ModuleCache, run_shard
from .spec import CampaignSettings, ModuleSpec, ShardSpec

__all__ = [
    "CampaignExecutor",
    "CampaignInterrupted",
    "CampaignRequest",
    "CampaignSettings",
    "INTERACTIVE",
    "Job",
    "JobQueue",
    "MODULE_CACHE",
    "ModuleCache",
    "ModuleSpec",
    "NIGHTLY",
    "QueueFull",
    "Scheduler",
    "ShardPlan",
    "ShardRange",
    "ShardSpec",
    "campaign_request_key",
    "coalesce_ranges",
    "resolve_priority",
    "run_shard",
    "run_store_campaign",
]
