"""The campaign execution core shared by the CLI and the service.

:class:`CampaignExecutor` owns the whole lifecycle of one campaign:
round planning (:class:`~repro.sched.plan.ShardPlan`), dispatching
shards to a ``multiprocessing`` pool or executing them in-process,
merging shard counts, Wilson-CI early stopping, and partial-campaign
checkpoints in the shared result store.  ``repro inject``, the harness,
and the ``repro.serve`` daemon all execute campaigns through this one
class (via :func:`run_store_campaign`), which is why their results are
byte-identical by construction.

Failure semantics, in order of escalation:

* a shard task fails (worker crash, unpicklable surprise) — that shard
  alone re-runs serially in the driver; remaining shards stay pooled;
* the pool cannot be created or dies — the campaign degrades to serial
  in-process execution (``degraded``), never losing counts;
* the user interrupts (KeyboardInterrupt) — children are terminated,
  already-finished shards are harvested and flushed to the store, and
  :class:`CampaignInterrupted` carries a partial result that reports
  exactly which seed ranges completed.  Partial results are never
  written to the campaign cache (only whole-campaign results are), but
  their per-shard checkpoints are, so a re-run resumes instead of
  restarting.
"""

from __future__ import annotations

import multiprocessing
import time

from ..cache import (
    GoldenSummary,
    campaign_key,
    get_cache,
    golden_key,
    load_golden_summary,
    module_fingerprint,
    shard_key,
    store_golden_summary,
)
from ..cache.artifacts import CAMPAIGN_KIND, SHARD_KIND
from ..fi.campaign import SDC, CampaignResult, FaultInjector
from ..stats.confidence import Z_95, wilson_confidence
from .plan import ShardPlan, ShardRange, coalesce_ranges
from .shard import MODULE_CACHE, build_injector, run_shard
from .spec import CampaignSettings, ModuleSpec, ShardSpec


class CampaignInterrupted(KeyboardInterrupt):
    """A campaign was interrupted; ``result`` holds the partial counts.

    Subclasses :class:`KeyboardInterrupt` so un-aware callers still see
    an ordinary interrupt, while the CLI and the scheduler can report
    which seed ranges completed before teardown.
    """

    def __init__(self, result):
        super().__init__("campaign interrupted")
        self.result = result


class CampaignExecutor:
    """Campaign driver: shard planning, worker pool, early stopping,
    store-backed partial checkpoints, and teardown that never hangs."""

    def __init__(self, spec: ModuleSpec | None = None, *,
                 injector=None,
                 settings: CampaignSettings | None = None,
                 store=None, store_key: str | None = None):
        if spec is None and injector is None:
            raise ValueError("need a ModuleSpec or a FaultInjector")
        self._spec = spec
        self._injector = injector
        self.settings = settings or CampaignSettings()
        #: Shared result store for partial-shard checkpoints; shard
        #: persistence is enabled only when a campaign-level key exists
        #: (i.e. the caller went through :func:`run_store_campaign`).
        self._store = store
        self._store_key = store_key
        #: (start, count) of every shard checkpoint this executor wrote,
        #: so a completed campaign can compact them (the merged result
        #: supersedes them).  Pre-coalescing, unlike ``completed_ranges``.
        self._checkpointed_shards: list[tuple[int, int]] = []
        #: Run budget of the campaign in progress.
        self._max_runs = 0

    @property
    def injector(self):
        """The in-process injector (serial path and fallback)."""
        if self._injector is None:
            self._injector = MODULE_CACHE.injector(self._spec)
        return self._injector

    def spec(self) -> ModuleSpec:
        if self._spec is not None:
            return self._spec
        return ModuleSpec.from_module(self._injector.module)

    # -- plumbing ------------------------------------------------------

    def _round_size(self, max_runs: int) -> int:
        if self.settings.ci_halfwidth is None:
            return max_runs  # no stopping rule: one round covers everything
        return self.settings.effective_round_size()

    def _shard_spec(self, module_spec: ModuleSpec, rng: ShardRange,
                    seed: int, target: int | None) -> ShardSpec:
        return ShardSpec(module=module_spec, start=rng.start,
                         count=rng.count, seed=seed, settings=self.settings,
                         target=target)

    def _interval_tight(self, result) -> bool:
        settings = self.settings
        if settings.ci_halfwidth is None:
            return False
        if result.total < max(1, settings.min_runs):
            return False
        interval = wilson_confidence(result.counts.get(SDC, 0), result.total,
                                     Z_95)
        return interval.margin <= settings.ci_halfwidth

    # -- shard checkpoints in the shared result store --------------------

    def _shard_store_key(self, rng: ShardRange) -> str | None:
        """The range's checkpoint key, or None when nothing is
        checkpointed: without a store, and for a lone shard, the one
        shard of a round that covers the whole campaign, whose merged
        result is stored right after it."""
        if (self._store is None or self._store_key is None
                or (rng.start, rng.count) == (0, self._max_runs)):
            return None
        return shard_key(self._store_key, rng.start, rng.count)

    def _load_shard(self, rng: ShardRange) -> CampaignResult | None:
        """The range's checkpoint, or None; one that does not load or
        covers other runs than the planned range is dropped."""
        key = self._shard_store_key(rng)
        if key is None:
            return None
        payload = self._store.load(SHARD_KIND, key)
        if payload is None:
            return None
        try:
            shard = CampaignResult.from_dict(payload)
        except (KeyError, TypeError, ValueError):
            shard = None
        planned = [(rng.start, rng.count)]
        if shard is None or shard.completed_ranges != planned:
            self._store.remove(SHARD_KIND, key)
            return None
        self._store.bump_counters(partial_shards_resumed=1)
        return shard

    def _store_shard(self, rng: ShardRange, shard: CampaignResult) -> None:
        key = self._shard_store_key(rng)
        if key is None:
            return
        if self._store.store(SHARD_KIND, key, shard.to_dict()):
            self._checkpointed_shards.append((rng.start, rng.count))
            self._store.bump_counters(partial_shards_written=1)

    def discard_shard_checkpoints(self) -> None:
        """Drop checkpoints made obsolete by the merged campaign result."""
        if self._store is None or self._store_key is None:
            return
        for start, count in self._checkpointed_shards:
            self._store.remove(
                SHARD_KIND, shard_key(self._store_key, start, count)
            )
        self._checkpointed_shards.clear()

    # -- execution -----------------------------------------------------

    def run(self, max_runs: int, seed: int = 0, target: int | None = None):
        """Execute up to ``max_runs`` injections of campaign ``seed``,
        each into static instruction ``target`` when one is named."""
        settings = self.settings
        self._max_runs = max_runs
        workers = max(1, settings.workers)
        started = time.perf_counter()
        result = CampaignResult()
        pool = None
        use_pool = workers > 1
        degraded = False
        executed = 0
        rounds = 0
        try:
            while executed < max_runs:
                round_runs = min(self._round_size(max_runs),
                                 max_runs - executed)
                plan = ShardPlan.split(
                    executed, round_runs, workers,
                    chunk_size=settings.chunk_size,
                    lane_multiple=settings.lane_multiple(),
                )
                todo = []
                for rng in plan:
                    cached = self._load_shard(rng)
                    if cached is not None:
                        result.absorb(cached)
                        result.shards_resumed += 1
                    else:
                        todo.append(rng)
                if todo and use_pool and pool is None:
                    self._publish_golden()
                    pool = self._make_pool(workers)
                    if pool is None:
                        use_pool, degraded = False, True
                if todo and use_pool and pool is not None:
                    leftover, broken = self._pool_round(pool, todo, seed,
                                                        target, result)
                    if broken:
                        pool = self._discard_pool(pool)
                        use_pool, degraded = False, True
                    todo = leftover
                for rng in todo:
                    self._serial_shard(rng, seed, target, result)
                executed += round_runs
                rounds += 1
                if self._interval_tight(result):
                    result.stopped_early = True
                    break
        except KeyboardInterrupt:
            self._finalize(result, started, max_runs, rounds,
                           workers if use_pool else 1, degraded)
            result.interrupted = True
            raise CampaignInterrupted(result) from None
        finally:
            if pool is not None:
                self._discard_pool(pool)
        self._finalize(result, started, max_runs, rounds,
                       workers if use_pool else 1, degraded)
        return result

    def _finalize(self, result, started: float, max_runs: int,
                  rounds: int, workers: int, degraded: bool) -> None:
        result.wall_seconds = time.perf_counter() - started
        result.runs_requested = max_runs
        result.rounds = rounds
        result.workers = workers
        result.degraded = degraded
        result.completed_ranges = coalesce_ranges(result.completed_ranges)

    def _publish_golden(self) -> None:
        """Seed the golden-summary artifact before workers spawn, so
        every worker's first shard skips the fault-free reference run."""
        if self._injector is None:
            return
        cache = get_cache()
        key = golden_key(module_fingerprint(self._injector.module))
        if load_golden_summary(cache, key) is None:
            store_golden_summary(
                cache, key, GoldenSummary.from_run(self._injector.golden)
            )

    def _serial_shard(self, rng: ShardRange, seed: int,
                      target: int | None, result) -> None:
        """Execute one shard in-process (serial path and pool fallback).

        The in-process injector executes, so the ``module`` field of the
        shard spec is never materialized — an empty placeholder avoids
        re-printing the module's IR per shard when no spec was given.
        """
        shard_spec = self._shard_spec(self._spec or ModuleSpec(), rng, seed,
                                      target)
        shard = run_shard(shard_spec, injector=self.injector)
        self._store_shard(rng, shard)
        result.absorb(shard)

    def _make_pool(self, workers: int):
        try:
            return multiprocessing.get_context().Pool(workers)
        except Exception:
            return None

    def _pool_round(self, pool, ranges, seed, target, result):
        """Dispatch shards to the pool, merging results as they land.

        Returns ``(leftover, broken)``: shards that must be retried
        serially, and whether the pool should be abandoned.  On
        KeyboardInterrupt, already-finished shards are harvested and
        merged before the interrupt propagates — their counts and store
        checkpoints are never lost.
        """
        module_spec = self.spec()
        pending = [
            (rng, pool.apply_async(
                run_shard, (self._shard_spec(module_spec, rng, seed,
                                             target),)
            ))
            for rng in ranges
        ]
        merged: set[int] = set()
        leftover = []
        broken = False
        try:
            for rng, task in pending:
                try:
                    shard = task.get(self.settings.round_timeout)
                except KeyboardInterrupt:
                    raise
                except multiprocessing.TimeoutError:
                    leftover.append(rng)
                    broken = True  # a wedged worker poisons the pool
                except Exception:
                    leftover.append(rng)
                else:
                    self._store_shard(rng, shard)
                    result.absorb(shard)
                    merged.add(rng.index)
            if leftover:
                # A failed task usually means a worker-side failure that
                # would repeat (bad spec, dead child).  Successful shards
                # of this round stay merged — only the failures retry
                # serially — but the pool is not trusted again.
                broken = True
        except KeyboardInterrupt:
            pool.terminate()  # stop children before harvesting
            for rng, task in pending:
                if rng.index in merged or not task.ready():
                    continue
                try:
                    shard = task.get(0)
                except Exception:
                    continue
                self._store_shard(rng, shard)
                result.absorb(shard)
            raise
        return leftover, broken

    @staticmethod
    def _discard_pool(pool):
        pool.terminate()
        pool.join()
        return None


def run_store_campaign(
    runs: int, seed: int = 0, *,
    spec: ModuleSpec | None = None,
    injector=None,
    module=None,
    settings: CampaignSettings | None = None,
    target: int | None = None,
):
    """A campaign through the shared result store.

    The merged counts of a campaign are a pure function of the module
    content, the seed, the run budget, the stopping rule and the target
    instruction, if any (the seed protocol of :mod:`repro.fi.seeds`),
    so they are cached under exactly that key; a hit replays the counts
    without executing a single injection — or even building an engine
    (``injector`` may be a zero-arg factory, only invoked on a miss,
    and with neither a spec nor an injector a miss builds one for
    ``module``).  A miss runs the campaign with per-shard checkpointing
    enabled, persists the merged result, and compacts the now-redundant
    shard entries.  This is the single execution path behind ``repro
    inject``, ``repro protect``, every harness artifact that injects
    faults, and the service daemon.
    """
    settings = settings or CampaignSettings()
    if module is None:
        if isinstance(injector, FaultInjector):
            module = injector.module
        elif spec is not None:
            module = MODULE_CACHE.module(spec)
        else:
            raise ValueError("need a module, a ModuleSpec or an injector")
    cache = get_cache()
    key = campaign_request_key(module, runs, seed, settings, target)
    payload = cache.load(CAMPAIGN_KIND, key)
    if payload is not None:
        try:
            return CampaignResult.from_dict(payload)
        except (KeyError, TypeError, ValueError):
            pass  # malformed entry: recompute below and overwrite
    if injector is None and spec is None:
        injector = build_injector(module)
    elif injector is not None and not isinstance(injector, FaultInjector):
        injector = injector()  # lazy factory, paid only on a miss
    executor = CampaignExecutor(
        spec, injector=injector, settings=settings,
        store=cache if cache.enabled else None, store_key=key,
    )
    result = executor.run(runs, seed=seed, target=target)
    cache.store(CAMPAIGN_KIND, key, result.to_dict())
    executor.discard_shard_checkpoints()
    return result


def campaign_request_key(module, runs: int, seed: int,
                         settings: CampaignSettings,
                         target: int | None = None) -> str:
    """The store key a request resolves to (used for coalescing)."""
    return campaign_key(
        module_fingerprint(module), runs, seed,
        ci_halfwidth=settings.ci_halfwidth,
        min_runs=settings.min_runs,
        round_size=settings.effective_round_size(),
        target=target,
    )
