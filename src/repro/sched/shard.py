"""The one shard-execution entrypoint every worker calls, and the
per-process cache of the modules and injectors campaigns run on.

``run_shard(spec)`` takes the module named by the shard's
:class:`~repro.sched.spec.ModuleSpec` and its
:class:`~repro.fi.campaign.FaultInjector` from :data:`MODULE_CACHE`,
executes the shard's run range under the campaign's settings, and
returns that range's own picklable
:class:`~repro.fi.campaign.CampaignResult`.  The local
``multiprocessing`` pool and the serial path in the executor both
funnel through this function, which is what makes their merged counts
bit-identical by construction; the executor merges what it returns
with :meth:`CampaignResult.absorb`, the one merge.

:class:`ModuleCache` keys on the spec alone, so a long-lived process
(the daemon, a pool worker) materializes, fingerprints and compiles
each module once rather than once per request or shard.  The golden-run
summary is served from the shared result store, so only the first
process ever pays for the fault-free reference execution.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict

from ..cache import (
    GoldenSummary,
    get_cache,
    golden_key,
    load_golden_summary,
    module_fingerprint,
    store_golden_summary,
)
from ..fi.campaign import CampaignResult, FaultInjector
from ..interp.engine import ExecutionEngine
from ..ir.module import Module
from .spec import ModuleSpec, ShardSpec

#: Most IR instructions the cache keeps resident, summed over entries.
#: The 11 benchmarks total 1,457 at every scale; a request's printed IR
#: may be up to 8 MiB, so the bound counts instructions, not entries.
MAX_CACHED_INSTRUCTIONS = 4096


def golden_summary(module: Module,
                   engine: ExecutionEngine | None = None) -> GoldenSummary:
    """The module's golden-run summary (outputs, per-instruction
    counts, dynamic count) from the shared result store.

    The summary is content-addressed by the module's fingerprint, so a
    worker — or a later process over the same module — skips the
    fault-free reference execution; a store miss runs it on ``engine``
    (a new one if None) and publishes the summary for every subsequent
    process.
    """
    cache = get_cache()
    key = golden_key(module_fingerprint(module))
    golden = load_golden_summary(cache, key)
    if golden is None:
        engine = engine or ExecutionEngine(module)
        golden = GoldenSummary.from_run(engine.golden())
        store_golden_summary(cache, key, golden)
    return golden


def build_injector(module: Module) -> FaultInjector:
    """Build a FaultInjector for a module, its golden run warm-started
    from the store by :func:`golden_summary`."""
    engine = ExecutionEngine(module)
    return FaultInjector(module, engine,
                         golden=golden_summary(module, engine))


class _Entry:
    __slots__ = ("module", "size", "injector")

    def __init__(self, module: Module):
        self.module = module
        self.size = module.num_instructions
        self.injector: FaultInjector | None = None


class ModuleCache:
    """Modules and their injectors by :class:`ModuleSpec`, least
    recently used first out.

    An entry holds the materialized module (and so its memoized
    fingerprint) and, after the first campaign on it, its injector: the
    compiled engine plus the golden summary.  The entries' instruction
    total stays at most :data:`MAX_CACHED_INSTRUCTIONS`; an entry that
    alone exceeds it is built and used, but not kept.  Handing out an
    injector drops the checkpoint capture of every other entry, so at
    most one capture per process stays alive.  A lock guards the
    entries, because the daemon's submit threads read modules while its
    dispatcher thread runs campaigns; materialization and injector
    builds run outside it.  Failures are never cached.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._entries: OrderedDict[ModuleSpec, _Entry] = OrderedDict()
        self._instructions = 0

    def module(self, spec: ModuleSpec) -> Module:
        """The spec's module, materialized on a miss only."""
        return self._entry(spec).module

    def injector(self, spec: ModuleSpec) -> FaultInjector:
        """The spec's injector, built on first use; callers configure
        tier, checkpoints and lanes per shard, so they never inherit an
        earlier campaign's."""
        entry = self._entry(spec)
        with self._lock:
            for other in self._entries.values():
                if other is not entry and other.injector is not None:
                    other.injector.release_capture()
            injector = entry.injector
        if injector is not None:
            return injector
        try:
            injector = build_injector(entry.module)
        except Exception:
            with self._lock:
                if self._entries.get(spec) is entry:
                    self._remove(spec)
            raise
        with self._lock:
            if self._entries.get(spec) is entry:
                entry.injector = injector
        return injector

    def _entry(self, spec: ModuleSpec) -> _Entry:
        with self._lock:
            entry = self._entries.get(spec)
            if entry is not None:
                self._entries.move_to_end(spec)
                return entry
        entry = _Entry(spec.materialize())
        with self._lock:
            resident = self._entries.get(spec)
            if resident is not None:  # a concurrent miss got there first
                self._entries.move_to_end(spec)
                return resident
            if entry.size <= MAX_CACHED_INSTRUCTIONS:
                self._entries[spec] = entry
                self._instructions += entry.size
                while self._instructions > MAX_CACHED_INSTRUCTIONS:
                    self._remove(next(iter(self._entries)))
        return entry

    def _remove(self, spec: ModuleSpec) -> None:
        self._instructions -= self._entries.pop(spec).size

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._instructions = 0

    def injectors(self) -> list[FaultInjector]:
        """The injectors of resident entries, least recently used first."""
        with self._lock:
            return [entry.injector for entry in self._entries.values()
                    if entry.injector is not None]

    @property
    def instructions(self) -> int:
        return self._instructions

    def __contains__(self, spec: ModuleSpec) -> bool:
        with self._lock:
            return spec in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def _after_fork(self) -> None:
        """A forked pool worker inherits the entries, but not a lock a
        parent thread may have held mid-update at the fork."""
        if self._lock.locked():
            self._entries.clear()
            self._instructions = 0
        self._lock = threading.Lock()


#: The campaign path's cache for this process.
MODULE_CACHE = ModuleCache()
os.register_at_fork(after_in_child=MODULE_CACHE._after_fork)


def run_shard(spec: ShardSpec, injector=None) -> CampaignResult:
    """Execute one shard and return its seed range's result, whose
    ``completed_ranges`` is ``[(spec.start, spec.count)]``.

    With no ``injector`` the per-process cache supplies one (building
    it on first use); passing an injector runs the shard on it directly
    — the serial in-driver path.  Either way the campaign's settings
    are applied, and ``interp_tier=None`` selects the default tier.
    """
    if injector is None:
        injector = MODULE_CACHE.injector(spec.module)
    settings = spec.settings
    injector.configure_checkpoints(settings.checkpoint,
                                   settings.checkpoint_stride)
    injector.configure_tier(settings.interp_tier)
    injector.configure_batch(settings.batch_lanes)
    return injector.run_span(spec.start, spec.count, spec.seed, spec.target)
