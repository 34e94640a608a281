"""The one shard-execution entrypoint every worker calls.

``run_shard(spec)`` re-materializes the module named by the shard's
:class:`~repro.sched.spec.ModuleSpec`, builds (or reuses) a
:class:`~repro.fi.campaign.FaultInjector`, executes the shard's run
range, and returns a picklable/JSON-safe
:class:`~repro.sched.spec.ShardResult`.  The local ``multiprocessing``
pool, the serial fallback in the executor, and independent remote-style
workers all funnel through this function, which is what makes their
merged counts bit-identical by construction.

The injector is cached per process and per spec (compiling an engine is
the expensive per-module step), and the golden-run summary is served
from the shared result store so only the first process ever pays for
the fault-free reference execution.
"""

from __future__ import annotations

from ..cache import (
    GoldenSummary,
    get_cache,
    golden_key,
    load_golden_summary,
    module_fingerprint,
    store_golden_summary,
)
from ..fi.campaign import FaultInjector
from .spec import ModuleSpec, ShardResult, ShardSpec

#: Per-process injector cache: one compiled engine per module spec.
_WORKER_SPEC: ModuleSpec | None = None
_WORKER_INJECTOR = None


def materialize_injector(spec: ModuleSpec, interp_tier: str | None = None):
    """Build a FaultInjector for a spec, warm-starting the golden run.

    The golden-run summary (outputs, per-instruction counts, dynamic
    count) is content-addressed by the re-materialized module's
    fingerprint, so a worker — or a later campaign over the same module
    — skips the fault-free reference execution; a cache miss computes
    and publishes it for every subsequent process.
    """
    module = spec.materialize()
    cache = get_cache()
    key = golden_key(module_fingerprint(module))
    golden = load_golden_summary(cache, key)
    injector = FaultInjector(module, golden=golden, interp_tier=interp_tier)
    if golden is None:
        store_golden_summary(
            cache, key, GoldenSummary.from_run(injector.golden)
        )
    return injector


def span_perf(result) -> dict:
    """Throughput facts a shard ships back alongside its counts."""
    return {
        "dynamic_instructions": result.dynamic_instructions,
        "skipped_instructions": result.skipped_instructions,
        "converged_trials": result.converged_trials,
        "snapshot_bytes": result.snapshot_bytes,
        "checkpointed": result.checkpointed,
        "checkpoint_degraded": result.checkpoint_degraded,
        "interp_tier": result.interp_tier,
        "codegen_functions": result.codegen_functions,
        "codegen_fallbacks": result.codegen_fallbacks,
        "batch_lanes": result.batch_lanes,
        "batch_divergences": result.batch_divergences,
        "batch_fallbacks": result.batch_fallbacks,
        "batch_reconverged": result.batch_reconverged,
        "batch_drains": result.batch_drains,
        "drain_instructions": result.drain_instructions,
    }


def run_shard(spec: ShardSpec, injector=None) -> ShardResult:
    """Execute one shard and return its counts + throughput facts.

    With no ``injector`` the per-process cache supplies one (building
    it on first use); passing an injector runs the shard on it directly
    — the serial in-driver path, which must not disturb the worker
    cache.
    """
    global _WORKER_SPEC, _WORKER_INJECTOR
    if injector is None:
        if _WORKER_INJECTOR is None or _WORKER_SPEC != spec.module:
            _WORKER_INJECTOR = materialize_injector(
                spec.module, interp_tier=spec.interp_tier
            )
            _WORKER_SPEC = spec.module
        injector = _WORKER_INJECTOR
    injector.configure_checkpoints(spec.checkpoint, spec.checkpoint_stride)
    injector.configure_tier(spec.interp_tier)
    injector.configure_batch(spec.batch_lanes)
    span = injector.run_span(spec.start, spec.count, spec.seed)
    return ShardResult(
        start=spec.start,
        count=spec.count,
        counts=dict(span.counts),
        cpu_seconds=span.cpu_seconds,
        perf=span_perf(span),
    )
