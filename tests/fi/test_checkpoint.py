"""Checkpoint-and-fork campaigns vs cold full runs.

Suffix-only execution is a pure optimization: for every benchmark,
every seed, every worker count, and every stride, the outcome counts
must be bit-identical to cold full runs.  These tests are the lock on
that contract, plus the degradation policy (any checkpoint failure
falls back to cold runs rather than risking counts).
"""

from __future__ import annotations

import os
import time

import pytest

from repro.bench import BENCHMARK_NAMES
from repro.fi import CampaignResult, FaultInjector
from repro.fi.seeds import rng_for
from repro.sched import CampaignExecutor, CampaignSettings, ModuleSpec
from tests.conftest import cached_module

RUNS = 120
SEED = 5


def cold_injector(name: str) -> FaultInjector:
    return FaultInjector(cached_module(name), checkpoint=False)


def warm_injector(name: str, stride: int = 0) -> FaultInjector:
    return FaultInjector(
        cached_module(name), checkpoint=True, checkpoint_stride=stride
    )


class TestTrialEquivalence:
    """Property test: on every benchmark, a random (iid, occurrence,
    bit) triple resumed from a snapshot classifies exactly like a cold
    full run — same outcome class, outputs, and dynamic footprint —
    also when the resumed trial stops where it rejoins the golden run."""

    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_random_triples_match_cold_runs(self, name):
        cold = cold_injector(name)
        warm = warm_injector(name)
        capture = warm.checkpoints()
        assert capture is not None and not warm.checkpoint_degraded
        resumed = converged = 0
        for index in range(25):
            injection = cold.sample_injection(rng_for(SEED, index))
            cold_result = cold.engine.run(
                injection, budget=cold.hang_budget
            )
            snapshot = capture.snapshot_for(injection)
            if snapshot is None:
                continue
            resumed += 1
            warm_result = capture.resume(
                snapshot, injection, budget=warm.hang_budget
            )
            assert warm_result.outcome == cold_result.outcome
            assert warm_result.outputs == cold_result.outputs
            assert warm_result.dynamic_count == cold_result.dynamic_count
            assert warm_result.block_counts == cold_result.block_counts
            assert warm._classify(warm_result) == cold._classify(cold_result)
            converged += warm_result.golden_suffix > 0
        assert resumed > 0, f"{name}: every trial ran cold"
        assert converged > 0, f"{name}: no resumed trial rejoined"


class TestCampaignDifferential:
    @pytest.mark.parametrize("name", ("pathfinder", "bfs_rodinia", "nw"))
    def test_span_counts_identical(self, name):
        cold = cold_injector(name).run_span(0, RUNS, SEED)
        injector = warm_injector(name)
        warm = injector.run_span(0, RUNS, SEED)
        assert warm.counts == cold.counts
        assert warm.checkpointed and not warm.checkpoint_degraded
        assert not cold.checkpointed
        assert warm.skipped_instructions > 0
        assert warm.converged_trials > 0
        assert warm.snapshot_bytes > 0
        assert warm.dynamic_instructions < cold.dynamic_instructions
        # Each trial instruction is executed or skipped exactly once;
        # the capture pass adds one golden run.
        assert (warm.dynamic_instructions + warm.skipped_instructions
                == cold.dynamic_instructions
                + injector.golden.dynamic_count)

    def test_stride_invariance(self):
        baseline = cold_injector("hotspot").run_span(0, RUNS, SEED)
        for stride in (25, 400):
            result = warm_injector("hotspot", stride).run_span(
                0, RUNS, SEED
            )
            assert result.counts == baseline.counts, stride

    def test_parallel_workers_with_checkpointing(self):
        spec = ModuleSpec.from_benchmark("pathfinder", "test")
        serial = cold_injector("pathfinder").run_span(0, RUNS, SEED)
        parallel = CampaignExecutor(
            spec, settings=CampaignSettings(workers=2, checkpoint=True)
        ).run(RUNS, seed=SEED)
        assert parallel.counts == serial.counts
        assert parallel.checkpointed and not parallel.checkpoint_degraded
        assert parallel.skipped_instructions > 0
        serial_warm = warm_injector("pathfinder").run_span(0, RUNS, SEED)
        assert parallel.converged_trials == serial_warm.converged_trials

    def test_per_instruction_campaign_checkpointed(self):
        cold = cold_injector("pathfinder")
        warm = warm_injector("pathfinder")
        for iid in cold.eligible_iids()[:5]:
            assert (warm.run_span(0, 10, SEED, target=iid).counts
                    == cold.run_span(0, 10, SEED, target=iid).counts)


class TestDegradation:
    def test_capture_failure_degrades_to_cold_runs(self, monkeypatch):
        injector = warm_injector("pathfinder")
        baseline = cold_injector("pathfinder").run_span(0, 60, SEED)

        def boom(*_args, **_kwargs):
            raise RuntimeError("capture exploded")

        monkeypatch.setattr(injector.engine, "capture", boom)
        result = injector.run_span(0, 60, SEED)
        assert result.counts == baseline.counts
        assert injector.checkpoint_degraded
        assert not result.checkpointed
        assert result.checkpoint_degraded
        assert result.skipped_instructions == 0

    def test_resume_failure_degrades_to_cold_runs(self, monkeypatch):
        injector = warm_injector("pathfinder")
        baseline = cold_injector("pathfinder").run_span(0, 60, SEED)
        assert injector.checkpoints() is not None

        def boom(*_args, **_kwargs):
            raise RuntimeError("resume exploded")

        monkeypatch.setattr(injector.engine, "resume_run", boom)
        result = injector.run_span(0, 60, SEED)
        assert result.counts == baseline.counts
        assert injector.checkpoint_degraded
        assert result.checkpoint_degraded

    def test_reenable_clears_degraded_flag(self):
        injector = warm_injector("pathfinder")
        injector.checkpoint = False
        injector.checkpoint_degraded = True
        injector.configure_checkpoints(True)
        assert injector.checkpoint
        assert not injector.checkpoint_degraded


class TestBookkeeping:
    def test_throughput_fields_merge_and_roundtrip(self):
        a = warm_injector("pathfinder").run_span(0, 40, SEED)
        b = warm_injector("pathfinder").run_span(40, 40, SEED)
        merged = a.merge(b)
        assert merged.dynamic_instructions == (
            a.dynamic_instructions + b.dynamic_instructions
        )
        assert merged.skipped_instructions == (
            a.skipped_instructions + b.skipped_instructions
        )
        assert a.converged_trials > 0 and b.converged_trials > 0
        assert merged.converged_trials == (
            a.converged_trials + b.converged_trials
        )
        assert merged.checkpointed
        rebuilt = CampaignResult.from_dict(merged.to_dict())
        assert rebuilt.dynamic_instructions == merged.dynamic_instructions
        assert rebuilt.skipped_instructions == merged.skipped_instructions
        assert rebuilt.converged_trials == merged.converged_trials
        assert rebuilt.snapshot_bytes == merged.snapshot_bytes
        assert rebuilt.checkpointed == merged.checkpointed

    def test_degraded_flag_merges_and_roundtrips(self):
        degraded = CampaignResult(checkpoint_degraded=True)
        merged = CampaignResult().merge(degraded)
        assert merged.checkpoint_degraded
        assert CampaignResult.from_dict(merged.to_dict()).checkpoint_degraded
        assert not CampaignResult.from_dict(
            CampaignResult().to_dict()
        ).checkpoint_degraded

    def test_old_cache_payloads_still_load(self):
        payload = warm_injector("nw").run_span(0, 30, SEED).to_dict()
        for key in ("dynamic_instructions", "skipped_instructions",
                    "snapshot_bytes", "checkpointed", "converged_trials",
                    "checkpoint_degraded"):
            payload.pop(key, None)
        # Keys entries carried while codegen could fall back per function.
        payload.update(codegen_functions=1, codegen_fallbacks=0)
        rebuilt = CampaignResult.from_dict(payload)
        assert rebuilt.dynamic_instructions == 0
        assert rebuilt.converged_trials == 0
        assert not rebuilt.checkpointed
        assert not rebuilt.checkpoint_degraded
        assert rebuilt.codegen_fallbacks == 0
        assert "codegen_fallbacks" not in rebuilt.to_dict()


@pytest.mark.slow
class TestAtScale:
    def test_thousand_run_differential_and_speedup(self):
        runs = int(os.environ.get("REPRO_CHECKPOINT_RUNS", "1000"))
        speedups = []
        for name in ("pathfinder", "hotspot"):
            cold = cold_injector(name)
            started = time.perf_counter()
            cold_result = cold.run_span(0, runs, SEED)
            cold_seconds = time.perf_counter() - started
            warm = warm_injector(name)
            started = time.perf_counter()
            warm_result = warm.run_span(0, runs, SEED)
            warm_seconds = time.perf_counter() - started
            assert warm_result.counts == cold_result.counts
            speedups.append(cold_seconds / warm_seconds)
        assert max(speedups) >= 2.0, speedups
