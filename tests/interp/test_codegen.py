"""Codegen tier differential: bit-identical to the closure tier.

The codegen tier compiles each basic block (and straight-line
superblocks) to one generated Python function with two specializations
— a fault-free fast path and an injection-capable variant selected only
for blocks covering the armed iid.  Everything here enforces the
contract that makes that optimization safe to default on: RunResult
outcomes, outputs, block counts, dynamic counts, and campaign counts
are bit-identical to the closure tier on every benchmark, with or
without checkpointing, and a codegen failure degrades per-function
without changing a single result.
"""

from __future__ import annotations

import random

import pytest

from repro.fi import FaultInjector
from repro.interp import engine as engine_mod
from repro.interp import engine_build_count
from repro.interp.codegen import (
    TIER_CLOSURE,
    TIER_CODEGEN,
    TIER_ENV,
    resolve_tier,
)
from repro.interp.engine import ExecutionEngine, Injection
from repro.opt.pipeline import optimize
from tests.conftest import cached_module


def assert_same_run(left, right, context=""):
    assert left.outcome == right.outcome, context
    assert left.crash_reason == right.crash_reason, context
    assert left.outputs == right.outputs, context
    assert left.block_counts == right.block_counts, context
    assert left.dynamic_count == right.dynamic_count, context
    assert left.activated == right.activated, context


def sampled_injections(module, n, seed=7):
    """Eligible injections drawn with the campaign's own sampler."""
    injector = FaultInjector(module, checkpoint=False)
    rng = random.Random(seed)
    return [injector.sample_injection(rng) for _ in range(n)]


class TestGoldenIdentity:
    def test_golden_bit_identical(self, benchmark_module):
        closure = ExecutionEngine(benchmark_module, tier=TIER_CLOSURE)
        codegen = ExecutionEngine(benchmark_module, tier=TIER_CODEGEN)
        assert codegen.codegen_functions == len(benchmark_module.functions)
        assert codegen.codegen_fallbacks == 0
        assert_same_run(closure.run(), codegen.run(), benchmark_module.name)

    def test_optimized_module_bit_identical(self):
        module, _report = optimize(cached_module("pathfinder"), 2)
        closure = ExecutionEngine(module, tier=TIER_CLOSURE)
        codegen = ExecutionEngine(module, tier=TIER_CODEGEN)
        assert codegen.codegen_fallbacks == 0
        assert_same_run(closure.run(), codegen.run(), "optimized pathfinder")


class TestInjectionDifferential:
    @pytest.mark.parametrize("name", ["pathfinder", "hotspot", "sad"])
    def test_sampled_injections_bit_identical(self, name):
        module = cached_module(name)
        closure = ExecutionEngine(module, tier=TIER_CLOSURE)
        codegen = ExecutionEngine(module, tier=TIER_CODEGEN)
        for injection in sampled_injections(module, 60):
            assert_same_run(
                closure.run(injection), codegen.run(injection),
                f"{name}: {injection}",
            )

    def test_phi_heavy_injections_bit_identical(self):
        """Injections into a phi-rich O2 module exercise the generated
        edge-copy guards (phi moves are injection sites too)."""
        module, _report = optimize(cached_module("hotspot"), 2)
        assert any(
            True for fn in module.functions.values()
            for block in fn.blocks for _phi in block.phis()
        )
        closure = ExecutionEngine(module, tier=TIER_CLOSURE)
        codegen = ExecutionEngine(module, tier=TIER_CODEGEN)
        for injection in sampled_injections(module, 60, seed=11):
            assert_same_run(
                closure.run(injection), codegen.run(injection),
                f"O2 hotspot: {injection}",
            )


class TestResumeDifferential:
    def test_checkpoint_resume_matches_closure_cold_run(self):
        module = cached_module("pathfinder")
        closure = ExecutionEngine(module, tier=TIER_CLOSURE)
        codegen = ExecutionEngine(module, tier=TIER_CODEGEN)
        capture = codegen.capture(stride=200)
        for injection in sampled_injections(module, 40, seed=3):
            snapshot = capture.snapshot_for(injection)
            if snapshot is None:
                continue
            resumed = capture.resume(snapshot, injection)
            assert_same_run(
                closure.run(injection), resumed, f"resume {injection}"
            )

    def test_capture_lockstep_with_run_on_phi_heavy_module(self):
        """The capture pass runs the fast codegen variant on either
        tier (a closure-tier engine generates it on first capture), and
        it must agree with both run tiers instruction-for-instruction on
        a phi-heavy module."""
        module, _report = optimize(cached_module("pathfinder"), 2)
        for tier in (TIER_CLOSURE, TIER_CODEGEN):
            engine = ExecutionEngine(module, tier=tier)
            captured = engine.capture(stride=100).result
            assert_same_run(engine.run(), captured, f"capture vs {tier}")


class TestFallback:
    def test_codegen_failure_degrades_per_function(self, monkeypatch):
        module = cached_module("pathfinder")
        reference = ExecutionEngine(module, tier=TIER_CLOSURE).run()

        def explode(engine, compiled):
            raise RuntimeError("synthetic codegen failure")

        monkeypatch.setattr(engine_mod, "generate_function", explode)
        degraded = ExecutionEngine(module, tier=TIER_CODEGEN)
        assert degraded.codegen_functions == 0
        assert degraded.codegen_fallbacks == len(module.functions)
        assert_same_run(reference, degraded.run(), "degraded engine")
        for injection in sampled_injections(module, 15, seed=5):
            cold = ExecutionEngine(module, tier=TIER_CLOSURE).run(injection)
            assert_same_run(cold, degraded.run(injection), str(injection))


class TestTierSelection:
    def test_resolve_tier_precedence(self, monkeypatch):
        monkeypatch.delenv(TIER_ENV, raising=False)
        assert resolve_tier() == TIER_CODEGEN
        monkeypatch.setenv(TIER_ENV, TIER_CLOSURE)
        assert resolve_tier() == TIER_CLOSURE
        assert resolve_tier(TIER_CODEGEN) == TIER_CODEGEN  # arg beats env

    def test_unknown_tier_rejected(self, monkeypatch):
        with pytest.raises(ValueError):
            resolve_tier("jit")
        with pytest.raises(ValueError):
            ExecutionEngine(cached_module("nw"), tier="jit")
        monkeypatch.setenv(TIER_ENV, "bogus")
        with pytest.raises(ValueError):
            resolve_tier()

    def test_configure_tier_switches_without_rebuild(self):
        module = cached_module("nw")
        engine = ExecutionEngine(module, tier=TIER_CLOSURE)
        reference = engine.run()
        before = engine_build_count()
        engine.configure_tier(TIER_CODEGEN)
        assert engine.tier == TIER_CODEGEN
        assert engine.codegen_functions == len(module.functions)
        assert_same_run(reference, engine.run(), "after switch to codegen")
        engine.configure_tier(TIER_CLOSURE)
        assert_same_run(reference, engine.run(), "after switch back")
        assert engine_build_count() == before


class TestCampaignParity:
    @pytest.mark.parametrize("checkpoint", [True, False])
    def test_campaign_counts_identical_across_tiers(self, checkpoint):
        module = cached_module("hotspot")
        closure = FaultInjector(
            module, checkpoint=checkpoint, interp_tier=TIER_CLOSURE
        )
        codegen = FaultInjector(
            module, checkpoint=checkpoint, interp_tier=TIER_CODEGEN
        )
        left = closure.campaign(120, seed=9)
        right = codegen.campaign(120, seed=9)
        assert left.counts == right.counts
        assert left.interp_tier == TIER_CLOSURE
        assert right.interp_tier == TIER_CODEGEN
        assert right.codegen_functions == len(module.functions)
        assert right.codegen_fallbacks == 0

    def test_per_instruction_campaign_identical(self):
        module = cached_module("pathfinder")
        closure = FaultInjector(module, interp_tier=TIER_CLOSURE)
        codegen = FaultInjector(module, interp_tier=TIER_CODEGEN)
        iids = closure.eligible_iids()[:10]
        left = closure.per_instruction_campaign(iids, 10, seed=4)
        right = codegen.per_instruction_campaign(iids, 10, seed=4)
        assert {i: r.counts for i, r in left.items()} == \
            {i: r.counts for i, r in right.items()}
