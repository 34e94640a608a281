"""Generated code differential: bit-identical to the closure steps.

The engine compiles each basic block (and straight-line superblocks) to
one generated Python function with two specializations — a fault-free
fast path and an injection-capable variant selected only for blocks
covering the armed iid.  Everything here enforces the contract that
makes that the engine's only execution path: RunResult outcomes,
outputs, block counts, dynamic counts, and campaign counts are
bit-identical to :class:`ReferenceEngine`, which runs every block on
the closure steps, on every benchmark, with or without checkpointing.
Code is generated on an engine's first run, once, and a generation
failure is an :class:`InterpreterBug`.
"""

from __future__ import annotations

import random

import pytest

from repro.fi import FaultInjector
from repro.interp import engine as engine_mod
from repro.interp import engine_build_count
from repro.interp.codegen import (
    TIER_BATCH,
    TIER_CODEGEN,
    TIER_ENV,
    resolve_tier,
)
from repro.interp.engine import ExecutionEngine, ReferenceEngine
from repro.interp.errors import InterpreterBug
from repro.opt.pipeline import optimize
from repro.profiling import ProfilingInterpreter
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
        reference = ReferenceEngine(benchmark_module)
        codegen = ExecutionEngine(benchmark_module)
        assert_same_run(reference.run(), codegen.run(), benchmark_module.name)

    def test_optimized_module_bit_identical(self):
        module, _report = optimize(cached_module("pathfinder"), 2)
        reference = ReferenceEngine(module)
        codegen = ExecutionEngine(module)
        assert_same_run(reference.run(), codegen.run(), "optimized pathfinder")


class TestInjectionDifferential:
    @pytest.mark.parametrize("name", ["pathfinder", "hotspot", "sad"])
    def test_sampled_injections_bit_identical(self, name):
        module = cached_module(name)
        reference = ReferenceEngine(module)
        codegen = ExecutionEngine(module)
        for injection in sampled_injections(module, 60):
            assert_same_run(
                reference.run(injection), codegen.run(injection),
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
        reference = ReferenceEngine(module)
        codegen = ExecutionEngine(module)
        for injection in sampled_injections(module, 60, seed=11):
            assert_same_run(
                reference.run(injection), codegen.run(injection),
                f"O2 hotspot: {injection}",
            )


class TestResumeDifferential:
    def test_checkpoint_resume_matches_closure_cold_run(self):
        module = cached_module("pathfinder")
        reference = ReferenceEngine(module)
        codegen = ExecutionEngine(module)
        capture = codegen.capture(stride=200)
        for injection in sampled_injections(module, 40, seed=3):
            snapshot = capture.snapshot_for(injection)
            if snapshot is None:
                continue
            resumed = capture.resume(snapshot, injection)
            assert_same_run(
                reference.run(injection), resumed, f"resume {injection}"
            )

    def test_capture_lockstep_with_run_on_phi_heavy_module(self):
        """The capture pass runs the fast variant on either engine, and
        it must agree with both engines' runs instruction-for-instruction
        on a phi-heavy module."""
        module, _report = optimize(cached_module("pathfinder"), 2)
        for engine in (ReferenceEngine(module), ExecutionEngine(module)):
            captured = engine.capture(stride=100).result
            assert_same_run(engine.run(), captured,
                            f"capture vs {type(engine).__name__}")


@pytest.fixture
def generations(monkeypatch):
    """Names of the functions ``generate_function`` is called for."""
    calls = []
    generate = engine_mod.generate_function

    def counting(engine, compiled):
        calls.append(compiled.function.name)
        return generate(engine, compiled)

    monkeypatch.setattr(engine_mod, "generate_function", counting)
    return calls


class TestGenerationOnFirstUse:
    def test_only_the_reference_engine_compiles_closure_steps(self):
        """Production runs one implementation of the opcodes, the
        generated code: an engine's blocks carry no closure steps, and
        the reference engine's carry one per instruction."""
        module = cached_module("hercules")
        production = ExecutionEngine(module)
        reference = ReferenceEngine(module)
        for engine, filled in ((production, False), (reference, True)):
            for compiled in engine._compiled.values():
                for cblock in compiled.blocks.values():
                    expected = len(cblock.step_insts) if filled else 0
                    assert len(cblock.steps) == expected

    def test_profiling_and_reference_runs_generate_nothing(self,
                                                          generations):
        module = cached_module("hercules")
        ProfilingInterpreter(module).run()
        ReferenceEngine(module).run()
        assert generations == []

    def test_each_function_generated_once_on_first_run(self, generations):
        module = cached_module("hercules")
        engine = ExecutionEngine(module)
        assert generations == []
        engine.run()
        assert sorted(generations) == sorted(module.functions)
        assert len(module.functions) > 1
        engine.run()
        engine.capture(stride=100)
        assert sorted(generations) == sorted(module.functions)

    def test_generation_failure_is_an_interpreter_bug(self, monkeypatch):
        module = cached_module("pathfinder")

        def explode(engine, compiled):
            raise RuntimeError("synthetic codegen failure")

        monkeypatch.setattr(engine_mod, "generate_function", explode)
        with pytest.raises(InterpreterBug, match="pathfinder.*main"):
            ExecutionEngine(module).run()
        with pytest.raises(InterpreterBug, match="synthetic"):
            ExecutionEngine(module).capture(stride=100)
        with pytest.raises(InterpreterBug):
            FaultInjector(module)


class TestTierSelection:
    def test_resolve_tier_precedence(self, monkeypatch):
        monkeypatch.delenv(TIER_ENV, raising=False)
        assert resolve_tier() == TIER_CODEGEN
        monkeypatch.setenv(TIER_ENV, TIER_BATCH)
        assert resolve_tier() == TIER_BATCH
        assert resolve_tier(TIER_CODEGEN) == TIER_CODEGEN  # arg beats env

    def test_unknown_tier_rejected(self, monkeypatch):
        for tier in ("jit", "closure"):
            with pytest.raises(ValueError):
                resolve_tier(tier)
            with pytest.raises(ValueError):
                FaultInjector(cached_module("nw"), interp_tier=tier)
        for tier in ("bogus", "closure"):
            monkeypatch.setenv(TIER_ENV, tier)
            with pytest.raises(ValueError):
                resolve_tier()

    def test_configure_tier_switches_without_rebuild(self):
        module = cached_module("nw")
        injector = FaultInjector(module)
        reference = injector.campaign(40, seed=5)
        before = engine_build_count()
        injector.configure_tier(TIER_BATCH)
        batch = injector.campaign(40, seed=5)
        assert batch.interp_tier == TIER_BATCH
        assert batch.counts == reference.counts
        injector.configure_tier(None)
        again = injector.campaign(40, seed=5)
        assert again.interp_tier == resolve_tier(None)
        assert again.counts == reference.counts
        assert engine_build_count() == before


class TestCampaignParity:
    @pytest.mark.parametrize("checkpoint", [True, False])
    def test_campaign_counts_identical_across_tiers(self, checkpoint):
        module = cached_module("hotspot")
        reference = FaultInjector(
            module, engine=ReferenceEngine(module), checkpoint=checkpoint,
            interp_tier=TIER_CODEGEN,
        )
        codegen = FaultInjector(
            module, checkpoint=checkpoint, interp_tier=TIER_CODEGEN
        )
        left = reference.campaign(120, seed=9)
        right = codegen.campaign(120, seed=9)
        assert left.counts == right.counts
        assert left.converged_trials == 0
        assert right.interp_tier == TIER_CODEGEN
        assert right.codegen_fallbacks == 0

    def test_per_instruction_campaign_identical(self):
        module = cached_module("pathfinder")
        reference = FaultInjector(module, engine=ReferenceEngine(module))
        codegen = FaultInjector(module, interp_tier=TIER_CODEGEN)
        for iid in reference.eligible_iids()[:10]:
            assert (reference.run_span(0, 10, 4, target=iid).counts
                    == codegen.run_span(0, 10, 4, target=iid).counts)
