"""The profiling interpreter and the profile it produces."""

import hashlib
import json
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.interp import engine as engine_mod
from repro.interp.engine import ReferenceEngine
from repro.interp.errors import InterpreterBug
from repro.ir import I32, FunctionBuilder, Module
from repro.ir.instructions import Branch, Store
from repro.profiling import ProfilingInterpreter, profile_to_dict
from tests.conftest import cached_module, cached_profile


class TestAgreementWithEngine:
    """The profile variant against the closure steps (the reference
    engine), an independent implementation of the same IR semantics."""

    def test_outputs_match(self, accumulator_module):
        profile, outputs = ProfilingInterpreter(accumulator_module).run()
        golden = ReferenceEngine(accumulator_module).golden()
        assert outputs == golden.outputs

    def test_dynamic_count_matches(self, accumulator_module):
        profile, _ = ProfilingInterpreter(accumulator_module).run()
        golden = ReferenceEngine(accumulator_module).golden()
        assert profile.dynamic_count == golden.dynamic_count

    def test_instruction_counts_match(self, accumulator_module):
        profile, _ = ProfilingInterpreter(accumulator_module).run()
        golden = ReferenceEngine(accumulator_module).golden()
        assert profile.inst_counts == golden.instruction_counts()

    @pytest.mark.parametrize("name", ["pathfinder", "nw", "libquantum"])
    def test_benchmarks_agree(self, name):
        module = cached_module(name)
        profile, outputs = cached_profile(name)
        golden = ReferenceEngine(module).golden()
        assert outputs == golden.outputs
        assert profile.dynamic_count == golden.dynamic_count


class TestBranchProfile:
    def test_biased_loop_branch(self):
        module = Module("m")
        f = FunctionBuilder(module, "main")
        f.for_range(0, 100, lambda i: f.out(i))
        f.done()
        module.finalize()
        profile, _ = ProfilingInterpreter(module).run()
        branch = next(
            inst for inst in module.instructions()
            if isinstance(inst, Branch) and inst.is_conditional
        )
        # Loop continues 100 times, exits once: P(taken) = 100/101.
        assert profile.branch_taken_probability(branch.iid) == pytest.approx(
            100 / 101
        )

    def test_unexecuted_branch_defaults_half(self, accumulator_module):
        profile, _ = ProfilingInterpreter(accumulator_module).run()
        assert profile.branch_taken_probability(99999) == 0.5

    def test_direction_probability_complements(self, pathfinder_profile):
        for iid in list(pathfinder_profile.branch_counts):
            taken = pathfinder_profile.branch_direction_probability(iid, True)
            not_taken = pathfinder_profile.branch_direction_probability(
                iid, False
            )
            assert taken + not_taken == pytest.approx(1.0)


class TestMemoryDependencies:
    def build_producer_consumer(self, n=8):
        module = Module("m")
        f = FunctionBuilder(module, "main")
        arr = f.array("a", I32, n)
        f.for_range(0, n, lambda i: arr.__setitem__(i, i))
        total = f.local("t", I32, init=0)
        f.for_range(0, n, lambda i: total.set(total.get() + arr[i]))
        f.out(total.get())
        f.done()
        return module.finalize()

    def test_store_load_edge_exists(self):
        module = self.build_producer_consumer()
        profile, _ = ProfilingInterpreter(module).run()
        stores = [i for i in module.instructions() if isinstance(i, Store)]
        array_store = max(
            stores, key=lambda s: profile.store_instances.get(s.iid, 0)
        )
        edges = profile.loads_reading(array_store.iid)
        assert edges, "array store must have a reader"
        # Every instance of the array store is read exactly once.
        assert any(weight == pytest.approx(1.0) for _l, weight in edges)

    def test_read_fraction_full(self):
        module = self.build_producer_consumer()
        profile, _ = ProfilingInterpreter(module).run()
        stores = [i for i in module.instructions() if isinstance(i, Store)]
        array_store = max(
            stores, key=lambda s: profile.store_instances.get(s.iid, 0)
        )
        assert profile.store_read_fraction(array_store.iid) == pytest.approx(1.0)

    def test_dead_store_has_no_readers(self):
        module = Module("m")
        f = FunctionBuilder(module, "main")
        arr = f.array("a", I32, 4)
        f.for_range(0, 4, lambda i: arr.__setitem__(i, i))  # never read
        f.out(f.c(0))
        f.done()
        module.finalize()
        profile, _ = ProfilingInterpreter(module).run()
        store = next(
            i for i in module.instructions()
            if isinstance(i, Store) and profile.store_instances.get(i.iid, 0) >= 4
        )
        assert profile.loads_reading(store.iid) == []
        assert profile.store_read_fraction(store.iid) == 0.0

    def test_pruning_collapses_loop_dependencies(self):
        module = self.build_producer_consumer(n=32)
        profile, _ = ProfilingInterpreter(module).run()
        stats = profile.memdep_stats
        assert stats.dynamic_dependencies > stats.static_edges
        assert stats.pruned_fraction > 0.5

    def test_benchmark_pruning_positive(self, benchmark_name):
        profile, _ = cached_profile(benchmark_name)
        assert profile.memdep_stats.pruned_fraction > 0.0


class TestSamplesAndCrashProbabilities:
    def test_operand_samples_capped(self, pathfinder_profile):
        for samples in pathfinder_profile.operand_samples.values():
            assert len(samples) <= 32

    def test_crash_probability_high_for_sparse_space(self, pathfinder_profile):
        # Valid data is tiny inside a 64-bit space: most single-bit
        # address flips must crash.
        probs = [
            pathfinder_profile.crash_probability(iid)
            for iid in pathfinder_profile.crash_prob_samples
        ]
        assert probs
        assert all(p > 0.6 for p in probs)

    def test_execution_probability_clamped(self, pathfinder_profile):
        iids = list(pathfinder_profile.inst_counts)
        hot = max(iids, key=pathfinder_profile.count)
        cold = min(iids, key=pathfinder_profile.count)
        assert pathfinder_profile.execution_probability(hot, cold) == 1.0
        assert 0.0 <= pathfinder_profile.execution_probability(cold, hot) <= 1.0


def stable_digest(profile, outputs) -> str:
    data = profile_to_dict(profile)
    del data["profiling_seconds"]
    text = json.dumps({"outputs": outputs, "profile": data}, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


class TestProfileContracts:
    """The profile variant's run contracts (DESIGN.md §9)."""

    def test_generation_failure_raises_without_fallback(self, monkeypatch):
        def untranslatable(engine, compiled):
            raise InterpreterBug("synthetic: cannot generate")

        monkeypatch.setattr(engine_mod, "generate_profile_function",
                            untranslatable)
        with pytest.raises(InterpreterBug, match="synthetic"):
            ProfilingInterpreter(cached_module("pathfinder")).run()

    def test_budget_overrun_is_an_interpreter_bug(self, accumulator_module):
        assert ProfilingInterpreter(accumulator_module).max_dynamic == (
            50_000_000
        )
        with pytest.raises(InterpreterBug, match="budget exceeded"):
            ProfilingInterpreter(accumulator_module, max_dynamic=10).run()

    @pytest.mark.parametrize("tier", ["codegen", "batch"])
    def test_interpreter_tier_does_not_reach_profiling(self, monkeypatch,
                                                       tier):
        module = cached_module("pathfinder")
        reference = stable_digest(*ProfilingInterpreter(module).run())
        monkeypatch.setenv("REPRO_INTERP_TIER", tier)
        assert stable_digest(*ProfilingInterpreter(module).run()) == reference

    def test_concurrent_profiles_are_identical(self):
        """Sampling state lives on each run, so threads profiling one
        module at once (the daemon's /v1/analyze) cannot interfere."""
        module = cached_module("hercules")
        reference = stable_digest(*ProfilingInterpreter(module).run())
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                futures = [
                    pool.submit(lambda: ProfilingInterpreter(module).run())
                    for _ in range(6)
                ]
                digests = [stable_digest(*f.result(timeout=120))
                           for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert digests == [reference] * 6
