"""The TRIDENT orchestrator: Algorithm 1 over real programs."""

import pytest

from repro.core import (
    Trident,
    build_all_models,
    build_model,
    fs_fc_config,
    fs_only_config,
    trident_config,
)
from repro.ir import F32, I32, FunctionBuilder, Module
from repro.profiling import ProfilingInterpreter
from tests.conftest import cached_module, cached_profile


@pytest.fixture(scope="module")
def pathfinder_model():
    module = cached_module("pathfinder")
    profile, _ = cached_profile("pathfinder")
    return Trident(module, profile)


class TestInstructionSdc:
    def test_probabilities_in_range(self, pathfinder_model):
        for iid in pathfinder_model.eligible:
            value = pathfinder_model.instruction_sdc(iid)
            assert 0.0 <= value <= 1.0

    def test_memoized(self, pathfinder_model):
        iid = pathfinder_model.eligible[0]
        first = pathfinder_model.instruction_sdc(iid)
        before = pathfinder_model.inference_seconds
        assert pathfinder_model.instruction_sdc(iid) == first
        # Cached: no measurable inference time added.
        assert pathfinder_model.inference_seconds == before

    def test_resultless_instruction_is_zero(self, pathfinder_model):
        store_iid = next(
            inst.iid for inst in pathfinder_model.module.instructions()
            if inst.opcode == "store"
        )
        assert pathfinder_model.instruction_sdc(store_iid) == 0.0

    def test_dead_value_is_zero(self):
        module = Module("dead")
        f = FunctionBuilder(module, "main")
        _unused = f.c(1) + 2
        f.out(f.c(0))
        f.done()
        module.finalize()
        model = Trident.build(module)
        add_iid = next(
            i.iid for i in module.instructions() if i.opcode == "binop"
        )
        assert model.instruction_sdc(add_iid) == 0.0

    def test_direct_output_is_certain(self):
        module = Module("direct")
        f = FunctionBuilder(module, "main")
        f.out(f.c(1) + 2)
        f.done()
        module.finalize()
        model = Trident.build(module)
        add_iid = next(
            i.iid for i in module.instructions() if i.opcode == "binop"
        )
        assert model.instruction_sdc(add_iid) == pytest.approx(1.0)

    def test_precision_masked_output(self):
        module = Module("masked")
        f = FunctionBuilder(module, "main")
        x = f.c(1.5, F32) * f.c(2.0, F32)
        f.out(x, precision=2)
        f.done()
        module.finalize()
        model = Trident.build(module)
        mul_iid = next(
            i.iid for i in module.instructions() if i.opcode == "binop"
        )
        # The 48.66% rule bounds a direct path to a %.2g output.
        assert model.instruction_sdc(mul_iid) == pytest.approx(0.4866,
                                                               abs=0.001)


class TestOverallSdc:
    def test_sampled_close_to_exact(self, pathfinder_model):
        sampled = pathfinder_model.overall_sdc(samples=4000, seed=1)
        exact = pathfinder_model.overall_sdc_exact()
        assert sampled == pytest.approx(exact, abs=0.05)

    @pytest.mark.parametrize("samples", [0, -5])
    def test_sample_count_below_one_rejected(self, pathfinder_model,
                                             samples):
        with pytest.raises(ValueError, match="samples"):
            pathfinder_model.overall_sdc(samples=samples)
        with pytest.raises(ValueError, match="samples"):
            pathfinder_model.overall_crash(samples=samples)

    def test_deterministic_per_seed(self, pathfinder_model):
        assert pathfinder_model.overall_sdc(
            samples=500, seed=9
        ) == pathfinder_model.overall_sdc(samples=500, seed=9)

    def test_in_unit_interval(self, benchmark_name):
        module = cached_module(benchmark_name)
        profile, _ = cached_profile(benchmark_name)
        model = Trident(module, profile)
        assert 0.0 <= model.overall_sdc(samples=200, seed=0) <= 1.0

    def test_sdc_map_covers_eligible(self, pathfinder_model):
        sdc_map = pathfinder_model.sdc_map()
        assert set(sdc_map) == set(pathfinder_model.eligible)


class TestModelVariants:
    def test_config_names(self):
        assert trident_config().name == "trident"
        assert fs_fc_config().name == "fs+fc"
        assert fs_only_config().name == "fs"

    def test_build_model_rejects_unknown(self, pathfinder_model):
        with pytest.raises(ValueError):
            build_model("bogus", pathfinder_model.module,
                        pathfinder_model.profile)

    def test_fs_fc_over_predicts_trident(self, benchmark_name):
        """Sec. V-B: fs+fc assumes store-hit = SDC, so its prediction
        must dominate full TRIDENT's on every benchmark."""
        module = cached_module(benchmark_name)
        profile, _ = cached_profile(benchmark_name)
        models = build_all_models(module, profile)
        trident_value = models["trident"].overall_sdc(samples=300, seed=2)
        fs_fc_value = models["fs+fc"].overall_sdc(samples=300, seed=2)
        assert fs_fc_value >= trident_value - 1e-9

    def test_fs_ignores_control_flow(self):
        """A value that only influences a branch: fs predicts zero,
        fs+fc and TRIDENT predict more."""
        module = Module("branch_only")
        f = FunctionBuilder(module, "main")
        arr = f.array("a", I32, 4)
        flag = f.local("flag", I32, init=3)

        def body(i):
            f.if_(flag.get() > 1, lambda: arr.__setitem__(i, i + 1))

        f.for_range(0, 4, body)
        f.for_range(0, 4, lambda i: f.out(arr[i]), name="o")
        f.done()
        module.finalize()
        profile, _ = ProfilingInterpreter(module).run()
        flag_load = next(
            i.iid for i in module.instructions()
            if i.opcode == "load"
            and any(u.opcode == "icmp" for u in i.users)
        )
        fs_model = build_model("fs", module, profile)
        trident_model = build_model("trident", module, profile)
        assert fs_model.instruction_sdc(flag_load) == 0.0
        assert trident_model.instruction_sdc(flag_load) > 0.0

    def test_eligibility_matches_injector(self, benchmark_name):
        from repro.fi import FaultInjector

        module = cached_module(benchmark_name)
        profile, _ = cached_profile(benchmark_name)
        model = Trident(module, profile)
        injector = FaultInjector(module)
        assert model.eligible == injector.eligible_iids()
