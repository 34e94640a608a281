"""PVF and ePVF baselines: the Fig. 9 ordering must hold."""

import pytest

from repro.baselines import EpvfModel, PvfModel
from repro.core import Trident
from repro.ir import FunctionBuilder, Module
from repro.profiling import ProfilingInterpreter
from tests.conftest import cached_module, cached_profile


@pytest.fixture(scope="module")
def pathfinder_setup():
    module = cached_module("pathfinder")
    profile, _ = cached_profile("pathfinder")
    return module, profile


class TestPvf:
    @pytest.mark.parametrize("samples", [0, -5])
    def test_sample_count_below_one_rejected(self, pathfinder_setup,
                                             samples):
        with pytest.raises(ValueError, match="samples"):
            PvfModel(*pathfinder_setup).overall_sdc(samples=samples)

    def test_massively_over_predicts(self, pathfinder_setup):
        module, profile = pathfinder_setup
        pvf = PvfModel(module, profile)
        assert pvf.overall_sdc_exact() > 0.85

    def test_no_masking_no_crash(self, pathfinder_setup):
        """PVF counts crash-bound faults as vulnerable: per-instruction
        vulnerability must dominate TRIDENT's everywhere."""
        module, profile = pathfinder_setup
        pvf = PvfModel(module, profile)
        trident = Trident(module, profile)
        for iid in pvf.eligible[:50]:
            assert (
                pvf.instruction_sdc(iid)
                >= trident.instruction_sdc(iid) - 1e-9
            )

    def test_dead_value_not_vulnerable(self):
        module = Module("dead")
        f = FunctionBuilder(module, "main")
        _unused = f.c(1) + 2
        f.out(f.c(0))
        f.done()
        module.finalize()
        profile, _ = ProfilingInterpreter(module).run()
        pvf = PvfModel(module, profile)
        add_iid = next(
            i.iid for i in module.instructions() if i.opcode == "binop"
        )
        assert pvf.instruction_sdc(add_iid) == 0.0

    def test_values_in_range(self, pathfinder_setup):
        module, profile = pathfinder_setup
        pvf = PvfModel(module, profile)
        for iid in pvf.eligible:
            assert 0.0 <= pvf.instruction_sdc(iid) <= 1.0


class TestEpvf:
    def test_between_trident_and_pvf(self, benchmark_name):
        """Fig. 9 ordering: TRIDENT <= ePVF <= PVF on overall SDC."""
        module = cached_module(benchmark_name)
        profile, _ = cached_profile(benchmark_name)
        trident = Trident(module, profile).overall_sdc(samples=300, seed=4)
        epvf = EpvfModel(module, profile).overall_sdc(samples=300, seed=4)
        pvf = PvfModel(module, profile).overall_sdc(samples=300, seed=4)
        assert trident <= epvf + 0.05
        assert epvf <= pvf + 0.05

    def test_measured_crash_substitution(self, pathfinder_setup):
        """Sec. VII-C: substituting FI-measured crashes lowers ePVF."""
        module, profile = pathfinder_setup
        plain = EpvfModel(module, profile)
        substituted = EpvfModel(
            module, profile, measured_crash_probability=0.35
        )
        assert (
            substituted.overall_sdc_exact()
            <= plain.overall_sdc_exact() + 1e-9
        )

    def test_crash_substitution_floor_zero(self, pathfinder_setup):
        module, profile = pathfinder_setup
        model = EpvfModel(module, profile, measured_crash_probability=1.0)
        for iid in model.eligible[:30]:
            assert model.instruction_sdc(iid) == 0.0

    def test_overall_sampled_matches_exact(self, pathfinder_setup):
        module, profile = pathfinder_setup
        model = EpvfModel(module, profile)
        assert model.overall_sdc(samples=4000, seed=1) == pytest.approx(
            model.overall_sdc_exact(), abs=0.05
        )

    def test_caching(self, pathfinder_setup):
        module, profile = pathfinder_setup
        model = EpvfModel(module, profile)
        iid = model.eligible[0]
        assert model.instruction_sdc(iid) == model.instruction_sdc(iid)
