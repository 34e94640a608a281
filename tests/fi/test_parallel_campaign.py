"""Differential tests: the parallel campaign executor vs the serial path.

The seed protocol makes a campaign a pure function of
``(module, seed, run index set)``, so the parallel engine must produce
*bit-identical* counts to the serial path for every worker count and
chunking — these tests are the lock on that contract.
"""

import pytest

from repro.fi import OUTCOMES, SDC, FaultInjector
from repro.sched import CampaignExecutor, CampaignSettings, ModuleSpec
from repro.stats import wilson_confidence
from tests.conftest import build_straightline_module, cached_module

RUNS = 150
SEED = 9

#: Two small bench programs with different outcome mixes (pathfinder is
#: crash-heavy, bfs_rodinia loop/branch heavy).
BENCHES = ("pathfinder", "bfs_rodinia")


@pytest.fixture(scope="module", params=BENCHES)
def bench(request):
    return request.param


def serial_result(name, runs=RUNS, seed=SEED):
    return FaultInjector(cached_module(name)).campaign(runs, seed=seed)


class TestDifferential:
    def test_workers4_unchunked_identical_to_serial(self, bench):
        serial = serial_result(bench)
        parallel = CampaignExecutor(
            ModuleSpec.from_benchmark(bench, "test"),
            settings=CampaignSettings(workers=4),
        ).run(RUNS, seed=SEED)
        assert parallel.counts == serial.counts
        assert parallel.workers == 4
        assert not parallel.degraded

    def test_chunked_identical_and_cis_overlap(self, bench):
        serial = serial_result(bench)
        chunked = CampaignExecutor(
            ModuleSpec.from_benchmark(bench, "test"),
            settings=CampaignSettings(workers=4, chunk_size=17),
        ).run(RUNS, seed=SEED)
        # The seed protocol makes chunking invisible: counts are not
        # merely statistically compatible but identical...
        assert chunked.counts == serial.counts
        # ...which implies the weaker CI-overlap contract holds too.
        a = wilson_confidence(chunked.counts[SDC], chunked.total)
        b = wilson_confidence(serial.counts[SDC], serial.total)
        assert a.low <= b.high and b.low <= a.high

    def test_worker_count_invariance(self, bench):
        spec = ModuleSpec.from_benchmark(bench, "test")
        results = [
            CampaignExecutor(
                spec, settings=CampaignSettings(workers=w)
            ).run(100, seed=SEED)
            for w in (1, 2, 4)
        ]
        assert results[0].counts == results[1].counts == results[2].counts

    def test_seed_sensitivity_preserved(self, bench):
        spec = ModuleSpec.from_benchmark(bench, "test")
        settings = CampaignSettings(workers=2)
        a = CampaignExecutor(spec, settings=settings).run(RUNS, seed=1)
        b = CampaignExecutor(spec, settings=settings).run(RUNS, seed=2)
        assert a.counts != b.counts  # overwhelmingly likely

    def test_ir_text_spec_roundtrip(self):
        # Arbitrary (non-registry) modules ship to workers as printed IR.
        module = build_straightline_module()
        serial = FaultInjector(module).campaign(80, seed=SEED)
        parallel = CampaignExecutor(
            ModuleSpec.from_module(module),
            settings=CampaignSettings(workers=2),
        ).run(80, seed=SEED)
        assert parallel.counts == serial.counts

    @pytest.mark.slow
    def test_big_differential_blackscholes(self):
        serial = FaultInjector(cached_module("blackscholes")).campaign(
            1000, seed=SEED
        )
        parallel = CampaignExecutor(
            ModuleSpec.from_benchmark("blackscholes", "test"),
            settings=CampaignSettings(workers=4, chunk_size=83),
        ).run(1000, seed=SEED)
        assert parallel.counts == serial.counts


class TestFallback:
    def test_bad_spec_degrades_to_serial_without_losing_counts(self):
        injector = FaultInjector(cached_module("pathfinder"))
        bad_spec = ModuleSpec(benchmark="no-such-benchmark")
        result = CampaignExecutor(
            bad_spec, injector=injector,
            settings=CampaignSettings(workers=2),
        ).run(80, seed=3)
        assert result.counts == injector.campaign(80, seed=3).counts
        assert result.degraded
        assert result.workers == 1

    def test_spec_derived_from_injector_module(self):
        # No spec given: the engine ships the module's printed IR.
        injector = FaultInjector(cached_module("pathfinder"))
        campaign = CampaignExecutor(injector=injector)
        spec = campaign.spec()
        assert spec.ir_text is not None
        rebuilt = FaultInjector(spec.materialize())
        assert rebuilt.campaign(60, seed=1).counts == \
            injector.campaign(60, seed=1).counts

    def test_requires_spec_or_injector(self):
        with pytest.raises(ValueError):
            CampaignExecutor()

    def test_empty_spec_rejected(self):
        with pytest.raises(ValueError):
            ModuleSpec().materialize()


class TestBookkeeping:
    def test_result_metadata(self, bench):
        result = CampaignExecutor(
            ModuleSpec.from_benchmark(bench, "test"),
            settings=CampaignSettings(workers=2),
        ).run(120, seed=SEED)
        assert result.total == 120
        assert result.runs_requested == 120
        assert result.rounds == 1
        assert not result.stopped_early
        assert set(result.counts) == set(OUTCOMES)
        assert result.wall_seconds > 0.0
        assert result.cpu_seconds > 0.0
