"""Fault injection campaigns: sampling, classification, statistics."""

import random

import pytest

from repro.fi import (
    BENIGN,
    CRASHED,
    OUTCOMES,
    SDC,
    CampaignResult,
    FaultInjector,
)
from repro.fi.seeds import rng_for, seed_for
from repro.ir import I32, FunctionBuilder, Module
from repro.sched import CampaignExecutor, CampaignSettings
from repro.stats import wilson_confidence
from tests.conftest import build_straightline_module, cached_module


def build_constant_output_module(n: int = 8) -> Module:
    """A program whose output is a constant: SDC probability exactly 0.

    Injectable values feed only dead stores and address arithmetic, so
    every fault lands as benign, crash, or hang — never SDC.
    """
    module = Module("deadstore")
    f = FunctionBuilder(module, "main")
    a = f.local("a", I32, init=5)
    arr = f.array("arr", I32, n)
    f.for_range(0, n, lambda i: arr.__setitem__(i, a.get() * 2))
    f.out(7)
    f.done()
    return module.finalize()


@pytest.fixture(scope="module")
def injector():
    return FaultInjector(cached_module("pathfinder"))


class TestSampling:
    def test_samples_weighted_by_execution(self, injector):
        rng = random.Random(0)
        counts = {}
        for _ in range(2000):
            injection = injector.sample_injection(rng)
            counts[injection.iid] = counts.get(injection.iid, 0) + 1
        # The hottest instruction should be sampled far more often than
        # a coldest one, roughly proportional to dynamic counts.
        by_count = sorted(
            zip(injector.target_iids, injector.target_counts),
            key=lambda pair: pair[1],
        )
        cold_iid, cold_n = by_count[0]
        hot_iid, hot_n = by_count[-1]
        assert hot_n > 2 * cold_n  # precondition for the check below
        assert counts.get(hot_iid, 0) > counts.get(cold_iid, 0)

    def test_occurrence_in_range(self, injector):
        rng = random.Random(1)
        for _ in range(200):
            injection = injector.sample_injection(rng)
            index = injector.target_iids.index(injection.iid)
            assert 1 <= injection.occurrence <= injector.target_counts[index]

    def test_bit_in_register_width(self, injector):
        rng = random.Random(2)
        for _ in range(200):
            injection = injector.sample_injection(rng)
            bits = injector.module.instruction(injection.iid).type.bits
            assert 0 <= injection.bit < bits

    def test_targets_all_have_users_and_counts(self, injector):
        for iid in injector.target_iids:
            inst = injector.module.instruction(iid)
            assert inst.has_result
            assert inst.users

    def test_targeted_injection_rejects_bad_iid(self, injector):
        rng = random.Random(3)
        store_iid = next(
            inst.iid for inst in injector.module.instructions()
            if inst.opcode == "store"
        )
        with pytest.raises(ValueError):
            injector.injection_for(store_iid, rng)


class TestCampaigns:
    def test_counts_sum_to_n(self, injector):
        result = injector.campaign(100, seed=11)
        assert result.total == 100
        assert set(result.counts) == set(OUTCOMES)

    def test_campaign_deterministic_per_seed(self, injector):
        a = injector.campaign(100, seed=5)
        b = injector.campaign(100, seed=5)
        assert a.counts == b.counts

    def test_different_seeds_differ(self, injector):
        a = injector.campaign(150, seed=5)
        b = injector.campaign(150, seed=6)
        assert a.counts != b.counts  # overwhelmingly likely

    def test_all_outcome_classes_occur(self, injector):
        result = injector.campaign(400, seed=7)
        assert result.counts[SDC] > 0
        assert result.counts[CRASHED] > 0
        assert result.counts[BENIGN] > 0

    def test_per_instruction_campaign(self, injector):
        for iid in injector.eligible_iids()[:5]:
            result = injector.run_span(0, 30, 1, target=iid)
            assert result.total == 30
            assert result.completed_ranges == [(0, 30)]

    def test_straightline_fault_free_benign_rate(self, straightline_module):
        injector = FaultInjector(straightline_module)
        result = injector.campaign(200, seed=1)
        # A multiply feeding the output: most bit flips must be SDCs.
        assert result.sdc_probability > 0.5


class TestRunSpan:
    def test_spans_compose_to_campaign(self, injector):
        """[0,n) in one span == two adjacent spans merged == campaign."""
        whole = injector.campaign(60, seed=4)
        first = injector.run_span(0, 25, 4)
        second = injector.run_span(25, 35, 4)
        assert first.merge(second).counts == whole.counts

    def test_target_span_follows_the_seed_protocol(self, injector):
        """Run i of a span targeting an iid injects the fault drawn from
        substream i of seed_for(seed, iid): the stream Table II's
        per-instruction counts come from."""
        for iid in injector.eligible_iids()[:4]:
            expected = CampaignResult()
            for index in range(12):
                fault = injector.injection_for(
                    iid, rng_for(seed_for(2018, iid), index)
                )
                assert fault.iid == iid
                expected.counts[injector.run_one(fault)] += 1
            span = injector.run_span(0, 12, 2018, target=iid)
            assert span.counts == expected.counts

    def test_span_independent_of_execution_order(self, injector):
        forward = injector.run_span(10, 20, 4)
        injector.run_span(0, 10, 4)  # running another span in between...
        again = injector.run_span(10, 20, 4)  # ...must not change it
        assert forward.counts == again.counts


class TestEarlyStopping:
    def test_zero_sdc_program_stops_before_max_runs(self):
        injector = FaultInjector(build_constant_output_module())
        result = CampaignExecutor(
            injector=injector,
            settings=CampaignSettings(
                ci_halfwidth=0.02, round_size=100, min_runs=100
            ),
        ).run(4000, seed=1)
        assert result.stopped_early
        assert result.total < 4000
        assert result.sdc_probability == 0.0

    def test_high_sdc_program_stops_and_ci_covers_full_estimate(self):
        module = build_straightline_module()
        injector = FaultInjector(module)
        full = injector.campaign(800, seed=1)
        stopped = CampaignExecutor(
            injector=injector,
            settings=CampaignSettings(
                ci_halfwidth=0.10, round_size=50, min_runs=100
            ),
        ).run(800, seed=1)
        assert stopped.stopped_early
        assert stopped.total < full.total
        interval = wilson_confidence(stopped.counts[SDC], stopped.total)
        assert interval.low <= full.sdc_probability <= interval.high

    def test_stopped_prefix_matches_serial_prefix(self, injector):
        """The early-stopped runs are exactly the serial prefix [0, n)."""
        stopped = CampaignExecutor(
            injector=injector,
            settings=CampaignSettings(
                ci_halfwidth=0.05, round_size=100, min_runs=100
            ),
        ).run(2000, seed=1)
        prefix = injector.run_span(0, stopped.total, 1)
        assert stopped.counts == prefix.counts

    def test_no_stopping_without_halfwidth(self, injector):
        result = CampaignExecutor(injector=injector).run(120, seed=2)
        assert result.total == 120
        assert not result.stopped_early
        assert result.rounds == 1

    def test_workers1_uses_serial_path(self, injector):
        """workers=1 must not spawn a pool and must match campaign()."""
        result = CampaignExecutor(
            injector=injector, settings=CampaignSettings(workers=1)
        ).run(100, seed=11)
        assert result.counts == injector.campaign(100, seed=11).counts
        assert result.workers == 1
        assert not result.degraded

    def test_min_runs_respected(self):
        injector = FaultInjector(build_constant_output_module())
        result = CampaignExecutor(
            injector=injector,
            settings=CampaignSettings(
                ci_halfwidth=0.5, round_size=50, min_runs=300
            ),
        ).run(1000, seed=1)
        # Interval is tight immediately, but the floor holds it open.
        assert result.total >= 300


class TestConcurrencyRegression:
    """Two concurrent chunks over the same Module must not interfere.

    The engine keeps all per-run state in per-run ``_State``/frames and
    the module/layout stay immutable after finalize; these tests pin
    that, since fork-based workers and interleaved chunks silently
    corrupt counts if any run state leaks into shared objects.
    """

    def test_interleaved_injectors_match_isolated_runs(self):
        module = cached_module("pathfinder")
        a = FaultInjector(module)
        b = FaultInjector(module)
        interleaved_a = CampaignResult()
        interleaved_b = CampaignResult()
        for start in range(0, 40, 10):
            interleaved_a = interleaved_a.merge(a.run_span(start, 10, 21))
            interleaved_b = interleaved_b.merge(b.run_span(start, 10, 22))
        assert interleaved_a.counts == \
            FaultInjector(module).campaign(40, seed=21).counts
        assert interleaved_b.counts == \
            FaultInjector(module).campaign(40, seed=22).counts

    def test_campaign_leaves_engine_state_clean(self, injector):
        golden_before = injector.engine.run()
        injector.campaign(50, seed=13)
        golden_after = injector.engine.run()
        assert golden_after.outcome == golden_before.outcome
        assert golden_after.outputs == golden_before.outputs
        assert golden_after.dynamic_count == golden_before.dynamic_count

    def test_shared_engine_injectors_agree(self):
        module = cached_module("pathfinder")
        shared = FaultInjector(module)
        borrowing = FaultInjector(module, shared.engine)
        assert borrowing.campaign(40, seed=5).counts == \
            shared.campaign(40, seed=5).counts


class TestCampaignResult:
    def test_probabilities(self):
        result = CampaignResult()
        result.counts[SDC] = 25
        result.counts[BENIGN] = 75
        assert result.sdc_probability == 0.25
        assert result.benign_probability == 0.75
        assert result.probability(CRASHED) == 0.0

    def test_margin_of_error(self):
        result = CampaignResult()
        result.counts[SDC] = 50
        result.counts[BENIGN] = 50
        margin = result.margin_of_error(SDC)
        assert margin == pytest.approx(1.96 * (0.25 / 100) ** 0.5, rel=1e-3)

    def test_empty_result(self):
        result = CampaignResult()
        assert result.sdc_probability == 0.0
        assert result.margin_of_error() == 0.0

    def test_merge(self):
        a = CampaignResult()
        a.counts[SDC] = 10
        b = CampaignResult()
        b.counts[SDC] = 5
        b.counts[BENIGN] = 5
        merged = a.merge(b)
        assert merged.counts[SDC] == 15
        assert merged.total == 20
