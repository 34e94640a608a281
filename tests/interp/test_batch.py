"""Batch-tier lane semantics: divergence, drain, and accounting.

The lockstep executor's contract is that per-lane results are exactly
what the scalar tiers would produce for the same injections — lanes that
diverge from group control flow and cannot re-merge are peeled and
re-run on the scalar engine, never dropped or approximated.  These tests
build small modules where the divergence mechanics are fully predictable
(one branch flip, one division trap, one store disagreement) and check
each lane against a scalar reference run, plus the
``GroupOutcome``/``CampaignResult`` throughput and divergence accounting
around them.
"""

from __future__ import annotations

import pytest

from repro.fi.campaign import FaultInjector
from repro.interp.batch import HAVE_NUMPY, BatchRunner
from repro.interp.codegen import TIER_BATCH, TIER_CODEGEN
from repro.interp.engine import ExecutionEngine, Injection
from repro.interp.result import CRASH, OK
from repro.ir import I32, I64, Module
from repro.ir.dsl import FunctionBuilder

pytestmark = pytest.mark.skipif(
    not HAVE_NUMPY, reason="batch tier requires numpy"
)


def _finish(f: FunctionBuilder, module: Module) -> Module:
    f.done()
    module.finalize()
    return module


def branch_module():
    """A data-dependent branch: flipping a high bit of ``probe`` in one
    lane sends it down the other arm while the group continues."""
    module = Module("batch_branch")
    f = FunctionBuilder(module, "main")
    x = f.local("x", I32, 4)
    probe = x.get() + 1
    f.if_(
        probe > f.c(100),
        lambda: f.out(f.c(1)),
        lambda: f.out(f.c(0)),
    )
    acc = f.local("acc", I32, 0)
    f.for_range(0, 5, lambda i: acc.set(acc.get() + i))
    f.out(acc.get())
    return _finish(f, module), probe.value


def trap_module():
    """A division whose denominator loads 1; bit 0 of the load flips it
    to 0 and traps — in exactly one lane."""
    module = Module("batch_trap")
    f = FunctionBuilder(module, "main")
    num = f.local("num", I32, 64)
    den = f.local("den", I32, 1)
    probe = den.get()
    f.out(num.get() / f.wrap(probe.value))
    f.out(f.c(7))
    return _finish(f, module), probe.value


def store_module():
    """Straight-line code whose stored value is the injection target:
    lanes disagree on memory contents but never on control flow."""
    module = Module("batch_store")
    f = FunctionBuilder(module, "main")
    a = f.array("a", I64, 4)
    v = f.local("v", I64, 5)
    probe = v.get()
    a[2] = f.wrap(probe.value)
    total = f.local("total", I64, 0)
    f.for_range(0, 4, lambda i: total.set(total.get() + a[i].to_int(I64)))
    f.out(total.get())
    return _finish(f, module), probe.value


def nested_branch_module():
    """A diamond inside a diamond: the outer flip diverges one lane, and
    inside that side a second data-dependent branch splits again —
    exercising two levels of the reconvergence mask stack."""
    module = Module("batch_nested")
    f = FunctionBuilder(module, "main")
    x = f.local("x", I32, 4)
    probe = x.get() + 1
    acc = f.local("acc", I32, 0)

    def outer_then():
        f.if_(
            x.get() > f.c(2),
            lambda: acc.set(acc.get() + 10),
            lambda: acc.set(acc.get() + 20),
        )
        f.out(acc.get())

    f.if_(probe > f.c(100), outer_then, lambda: acc.set(acc.get() + 1))
    f.out(acc.get())
    return _finish(f, module), probe.value


def side_loop_module():
    """The divergent arm contains a loop (``while_`` over predeclared
    locals, so the region stays alloca-free and mergeable): a lane
    parked into the side executes far more instructions than the
    majority — the shape that exposes per-lane dynamic-count deltas
    and hang scans."""
    module = Module("batch_side_loop")
    f = FunctionBuilder(module, "main")
    x = f.local("x", I32, 4)
    probe = x.get() + 1
    acc = f.local("acc", I32, 0)
    j = f.local("j", I32, 0)

    def spin():
        f.while_(
            lambda: j.get() < f.c(40),
            lambda: (acc.set(acc.get() + j.get()), j.set(j.get() + 1)),
        )

    f.if_(probe > f.c(100), spin, lambda: acc.set(acc.get() + 1))
    f.out(acc.get())
    return _finish(f, module), probe.value


def alloca_region_module():
    """An alloca inside the divergent region forces the drain fallback
    (the batch memory image cannot give lanes distinct stack cursors)."""
    module = Module("batch_alloca_region")
    f = FunctionBuilder(module, "main")
    x = f.local("x", I32, 4)
    probe = x.get() + 1

    def arm_with_alloca():
        tmp = f.array("tmp", I32, 2)
        tmp[0] = x.get()
        f.out(tmp[0].to_int(I32))

    f.if_(probe > f.c(100), arm_with_alloca, lambda: f.out(f.c(0)))
    f.out(x.get())
    return _finish(f, module), probe.value


def _scalar_reference(module, injection):
    return ExecutionEngine(module).run(injection=injection)


def _assert_lane_matches(lane_result, reference):
    assert lane_result.outcome == reference.outcome
    assert lane_result.crash_reason == reference.crash_reason
    assert lane_result.outputs == reference.outputs
    assert lane_result.dynamic_count == reference.dynamic_count
    assert lane_result.block_counts == reference.block_counts


def test_branch_divergence_reconverges_without_drain():
    """The default path: a lone lane takes the other arm of an if/else,
    parks at the join block, and re-merges — no scalar drain at all."""
    module, probe = branch_module()
    engine = ExecutionEngine(module)
    injection = Injection(probe.iid, 1, 30)  # 5 -> 2**30 + 5: other arm
    trials = [None, injection, None, None]
    group = engine.batch_runner().run_group(trials)
    assert len(group.results) == 4
    assert group.reconverged >= 1
    assert group.drains == 0
    assert group.drain_executed == 0
    assert group.divergences == 0
    golden = engine.golden()
    reference = _scalar_reference(module, injection)
    assert reference.outputs != golden.outputs  # the flip really branched
    for lane, result in enumerate(group.results):
        expected = reference if trials[lane] is injection else golden
        _assert_lane_matches(result, expected)


def test_nested_divergence_reconverges_both_levels():
    module, probe = nested_branch_module()
    engine = ExecutionEngine(module)
    injection = Injection(probe.iid, 1, 30)
    trials = [None, injection, None, None, None]
    group = engine.batch_runner().run_group(trials)
    assert group.reconverged >= 1
    assert group.drains == 0
    golden = engine.golden()
    reference = _scalar_reference(module, injection)
    assert reference.outputs != golden.outputs
    for lane, result in enumerate(group.results):
        expected = reference if trials[lane] is injection else golden
        _assert_lane_matches(result, expected)


def test_side_loop_keeps_per_lane_dynamic_counts():
    """A lane that runs a loop inside its side must report its own
    (much larger) dynamic count while the majority keeps the shared one."""
    module, probe = side_loop_module()
    engine = ExecutionEngine(module)
    injection = Injection(probe.iid, 1, 30)
    trials = [None, injection, None]
    group = engine.batch_runner().run_group(trials)
    assert group.reconverged >= 1
    assert group.drains == 0
    golden = engine.golden()
    reference = _scalar_reference(module, injection)
    assert reference.dynamic_count > golden.dynamic_count
    for lane, result in enumerate(group.results):
        expected = reference if trials[lane] is injection else golden
        _assert_lane_matches(result, expected)


def test_hang_inside_side_matches_scalar_budget():
    """The injected lane loops inside its side past a tight budget: it
    must hang with exactly the scalar tier's count and message while the
    other lanes finish OK."""
    module, probe = side_loop_module()
    engine = ExecutionEngine(module)
    injection = Injection(probe.iid, 1, 30)
    budget = engine.golden().dynamic_count + 20
    reference = ExecutionEngine(module).run(
        injection=injection, budget=budget
    )
    assert reference.outcome == "hang"
    group = engine.batch_runner().run_group(
        [None, injection, None], budget=budget
    )
    _assert_lane_matches(group.results[1], reference)
    for lane in (0, 2):
        assert group.results[lane].outcome == OK


def test_alloca_in_region_falls_back_to_drain():
    module, probe = alloca_region_module()
    engine = ExecutionEngine(module)
    injection = Injection(probe.iid, 1, 30)
    trials = [None, injection, None, None]
    group = engine.batch_runner().run_group(trials)
    assert group.reconverged == 0
    assert group.drains == 1
    assert group.divergences == 1
    golden = engine.golden()
    reference = _scalar_reference(module, injection)
    for lane, result in enumerate(group.results):
        expected = reference if trials[lane] is injection else golden
        _assert_lane_matches(result, expected)


def test_trap_in_one_lane_crashes_only_that_lane():
    module, probe = trap_module()
    engine = ExecutionEngine(module)
    injection = Injection(probe.iid, 1, 0)  # denominator 1 -> 0
    group = engine.batch_runner().run_group([None, None, injection])
    reference = _scalar_reference(module, injection)
    assert reference.outcome == CRASH
    _assert_lane_matches(group.results[2], reference)
    golden = engine.golden()
    for lane in (0, 1):
        assert group.results[lane].outcome == OK
        _assert_lane_matches(group.results[lane], golden)


def test_per_lane_memory_divergence_without_branching():
    """Divergent stores split memory cells per lane; control flow stays
    shared, so no lane is peeled yet every lane sees its own value."""
    module, probe = store_module()
    engine = ExecutionEngine(module)
    trials = [None, Injection(probe.iid, 1, 8), Injection(probe.iid, 1, 9)]
    group = engine.batch_runner().run_group(trials)
    assert group.divergences == 0
    outputs = [result.outputs for result in group.results]
    assert len({tuple(o) for o in outputs}) == 3  # all three lanes differ
    for lane, injection in enumerate(trials):
        expected = (
            engine.golden() if injection is None
            else _scalar_reference(module, injection)
        )
        _assert_lane_matches(group.results[lane], expected)


def test_group_outcome_accounting():
    """Lockstep executes the shared trace once: executed stays near one
    trace-length while skipped absorbs the other lanes' logical work."""
    module, _probe = store_module()
    engine = ExecutionEngine(module)
    lanes = 6
    group = engine.batch_runner().run_group([None] * lanes)
    trace = engine.golden().dynamic_count
    logical = sum(result.dynamic_count for result in group.results)
    assert logical == lanes * trace
    assert group.executed + group.skipped == logical
    assert group.executed < 2 * trace  # not lanes * trace


def test_single_lane_group_matches_scalar():
    module, probe = trap_module()
    engine = ExecutionEngine(module)
    injection = Injection(probe.iid, 1, 0)
    group = engine.batch_runner().run_group([injection])
    _assert_lane_matches(group.results[0], _scalar_reference(module, injection))


def test_run_group_rejects_bad_trials():
    module, probe = branch_module()
    runner = ExecutionEngine(module).batch_runner()
    with pytest.raises(ValueError):
        runner.run_group([])
    with pytest.raises(ValueError):
        runner.run_group([Injection(probe.iid, 1, 99)])  # bit out of range
    store_iids = [
        inst.iid for inst in module.instructions() if not inst.has_result
    ]
    with pytest.raises(ValueError):
        runner.run_group([Injection(store_iids[0], 1, 0)])


def test_campaign_counts_match_scalar_tiers_and_count_divergences():
    module, _probe = branch_module()
    reference = FaultInjector(
        module, interp_tier=TIER_CODEGEN, checkpoint=False
    ).campaign(80, seed=3)
    for lanes in (1, 8, 64):
        batch = FaultInjector(
            module, interp_tier=TIER_BATCH, checkpoint=False,
            batch_lanes=lanes,
        ).campaign(80, seed=3)
        assert batch.counts == reference.counts
        assert batch.batch_lanes == lanes
        assert batch.batch_fallbacks == 0
    # Multi-lane groups over a branchy module must have reconverged a
    # divergent branch somewhere, and this module's if/else regions are
    # all mergeable — nothing should fall back to the scalar drain.
    assert batch.batch_reconverged > 0
    assert batch.batch_drains == 0
    assert batch.drain_fraction == 0.0


def test_numpy_absence_degrades_to_codegen(monkeypatch):
    """Without numpy the batch tier must run trials on the scalar path
    (batch_lanes stays 0, no groups formed) with identical counts."""
    module, _probe = branch_module()
    reference = FaultInjector(
        module, interp_tier=TIER_CODEGEN, checkpoint=False
    ).campaign(40, seed=9)
    monkeypatch.setattr("repro.interp.batch.HAVE_NUMPY", False)
    degraded = FaultInjector(
        module, interp_tier=TIER_BATCH, checkpoint=False, batch_lanes=8
    ).campaign(40, seed=9)
    assert degraded.counts == reference.counts
    assert degraded.batch_lanes == 0
    assert degraded.batch_divergences == 0
    with pytest.raises(Exception):
        BatchRunner(ExecutionEngine(module))
