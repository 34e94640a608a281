"""Batch groups restored from golden-prefix checkpoints.

A lockstep group restores *once* from the snapshot nearest the earliest
lane's fork point and replays the shared suffix for every lane; the
contract is that each lane's result is bit-identical to (a) a cold
scalar run with the same injection and (b) the reference engine's
checkpointed resume.  Stride 1 snapshots at every head of main's block
functions, inside loop bodies; a stride beyond the trace length
degenerates to cold starts and must change nothing.  A lane that leaves
lockstep (anywhere, inside a callee too) re-runs as the capture's
checkpointed trial, so it may rejoin the golden run.
"""

from __future__ import annotations

import pytest

from repro.fi.campaign import FaultInjector
from repro.fi.seeds import rng_for
from repro.interp.batch import HAVE_NUMPY, BatchRunner
from repro.interp.codegen import TIER_BATCH, TIER_CODEGEN
from repro.interp.engine import ExecutionEngine, Injection, ReferenceEngine
from repro.ir import I32, Module
from repro.ir.dsl import FunctionBuilder
from tests.conftest import cached_module
from tests.interp.test_checkpoint import build_calling_module

pytestmark = pytest.mark.skipif(
    not HAVE_NUMPY, reason="batch tier requires numpy"
)


def loop_module():
    """Nested loops around a branchy accumulator, so snapshots land
    inside loop bodies and injections can fork deep into the trace."""
    module = Module("batch_ckpt")
    f = FunctionBuilder(module, "main")
    acc = f.local("acc", I32, 0)
    probe = None

    def inner(i):
        def body(j):
            nonlocal probe
            term = (i * 7 + j).value
            if probe is None:
                probe = term
            f.if_(
                f.wrap(term) > f.c(20),
                lambda: acc.set(acc.get() + f.wrap(term)),
                lambda: acc.set(acc.get() - 1),
            )
        f.for_range(0, 6, body, name="j")

    f.for_range(0, 8, inner, name="i")
    f.out(acc.get())
    f.done()
    module.finalize()
    return module, probe


def test_group_resume_from_midblock_snapshots():
    """Restore a group from a stride-1 snapshot (inside the nested
    loops) and check every lane against a cold scalar run."""
    module, probe = loop_module()
    engine = ExecutionEngine(module)
    capture = engine.capture(stride=1)
    assert len(capture.snapshots) > 4
    # Lanes fork at different occurrences of the same multiply; the
    # group must restore at the snapshot usable for the earliest one.
    trials = [
        Injection(probe.iid, occurrence, bit)
        for occurrence, bit in ((12, 3), (13, 30), (20, 0), (40, 14))
    ]
    earliest = capture.snapshot_for(trials[0])
    assert earliest is not None and earliest.dynamic_count > 0
    restores = []
    runner = engine.batch_runner()
    bresume = runner._bresume_frame

    def recording(sim, snapshot):
        restores.append(snapshot)
        return bresume(sim, snapshot)

    runner._bresume_frame = recording
    group = runner.run_group(trials, capture)
    assert restores == [earliest]
    for injection, result in zip(trials, group.results):
        cold = ExecutionEngine(module).run(injection=injection)
        assert result.outcome == cold.outcome
        assert result.outputs == cold.outputs
        assert result.dynamic_count == cold.dynamic_count
        assert result.block_counts == cold.block_counts


@pytest.mark.parametrize("stride", [1, 7, 500, 10**9])
def test_campaign_counts_invariant_to_stride(stride):
    """Batch + checkpointing at any stride (including degenerate ones)
    reproduces the reference engine's resumed campaign bit-for-bit."""
    module, _probe = loop_module()
    reference = FaultInjector(
        module, engine=ReferenceEngine(module), checkpoint=True,
        checkpoint_stride=stride,
    ).campaign(60, seed=17)
    for lanes in (1, 8):
        batch = FaultInjector(
            module, interp_tier=TIER_BATCH, checkpoint=True,
            checkpoint_stride=stride, batch_lanes=lanes,
        ).campaign(60, seed=17)
        assert batch.counts == reference.counts
        assert batch.batch_fallbacks == 0


def test_checkpointed_equals_cold_batch_campaign():
    module, _probe = loop_module()
    cold = FaultInjector(
        module, interp_tier=TIER_BATCH, checkpoint=False, batch_lanes=8
    ).campaign(60, seed=23)
    warm = FaultInjector(
        module, interp_tier=TIER_BATCH, checkpoint=True,
        checkpoint_stride=1, batch_lanes=8,
    ).campaign(60, seed=23)
    assert warm.counts == cold.counts
    # Stride-1 restores skip golden-prefix work the cold runs execute.
    assert warm.skipped_instructions > cold.skipped_instructions


def record_peels(monkeypatch) -> list:
    """``(call depth, lanes)`` of every peel of lanes that leave
    lockstep from here on."""
    peels = []
    peel_lanes = BatchRunner._peel_lanes

    def recording(self, sim, lanes):
        peels.append((sim.call_depth, list(lanes)))
        return peel_lanes(self, sim, lanes)

    monkeypatch.setattr(BatchRunner, "_peel_lanes", recording)
    return peels


@pytest.mark.parametrize("lanes", [8, 64])
def test_lanes_drain_from_inside_a_callee(monkeypatch, lanes):
    """Golden snapshots hold main alone, but a lane can leave lockstep
    inside a callee; it re-runs as an ordinary checkpointed trial, so
    its counts are its scalar run's."""
    peels = record_peels(monkeypatch)
    for module in (build_calling_module(), cached_module("hercules")):
        codegen = FaultInjector(module, interp_tier=TIER_CODEGEN).campaign(
            300, seed=5
        )
        batch = FaultInjector(
            module, interp_tier=TIER_BATCH, checkpoint=True,
            batch_lanes=lanes,
        ).campaign(300, seed=5)
        assert batch.counts == codegen.counts
        assert batch.checkpointed and batch.batch_fallbacks == 0
    assert max((depth for depth, _lanes in peels), default=0) > 1, \
        "no lane left lockstep inside a callee"


def test_drained_lanes_rejoin_the_golden_run(monkeypatch):
    """A lane that leaves lockstep re-runs as the capture's trial: every
    lane's result equals ``capture.trial``'s, a re-run lane's field for
    field with the golden prefix and suffix it took over, and some
    re-runs rejoin the golden run, so the campaign reports converged
    trials."""
    module = cached_module("sad")
    injector = FaultInjector(module, interp_tier=TIER_BATCH, batch_lanes=64)
    capture = injector.checkpoints()
    budget = injector.hang_budget
    trials = sorted(
        (injector.sample_injection(rng_for(3, run)) for run in range(128)),
        key=lambda injection: getattr(capture.snapshot_for(injection),
                                      "dynamic_count", 0),
    )
    peels = record_peels(monkeypatch)
    runner = injector.engine.batch_runner()
    rerun = rejoined = 0
    for start in range(0, len(trials), 64):
        group = trials[start:start + 64]
        peels.clear()
        results = runner.run_group(group, capture, budget=budget).results
        peeled = {lane for _depth, lanes in peels for lane in lanes}
        for lane, (injection, result) in enumerate(zip(group, results)):
            trial = capture.trial(injection, budget)
            assert result == trial
            if lane in peeled:
                assert (result.golden_prefix, result.golden_suffix) == (
                    trial.golden_prefix, trial.golden_suffix)
                rerun += 1
                rejoined += result.golden_suffix > 0
    assert rerun > 0, "no lane left lockstep"
    assert rejoined > 0, "no re-run lane rejoined the golden run"
    campaign = injector.campaign(300, seed=0)
    assert campaign.batch_drains > 0
    assert campaign.converged_trials > 0
