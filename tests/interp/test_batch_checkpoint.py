"""Batch groups restored from golden-prefix checkpoints.

A lockstep group restores *once* from the snapshot nearest the earliest
lane's fork point and replays the shared suffix for every lane; the
contract is that each lane's result is bit-identical to (a) a cold
scalar run with the same injection and (b) the reference engine's
checkpointed resume.  Stride 1 snapshots at every head of main's block
functions, inside loop bodies; a stride beyond the trace length
degenerates to cold starts and must change nothing.  A golden snapshot
holds main alone, so a frame suspended at a call step comes only from
a lane that leaves lockstep inside a callee.
"""

from __future__ import annotations

import pytest

from repro.fi.campaign import FaultInjector
from repro.interp.batch import HAVE_NUMPY, BatchRunner
from repro.interp.codegen import TIER_BATCH, TIER_CODEGEN
from repro.interp.engine import ExecutionEngine, Injection, ReferenceEngine
from repro.ir import I32, Module
from repro.ir.dsl import FunctionBuilder
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
    snapshot = capture.snapshot_for(trials[0])
    assert snapshot is not None and snapshot.frames
    occurrences = [
        capture.prefix_occurrence(snapshot, injection.iid)
        for injection in trials
    ]
    group = engine.batch_runner().run_group(
        trials, snapshot=snapshot,
        base_outputs=capture.result.outputs[: snapshot.outputs_len],
        occurrences=occurrences,
    )
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


@pytest.mark.parametrize("lanes", [8, 64])
def test_lanes_drain_from_inside_a_callee(monkeypatch, lanes):
    """Golden snapshots hold main alone, but a lane can leave lockstep
    inside a callee: it drains through a synthesized snapshot with the
    caller suspended at its call step, which the scalar engine resumes
    callee first and then finishes the caller's block on its steps."""
    module = build_calling_module()
    depths = []
    lane_snapshot = BatchRunner._lane_snapshot

    def recording(self, sim, lane, succ_cblock, from_cblock):
        snapshot = lane_snapshot(self, sim, lane, succ_cblock, from_cblock)
        depths.append(len(snapshot.frames))
        return snapshot

    monkeypatch.setattr(BatchRunner, "_lane_snapshot", recording)
    codegen = FaultInjector(module, interp_tier=TIER_CODEGEN).campaign(
        300, seed=5
    )
    batch = FaultInjector(
        module, interp_tier=TIER_BATCH, checkpoint=True, batch_lanes=lanes,
    ).campaign(300, seed=5)
    assert batch.counts == codegen.counts
    assert batch.checkpointed and batch.batch_fallbacks == 0
    assert max(depths, default=0) > 1, "no lane drained inside the callee"
