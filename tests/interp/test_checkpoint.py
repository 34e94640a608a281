"""Golden-prefix snapshots: capture, restore, and suffix equivalence.

The contract under test is the checkpoint-and-fork soundness invariant:
for any snapshot S and any injection at-or-after S, resuming from S
produces a RunResult bit-identical to a cold full run — outputs,
outcome, dynamic count, activation flag, and block counts.
"""

from __future__ import annotations

import random

import pytest

from repro.bench import BENCHMARK_NAMES
from repro.interp import ExecutionEngine, Injection
from repro.ir import I32, FunctionBuilder, Module
from repro.opt.pipeline import optimize
from tests.conftest import build_accumulator_module, cached_module


def assert_same_run(left, right) -> None:
    assert left.outcome == right.outcome
    assert left.outputs == right.outputs
    assert left.dynamic_count == right.dynamic_count
    assert left.activated == right.activated
    assert left.block_counts == right.block_counts


def build_calling_module(rounds: int = 6, inner: int = 8) -> Module:
    """main loops over a looping callee, so snapshots captured inside
    the callee carry a suspended mid-block caller frame."""
    module = Module("calls")
    g = FunctionBuilder(module, "scale", arg_types=[I32], arg_names=["n"],
                        return_type=I32)
    n = g.arg(0)
    acc = g.local("acc", I32, init=0)
    g.for_range(0, inner, lambda i: acc.set(acc.get() + n + i))
    g.ret(acc.get())
    g.done()

    f = FunctionBuilder(module, "main")
    total = f.local("total", I32, init=0)

    def body(i):
        scaled = f.call("scale", [i], I32)
        total.set(total.get() + scaled)

    f.for_range(0, rounds, body)
    f.out(total.get())
    f.done()
    return module.finalize()


class TestCapture:
    def test_capture_matches_golden(self):
        engine = ExecutionEngine(build_accumulator_module())
        golden = engine.golden()
        capture = engine.capture(stride=10)
        assert_same_run(capture.result, golden)
        assert capture.snapshots, "no snapshots captured"
        assert capture.total_bytes > 0

    def test_snapshots_are_strictly_ordered(self):
        engine = ExecutionEngine(cached_module("pathfinder"))
        capture = engine.capture(stride=50)
        points = [s.dynamic_count for s in capture.snapshots]
        assert points == sorted(points)
        assert len(set(points)) == len(points)

    def test_max_snapshots_caps_schedule(self):
        engine = ExecutionEngine(cached_module("pathfinder"))
        capture = engine.capture(stride=1, max_snapshots=5)
        assert len(capture.snapshots) == 5

    def test_capture_suspends_caller_frames(self):
        engine = ExecutionEngine(build_calling_module())
        capture = engine.capture(stride=3)
        deep = [s for s in capture.snapshots if len(s.frames) > 1]
        assert deep, "no snapshot landed inside the callee"
        for snapshot in deep:
            # Every outer frame records the call step it is parked at;
            # only the innermost resumes at the top of its block loop.
            assert all(f.step_index >= 0 for f in snapshot.frames[:-1])
            assert snapshot.frames[-1].step_index == -1


class TestFaultFreeResume:
    @pytest.mark.parametrize("build", [
        build_accumulator_module,
        build_calling_module,
        lambda: cached_module("pathfinder"),
        lambda: cached_module("hercules"),  # real call-heavy benchmark
    ])
    def test_every_snapshot_replays_golden(self, build):
        engine = ExecutionEngine(build())
        golden = engine.golden()
        stride = max(1, golden.dynamic_count // 24)
        capture = engine.capture(stride)
        assert capture.snapshots
        for snapshot in capture.snapshots:
            assert_same_run(capture.resume(snapshot), golden)

    def test_resume_does_not_mutate_snapshot(self):
        engine = ExecutionEngine(build_accumulator_module())
        capture = engine.capture(stride=10)
        snapshot = capture.snapshots[len(capture.snapshots) // 2]
        cells = dict(snapshot.cells)
        valid = set(snapshot.valid)
        blocks = list(snapshot.block_counts)
        capture.resume(snapshot)
        capture.resume(snapshot)
        assert snapshot.cells == cells
        assert snapshot.valid == valid
        assert snapshot.block_counts == blocks


class TestInjectedResume:
    def differential(self, module, trials: int, seed: int) -> int:
        """Cold vs resumed on random faults; returns resumed-trial count."""
        engine = ExecutionEngine(module)
        golden = engine.golden()
        capture = engine.capture(max(1, golden.dynamic_count // 32))
        counts = golden.instruction_counts()
        targets = [
            inst for inst in module.instructions()
            if inst.has_result and counts.get(inst.iid, 0) > 0
        ]
        rng = random.Random(seed)
        resumed = 0
        for _ in range(trials):
            inst = rng.choice(targets)
            injection = Injection(
                inst.iid,
                rng.randint(1, counts[inst.iid]),
                rng.randrange(inst.type.bits),
            )
            cold = engine.run(injection)
            snapshot = capture.snapshot_for(injection)
            if snapshot is None:
                continue
            resumed += 1
            assert_same_run(capture.resume(snapshot, injection), cold)
        return resumed

    def test_accumulator_differential(self):
        assert self.differential(build_accumulator_module(), 60, 11) > 0

    def test_calls_differential(self):
        assert self.differential(build_calling_module(), 60, 12) > 0

    def test_pathfinder_differential(self):
        assert self.differential(cached_module("pathfinder"), 40, 13) > 0

    def test_hostile_pointer_corruption(self):
        """A flipped address bit crashes the suffix without poisoning
        the snapshot for later trials (the COW discipline)."""
        module = cached_module("pathfinder")
        engine = ExecutionEngine(module)
        golden = engine.golden()
        capture = engine.capture(max(1, golden.dynamic_count // 32))
        counts = golden.instruction_counts()
        geps = [
            inst for inst in module.instructions()
            if inst.opcode == "gep" and counts.get(inst.iid, 0) > 0
        ]
        assert geps
        crashed = 0
        for inst in geps:
            injection = Injection(inst.iid, counts[inst.iid], 40)
            cold = engine.run(injection)
            snapshot = capture.snapshot_for(injection)
            if snapshot is None:
                continue
            assert_same_run(capture.resume(snapshot, injection), cold)
            crashed += cold.outcome == "crash"
            # The same snapshot must still replay the golden suffix.
            assert_same_run(capture.resume(snapshot), engine.run())
        assert crashed, "no pointer corruption produced a crash"


class TestOccurrenceAccounting:
    def test_prefix_occurrence_monotone(self):
        module = build_calling_module()
        engine = ExecutionEngine(module)
        golden = engine.golden()
        capture = engine.capture(stride=3)
        counts = golden.instruction_counts()
        for inst in module.instructions():
            if not inst.has_result or counts.get(inst.iid, 0) == 0:
                continue
            values = [
                capture.prefix_occurrence(s, inst.iid)
                for s in capture.snapshots
            ]
            assert values == sorted(values), inst.iid
            assert all(0 <= v <= counts[inst.iid] for v in values)

    def test_snapshot_for_respects_occurrence(self):
        engine = ExecutionEngine(cached_module("pathfinder"))
        golden = engine.golden()
        capture = engine.capture(max(1, golden.dynamic_count // 32))
        counts = golden.instruction_counts()
        rng = random.Random(99)
        module = engine.module
        checked = 0
        for inst in module.instructions():
            if not inst.has_result or counts.get(inst.iid, 0) == 0:
                continue
            occurrence = rng.randint(1, counts[inst.iid])
            injection = Injection(inst.iid, occurrence, 0)
            snapshot = capture.snapshot_for(injection)
            if snapshot is None:
                continue
            # The chosen snapshot precedes the armed occurrence...
            assert capture.prefix_occurrence(snapshot, inst.iid) < occurrence
            # ...and is the rightmost such snapshot.
            index = capture.snapshots.index(snapshot)
            if index + 1 < len(capture.snapshots):
                later = capture.snapshots[index + 1]
                assert (capture.prefix_occurrence(later, inst.iid)
                        >= occurrence)
            checked += 1
        assert checked > 0

    def test_phis_at_snapshot_points(self):
        """A snapshot sits after the phi moves of the edge into its
        innermost block, so those phis count as executed.  Inject every
        such phi at the occurrences on either side of the snapshot and
        resume: had the count come up one short, the occurrence just
        before the snapshot would fork from it and flip the next
        instance instead."""
        checked = 0
        for name in BENCHMARK_NAMES:
            module, _report = optimize(cached_module(name), 2)
            engine = ExecutionEngine(module)
            capture = engine.capture(stride=1)
            for snapshot in capture.snapshots:
                for phi in snapshot.frames[-1].cblock.block.phis():
                    done = capture.prefix_occurrence(snapshot, phi.iid)
                    for occurrence in (done, done + 1):
                        injection = Injection(phi.iid, occurrence, 0)
                        chosen = capture.snapshot_for(injection)
                        if chosen is None:
                            continue
                        assert_same_run(capture.resume(chosen, injection),
                                        engine.run(injection))
                        checked += 1
        assert checked > 0
