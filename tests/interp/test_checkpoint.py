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
from repro.fi import FaultInjector
from repro.interp import ExecutionEngine, Injection
from repro.interp.checkpoint import Snapshot
from repro.interp.engine import ReferenceEngine, _Frame, _same_state, _State
from repro.interp.memory import MemoryState
from repro.ir import F64, I32, FunctionBuilder, Module
from repro.opt.pipeline import optimize
from tests.conftest import build_accumulator_module, cached_module


def assert_same_run(left, right) -> None:
    assert left.outcome == right.outcome
    assert left.outputs == right.outputs
    assert left.dynamic_count == right.dynamic_count
    assert left.activated == right.activated
    assert left.block_counts == right.block_counts


def build_calling_module(rounds: int = 6, inner: int = 8) -> Module:
    """main loops over a looping callee, so most points of a short
    capture schedule are reached inside the callee, and a batch lane
    can leave lockstep there."""
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


def build_signed_zero_module() -> Module:
    """main stores ``cell * 1.0`` back to a cell holding 0.0, runs a
    short loop, then outputs the cell."""
    module = Module("signed_zero")
    f = FunctionBuilder(module, "main")
    cell = f.local("cell", F64, init=0.0)
    cell.set(cell.get() * 1.0)
    acc = f.local("acc", I32, init=0)
    f.for_range(0, 40, lambda i: acc.set(acc.get() + i))
    f.out(cell.get())
    f.out(acc.get())
    f.done()
    return module.finalize()


def random_injections(module, golden, count: int, seed: int):
    """``count`` random faults over the instructions ``golden`` ran."""
    counts = golden.instruction_counts()
    targets = [inst for inst in module.instructions()
               if inst.has_result and counts.get(inst.iid, 0) > 0]
    rng = random.Random(seed)
    for _ in range(count):
        inst = rng.choice(targets)
        yield Injection(inst.iid, rng.randint(1, counts[inst.iid]),
                        rng.randrange(inst.type.bits))


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

    @pytest.mark.parametrize("build, stride", [
        (build_calling_module, 3),
        (lambda: cached_module("hercules"), 26),  # the campaign stride
    ], ids=["calls", "hercules"])
    def test_snapshots_hold_main_alone(self, build, stride):
        """Snapshots are taken only while main is alone on the stack.  A
        point of the schedule reached inside a callee is deferred to
        main's next block-function head, not dropped."""
        engine = ExecutionEngine(build())
        main = engine._compiled["main"]
        capture = engine.capture(stride)
        assert capture.snapshots
        for snapshot in capture.snapshots:
            (frame,) = snapshot.frames
            assert frame.compiled is main
            assert frame.cblock in main.blocks.values()
            assert frame.step_index == -1 and frame.previous is None
        # A stride-1 capture snapshots every head of main but the first
        # (at count 0); the stride-``stride`` schedule takes the first
        # head at or past each of its points.
        heads = [s.dynamic_count
                 for s in engine.capture(1, 10**6).snapshots]
        expected, due = [], stride
        for count in heads:
            if count >= due:
                expected.append(count)
                due = count + stride
        assert [s.dynamic_count for s in capture.snapshots] == expected
        total = capture.result.dynamic_count
        assert capture.rejoin_points == [
            s for s in capture.snapshots
            if total - s.dynamic_count
            > len(s.frames[0].slots) + len(s.cells) + len(s.valid)
        ]


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
        resumed = 0
        for injection in random_injections(module, golden, trials, seed):
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


class TestRejoin:
    """A trial stops where its state equals a later main-only golden
    snapshot and takes over the golden suffix; its result must still
    be the cold run's."""

    def test_rejoined_runs_match_cold_runs(self):
        module = cached_module("pathfinder")
        engine = ExecutionEngine(module)
        golden = engine.golden()
        capture = engine.capture(max(1, golden.dynamic_count // 192))
        rejoined = 0
        for injection in random_injections(module, golden, 60, 21):
            trial = engine.run(injection, rejoin=capture)
            cold = engine.run(injection)
            assert_same_run(trial, cold)
            assert trial.footprint_bytes == cold.footprint_bytes
            rejoined += trial.golden_suffix > 0
        assert rejoined > 0

    def test_sign_flip_of_a_zero_is_an_sdc(self):
        """Flipping bit 63 of ``0.0 * 1.0`` stores -0.0, which passes
        every ``==`` against the golden 0.0 but prints ``-0``: the
        strict pass must keep the trial from rejoining."""
        module = build_signed_zero_module()
        fmul = next(inst for inst in module.instructions()
                    if getattr(inst, "op", None) == "fmul")
        injection = Injection(fmul.iid, 1, 63)
        engine = ExecutionEngine(module)
        capture = engine.capture(stride=1)
        assert capture.rejoin_points
        cold = engine.run(injection)
        assert cold.outputs[0] == "-0"
        trial = engine.run(injection, rejoin=capture)
        assert_same_run(trial, cold)
        assert trial.golden_suffix == 0
        assert FaultInjector(module).run_one(injection) == "sdc"

    def test_no_rejoin_past_the_budget(self):
        """Taking over the golden suffix needs the golden run to fit
        the trial's budget; otherwise the trial runs into its hang."""
        module = cached_module("pathfinder")
        engine = ExecutionEngine(module)
        golden = engine.golden()
        capture = engine.capture(max(1, golden.dynamic_count // 192))
        budget = golden.dynamic_count - 1
        for injection in random_injections(module, golden, 20, 5):
            trial = engine.run(injection, budget, rejoin=capture)
            assert_same_run(trial, engine.run(injection, budget))
            assert trial.golden_suffix == 0

    def test_reference_engine_never_rejoins(self):
        module = cached_module("pathfinder")
        engine = ReferenceEngine(module)
        golden = engine.golden()
        capture = engine.capture(max(1, golden.dynamic_count // 192))
        for injection in random_injections(module, golden, 20, 8):
            trial = engine.run(injection, rejoin=capture)
            assert_same_run(trial, engine.run(injection))
            assert trial.golden_suffix == 0


class TestStrictCompare:
    """``_same_state`` on a main-only golden snapshot with one memory
    cell replaced, against a trial whose state is a copy of it except
    for that cell."""

    @staticmethod
    def compare(golden_value, trial_value) -> bool:
        engine = ExecutionEngine(build_accumulator_module())
        base = engine.capture(stride=1).rejoin_points[0]
        address = min(base.valid)
        golden = Snapshot(
            base.dynamic_count, base.frames,
            {**base.cells, address: golden_value}, base.valid,
            base.stack_cursor, base.footprint_bytes, base.outputs_len,
            base.block_counts,
        )
        main = golden.frames[0]
        state = _State(MemoryState.restored(
            {**base.cells, address: trial_value}, set(base.valid),
            base.stack_cursor, base.footprint_bytes,
        ), budget=10**6)
        frame = _Frame(main.compiled.n_slots)
        frame.slots[:] = main.slots
        frame.allocas.update(main.allocas)
        return _same_state(state, frame, main.cblock.local_index, golden)

    def test_equal_values_match(self):
        assert self.compare(1.0, 1.0)
        assert self.compare(7, 7)
        nan = float("nan")
        assert self.compare(nan, nan)  # the same object

    def test_int_one_is_not_float_one(self):
        assert not self.compare(1.0, 1)
        assert not self.compare(1, 1.0)

    def test_negative_zero_is_not_zero(self):
        assert not self.compare(0.0, -0.0)

    def test_distinct_nans_differ(self):
        assert not self.compare(float("nan"), float("nan"))
