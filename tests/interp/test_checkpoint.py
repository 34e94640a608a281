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
from repro.interp import HANG, ExecutionEngine, Injection
from repro.interp.checkpoint import KEY_LOCATIONS, Snapshot, strict_encoding
from repro.interp.engine import (
    ReferenceEngine,
    _Frame,
    _same_state,
    _schedule_rejoin,
    _State,
)
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
        heads = list(main.blocks.values())
        for snapshot in capture.snapshots:
            assert snapshot.cblock in heads
            assert len(snapshot.slots) == main.n_slots
        # A stride-1 capture snapshots every head of main but the first
        # (at count 0); the stride-``stride`` schedule takes the first
        # head at or past each of its points.
        points = [s.dynamic_count
                  for s in engine.capture(1, 10**6).snapshots]
        expected, due = [], stride
        for count in points:
            if count >= due:
                expected.append(count)
                due = count + stride
        assert [s.dynamic_count for s in capture.snapshots] == expected
        total = capture.result.dynamic_count
        assert capture.rejoin_points == [
            s for s in capture.snapshots
            if total - s.dynamic_count
            > len(s.slots) + len(s.cells) + len(s.valid)
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

    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_snapshot_for_equals_binary_search(self, name):
        """Bisecting a target's occurrence column picks the snapshot
        that a binary search over the snapshots, computing each one's
        prefix occurrence from its block counts, picks: for every
        target, at each occurrence where the choice changes."""
        injector = FaultInjector(cached_module(name))
        capture = injector.checkpoints()
        engine, snapshots = capture.engine, capture.snapshots

        def prefix(snapshot, iid):
            block, position = engine.instruction_home(iid)
            count = snapshot.block_counts[engine.block_ordinal(block)]
            if position < 0 and snapshot.cblock.block is block:
                count += 1
            return count

        def binary_search(column, occurrence):
            lo, hi = 0, len(column)
            while lo < hi:
                mid = (lo + hi) // 2
                if column[mid] < occurrence:
                    lo = mid + 1
                else:
                    hi = mid
            return snapshots[lo - 1] if lo else None

        checked = 0
        for iid, total in zip(injector.target_iids, injector.target_counts):
            column = [prefix(snapshot, iid) for snapshot in snapshots]
            assert capture.occurrences(iid) == column
            for occurrence in {1, total, *column,
                               *(done + 1 for done in column)}:
                injection = Injection(iid, occurrence, 0)
                assert capture.snapshot_for(injection) is binary_search(
                    column, occurrence), (iid, occurrence)
                checked += 1
        assert checked > len(injector.target_iids)

    def test_phis_at_snapshot_points(self):
        """A snapshot sits after the phi moves of the edge into its
        head block, so those phis count as executed.  Inject every
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
                for phi in snapshot.cblock.block.phis():
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
        """A trial that reaches a rejoin point at the point's own count
        takes over the golden suffix only if the golden run fits the
        trial's budget; otherwise the trial runs into its hang."""
        module = cached_module("pathfinder")
        engine = ExecutionEngine(module)
        golden = engine.golden()
        capture = engine.capture(max(1, golden.dynamic_count // 192))
        budget = golden.dynamic_count - 1
        for injection in random_injections(module, golden, 20, 5):
            trial = engine.run(injection, budget, rejoin=capture)
            assert_same_run(trial, engine.run(injection, budget))
            assert trial.golden_suffix == 0

    @pytest.mark.parametrize(
        "name", ["sad", "bfs_parboil", "bfs_rodinia", "hercules"])
    def test_shifted_rejoins_match_cold_runs(self, name):
        """A fault that adds or skips loop iterations can bring a trial
        to a rejoin point's state at another dynamic count; it takes
        over the golden suffix with its count shifted.  Every trial must
        still equal its cold run (``==`` covers outputs, outcome,
        count, block counts and footprint), and some must rejoin at a
        shifted count.  hercules is the one benchmark with a callee."""
        module = cached_module(name)
        engine = ExecutionEngine(module)
        golden = engine.golden()
        capture = engine.capture(max(1, golden.dynamic_count // 192))
        budget = 10 * golden.dynamic_count
        shifted = 0
        for injection in random_injections(module, golden, 300, 21):
            trial = capture.trial(injection, budget)
            assert trial == engine.run(injection, budget)
            shifted += (trial.golden_suffix > 0
                        and trial.dynamic_count != golden.dynamic_count)
        assert shifted > 0

    def test_shifted_rejoin_needs_the_shifted_total_in_budget(self):
        """A trial that rejoins behind the golden run (its cold run
        executes D instructions, more than the golden run's) takes over
        the suffix with budget D; with D - 1 its cold run hangs inside
        the suffix, and so must the trial, without rejoining."""
        module = cached_module("sad")
        engine = ExecutionEngine(module)
        golden = engine.golden()
        capture = engine.capture(max(1, golden.dynamic_count // 192))
        for injection in random_injections(module, golden, 300, 21):
            trial = capture.trial(injection, 10 * golden.dynamic_count)
            if trial.golden_suffix and (trial.dynamic_count
                                        > golden.dynamic_count):
                break
        else:
            pytest.fail("no trial rejoined behind the golden run")
        total = trial.dynamic_count
        fits = capture.trial(injection, total)
        assert fits == engine.run(injection, total)
        assert fits.golden_suffix > 0
        cold = engine.run(injection, total - 1)
        assert cold.outcome == HANG
        short = capture.trial(injection, total - 1)
        assert short == cold
        assert short.golden_suffix == 0

    def test_reference_engine_never_rejoins(self):
        module = cached_module("pathfinder")
        engine = ReferenceEngine(module)
        golden = engine.golden()
        capture = engine.capture(max(1, golden.dynamic_count // 192))
        for injection in random_injections(module, golden, 20, 8):
            trial = engine.run(injection, rejoin=capture)
            assert_same_run(trial, engine.run(injection))
            assert trial.golden_suffix == 0


class TestRejoinKeys:
    """The key of a rejoin point only filters where a trial tests it;
    the whole state decides."""

    @staticmethod
    def capture():
        engine = ExecutionEngine(cached_module("sad"))
        golden = engine.golden()
        return engine.capture(max(1, golden.dynamic_count // 192))

    def test_every_point_matches_its_own_key(self):
        capture = self.capture()
        for index, point in enumerate(capture.rejoin_points):
            head, until, *first, rest = capture.rejoin_test(index)
            assert head == point.cblock.local_index
            assert until > point.dynamic_count
            assert 1 <= 1 + len(rest) <= KEY_LOCATIONS
            for in_cells, where, value in (tuple(first), *rest):
                held = point.cells.get(where) if in_cells else point.slots[
                    where]
                assert held == value

    def rejoin(self, corrupt: bool, shift: int = -7):
        """A trial state copied from a rejoin point's, ``shift``
        instructions off its count, at its head, with the point as the
        target; with ``corrupt``, one int cell outside the key differs.
        Returns whether it rejoined, the state and the capture."""
        capture = self.capture()
        index = len(capture.rejoin_points) // 2
        point = capture.rejoin_points[index]
        head, _until, *first, rest = capture.rejoin_test(index)
        keyed = {where for in_cells, where, _ in (tuple(first), *rest)
                 if in_cells}
        cells = dict(point.cells)
        if corrupt:
            address = min(a for a, value in cells.items()
                          if a not in keyed and type(value) is int)
            cells[address] ^= 1
        state = _State(MemoryState.restored(
            cells, set(point.valid), point.stack_cursor,
            point.footprint_bytes,
        ), budget=10 * capture.result.dynamic_count)
        state.dynamic_count = point.dynamic_count + shift
        state.block_counts = list(point.block_counts)
        state.rejoin = capture
        _schedule_rejoin(state, index)
        frame = _Frame(len(point.slots))
        frame.slots[:] = point.slots
        frame.allocas.update(point.allocas)
        rejoined = capture.engine._rejoin(state, frame, head)
        return rejoined, state, capture

    def test_equal_state_rejoins_at_a_shifted_count(self):
        rejoined, state, capture = self.rejoin(corrupt=False)
        point = capture.rejoin_points[len(capture.rejoin_points) // 2]
        golden = capture.result
        assert rejoined
        assert state.golden_suffix == (golden.dynamic_count
                                       - point.dynamic_count)
        assert state.dynamic_count == golden.dynamic_count - 7
        assert state.outputs == golden.outputs[point.outputs_len:]

    def test_corrupted_cell_outside_the_key_does_not_rejoin(self):
        rejoined, state, _capture = self.rejoin(corrupt=True)
        assert not rejoined
        assert state.golden_suffix == 0
        assert state.misses == 1


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
            base.dynamic_count, base.cblock, base.slots, base.allocas,
            base.owned, {**base.cells, address: golden_value}, base.valid,
            base.stack_cursor, base.footprint_bytes, base.outputs_len,
            base.block_counts,
        )
        state = _State(MemoryState.restored(
            {**base.cells, address: trial_value}, set(base.valid),
            base.stack_cursor, base.footprint_bytes,
        ), budget=10**6)
        frame = _Frame(len(golden.slots))
        frame.slots[:] = golden.slots
        frame.allocas.update(golden.allocas)
        return _same_state(state, frame, golden.cblock.local_index, golden,
                           strict_encoding(golden.slots,
                                           golden.cells.values()))

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
