"""Golden-prefix snapshots for checkpoint-and-fork fault injection.

A fault-injection trial is bit-identical to the golden run up to the
injected dynamic instruction (the fault model arms exactly one dynamic
instance, Sec. II-A).  One *instrumented* golden execution therefore
captures resumable :class:`Snapshot`\\ s at a schedule of
dynamic-instruction indices, and every trial restores the nearest
snapshot at-or-before its injection point and executes only the
remaining suffix — the FastFlip insight applied at execution level.

Snapshots are taken at the heads of ``main``'s block functions (after
the phi moves of the edge into one) while ``main`` is alone on the
stack, so a snapshot holds one frame.  That makes the capture points
cheap to test for and gives a simple occurrence invariant: at a
capture point, an instruction's completed-execution count is its home
block's count in ``block_counts``, plus one for a phi of the pending
block (see :meth:`GoldenCapture.prefix_occurrence`).

A snapshot is immutable once captured and shared read-only by every
trial that forks from it; :meth:`GoldenCapture.resume` materializes
private copies of the memory image and frame slots before executing,
so no trial can corrupt the prefix for its siblings (the copy-on-write
discipline that makes suffix-only execution sound).  Engine state holds
no wall-clock or RNG, so a restored suffix replays exactly what a cold
run would have executed.

The same determinism lets a trial end early: once its fault has fired,
a trial whose whole state equals a later snapshot has rejoined the
golden run, and the rest of it is the golden suffix
(:attr:`GoldenCapture.rejoin_points`, ``ExecutionEngine._rejoin``).
"""

from __future__ import annotations

import sys

#: Rough per-entry overhead of a Python dict/set slot plus a small boxed
#: value, used for the snapshot-footprint estimate reported by campaigns.
_ENTRY_BYTES = 60


def merge_block_counts(shared: list, delta) -> list:
    """Dense shared counters plus one lane's sparse ordinal deltas.

    The batch tier's reconvergence sides account block executions as
    sparse ``{ordinal: extra}`` deltas on top of the group's shared
    dense array — either one dict or a lane's list of frozen side
    segments, appended by reference as the lane passes through masked
    sides.  A lane that leaves the group mid-side (trap, hang, or drain
    through a synthesized :class:`Snapshot`) needs its *own* per-block
    view, which is the shared array with its deltas folded in.  Always
    returns a fresh list — snapshots outlive the group state they were
    cut from.
    """
    counts = list(shared)
    if delta:
        if type(delta) is list:
            for segment in delta:
                for ordinal, extra in segment.items():
                    counts[ordinal] += extra
        else:
            for ordinal, extra in delta.items():
                counts[ordinal] += extra
    return counts


class FrameSnap:
    """One suspended activation record inside a snapshot.

    ``step_index`` is -1 for the innermost frame, which resumes at the
    top of ``cblock``; ``previous`` is the block it enters from, whose
    phi moves are still pending, or None when none are.  A golden
    snapshot holds one such frame, ``main``'s, with no moves pending.
    Only a batch lane that leaves lockstep inside a callee has outer
    frames; each is suspended at the call instruction at position
    ``step_index`` of its block's step list.
    """

    __slots__ = ("compiled", "slots", "allocas", "owned", "cblock",
                 "previous", "step_index")

    def __init__(self, compiled, slots, allocas, owned, cblock, previous,
                 step_index):
        self.compiled = compiled
        self.slots = slots
        self.allocas = allocas
        self.owned = owned
        self.cblock = cblock
        self.previous = previous
        self.step_index = step_index


class Snapshot:
    """Resumable image of one point of the golden execution.

    Everything a run needs: the frames (slots, alloca maps, owned
    stack addresses, resume positions), the memory image (cells,
    validity set, stack cursor, footprint), the output-buffer length,
    the per-block execution counts, and the dynamic-instruction index.
    """

    __slots__ = ("dynamic_count", "frames", "cells", "valid",
                 "stack_cursor", "footprint_bytes", "outputs_len",
                 "block_counts")

    def __init__(self, dynamic_count, frames, cells, valid, stack_cursor,
                 footprint_bytes, outputs_len, block_counts):
        self.dynamic_count = dynamic_count
        self.frames = frames
        self.cells = cells
        self.valid = valid
        self.stack_cursor = stack_cursor
        self.footprint_bytes = footprint_bytes
        self.outputs_len = outputs_len
        self.block_counts = block_counts

    def approx_bytes(self) -> int:
        """Estimated in-memory size (containers + boxed entries)."""
        total = (
            sys.getsizeof(self.cells) + sys.getsizeof(self.valid)
            + sys.getsizeof(self.block_counts)
            + _ENTRY_BYTES * (2 * len(self.cells) + len(self.valid)
                              + len(self.block_counts))
        )
        for frame in self.frames:
            total += (
                sys.getsizeof(frame.slots) + sys.getsizeof(frame.allocas)
                + sys.getsizeof(frame.owned)
                + _ENTRY_BYTES * (len(frame.slots) + 2 * len(frame.allocas)
                                  + len(frame.owned))
            )
        return total


class GoldenCapture:
    """The product of one instrumented golden run: result + snapshots.

    Tied to the :class:`~repro.interp.engine.ExecutionEngine` that
    captured it (snapshots reference its compiled blocks), so a capture
    is a per-process, per-engine object — campaign workers each build
    their own from their own golden pass and then share it read-only
    across every trial they execute.

    The capture also serves the other end of a trial: a trial whose
    state equals a later snapshot's *rejoins* the golden run there and
    takes over its suffix (``ExecutionEngine._rejoin``).  Rejoin points
    are the snapshots whose golden suffix is longer than the state a
    check compares, so a check can save more than it costs.
    """

    __slots__ = ("engine", "result", "snapshots", "stride", "total_bytes",
                 "final_counts", "rejoin_points", "rejoin_counts")

    def __init__(self, engine, result, snapshots, stride, final_counts):
        self.engine = engine
        self.result = result
        self.snapshots = snapshots
        self.stride = stride
        self.total_bytes = sum(s.approx_bytes() for s in snapshots)
        #: The golden run's dense per-block counters at exit.
        self.final_counts = final_counts
        total = result.dynamic_count
        self.rejoin_points = [
            s for s in snapshots
            if total - s.dynamic_count
            > len(s.frames[0].slots) + len(s.cells) + len(s.valid)
        ]
        #: Their dynamic counts, ascending (the capture order).
        self.rejoin_counts = [s.dynamic_count for s in self.rejoin_points]

    # -- occurrence accounting ----------------------------------------

    def prefix_occurrence(self, snapshot: Snapshot, iid: int) -> int:
        """Completed executions of instruction ``iid`` before ``snapshot``.

        The home block's entry in the snapshot's ``block_counts``
        (incremented when a block iteration *starts*), with one
        correction: ``main``'s pending iteration is not counted yet at
        the capture point, but the phi moves of the edge into it have
        run, so a phi of that block has executed once more.
        """
        home = self.engine.instruction_home(iid)
        if home is None:
            return 0
        block, position = home
        count = snapshot.block_counts[self.engine.block_ordinal(block)]
        if position < 0 and snapshot.frames[0].cblock.block is block:
            count += 1
        return count

    def snapshot_for(self, injection) -> Snapshot | None:
        """Latest snapshot strictly before the injection's dynamic point.

        A snapshot is usable iff the armed occurrence has not completed
        yet (``prefix_occurrence < occurrence``).  Completed-execution
        counts are monotone over the golden run, so a binary search over
        the capture schedule finds the rightmost usable snapshot; None
        means the injection fires before the first snapshot (the trial
        then runs cold from ``main``).
        """
        if self.engine.instruction_home(injection.iid) is None:
            return None
        snapshots = self.snapshots
        lo, hi = 0, len(snapshots)
        while lo < hi:
            mid = (lo + hi) // 2
            if (self.prefix_occurrence(snapshots[mid], injection.iid)
                    < injection.occurrence):
                lo = mid + 1
            else:
                hi = mid
        return snapshots[lo - 1] if lo else None

    # -- forking -------------------------------------------------------

    def resume(self, snapshot: Snapshot, injection=None,
               budget: int | None = None):
        """Execute the suffix from ``snapshot`` (optionally with a fault).

        Returns a :class:`~repro.interp.result.RunResult` identical to a
        cold ``engine.run(injection)`` whenever the injection point lies
        at-or-after the snapshot — the contract the differential tests
        in ``tests/fi/test_checkpoint.py`` lock in.
        """
        return self.engine.resume_run(self, snapshot, injection, budget)
