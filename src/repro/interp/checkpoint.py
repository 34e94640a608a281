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
stack, so a snapshot holds ``main``'s frame and nothing else.  That
makes the capture points cheap to test for and gives a simple occurrence
invariant: at a capture point, an instruction's completed-execution
count is its home block's count in ``block_counts``, plus one for a phi
of the pending block (see :meth:`GoldenCapture.prefix_occurrence`).

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
The state may be reached at another dynamic count than the snapshot's,
when the fault added or skipped loop iterations; the suffix is then
taken over with the count shifted by the difference.  So a trial tests
a rejoin point wherever it reaches the point's block-function head
with the point's *key* (:meth:`GoldenCapture.rejoin_test`), up to a
window past the point's count: at most three slots or memory cells,
usually loop counters, whose values tell the point apart from the
other rejoin points at that head, chosen the first time a trial
targets one of them.  The key is only a filter; the test that decides
compares the whole state.
"""

from __future__ import annotations

import marshal
import sys
from bisect import bisect_left
from itertools import chain
from operator import ne

#: Rough per-entry overhead of a Python dict/set slot plus a small boxed
#: value, used for the snapshot-footprint estimate reported by campaigns.
_ENTRY_BYTES = 60

#: Most locations a rejoin point's key compares.
KEY_LOCATIONS = 3

#: The key of a point that no location tells apart from its peers: no
#: cell lives at a negative address, so this location reads ``None``
#: in every state, and the head alone gates the test.
NO_KEY = ((True, -1, None),)

#: Capture strides past a rejoin point's dynamic count after which a
#: trial that has not rejoined there has missed it.
WINDOW_STRIDES = 2

#: The test (:meth:`GoldenCapture.rejoin_test`) of a trial that has no
#: rejoin point left to test: no head matches, no window closes.
NO_TEST = (-1, sys.maxsize, *NO_KEY[0], ())


def strict_encoding(slots, cell_values) -> bytes:
    """Slots and cell values as marshal format 2, which writes each
    value's type code and a float's 8 IEEE-754 bytes (no
    back-references, so equal values always encode alike): what the
    strict pass of a rejoin test compares."""
    return marshal.dumps((tuple(slots), tuple(cell_values)), 2)


def merge_block_counts(shared: list, delta) -> list:
    """Dense shared counters plus one lane's sparse ordinal deltas.

    The batch tier's reconvergence sides account block executions as
    sparse ``{ordinal: extra}`` deltas on top of the group's shared
    dense array — either one dict or a lane's list of frozen side
    segments, appended by reference as the lane passes through masked
    sides.  A lane that finishes mid-side (trap or hang) needs its
    *own* per-block view, which is the shared array with its deltas
    folded in.  Always returns a fresh list — a lane's result outlives
    the group state it was cut from.
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


class Snapshot:
    """Resumable image of one point of the golden execution: ``main``,
    alone on the stack, at the head of one of its block functions.

    Everything a run needs: ``main``'s frame (slots, alloca map, owned
    stack addresses) and the head block ``cblock``, whose phi moves
    have run, the memory image (cells, validity set, stack cursor,
    footprint), the output-buffer length, the per-block execution
    counts, and the dynamic-instruction index.
    """

    __slots__ = ("dynamic_count", "cblock", "slots", "allocas", "owned",
                 "cells", "valid", "stack_cursor", "footprint_bytes",
                 "outputs_len", "block_counts")

    def __init__(self, dynamic_count, cblock, slots, allocas, owned, cells,
                 valid, stack_cursor, footprint_bytes, outputs_len,
                 block_counts):
        self.dynamic_count = dynamic_count
        self.cblock = cblock
        self.slots = slots
        self.allocas = allocas
        self.owned = owned
        self.cells = cells
        self.valid = valid
        self.stack_cursor = stack_cursor
        self.footprint_bytes = footprint_bytes
        self.outputs_len = outputs_len
        self.block_counts = block_counts

    def approx_bytes(self) -> int:
        """Estimated in-memory size (containers + boxed entries)."""
        return (
            sys.getsizeof(self.cells) + sys.getsizeof(self.valid)
            + sys.getsizeof(self.block_counts) + sys.getsizeof(self.slots)
            + sys.getsizeof(self.allocas) + sys.getsizeof(self.owned)
            + _ENTRY_BYTES * (2 * len(self.cells) + len(self.valid)
                              + len(self.block_counts) + len(self.slots)
                              + 2 * len(self.allocas) + len(self.owned))
        )


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
    check compares, so a check can save more than it costs.  A trial
    tests a rejoin point only at the point's head and only when the
    point's key matches (:meth:`rejoin_test`).

    What trials look up is built on first use and kept here, so it is
    freed with the capture: prefix-occurrence columns by target
    (:meth:`occurrences`), rejoin tests, and the rejoin points' sides
    of the strict compare (:meth:`strict_side`).
    """

    __slots__ = ("engine", "result", "snapshots", "stride", "total_bytes",
                 "final_counts", "snapshot_counts", "rejoin_points",
                 "rejoin_counts", "rejoin_heads", "_tests", "_columns",
                 "_strict", "__weakref__")

    def __init__(self, engine, result, snapshots, stride, final_counts):
        self.engine = engine
        self.result = result
        self.snapshots = snapshots
        self.stride = stride
        self.total_bytes = sum(s.approx_bytes() for s in snapshots)
        #: The golden run's dense per-block counters at exit.
        self.final_counts = final_counts
        #: The snapshots' dynamic counts, ascending.
        self.snapshot_counts = [s.dynamic_count for s in snapshots]
        #: Prefix-occurrence columns by iid, and by home block and
        #: whether its instruction is a phi (see :meth:`occurrences`).
        self._columns: dict = {}
        total = result.dynamic_count
        self.rejoin_points = [
            s for s in snapshots
            if total - s.dynamic_count
            > len(s.slots) + len(s.cells) + len(s.valid)
        ]
        #: Their dynamic counts, ascending (the capture order), and the
        #: local indices of their heads in ``main``.
        self.rejoin_counts = [s.dynamic_count for s in self.rejoin_points]
        self.rejoin_heads = [s.cblock.local_index
                             for s in self.rejoin_points]
        #: Tests and strict-compare sides by rejoin point, built when a
        #: trial first needs them.
        self._tests: list[tuple | None] = [None] * len(self.rejoin_points)
        self._strict: list[bytes | None] = [None] * len(self.rejoin_points)

    # -- rejoin keys ----------------------------------------------------

    def rejoin_test(self, index: int) -> tuple:
        """What a trial targeting rejoin point ``index`` tests: ``(head,
        until, in_cells, location, value, rest)``.

        ``head`` is the local index of the point's block function in
        ``main``; past the dynamic count ``until`` (the point's plus
        :data:`WINDOW_STRIDES` strides) the trial has missed the point.
        The rest is the point's *key*: ``(in_cells, location, value)``
        triples, at most :data:`KEY_LOCATIONS`, of which ``rest`` holds
        all but the first.  Each names a frame slot (``in_cells`` False)
        or a memory cell, and the point's value there; a trial at the
        head that differs at any of them is not in the point's state.
        The first time a trial targets a point, the keys of every
        rejoin point at its head are chosen together
        (:meth:`_choose_keys`); a point alone at its head is told apart
        from its neighbours in capture order.
        """
        test = self._tests[index]
        if test is None:
            head = self.rejoin_heads[index]
            members = [i for i, h in enumerate(self.rejoin_heads)
                       if h == head]
            if len(members) == 1:
                members = list(range(max(index - 1, 0),
                                     min(index + 2, len(self.rejoin_heads))))
            window = WINDOW_STRIDES * self.stride
            for i, key in zip(members, self._choose_keys(members)):
                if self.rejoin_heads[i] == head:
                    self._tests[i] = (head, self.rejoin_counts[i] + window,
                                      *key[0], key[1:])
            test = self._tests[index]
        return test

    def _choose_keys(self, members: list) -> list:
        """Keys that tell the rejoin points ``members`` apart, by member.

        The candidate locations are main's slots, its allocas' cells and
        the globals' first cells whose values differ among the members;
        O0 code keeps loop counters in alloca cells, so slots alone do
        not separate the points.  The members are split by the location
        with the most distinct values among them, and each part again,
        at most :data:`KEY_LOCATIONS` deep; a member's key is the path
        to its part, its location whose value changes most often from
        one member to the next first.  ``_cg_run`` reads only that
        location before it calls ``_rejoin``, and a trial at the head
        matches an inner loop's counter less often than an outer one's.
        """
        points = [self.rejoin_points[i] for i in members]
        addresses = sorted(set(self.engine.layout.addresses.values()).union(
            *(point.allocas.values() for point in points)))
        locations = ([(False, slot)
                      for slot in range(len(points[0].slots))]
                     + [(True, address) for address in addresses])
        values = chain(
            zip(*(point.slots for point in points)),
            zip(*(tuple(map(point.cells.get, addresses))
                  for point in points)),
        )
        columns = [(location, column)
                   for location, column in zip(locations, values)
                   if column.count(column[0]) != len(column)]
        changes = {location: sum(map(ne, column, column[1:]))
                   for location, column in columns}
        keys: list = [NO_KEY] * len(members)
        pending = [(range(len(members)), ())]
        while pending:
            part, path = pending.pop()
            best, most = None, 1
            if len(part) > 1 and len(path) < KEY_LOCATIONS:
                for location, column in columns:
                    distinct = len(set(map(column.__getitem__, part)))
                    if distinct > most:
                        best, most = (location, column), distinct
            if best is None:
                path = sorted(path, key=lambda step: -changes[step[0]])
                for i in part:
                    keys[i] = tuple(
                        (in_cells, where, column[i])
                        for (in_cells, where), column in path
                        if column[i] == column[i]  # a NaN matches nothing
                    ) or NO_KEY
                continue
            parts: dict = {}
            for i in part:
                parts.setdefault(best[1][i], []).append(i)
            pending.extend((sub, path + (best,)) for sub in parts.values())
        return keys

    def strict_side(self, index: int) -> bytes:
        """Rejoin point ``index``'s side of the strict compare: the
        :func:`strict_encoding` of its main slots and cell values,
        which never change."""
        side = self._strict[index]
        if side is None:
            point = self.rejoin_points[index]
            side = self._strict[index] = strict_encoding(
                point.slots, point.cells.values())
        return side

    # -- occurrence accounting ----------------------------------------

    def occurrences(self, iid: int) -> list[int] | None:
        """Completed executions of instruction ``iid`` before each
        snapshot, or None for an instruction with no home here.

        The home block's entry in a snapshot's ``block_counts``
        (incremented when a block iteration *starts*), with one
        correction: ``main``'s pending iteration is not counted yet at
        the capture point, but the phi moves of the edge into it have
        run, so a phi of that block has executed once more.  Counts
        only grow over the golden run, so the column is ascending.
        """
        try:
            return self._columns[iid]
        except KeyError:
            pass
        column = None
        home = self.engine.instruction_home(iid)
        if home is not None:
            # The phis of a block share one column, and its other
            # instructions another.
            block, position = home
            shared = (block, position < 0)
            column = self._columns.get(shared)
            if column is None:
                ordinal = self.engine.block_ordinal(block)
                column = [s.block_counts[ordinal] for s in self.snapshots]
                if position < 0:
                    for index, s in enumerate(self.snapshots):
                        if s.cblock.block is block:
                            column[index] += 1
                self._columns[shared] = column
        self._columns[iid] = column
        return column

    def prefix_occurrence(self, snapshot: Snapshot, iid: int) -> int:
        """Completed executions of instruction ``iid`` before
        ``snapshot``, one of this capture's (see :meth:`occurrences`)."""
        column = self.occurrences(iid)
        if column is None:
            return 0
        return column[bisect_left(self.snapshot_counts,
                                  snapshot.dynamic_count)]

    def snapshot_for(self, injection) -> Snapshot | None:
        """Latest snapshot strictly before the injection's dynamic point.

        A snapshot is usable iff the armed occurrence has not completed
        yet (``prefix_occurrence < occurrence``).  The target's column
        (:meth:`occurrences`) is ascending, so bisecting it finds the
        rightmost usable snapshot; None means the injection fires
        before the first snapshot (the trial then runs cold from
        ``main``).
        """
        column = self.occurrences(injection.iid)
        if column is None:
            return None
        usable = bisect_left(column, injection.occurrence)
        return self.snapshots[usable - 1] if usable else None

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

    def trial(self, injection, budget: int | None = None):
        """One fault-injection trial as every checkpointed campaign runs
        it: resumed from the latest snapshot before its fault
        (:meth:`snapshot_for`), or cold from ``main`` when there is
        none, and stopped where it rejoins the golden run.  The result
        equals a cold ``engine.run(injection, budget)``; its
        ``golden_prefix`` and ``golden_suffix`` are the instructions
        taken from the golden run instead of executed."""
        snapshot = self.snapshot_for(injection)
        if snapshot is None:
            return self.engine.run(injection, budget, rejoin=self)
        return self.resume(snapshot, injection, budget)
