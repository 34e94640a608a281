"""Bounded priority work queue with backpressure.

The service scheduler feeds campaign jobs through this queue.  Two
priority classes cover the ROADMAP's traffic split: ``interactive``
requests (a user waiting on a submit) overtake ``nightly`` batch work,
and within a class jobs stay FIFO.  The queue is *bounded*: a push to a
full queue raises :class:`QueueFull` immediately instead of buffering
without limit, which the HTTP layer translates into a 429 — load is
shed at admission, never by dropping accepted work.
"""

from __future__ import annotations

import heapq
import itertools
import threading

#: Priority classes, lower sorts first.
INTERACTIVE = 0
NIGHTLY = 10

PRIORITY_NAMES = {"interactive": INTERACTIVE, "nightly": NIGHTLY}


def resolve_priority(name) -> int:
    """Map a wire-level priority (name or int) to its numeric class."""
    if isinstance(name, bool):
        raise ValueError("priority must be a name or an integer")
    if isinstance(name, int):
        return name
    try:
        return PRIORITY_NAMES[str(name).strip().lower()]
    except KeyError:
        raise ValueError(
            f"unknown priority {name!r}; expected one of "
            f"{', '.join(PRIORITY_NAMES)}"
        ) from None


class QueueFull(RuntimeError):
    """The queue is at capacity; the request must be rejected (429)."""


class JobQueue:
    """Thread-safe bounded priority queue (heap of (priority, seq, item))."""

    def __init__(self, max_pending: int = 64):
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        self.max_pending = max_pending
        self._heap: list[tuple[int, int, object]] = []
        self._seq = itertools.count()
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._closed = False

    def __len__(self) -> int:
        with self._lock:
            return len(self._heap)

    def push(self, item, priority: int = INTERACTIVE) -> None:
        """Enqueue; raises :class:`QueueFull` at capacity."""
        with self._not_empty:
            if self._closed:
                raise RuntimeError("queue is closed")
            if len(self._heap) >= self.max_pending:
                raise QueueFull(
                    f"work queue is full ({self.max_pending} pending)"
                )
            heapq.heappush(self._heap, (priority, next(self._seq), item))
            self._not_empty.notify()

    def pop(self, timeout: float | None = None):
        """Highest-priority item, or None on timeout / after close."""
        with self._not_empty:
            while not self._heap:
                if self._closed:
                    return None
                if not self._not_empty.wait(timeout):
                    return None
            return heapq.heappop(self._heap)[2]

    def drain(self) -> list:
        """Remove and return every queued item."""
        with self._lock:
            items = [item for _priority, _seq, item in self._heap]
            self._heap.clear()
        return items

    def close(self) -> None:
        """Wake every blocked ``pop`` with None; further pushes fail."""
        with self._not_empty:
            self._closed = True
            self._not_empty.notify_all()
