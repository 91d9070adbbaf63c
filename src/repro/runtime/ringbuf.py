"""Per-thread event ring buffers: the deferred pipeline's capture side.

The paper's hot path is synchronous: "an event cannot complete until its
instrumentation hook has finished running", so instrumented-thread latency
is bounded by automaton work plus a global-lock round-trip.  The deferred
pipeline (DESIGN §5.4) splits *capture* from *evaluation* the way
stream-runtime checkers do: an application thread appending an event pays
one sequence-number stamp and one slot write into a thread-local,
preallocated :class:`EventRing` — no locks, no event-key planning, no
automaton work — and a drain pass (:mod:`repro.runtime.drain`) later
merges every thread's ring by global sequence number and replays the
merged stream through the ordinary batched dispatch.

Verdict equivalence rests on two properties this module owns:

* **per-thread FIFO** — a ring is single-producer (its owning thread) and
  its consumer always takes slots in append order, so the merged stream
  preserves each thread's program order exactly;
* **no loss, no duplication** — a full ring never drops: the producer
  either inline-flushes (``overflow_policy="flush"``) or blocks for the
  drainer (``overflow_policy="block"``), and every slot is consumed
  exactly once.

Under CPython's GIL the single-producer/single-consumer discipline needs
no locks: the producer writes the slot before publishing it by advancing
``head``, and the consumer only ever advances ``tail`` — each index has
exactly one writer.  Sequence numbers come from a shared
:class:`itertools.count`, whose ``next()`` is a single atomic C call.
"""

from __future__ import annotations

import itertools
import threading
from typing import Callable, List, Optional, Tuple

from ..core.events import RuntimeEvent

__all__ = ["DEFAULT_RING_CAPACITY", "EventRing", "SeqnoSource"]

#: Default slots per thread ring — deep enough that bursty capture between
#: two synchronization points rarely backpressures, small enough that a
#: thousand threads stay in tens of megabytes.
DEFAULT_RING_CAPACITY = 4096

#: One (seqno, event) cell as stored in a ring slot.
Slot = Tuple[int, RuntimeEvent]


class SeqnoSource:
    """A shared, monotonically increasing event sequence stamp.

    One instance per :class:`~repro.runtime.drain.DrainController`:
    every ring owned by the controller stamps from the same counter, so
    sorting a merged drain batch by seqno recovers an interleaving that is
    consistent with every thread's program order.  ``itertools.count`` is
    advanced by a single C-level call, which CPython will not preempt —
    two threads can never draw the same stamp.
    """

    __slots__ = ("_counter",)

    def __init__(self) -> None:
        self._counter = itertools.count()

    def next(self) -> int:
        return next(self._counter)


class EventRing:
    """One thread's preallocated capture buffer.

    Single producer (the owning application thread), single consumer (the
    drain pass, serialised by the controller's drain lock).  ``head`` is
    the producer's publish cursor, ``tail`` the consumer's; both increase
    without bound and index the slot list modulo ``capacity``, so
    ``head - tail`` is always the exact queue depth and wraparound needs
    no flag bits.
    """

    __slots__ = (
        "capacity",
        "thread_name",
        "_slots",
        "head",
        "tail",
        "appended",
        "overflows",
        "max_depth",
    )

    def __init__(self, capacity: int = DEFAULT_RING_CAPACITY,
                 thread_name: str = "") -> None:
        if capacity < 1:
            raise ValueError(f"ring capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.thread_name = thread_name
        #: Preallocated once; append never allocates ring storage.
        self._slots: List[Optional[Slot]] = [None] * capacity
        self.head = 0
        self.tail = 0
        #: Lifetime appends (monotonic; feeds the no-loss accounting).
        self.appended = 0
        #: Times the producer found the ring full and had to backpressure.
        self.overflows = 0
        #: High-water queue depth observed at append time.
        self.max_depth = 0

    def __len__(self) -> int:
        return self.head - self.tail

    @property
    def full(self) -> bool:
        return self.head - self.tail >= self.capacity

    def append(self, seqno: int, event: RuntimeEvent) -> None:
        """Producer side: stamp + slot write.  Caller checks ``full``.

        The slot is written *before* ``head`` advances, so the consumer
        can never observe a published index with a stale cell.
        """
        head = self.head
        self._slots[head % self.capacity] = (seqno, event)
        self.head = head + 1
        self.appended += 1
        depth = self.head - self.tail
        if depth > self.max_depth:
            self.max_depth = depth

    def drain_into(self, out: List[Slot]) -> int:
        """Consumer side: move every published slot into ``out``, in
        append order.  Returns the number of slots consumed.

        ``head`` is read once up front: slots published after the read
        belong to the next drain pass, which keeps one pass a bounded
        amount of work even while the producer keeps appending.
        """
        head = self.head
        tail = self.tail
        taken = 0
        slots = self._slots
        capacity = self.capacity
        while tail < head:
            cell = slots[tail % capacity]
            slots[tail % capacity] = None  # drop the event reference
            out.append(cell)
            tail += 1
            taken += 1
        self.tail = tail
        return taken

    def discard(self) -> int:
        """Throw away every pending slot (runtime reset / teardown after a
        failure).  Returns how many were discarded."""
        head = self.head
        tail = self.tail
        dropped = head - tail
        slots = self._slots
        capacity = self.capacity
        while tail < head:
            slots[tail % capacity] = None
            tail += 1
        self.tail = tail
        return dropped

    def stats(self) -> dict:
        return {
            "thread": self.thread_name,
            "capacity": self.capacity,
            "depth": len(self),
            "appended": self.appended,
            "overflows": self.overflows,
            "max_depth": self.max_depth,
        }
