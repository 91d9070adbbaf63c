"""The drain side of the deferred event pipeline (DESIGN §5.4).

:class:`DrainController` owns one :class:`~repro.runtime.ringbuf.EventRing`
per application thread plus the machinery that turns captured events back
into verdicts: a *drain pass* collects every ring's published slots,
sorts the combined batch by global sequence number (recovering an
interleaving consistent with each thread's program order) and feeds it to
:meth:`~repro.runtime.manager.TeslaRuntime.dispatch_batch` — the same
batched ingestion the synchronous runtime offers, so the global lock,
generated steps, supervision and quarantine all compose unchanged.

Two drain modes:

* **background** (``deferred=True``): a daemon drainer thread
  (``tesla-drainer``) wakes on a short interval — or immediately when a
  producer's ring crosses half full — and drains continuously, keeping
  queue depths shallow while application threads never pay dispatch.
* **deterministic** (``deferred="manual"``): no thread; events drain at
  explicit :meth:`drain`/:meth:`flush` calls, at synchronization points,
  and whenever a producer's ring holds :data:`_MANUAL_BATCH` slots (one
  pass, run by that producer), so tests replay byte-identical schedules
  and the rings stay shallow.

**Synchronization points.**  Evaluation may lag capture only where the
paper's semantics cannot observe the lag.  Only verdicts the *drain*
produces can lag: those of GLOBAL-context classes, plus the expiry of a
``deadline`` that no successor event discharges, which only the flush's
timer check notices.  So the synchronization points are the keys that can
produce such a verdict — assertion sites, ``NOW``-bound entry/exit and
events referenced by ``strict`` automata, of every GLOBAL class and of
every thread-local class carrying a ``deadline``.  Other thread-local
(``tesla_perthread``/``tesla_within``) classes are evaluated inline at
capture on their own thread, so their keys ride the ring only for the
journal and never force a flush.  Introspection reads
(``health_report``/``coverage_report``/…) and runtime teardown must also
see a fully evaluated store.  Each of these forces :meth:`flush`: a
rendezvous that drains *every* thread's ring (not just the caller's) to
empty before proceeding.  A :class:`~repro.errors.TemporalAssertionError`
raised while draining on the application thread therefore surfaces
exactly where the synchronous runtime would have raised it; one raised on
the background drainer is parked and re-raised at the next
synchronization point.  A thread-local violation raised inline also
flushes before it propagates, so the journal holds the violating event
and everything captured before it.

**Backpressure.**  A full ring never drops.  ``overflow_policy="flush"``
(default) turns the producer into the drainer for one pass — an inline
flush, paying the synchronous cost it had been deferring;
``overflow_policy="block"`` parks the producer until the background
drainer makes room (requiring ``deferred=True``).

**Fault containment.**  The drain boundary carries its own fault points
(``drain.enqueue``, ``drain.merge``, ``drain.flush``) and routes faults
through the runtime's :class:`~repro.runtime.supervisor.Supervisor` like
every other boundary: contained faults may lose the in-flight batch
(recorded in ``events_lost_to_faults``) but never reach application
frames and never wedge the pipeline; ``TemporalAssertionError`` is never
contained.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, List, Optional

from ..errors import TemporalAssertionError
from . import faultinject as _fi
from .faultinject import fault_site
from .ringbuf import DEFAULT_RING_CAPACITY, EventRing, SeqnoSource, Slot

__all__ = ["DRAINER_THREAD_NAME", "DrainController", "OVERFLOW_POLICIES"]

_FP_ENQUEUE = fault_site("drain.enqueue")
_FP_MERGE = fault_site("drain.merge")
_FP_FLUSH = fault_site("drain.flush")
_FP_TIMER = fault_site("drain.timer")

#: Name every background drainer thread carries, so test hygiene can spot
#: a leaked one by inspecting ``threading.enumerate()``.
DRAINER_THREAD_NAME = "tesla-drainer"

OVERFLOW_POLICIES = ("flush", "block")

#: Ring depth at which a ``deferred="manual"`` producer runs one drain
#: pass itself — the deterministic counterpart of the background
#: drainer's half-full wake-up.  Small against the ring's capacity so a
#: run between synchronization points keeps few events (and their memory)
#: pending, large enough that a pass amortises its fixed cost.
_MANUAL_BATCH = 256


def _slot_seqno(slot: Slot) -> int:
    return slot[0]


class DrainController:
    """Per-runtime ring registry, drain passes and synchronization flushes."""

    def __init__(
        self,
        runtime,
        ring_capacity: int = DEFAULT_RING_CAPACITY,
        overflow_policy: str = "flush",
        background: bool = True,
        drain_interval: float = 0.002,
        journal=None,
    ) -> None:
        if overflow_policy not in OVERFLOW_POLICIES:
            raise ValueError(
                f"overflow_policy must be one of {OVERFLOW_POLICIES}, "
                f"got {overflow_policy!r}"
            )
        if overflow_policy == "block" and not background:
            raise ValueError(
                "overflow_policy='block' needs the background drainer "
                "(deferred=True); deterministic mode would deadlock on a "
                "full ring — use overflow_policy='flush'"
            )
        self.runtime = runtime
        self.ring_capacity = ring_capacity
        self.overflow_policy = overflow_policy
        self.background = background
        self.drain_interval = drain_interval
        self._seqnos = SeqnoSource()
        self._local = threading.local()
        self._rings: List[EventRing] = []
        self._rings_lock = threading.Lock()
        #: Serialises drain passes: one merge-and-dispatch at a time, so
        #: the dispatched stream is a clean seqno-sorted concatenation.
        self._drain_lock = threading.RLock()
        #: Producers parked under ``overflow_policy="block"``.
        self._space = threading.Condition(threading.Lock())
        self._wake = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._thread_lock = threading.Lock()
        self._stop = False
        #: Errors raised on the drainer thread (fail-stop violations,
        #: uncontained monitor faults), parked for the next sync point.
        self._pending_errors: List[BaseException] = []
        #: Optional recorder: every drained (seqno, event) in dispatch
        #: order — the differential replay oracle's merged sequence.
        self.dispatch_log: Optional[List[Slot]] = None
        #: Optional durable sink (DESIGN §5.6): every drained slot is
        #: appended to the journal *before* the batch is evaluated, so the
        #: log always covers the event that produced a verdict.
        self.journal = journal
        self.journal_errors = 0
        # -- accounting (surfaced via repro.introspect.dispatch_stats) --
        self.events_enqueued = 0
        self.events_drained = 0
        self.events_discarded = 0
        self.events_lost_to_faults = 0
        self.drains = 0
        self.flushes = 0
        self.sync_flushes = 0
        self.inline_flushes = 0
        self.backpressure_waits = 0
        self.max_batch = 0
        self.flush_seconds = 0.0
        self.last_flush_seconds = 0.0

    # -- capture ---------------------------------------------------------------

    def record_sequence(self) -> List[Slot]:
        """Start recording the merged dispatch order; returns the log."""
        self.dispatch_log = []
        return self.dispatch_log

    def ring_for_current_thread(self) -> EventRing:
        ring = getattr(self._local, "ring", None)
        if ring is None:
            ring = EventRing(
                self.ring_capacity, threading.current_thread().name
            )
            self._local.ring = ring
            with self._rings_lock:
                self._rings.append(ring)
        return ring

    def enqueue(self, event) -> None:
        """The capture fast path: seqno stamp + slot write.

        No locks, no dispatch planning, no automaton work — the cost the
        instrumented thread pays is bounded by this method regardless of
        how many automata observe the event.
        """
        ring = getattr(self._local, "ring", None)
        if ring is None:
            ring = self.ring_for_current_thread()
        if self.background and self._thread is None:
            # Lazily (re)started: first capture after construction, or
            # after a stop()/reset() — an attribute probe per append.
            self._ensure_drainer()
        if _fi._active is not None:
            _fi.fault_point(_FP_ENQUEUE)
        if ring.head - ring.tail >= ring.capacity:
            self._overflow(ring)
        ring.append(self._seqnos.next(), event)
        self.events_enqueued += 1
        if self.background:
            if (ring.head - ring.tail) * 2 >= ring.capacity:
                self._wake.set()
        elif ring.head - ring.tail >= _MANUAL_BATCH:
            self._drain_pass()

    def _overflow(self, ring: EventRing) -> None:
        """Backpressure on a full ring: block for the drainer or become
        the drainer for one pass.  Never drops."""
        ring.overflows += 1
        if self.overflow_policy == "block":
            thread = self._thread
            if thread is not None and thread.is_alive() and not self._stop:
                self.backpressure_waits += 1
                self._wake.set()
                with self._space:
                    while (
                        ring.full
                        and self._thread is not None
                        and self._thread.is_alive()
                        and not self._stop
                        # A parked error halts the drainer until the next
                        # sync point delivers it; waiting on it would
                        # livelock — fall through to the inline flush.
                        and not self._pending_errors
                    ):
                        self._space.wait(timeout=0.05)
                        self._wake.set()
                if not ring.full:
                    return
            # Drainer gone (stopped, or never started): fall through to an
            # inline flush rather than deadlocking the producer.
        self.inline_flushes += 1
        self._drain_pass()
        if ring.full:
            # Only reachable when a contained drain fault kept the pass
            # from consuming (chaos runs): shed the oldest slots rather
            # than overwrite unconsumed ones.  Recorded, never silent.
            self.events_lost_to_faults += ring.discard()

    # -- evaluation ------------------------------------------------------------

    def queue_depth(self) -> int:
        """Captured-but-unevaluated events across every thread's ring."""
        with self._rings_lock:
            return sum(len(ring) for ring in self._rings)

    def _drain_pass(self, park: bool = False) -> int:
        """One merge-and-dispatch round: collect every ring, sort by
        seqno, feed the batch dispatcher.  Returns slots consumed (the
        pass made progress) — 0 means every ring was empty.

        ``park=True`` is the background drainer calling: anything that
        would propagate (a fail-stop violation, an uncontained monitor
        fault) is parked *before the drain lock is released*, so a
        synchronization flush that serialises after this pass is
        guaranteed to see it — delivery can never slip past a sync point
        on a thread race.
        """
        with self._drain_lock:
            if not park:
                return self._drain_pass_body()
            try:
                return self._drain_pass_body()
            except BaseException as exc:  # noqa: BLE001 - parked, not lost
                self._pending_errors.append(exc)
                return 0

    def _drain_pass_body(self) -> int:
        """The pass itself; caller holds ``_drain_lock``."""
        gov = getattr(self.runtime, "governor", None)
        t0 = gov.now() if gov is not None else 0.0
        t1 = t0
        merged: List[Slot] = []
        with self._rings_lock:
            rings = list(self._rings)
        for ring in rings:
            ring.drain_into(merged)
        if not merged:
            return 0
        taken = len(merged)
        self.drains += 1
        try:
            if _fi._active is not None:
                _fi.fault_point(_FP_MERGE)
            merged.sort(key=_slot_seqno)
            if self.dispatch_log is not None:
                self.dispatch_log.extend(merged)
            if self.journal is not None:
                # Journal before dispatch: a fail-stop verdict mid-batch
                # still leaves every event up to (and past) the violation
                # on disk.  A journal fault is contained like any other
                # monitor fault — it costs durability, never verdicts.
                try:
                    self.journal.append_batch(merged)
                except Exception as exc:
                    self.journal_errors += 1
                    if not self._contain("journal", exc):
                        raise
            if gov is not None:
                t1 = gov.now()
            self.runtime.dispatch_batch(
                [slot[1] for slot in merged], include_local=False
            )
        except TemporalAssertionError:
            # The fail-stop violation policy speaking mid-batch: exactly
            # as synchronous dispatch, later events are not processed.
            # Never contained.
            self.events_drained += taken
            self._notify_space()
            raise
        except Exception as exc:
            # The batch was already consumed from the rings; a contained
            # fault here loses it (coverage, never correctness) but the
            # pipeline keeps moving.
            self.events_lost_to_faults += taken
            if not self._contain("drain", exc):
                self._notify_space()
                raise
        else:
            self.events_drained += taken
            if taken > self.max_batch:
                self.max_batch = taken
            if gov is not None:
                # Merge/sort/journal time is monitoring cost too: charge it
                # to the non-sheddable pseudo-label ``(drain)`` (events=0 —
                # dispatch already counted them) so the budget accounting
                # stays honest about pipeline overhead.  Fail-safe like
                # every governor touch: a fault trips the governor and is
                # contained; it never costs the batch its verdicts.
                try:
                    gov.charge("(drain)", t1 - t0, 0)
                except Exception as exc:
                    gov.trip()
                    if not self._contain("governor", exc):
                        self._notify_space()
                        raise
        self._notify_space()
        return taken

    def drain(self) -> int:
        """One explicit drain pass (deterministic mode's main loop step)."""
        return self._drain_pass()

    def flush(self, sync: bool = False) -> None:
        """Rendezvous: evaluate everything captured so far, in every ring.

        Called at synchronization points (``sync=True``), introspection
        reads and teardown.  Re-raises errors parked by the background
        drainer first — delivery is never staler than the next sync point.
        """
        self._raise_pending()
        started = time.perf_counter()
        if _fi._active is not None:
            try:
                _fi.fault_point(_FP_FLUSH)
            except Exception as exc:
                # A contained flush fault abandons this rendezvous; the
                # rings keep their events for the next one.
                if not self._contain("flush", exc):
                    raise
                return
        if self.background:
            while self._drain_pass() > 0:
                pass
            # The final (empty) pass serialised behind any in-flight
            # drainer pass, and the drainer parks errors before releasing
            # the drain lock — so an error from a concurrent pass is
            # visible here.
            self._raise_pending()
        else:
            # No drainer to serialise behind: the first pass already
            # waited out any concurrent one, so after a productive pass a
            # lock-free look at the rings replaces the trailing empty
            # pass.  It still catches events captured *during* the pass:
            # the drain lock is re-entrant, so a violation handler may
            # have run instrumented code.
            while self._drain_pass() > 0 and self._captured():
                pass
        # Sync-point timer check (DESIGN §5.9): every captured event has
        # now been evaluated, so any deadline still pending with no
        # successor event is overdue — this is where it surfaces.  A
        # faulting timer path is contained like any other drain-stage
        # fault: the class degrades to ordinal semantics (the obligation
        # still reports at cleanup), never to a dropped verdict.
        # getattr, not attribute access: the controller is duck-typed
        # over anything with handle_event/dispatch_batch (property-test
        # stubs included), and only the real runtime keeps timers.
        check_timers = getattr(self.runtime, "check_timers", None)
        if check_timers is not None:
            try:
                if _fi._active is not None:
                    _fi.fault_point(_FP_TIMER)
                check_timers()
            except TemporalAssertionError:
                raise
            except Exception as exc:
                if not self._contain("timer", exc):
                    raise
        elapsed = time.perf_counter() - started
        self.flushes += 1
        if sync:
            self.sync_flushes += 1
        self.flush_seconds += elapsed
        self.last_flush_seconds = elapsed

    def _captured(self) -> bool:
        """Lock-free: does any ring hold events no pass has taken yet?"""
        return any(ring.head != ring.tail for ring in self._rings)

    def _raise_pending(self) -> None:
        if self._pending_errors:
            raise self._pending_errors.pop(0)

    def _contain(self, stage: str, exc: BaseException) -> bool:
        supervisor = getattr(self.runtime, "supervisor", None)
        if supervisor is None:
            return False
        return supervisor.contain("(drain)", stage, exc)

    def _notify_space(self) -> None:
        if self.overflow_policy == "block":
            with self._space:
                self._space.notify_all()

    # -- the background drainer --------------------------------------------------

    def _ensure_drainer(self) -> None:
        with self._thread_lock:
            if self._thread is not None and self._thread.is_alive():
                return
            self._stop = False
            self._thread = threading.Thread(
                target=self._drainer_loop,
                name=DRAINER_THREAD_NAME,
                daemon=True,
            )
            self._thread.start()

    def _drainer_loop(self) -> None:
        while not self._stop:
            self._wake.wait(self.drain_interval)
            self._wake.clear()
            if self._stop:
                break
            if self._pending_errors:
                # A fail-stop violation (or uncontained monitor fault) is
                # awaiting delivery on an application thread; stop making
                # progress past it, like synchronous dispatch would have.
                continue
            self._drain_pass(park=True)

    @property
    def drainer_alive(self) -> bool:
        thread = self._thread
        return thread is not None and thread.is_alive()

    def stop(self) -> None:
        """Stop the background drainer (pending events stay in the rings)."""
        with self._thread_lock:
            thread = self._thread
            self._stop = True
            self._wake.set()
        if thread is not None:
            thread.join(timeout=5.0)
        with self._thread_lock:
            self._thread = None
        self._notify_space()

    # -- maintenance -------------------------------------------------------------

    def discard_pending(self) -> int:
        """Throw away captured-but-unevaluated events and parked errors
        (teardown after an application failure, runtime reset)."""
        with self._drain_lock:
            dropped = 0
            with self._rings_lock:
                rings = list(self._rings)
            for ring in rings:
                dropped += ring.discard()
            self.events_discarded += dropped
            self._pending_errors.clear()
        self._notify_space()
        return dropped

    def reset(self) -> None:
        """Stop the drainer, drop pending events, zero the accounting.

        The ring registry and thread-locals survive — a thread that kept a
        reference to its ring keeps appending into the same (now empty)
        ring, so nothing captured after the reset can be stranded.
        """
        self.stop()
        self.discard_pending()
        for ring in self._rings:
            ring.appended = 0
            ring.overflows = 0
            ring.max_depth = 0
        self.dispatch_log = None
        self.journal_errors = 0
        self.events_enqueued = 0
        self.events_drained = 0
        self.events_discarded = 0
        self.events_lost_to_faults = 0
        self.drains = 0
        self.flushes = 0
        self.sync_flushes = 0
        self.inline_flushes = 0
        self.backpressure_waits = 0
        self.max_batch = 0
        self.flush_seconds = 0.0
        self.last_flush_seconds = 0.0

    def stats(self) -> dict:
        with self._rings_lock:
            ring_rows = [ring.stats() for ring in self._rings]
        journal = None
        if self.journal is not None:
            journal = dict(self.journal.stats())
            journal["errors"] = self.journal_errors
        return {
            "journal": journal,
            "background": self.background,
            "overflow_policy": self.overflow_policy,
            "drainer_alive": self.drainer_alive,
            "queue_depth": sum(row["depth"] for row in ring_rows),
            "rings": ring_rows,
            "events_enqueued": self.events_enqueued,
            "events_drained": self.events_drained,
            "events_discarded": self.events_discarded,
            "events_lost_to_faults": self.events_lost_to_faults,
            "drains": self.drains,
            "flushes": self.flushes,
            "sync_flushes": self.sync_flushes,
            "inline_flushes": self.inline_flushes,
            "backpressure_waits": self.backpressure_waits,
            "max_batch": self.max_batch,
            "flush_seconds": self.flush_seconds,
            "last_flush_seconds": self.last_flush_seconds,
        }
