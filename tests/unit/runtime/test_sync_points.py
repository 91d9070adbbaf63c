"""Deferred synchronization points: only drain-evaluated classes make them.

A thread-local (``tesla_perthread``/``tesla_within``) class is evaluated
inline on the capturing thread, so its verdicts never wait for a drain and
its keys must not force a flush.  GLOBAL classes, and thread-local classes
with a ``deadline`` (whose no-successor expiry only the flush's timer check
finds), keep their synchronization points.  In ``deferred="manual"`` a
producer whose ring reaches ``_MANUAL_BATCH`` slots runs one drain pass.
"""

from __future__ import annotations

import pytest

from repro.core.dsl import (
    ANY,
    call,
    deadline,
    eventually,
    fn,
    previously,
    returnfrom,
    tesla_global,
    tesla_perthread,
    tesla_within,
    var,
)
from repro.core.events import (
    EventKind,
    assertion_site_event,
    call_event,
    return_event,
)
from repro.errors import TemporalAssertionError
from repro.runtime.drain import _MANUAL_BATCH
from repro.runtime.manager import TeslaRuntime
from repro.runtime.notify import LogAndContinue


def local_assertion(name="sp.local", bound="sp_sys", check="sp_check"):
    return tesla_perthread(
        call(bound),
        returnfrom(bound),
        previously(fn(check, ANY("c"), var("v")) == 0),
        name=name,
    )


def global_assertion(name="sp.global", bound="sp_gsys", check="sp_gcheck"):
    return tesla_global(
        call(bound),
        returnfrom(bound),
        previously(fn(check, ANY("c"), var("v")) == 0),
        name=name,
    )


def deadline_assertion(name="sp.deadline"):
    return tesla_within(
        "sp_tsys", eventually(deadline(5.0, call("sp_done"))), name=name
    )


def runtime_with(*assertions, **kwargs):
    kwargs.setdefault("policy", LogAndContinue())
    runtime = TeslaRuntime(deferred="manual", **kwargs)
    runtime.install_assertions(list(assertions))
    return runtime


def bound_keys(bound, site):
    return {
        (EventKind.CALL, bound),
        (EventKind.RETURN, bound),
        (EventKind.ASSERTION_SITE, site),
    }


class TestSyncKeys:
    def test_thread_local_only_runtime_has_no_sync_keys(self):
        runtime = runtime_with(
            local_assertion(),
            local_assertion("sp.local2", "sp_sys2", "sp_check2"),
        )
        try:
            assert runtime._sync_keys == frozenset()
            assert bound_keys("sp_sys", "sp.local") <= runtime._local_keys
        finally:
            runtime.reset()

    def test_mixed_runtime_syncs_only_global_keys(self):
        runtime = runtime_with(local_assertion(), global_assertion())
        try:
            assert runtime._sync_keys == bound_keys("sp_gsys", "sp.global")
            assert not runtime._sync_keys & runtime._local_keys
        finally:
            runtime.reset()

    def test_key_shared_with_a_global_class_stays_sync(self):
        runtime = runtime_with(
            local_assertion(bound="sp_shared"),
            global_assertion(bound="sp_shared"),
        )
        try:
            assert (EventKind.CALL, "sp_shared") in runtime._sync_keys
            assert (EventKind.CALL, "sp_shared") in runtime._local_keys
            assert (
                EventKind.ASSERTION_SITE, "sp.local"
            ) not in runtime._sync_keys
        finally:
            runtime.reset()

    def test_thread_local_deadline_class_keeps_its_keys(self):
        runtime = runtime_with(local_assertion(), deadline_assertion())
        try:
            assert runtime._sync_keys == bound_keys("sp_tsys", "sp.deadline")
        finally:
            runtime.reset()

    def test_thread_local_events_never_flush(self):
        runtime = runtime_with(local_assertion())
        try:
            runtime.handle_event(call_event("sp_sys", ()))
            runtime.handle_event(return_event("sp_check", ("c", 1), 0))
            runtime.handle_event(assertion_site_event("sp.local", {"v": 1}))
            runtime.handle_event(return_event("sp_sys", (), 0))
            stats = runtime.drain.stats()
            assert stats["flushes"] == 0
            assert stats["queue_depth"] == 4
            # The verdict did not wait for the ring.
            assert runtime.class_runtime("sp.local").accepts == 1
            runtime.flush_deferred()
        finally:
            runtime.reset()


class TestManualBatch:
    N_EVENTS = 1000

    def run_stream(self):
        runtime = runtime_with(local_assertion())
        try:
            ring = runtime.drain.ring_for_current_thread()
            depths = []
            runtime.handle_event(call_event("sp_sys", ()))
            for i in range(self.N_EVENTS - 1):
                runtime.handle_event(return_event("sp_check", ("c", i), 0))
                depths.append(len(ring))
            stats = runtime.drain.stats()
            runtime.flush_deferred()
            return depths, stats
        finally:
            runtime.reset()

    def test_pending_depth_never_exceeds_the_batch(self):
        depths, stats = self.run_stream()
        assert max(depths) < _MANUAL_BATCH
        assert stats["rings"][0]["max_depth"] == _MANUAL_BATCH
        assert stats["drains"] == self.N_EVENTS // _MANUAL_BATCH
        assert stats["max_batch"] == _MANUAL_BATCH
        assert stats["queue_depth"] == self.N_EVENTS % _MANUAL_BATCH
        assert stats["flushes"] == stats["inline_flushes"] == 0

    def test_drain_counts_are_deterministic(self):
        first = self.run_stream()
        second = self.run_stream()
        assert first[0] == second[0]
        for key in ("drains", "max_batch", "queue_depth", "events_drained"):
            assert first[1][key] == second[1][key]


def mixed_trace(windows=120, quiet=0):
    """Interleaved thread-local and global windows, long enough that
    manual-mode batch drains fall mid-window.  Windows from ``quiet`` on
    may violate: the local class when ``w % 3 == 0``, the global one when
    ``w % 8 == 4``."""
    events = []
    for w in range(windows):
        violate = w >= quiet
        events.append(call_event("sp_sys", ()))
        if w % 4 == 0:
            events.append(call_event("sp_gsys", ()))
        if not (violate and w % 3 == 0):
            events.append(return_event("sp_check", ("c", w), 0))
        events.append(return_event("sp_gcheck", ("c", w), 0))
        events.append(assertion_site_event("sp.local", {"v": w}))
        if w % 4 == 0:
            gv = -1 if violate and w % 8 == 4 else w
            events.append(assertion_site_event("sp.global", {"v": gv}))
            events.append(return_event("sp_gsys", (), 0))
        events.append(return_event("sp_sys", (), 0))
    return events


def violations_per_event(deferred, events):
    policy = LogAndContinue()
    kwargs = {"deferred": deferred} if deferred else {}
    runtime = TeslaRuntime(policy=policy, **kwargs)
    try:
        runtime.install_assertions([local_assertion(), global_assertion()])
        seen = []
        for event in events:
            runtime.handle_event(event)
            seen.append(
                [(v.automaton, v.reason) for v in policy.violations]
            )
        runtime.flush_deferred()
        assert len(policy.violations) == len(seen[-1])
        return seen
    finally:
        runtime.reset()


def failstop_raise_index(deferred, events):
    kwargs = {"deferred": deferred} if deferred else {}
    runtime = TeslaRuntime(**kwargs)
    try:
        runtime.install_assertions([local_assertion(), global_assertion()])
        for index, event in enumerate(events):
            try:
                runtime.handle_event(event)
            except TemporalAssertionError as exc:
                return index, exc.violation.automaton
        return None, None
    finally:
        runtime.reset()


class TestThreadLocalVerdictsMatchSynchronous:
    def test_log_and_continue_surfaces_each_violation_at_its_event(self):
        events = mixed_trace()
        assert len(events) > 2 * _MANUAL_BATCH
        synchronous = violations_per_event(False, events)
        assert synchronous[-1], "the trace must violate"
        assert {a for a, _ in synchronous[-1]} == {"sp.local", "sp.global"}
        assert violations_per_event("manual", events) == synchronous

    @pytest.mark.parametrize(
        "quiet, first",
        [(0, "sp.local"), (4, "sp.global"), (81, "sp.local"),
         (92, "sp.global")],
    )
    def test_failstop_raises_at_the_same_event(self, quiet, first):
        events = mixed_trace(quiet=quiet)
        expected = failstop_raise_index(False, events)
        assert expected[1] == first
        assert failstop_raise_index("manual", events) == expected
