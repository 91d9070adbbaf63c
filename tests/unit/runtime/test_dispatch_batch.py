"""Unit tests for batched dispatch over the single-lock global store.

``dispatch_batch`` must be observationally identical to calling
``handle_event`` once per event — per class, across classes, and at the
point a fail-stop violation raises — while taking the global lock once
per batch instead of once per event.
"""

import threading

import pytest

from repro.core.dsl import (
    ANY,
    call,
    fn,
    previously,
    returnfrom,
    tesla_global,
    var,
)
from repro.core.events import (
    assertion_site_event,
    call_event,
    return_event,
)
from repro.errors import TemporalAssertionError
from repro.runtime.manager import TeslaRuntime
from repro.runtime.notify import LogAndContinue


def global_assertion(index):
    """One global-context class with its own bound and check function."""
    return tesla_global(
        call(f"batch_sys{index}"),
        returnfrom(f"batch_sys{index}"),
        previously(fn(f"batch_check{index}", ANY("c"), var("v")) == 0),
        name=f"batch_cls{index}",
    )


class CountingLock:
    """Stands in for the global store's lock and counts acquisitions."""

    def __init__(self):
        self._lock = threading.RLock()
        self.acquisitions = 0

    def __enter__(self):
        self._lock.acquire()
        self.acquisitions += 1
        return self

    def __exit__(self, *exc):
        self._lock.release()


class TestBatchDispatch:
    def make_runtime(self, n_classes=4, fail_stop=False):
        runtime = TeslaRuntime(policy=None if fail_stop else LogAndContinue())
        for i in range(n_classes):
            runtime.install_assertion(global_assertion(i))
        return runtime

    def batch_for(self, index, value):
        return [
            call_event(f"batch_sys{index}", ()),
            return_event(f"batch_check{index}", ("c", value), 0),
            assertion_site_event(f"batch_cls{index}", {"v": value}),
            return_event(f"batch_sys{index}", (), 0),
        ]

    def test_batch_matches_per_event_dispatch(self):
        batched = self.make_runtime()
        sequential = self.make_runtime()
        events = []
        for i in range(4):
            events.extend(self.batch_for(i, f"v{i}"))
        assert batched.dispatch_batch(events) == len(events)
        for event in events:
            sequential.handle_event(event)
        for i in range(4):
            got = batched.class_runtime(f"batch_cls{i}")
            want = sequential.class_runtime(f"batch_cls{i}")
            assert (got.accepts, got.errors) == (want.accepts, want.errors)
        assert batched.events_processed == sequential.events_processed

    def test_interleaved_batch_preserves_per_class_order(self):
        # check-before-site is what makes each class accept; zip the four
        # classes' streams together so any per-class reordering would
        # surface as a spurious violation.
        runtime = self.make_runtime()
        streams = [self.batch_for(i, "v") for i in range(4)]
        interleaved = [
            event for step in zip(*streams) for event in step
        ]
        runtime.dispatch_batch(interleaved)
        for i in range(4):
            cr = runtime.class_runtime(f"batch_cls{i}")
            assert (cr.accepts, cr.errors) == (1, 0)

    def test_out_of_order_batch_still_errors(self):
        # Sanity check of the previous test's premise: site before check
        # *must* be a violation, in batch mode too.
        runtime = self.make_runtime(n_classes=1)
        runtime.dispatch_batch(
            [
                call_event("batch_sys0", ()),
                assertion_site_event("batch_cls0", {"v": "v"}),
                return_event("batch_check0", ("c", "v"), 0),
                return_event("batch_sys0", (), 0),
            ]
        )
        cr = runtime.class_runtime("batch_cls0")
        assert cr.errors == 1

    def test_batch_takes_the_global_lock_once(self):
        runtime = self.make_runtime()
        lock = CountingLock()
        runtime.global_store.lock = lock
        events = []
        for i in range(4):
            events.extend(self.batch_for(i, "v"))
        runtime.dispatch_batch(events)
        assert lock.acquisitions == 1
        for event in events:
            runtime.handle_event(event)
        assert lock.acquisitions == 1 + len(events)

    def test_failstop_raises_on_the_same_event_as_per_event_dispatch(self):
        # Class 1 reaches its site before its check, so the interleaved
        # batch violates at its fourth event.  Class 0's site comes right
        # after: per-event dispatch never reaches it, and neither may the
        # batch.
        clean = self.batch_for(0, "v")
        violating = [
            call_event("batch_sys1", ()),
            assertion_site_event("batch_cls1", {"v": "v"}),
            return_event("batch_check1", ("c", "v"), 0),
            return_event("batch_sys1", (), 0),
        ]
        interleaved = [
            event for step in zip(clean, violating) for event in step
        ]
        outcomes = []
        for batched in (False, True):
            runtime = self.make_runtime(n_classes=2, fail_stop=True)
            with pytest.raises(TemporalAssertionError) as info:
                if batched:
                    runtime.dispatch_batch(interleaved)
                else:
                    for event in interleaved:
                        runtime.handle_event(event)
            assert info.value.violation.event is interleaved[3]
            other = runtime.class_runtime("batch_cls0")
            outcomes.append(
                (other.sites_reached, other.accepts, other.errors,
                 len(other.pool))
            )
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][:3] == (0, 0, 0)

    def test_empty_batch_is_a_noop(self):
        runtime = self.make_runtime()
        assert runtime.dispatch_batch([]) == 0
        assert runtime.events_processed == 0

    @pytest.mark.parametrize("lazy", [True, False])
    def test_batch_equivalence_in_both_modes(self, lazy):
        runtime = TeslaRuntime(lazy=lazy, policy=LogAndContinue())
        runtime.install_assertion(global_assertion(0))
        runtime.dispatch_batch(self.batch_for(0, "v1"))
        runtime.dispatch_batch(self.batch_for(0, "v2"))
        cr = runtime.class_runtime("batch_cls0")
        assert (cr.accepts, cr.errors) == (2, 0)
