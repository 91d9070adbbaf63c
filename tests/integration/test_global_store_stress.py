"""Multi-threaded stress tests for the single-lock global store.

Two regimes, both with 8 worker threads:

* **disjoint** — every thread hammers its own assertion class (own bound,
  own check function).  Classes never share state, so per-class verdicts
  must come out exactly as if each thread had run alone: N accepts, zero
  errors, zero lost transitions.
* **overlapping** — every thread hammers the *same* four classes inside
  one shared global bound, each thread with its own binding values.  The
  global lock must serialise per-class state well enough that every
  (check, site) pair lands: zero errors, one accept per distinct binding.

Threads are joined with a bounded timeout; a deadlock fails the test
rather than hanging CI.
"""

from __future__ import annotations

import threading

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
from repro.runtime.manager import TeslaRuntime

N_THREADS = 8
JOIN_TIMEOUT = 60.0


def disjoint_assertion(index):
    return tesla_global(
        call(f"stress_sys{index}"),
        returnfrom(f"stress_sys{index}"),
        previously(fn(f"stress_check{index}", ANY("c"), var("v")) == 0),
        name=f"stress_cls{index}",
    )


def shared_assertion(index):
    return tesla_global(
        call("stress_shared_bound"),
        returnfrom("stress_shared_bound"),
        previously(fn(f"stress_shared_check{index}", ANY("c"), var("v")) == 0),
        name=f"stress_shared_cls{index}",
    )


def run_threads(workers):
    threads = [
        threading.Thread(target=worker, name=f"stress-{i}", daemon=True)
        for i, worker in enumerate(workers)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=JOIN_TIMEOUT)
    stuck = [t.name for t in threads if t.is_alive()]
    assert not stuck, f"threads deadlocked or overran {JOIN_TIMEOUT}s: {stuck}"


class TestDisjointClasses:
    ITERS = 150

    def _worker(self, runtime, index, errors):
        def work():
            try:
                for i in range(self.ITERS):
                    value = f"t{index}i{i}"
                    runtime.handle_event(call_event(f"stress_sys{index}", ()))
                    runtime.handle_event(
                        return_event(f"stress_check{index}", ("c", value), 0)
                    )
                    runtime.handle_event(
                        assertion_site_event(
                            f"stress_cls{index}", {"v": value}
                        )
                    )
                    runtime.handle_event(
                        return_event(f"stress_sys{index}", (), 0)
                    )
            except BaseException as exc:  # surfaced after join
                errors.append((index, exc))

        return work

    def test_disjoint_verdicts_are_deterministic(self):
        runtime = TeslaRuntime()
        for index in range(N_THREADS):
            runtime.install_assertion(disjoint_assertion(index))
        errors = []
        run_threads(
            [self._worker(runtime, i, errors) for i in range(N_THREADS)]
        )
        assert not errors, errors
        for index in range(N_THREADS):
            cr = runtime.class_runtime(f"stress_cls{index}")
            assert cr.accepts == self.ITERS, (index, cr.accepts)
            assert cr.errors == 0
            assert cr.sites_reached == self.ITERS
            assert len(cr.pool) == 0  # every bound closed cleanly

    def test_disjoint_batched_dispatch(self):
        """Same workload fed through ``dispatch_batch`` per iteration."""
        runtime = TeslaRuntime()
        for index in range(N_THREADS):
            runtime.install_assertion(disjoint_assertion(index))
        errors = []

        def worker(index):
            def work():
                try:
                    for i in range(self.ITERS):
                        value = f"t{index}i{i}"
                        runtime.dispatch_batch(
                            [
                                call_event(f"stress_sys{index}", ()),
                                return_event(
                                    f"stress_check{index}", ("c", value), 0
                                ),
                                assertion_site_event(
                                    f"stress_cls{index}", {"v": value}
                                ),
                                return_event(f"stress_sys{index}", (), 0),
                            ]
                        )
                except BaseException as exc:
                    errors.append((index, exc))

            return work

        run_threads([worker(i) for i in range(N_THREADS)])
        assert not errors, errors
        for index in range(N_THREADS):
            cr = runtime.class_runtime(f"stress_cls{index}")
            assert (cr.accepts, cr.errors) == (self.ITERS, 0)


class TestOverlappingClasses:
    ITERS = 30
    N_CLASSES = 4

    def test_shared_classes_lose_nothing(self):
        runtime = TeslaRuntime(capacity=4096)
        for index in range(self.N_CLASSES):
            runtime.install_assertion(shared_assertion(index))
        runtime.handle_event(call_event("stress_shared_bound", ()))
        errors = []

        def worker(tid):
            def work():
                try:
                    for i in range(self.ITERS):
                        value = f"t{tid}i{i}"
                        for index in range(self.N_CLASSES):
                            runtime.handle_event(
                                return_event(
                                    f"stress_shared_check{index}",
                                    ("c", value),
                                    0,
                                )
                            )
                            runtime.handle_event(
                                assertion_site_event(
                                    f"stress_shared_cls{index}",
                                    {"v": value},
                                )
                            )
                except BaseException as exc:
                    errors.append((tid, exc))

            return work

        run_threads([worker(t) for t in range(N_THREADS)])
        assert not errors, errors
        runtime.handle_event(return_event("stress_shared_bound", (), 0))
        bindings = N_THREADS * self.ITERS
        for index in range(self.N_CLASSES):
            cr = runtime.class_runtime(f"stress_shared_cls{index}")
            assert cr.errors == 0, (index, cr.errors)
            assert cr.sites_reached == bindings, (index, cr.sites_reached)
            # One clone per distinct binding, every one of which passed its
            # site and therefore accepts at cleanup; the wildcard is
            # discarded silently.
            assert cr.accepts == bindings, (index, cr.accepts)
            assert cr.pool.overflows == 0
            assert len(cr.pool) == 0
