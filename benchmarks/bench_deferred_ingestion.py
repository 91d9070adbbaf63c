"""Deferred ingestion: ring-buffer capture vs synchronous dispatch.

Section 5's thesis is that per-event instrumentation cost dominates
TESLA's overhead; the deferred pipeline (DESIGN §5.4) attacks it by
splitting *capture* from *evaluation*.  An application thread's cost per
event drops to a seqno stamp plus one thread-local slot write, and the
automaton work happens later, batched through ``dispatch_batch`` where
each shard lock is taken once per drain rather than once per event.

This bench pins down the three numbers that trade-off is made of:

* **capture cost** — µs/event for ``handle_event`` on a deferred runtime
  (enqueue only, no sync keys in the loop) vs the same events dispatched
  synchronously on the lazy/sharded/compiled runtime.  The acceptance
  bar: enqueue ≥ 2× faster than synchronous dispatch.
* **manual producer cost** — the same loop on a default
  ``deferred="manual"`` runtime, where the producer also runs a drain
  pass each time its ring holds ``_MANUAL_BATCH`` events: what a
  deterministic-mode thread really pays per event with evaluation
  batched rather than avoided.
* **drain throughput** — events/s through a flush of a large backlog,
  i.e. the rate the evaluation side must sustain to keep up.
* **flush latency at a sync point** — what an assertion site *pays* for
  deferral: the site key forces a flush, so its latency grows with the
  backlog it has to retire.  Reported for an empty queue and for a
  1000-event backlog.

Verdict equality is asserted in the same run (deferred manual and
background runtimes against the synchronous baseline), so the speedup is
never bought with a semantics change.  Smoke mode (``TESLA_BENCH_SMOKE=1``,
used by CI) shrinks counts and skips the timing-ratio assertions while
keeping every correctness assertion.
"""

from __future__ import annotations

import os
import time

from repro.bench import median_time
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
from repro.runtime import drain as drain_module
from repro.runtime.manager import TeslaRuntime
from repro.runtime.notify import LogAndContinue

from conftest import emit

SMOKE = os.environ.get("TESLA_BENCH_SMOKE") == "1"
N_EVENTS = 400 if SMOKE else 20_000
REPEATS = 1 if SMOKE else 5
BACKLOG = 50 if SMOKE else 1_000
N_CLASSES = 4
BOUND = "di_syscall"


def _assertions():
    return [
        tesla_global(
            call(BOUND),
            returnfrom(BOUND),
            previously(fn(f"di_check{i}", ANY("c"), var("v")) == 0),
            name=f"di_cls{i}",
        )
        for i in range(N_CLASSES)
    ]


def _runtime(**kwargs):
    runtime = TeslaRuntime(
        policy=LogAndContinue(), lazy=True, shards=5, compile=True, **kwargs
    )
    for assertion in _assertions():
        runtime.install_assertion(assertion)
    return runtime


def _body_events(count):
    """Check returns only — body keys, never synchronization points."""
    return [
        return_event(f"di_check{i % N_CLASSES}", ("c", f"val{i % 3}"), 0)
        for i in range(count)
    ]


def _verdict(runtime):
    rows = []
    for i in range(N_CLASSES):
        cr = runtime.class_runtime(f"di_cls{i}")
        rows.append((cr.accepts, cr.errors, cr.sites_reached))
    rows.append(
        tuple(v.reason for v in runtime.hub.policy.violations)
    )
    return rows


def _full_trace():
    events = [call_event(BOUND, ())]
    events.extend(_body_events(60))
    for i in range(N_CLASSES):
        events.append(assertion_site_event(f"di_cls{i}", {"v": "val0"}))
    events.append(return_event(BOUND, (), 0))
    return events


def test_deferred_ingestion(benchmark, results_dir, monkeypatch):
    body = _body_events(N_EVENTS)

    # -- capture cost: enqueue vs synchronous dispatch --------------------
    # For the capture and backlog measurements, the ring capacity and the
    # manual-mode batch threshold both hold every repeat's events, so the
    # timed loop never takes the inline-flush or batch-drain path; the
    # backlog is flushed (untimed) after each measurement block.  The
    # manual-producer row keeps the default threshold.
    backlog_capacity = N_EVENTS * (REPEATS + 2)
    sync_runtime = _runtime()
    deferred_runtime = _runtime(
        deferred="manual", ring_capacity=backlog_capacity
    )
    producer_runtime = _runtime(deferred="manual")
    for runtime in (sync_runtime, deferred_runtime, producer_runtime):
        runtime.handle_event(call_event(BOUND, ()))
    deferred_runtime.flush_deferred()
    producer_runtime.flush_deferred()

    def sync_loop():
        handle = sync_runtime.handle_event
        for event in body:
            handle(event)

    def enqueue_loop():
        handle = deferred_runtime.handle_event
        for event in body:
            handle(event)

    def producer_loop():
        handle = producer_runtime.handle_event
        for event in body:
            handle(event)

    def backlog_measures():
        enqueue_us = (
            median_time(enqueue_loop, repeats=REPEATS) * 1e6 / N_EVENTS
        )

        # -- drain throughput: flush a fresh N_EVENTS backlog -------------
        deferred_runtime.flush_deferred()
        drain_samples = []
        for _ in range(REPEATS):
            for event in body:
                deferred_runtime.handle_event(event)
            start = time.perf_counter()
            deferred_runtime.flush_deferred()
            drain_samples.append(time.perf_counter() - start)
        drain_rate = N_EVENTS / sorted(drain_samples)[len(drain_samples) // 2]

        # -- flush latency at an assertion site ---------------------------
        def site_latency(backlog):
            samples = []
            for _ in range(max(3, REPEATS)):
                for event in _body_events(backlog):
                    deferred_runtime.handle_event(event)
                site = assertion_site_event("di_cls0", {"v": "val0"})
                start = time.perf_counter()
                deferred_runtime.handle_event(site)
                samples.append(time.perf_counter() - start)
            return sorted(samples)[len(samples) // 2] * 1e6

        empty_us = site_latency(0)
        backlog_us = site_latency(BACKLOG)
        return enqueue_us, drain_rate, empty_us, backlog_us

    def measure():
        sync_us = median_time(sync_loop, repeats=REPEATS) * 1e6 / N_EVENTS
        producer_us = (
            median_time(producer_loop, repeats=REPEATS) * 1e6 / N_EVENTS
        )
        with monkeypatch.context() as patch:
            patch.setattr(drain_module, "_MANUAL_BATCH", backlog_capacity)
            return (sync_us, producer_us) + backlog_measures()

    sync_us, producer_us, enqueue_us, drain_rate, empty_us, backlog_us = (
        benchmark.pedantic(measure, rounds=1, iterations=1)
    )
    speedup = sync_us / enqueue_us
    stats = deferred_runtime.drain.stats()
    producer_runtime.flush_deferred()
    producer_stats = producer_runtime.drain.stats()

    lines = [
        "Deferred ingestion: ring-buffer capture vs synchronous dispatch",
        "---------------------------------------------------------------",
        f"{'sync dispatch':<28}{sync_us:>10.3f} us/event",
        f"{'deferred enqueue':<28}{enqueue_us:>10.3f} us/event",
        f"{'capture speedup':<28}{speedup:>10.2f} x",
        f"{'manual producer':<28}{producer_us:>10.3f} us/event",
        f"{'manual producer speedup':<28}{sync_us / producer_us:>10.2f} x",
        f"{'drain throughput':<28}{drain_rate:>10.0f} events/s",
        f"{'site flush, empty queue':<28}{empty_us:>10.1f} us",
        f"{f'site flush, {BACKLOG}-backlog':<28}{backlog_us:>10.1f} us",
        f"{'events lost':<28}{stats['events_lost_to_faults']:>10d}",
    ]
    emit(results_dir, "deferred_ingestion", "\n".join(lines))

    # Accounting: the rings never dropped anything.
    for counts in (stats, producer_stats):
        assert counts["events_lost_to_faults"] == 0
        assert counts["events_enqueued"] == counts["events_drained"]
    # The manual producer drained in batches, never a whole backlog.
    assert producer_stats["max_batch"] <= drain_module._MANUAL_BATCH
    if not SMOKE:
        # The tentpole's acceptance bar: capture must be at least twice
        # as cheap as evaluating inline.
        assert speedup >= 2.0, speedup
        # A site with a backlog pays for retiring it — if it doesn't,
        # the sync-point flush measured nothing.
        assert backlog_us > empty_us


def test_deferred_verdicts_match_synchronous(results_dir):
    """The speedup is not a semantics change: manual and background
    deferred runs produce the synchronous verdicts, event for event."""
    trace = _full_trace()
    sync_runtime = _runtime()
    for event in trace:
        sync_runtime.handle_event(event)
    expected = _verdict(sync_runtime)

    manual = _runtime(deferred="manual")
    for event in trace:
        manual.handle_event(event)
    manual.flush_deferred()
    assert _verdict(manual) == expected

    background = _runtime(deferred=True, drain_interval=0.001)
    for event in trace:
        background.handle_event(event)
    background.flush_deferred()
    background.drain.stop()
    assert _verdict(background) == expected
