"""Figure 12 revisited: batched dispatch on the one global lock, 1–16 threads.

Figure 12 shows the global store's lock as TESLA's scalability cliff:
every globally-scoped event "cannot complete until its instrumentation
hook has finished running", and libtesla funnels all of them through one
lock.  This bench sweeps worker threads over *disjoint* global assertion
classes in two configurations over that one lock:

* ``per-event`` — one ``handle_event`` call, and one lock round-trip,
  per event (the paper's discipline);
* ``batched``   — the same events fed through ``dispatch_batch`` in
  chunks of ``BATCH``, one lock round-trip per chunk.

Substitution note (same caveat the fig. 12 bench records): CPython's GIL
serialises the automaton math in both configurations, so the sweep shows
what amortising the lock buys end to end rather than the paper's C-scale
contention.  The shape asserted is "batching does not lose" at 8 threads.

Each configuration is sampled ``REPEATS`` times per thread count, the two
interleaved, and reported as the median with its min–max spread.  Smoke
mode (``TESLA_BENCH_SMOKE=1``, used by CI) shrinks the counts and skips
the timing-ratio assertion while keeping the verdict checks.
"""

from __future__ import annotations

import os
import statistics
import threading
import time

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

from conftest import emit

SMOKE = os.environ.get("TESLA_BENCH_SMOKE") == "1"
THREAD_SWEEP = (1, 2, 4, 8, 16)
CYCLES = 20 if SMOKE else 250   # init/check/site/cleanup cycles per thread
REPEATS = 1 if SMOKE else 5
BATCH = 64


def sweep_assertion(index):
    return tesla_global(
        call(f"f12s_sys{index}"),
        returnfrom(f"f12s_sys{index}"),
        previously(fn(f"f12s_check{index}", ANY("c"), var("v")) == 0),
        name=f"f12s_cls{index}",
    )


def event_stream(index, cycles=CYCLES):
    events = []
    for _ in range(cycles):
        events.append(call_event(f"f12s_sys{index}", ()))
        events.append(return_event(f"f12s_check{index}", ("c", "v"), 0))
        events.append(assertion_site_event(f"f12s_cls{index}", {"v": "v"}))
        events.append(return_event(f"f12s_sys{index}", (), 0))
    return events


def run_threads(n_threads, make_worker):
    """Start n threads, time the span between start and finish barriers."""
    barrier = threading.Barrier(n_threads + 1)
    threads = [
        threading.Thread(target=make_worker(tid, barrier))
        for tid in range(n_threads)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    start = time.perf_counter()
    barrier.wait()
    elapsed = time.perf_counter() - start
    for thread in threads:
        thread.join()
    return elapsed


def dispatch_throughput(n_threads, batch):
    """Events/second, disjoint classes, one class per thread."""
    runtime = TeslaRuntime()
    for index in range(n_threads):
        runtime.install_assertion(sweep_assertion(index))
    streams = [event_stream(index) for index in range(n_threads)]

    def make_worker(tid, barrier):
        events = streams[tid]

        def work():
            barrier.wait()
            if batch:
                for start in range(0, len(events), batch):
                    runtime.dispatch_batch(events[start : start + batch])
            else:
                handle = runtime.handle_event
                for event in events:
                    handle(event)
            barrier.wait()

        return work

    elapsed = run_threads(n_threads, make_worker)
    for index in range(n_threads):
        cr = runtime.class_runtime(f"f12s_cls{index}")
        assert (cr.accepts, cr.errors) == (CYCLES, 0), "bench lost events"
    return n_threads * len(streams[0]) / elapsed


def test_batch_scaling_shape(benchmark, results_dir):
    def run_fixed():
        sweep = {}
        for n_threads in THREAD_SWEEP:
            single, batched = [], []
            for _ in range(REPEATS):
                single.append(dispatch_throughput(n_threads, batch=None))
                batched.append(dispatch_throughput(n_threads, batch=BATCH))
            sweep[n_threads] = (single, batched)
        return sweep

    sweep = benchmark.pedantic(run_fixed, rounds=1, iterations=1)

    def row(label, samples, base=None):
        median = statistics.median(samples)
        text = (
            f"{label}  {median:.0f} ev/s"
            f"   (min {min(samples):.0f}, max {max(samples):.0f})"
        )
        if base is not None:
            text += f"   {median / base:.2f}x"
        return text

    lines = [
        f"Figure 12 sweep: disjoint global classes, one global lock, "
        f"{CYCLES} cycles/thread, batch={BATCH}, median of {REPEATS} "
        f"interleaved runs (events/sec)"
    ]
    for n_threads, (single, batched) in sweep.items():
        base = statistics.median(single)
        lines.append(row(f"per-event {n_threads}T", single))
        lines.append(row(f"batched {n_threads}T", batched, base))
    emit(results_dir, "batch_scaling", "\n".join(lines))

    if not SMOKE:
        # Shape claim (GIL-serialised; see module docstring): taking the
        # lock once per batch does not lose on the contended runs.
        single8 = statistics.median(sweep[8][0])
        batched8 = statistics.median(sweep[8][1])
        assert batched8 > single8 * 0.9, (batched8, single8)
