"""Trace journal: record-mode overhead and offline replay throughput.

The journal (DESIGN §5.6) rides the drain pass: each merged batch is
binary-encoded and appended before evaluation.  The durability bargain is
only worth taking if recording is nearly free relative to the deferred
pipeline it rides on, so this bench pins three numbers:

* **record overhead** — µs/event for capture+drain with a journal
  installed vs the identical deferred runtime without one, taken as the
  median of the per-pair ratios over interleaved journal/plain pairs
  (at least :data:`MIN_PAIRS`), so one lucky or unlucky sample cannot
  decide it.  Acceptance bar: ≤ 1.15× (the encode+append must hide
  inside the drain's existing merge/dispatch work).
* **replay throughput** — events/s for ``read_journal`` +
  ``ReplayEngine.run("naive")`` over the recorded file: the offline
  debugging loop's latency.
* **journal density** — bytes/event on disk for a representative trace.

Verdict equality between the recorded run, its replay, and the LTL
oracle is asserted in the same run, so the overhead number is never
bought with a recording that can't actually reproduce the verdicts.
Smoke mode (``TESLA_BENCH_SMOKE=1``, used by CI) shrinks counts and
skips the timing-ratio assertion while keeping every correctness
assertion.
"""

from __future__ import annotations

import os
import statistics
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
from repro.replay import ReplayEngine, ltl_verdicts
from repro.runtime.journal import read_journal
from repro.runtime.manager import TeslaRuntime
from repro.runtime.notify import LogAndContinue

from conftest import emit, interleaved_samples

SMOKE = os.environ.get("TESLA_BENCH_SMOKE") == "1"
N_EVENTS = 400 if SMOKE else 20_000
REPEATS = 1 if SMOKE else 31
#: Fewest interleaved journal/plain pairs the overhead bar may rest on.
MIN_PAIRS = 5
N_CLASSES = 4
BOUND = "jr_syscall"
OVERHEAD_BAR = 1.15


def _assertions():
    return [
        tesla_global(
            call(BOUND),
            returnfrom(BOUND),
            previously(fn(f"jr_check{i}", ANY("c"), var("v")) == 0),
            name=f"jr_cls{i}",
        )
        for i in range(N_CLASSES)
    ]


def _runtime(journal=None):
    kwargs = dict(
        policy=LogAndContinue(),
        lazy=True,
        shards=5,
        compile=True,
        deferred="manual",
    )
    if journal is not None:
        kwargs["journal"] = journal
    runtime = TeslaRuntime(**kwargs)
    runtime.install_assertions(_assertions())
    return runtime


def _trace(count):
    """A full monitored window: bound, body checks, sites (some
    violating), close — so recording covers every record shape."""
    events = [call_event(BOUND, ())]
    for i in range(count):
        events.append(
            return_event(f"jr_check{i % N_CLASSES}", ("c", f"val{i % 3}"), 0)
        )
        if i % 50 == 49:
            events.append(
                assertion_site_event(
                    f"jr_cls{i % N_CLASSES}",
                    {"v": f"val{(i % 3) if i % 100 else 3}"},
                )
            )
    events.append(return_event(BOUND, (), 0))
    return events


def _verdict(runtime):
    rows = []
    for i in range(N_CLASSES):
        accepts = errors = sites = 0
        for cr in runtime.all_class_runtimes(f"jr_cls{i}"):
            accepts += cr.accepts
            errors += cr.errors
            sites += cr.sites_reached
        rows.append((accepts, errors, sites))
    return rows


def _run_trace(runtime, trace):
    handle = runtime.handle_event
    for event in trace:
        handle(event)
    runtime.flush_deferred()


def test_journal_record_and_replay(benchmark, results_dir, tmp_path):
    trace = _trace(N_EVENTS)

    def measure():
        # -- record-mode overhead vs plain deferred capture ---------------
        def plain_run():
            runtime = _runtime()
            _run_trace(runtime, trace)
            return runtime

        journal_path = {}

        def journal_run():
            path = tmp_path / f"bench-{len(journal_path)}.tjournal"
            runtime = _runtime(journal=str(path))
            _run_trace(runtime, trace)
            runtime.close_journal()
            journal_path["last"] = path
            return runtime

        # Interleaved GC-controlled pairs (see conftest): the journal
        # side allocates ~40 bytes/event of record frames, so sequential
        # blocks would let collector pauses and clock drift land
        # disproportionately on the side under test.  Each sample times
        # the second of two back-to-back runs (median_time's repeats=1
        # warms once untimed): the bar pins the steady-state
        # encode+append cost, not per-run setup like file creation.
        samples = interleaved_samples(
            {
                "plain": lambda: median_time(plain_run, repeats=1),
                "journal": lambda: median_time(journal_run, repeats=1),
            },
            repeats=REPEATS,
        )
        ratios = [
            journal / plain
            for plain, journal in zip(samples["plain"], samples["journal"])
        ]
        plain_us = statistics.median(samples["plain"]) * 1e6 / len(trace)
        journal_us = statistics.median(samples["journal"]) * 1e6 / len(trace)
        path = journal_path["last"]

        # -- replay throughput --------------------------------------------
        replay_samples = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            journal = read_journal(path)
            ReplayEngine(journal).run("naive")
            replay_samples.append(time.perf_counter() - start)
        replay_rate = len(journal.slots) / sorted(replay_samples)[
            len(replay_samples) // 2
        ]
        return plain_us, journal_us, ratios, path, journal, replay_rate

    plain_us, journal_us, ratios, path, journal, replay_rate = (
        benchmark.pedantic(measure, rounds=1, iterations=1)
    )
    overhead = statistics.median(ratios)
    density = journal.byte_size / max(1, len(journal.slots))

    # -- correctness in the same run: record → replay → oracle agree ------
    reference = _runtime()
    _run_trace(reference, _trace(N_EVENTS))
    expected = _verdict(reference)
    engine = ReplayEngine(journal)
    result = engine.run("naive")
    replayed = [
        (v.accepts, v.errors, v.sites_reached)
        for v in (result.classes[f"jr_cls{i}"] for i in range(N_CLASSES))
    ]
    assert replayed == expected, (replayed, expected)
    oracle = ltl_verdicts(engine.assertions, engine.slots)
    assert [
        (o.accepts, o.errors, o.satisfied_sites)
        for o in (oracle[f"jr_cls{i}"] for i in range(N_CLASSES))
    ] == expected

    lines = [
        "Trace journal: record overhead and offline replay",
        "-------------------------------------------------",
        f"{'plain deferred capture':<28}{plain_us:>10.3f} us/event",
        f"{'journalled capture':<28}{journal_us:>10.3f} us/event",
        f"{'record overhead':<28}{overhead:>10.3f} x",
        f"{'record overhead min':<28}{min(ratios):>10.3f} x",
        f"{'record overhead max':<28}{max(ratios):>10.3f} x",
        f"{'interleaved pairs':<28}{len(ratios):>10d}",
        f"{'replay throughput':<28}{replay_rate:>10.0f} events/s",
        f"{'journal density':<28}{density:>10.1f} bytes/event",
        f"{'journal size':<28}{journal.byte_size:>10d} bytes",
        f"{'events recorded':<28}{len(journal.slots):>10d}",
    ]
    emit(results_dir, "journal", "\n".join(lines))

    assert journal.clean_close
    assert len(journal.slots) == len(_trace(N_EVENTS))
    if not SMOKE:
        # The acceptance bar: recording must hide inside the drain's
        # existing work, judged on the median pair.
        assert len(ratios) >= MIN_PAIRS, len(ratios)
        assert overhead <= OVERHEAD_BAR, (
            f"journal record overhead {overhead:.3f}x (median of "
            f"{len(ratios)} pairs) exceeds {OVERHEAD_BAR}x bar"
        )
