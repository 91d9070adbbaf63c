"""Differential stress-test harness: naive ≡ lazy ≡ batched ≡ codegen.

The same randomized event trace — arbitrary interleavings of bound
entry/exit, body events and assertion sites over several assertion
classes in both global and per-thread contexts — is replayed through
every runtime configuration:

* **naive** (``lazy=False``): the paper's first implementation, eager
  wildcard materialisation;
* **lazy** (``lazy=True``): the §5.2.2 optimisation;
* **batched**: lazy mode fed through
  :meth:`TeslaRuntime.dispatch_batch` in odd-sized chunks, one global
  lock acquisition per chunk.

All configurations must agree on every class's accept count, error count,
assertion-sites-reached count and final live-instance count, and on the
full ordered stream of violations across classes.  The paper's semantics
("an event cannot complete until its instrumentation hook has finished
running") make these pure functions of the event order, which every
configuration claims to preserve — this harness is the check that the
claim survives batching, compilation and deferral.

Four tesla-jit configurations (**codegen**, **codegen-naive**,
**codegen-batched**, **deferred-codegen**) extend the sweep to the
generated-code dispatch path (DESIGN §5.7, ``compile=True``):
specialized step functions in lazy and eager flavours, fed per event,
in odd-sized ``dispatch_batch`` chunks and through the deferred drain,
must all be observationally identical to the naive interpreter.

Two deferred-pipeline configurations ride the same sweep (**deferred**:
per-thread ring capture with explicit drains; **deferred-codegen**: the
same with generated steps), and a
*replay oracle* extends the check to real concurrency: randomized
8-thread traces are captured through the rings, the merged (seqno-sorted)
dispatch sequence is recorded, and that exact sequence is replayed
through the naive synchronous interpreter — the deferred verdicts must
equal the reference's, proving deferral changed *when* evaluation ran but
not *what* it computed.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Tuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.dsl import (
    ANY,
    call,
    fn,
    previously,
    returnfrom,
    tesla_global,
    tesla_within,
    var,
)
from repro.core.events import (
    RuntimeEvent,
    assertion_site_event,
    call_event,
    return_event,
)
from repro.core.translate import translate_all
from repro.runtime.manager import TeslaRuntime
from repro.runtime.notify import LogAndContinue

N_BOUNDS = 2
N_VALUES = 3

#: (class index, bound index, context) → translated automaton+context.
#: Automata are static (all mutable state lives in ClassRuntime), so one
#: translation can be installed into every runtime of every example.
_AUTOMATON_CACHE: Dict[Tuple[int, int, str], object] = {}

ClassSpec = Tuple[int, str]  # (bound index, "global" | "perthread")
Op = Tuple  # ("init"|"cleanup", bound) or ("check"|"site", class, value)


def class_name(index: int) -> str:
    return f"diff_cls{index}"


def _automaton_for(index: int, bound: int, context: str):
    key = (index, bound, context)
    cached = _AUTOMATON_CACHE.get(key)
    if cached is None:
        expression = previously(
            fn(f"diff_check{index}", ANY("c"), var("v")) == 0
        )
        if context == "global":
            assertion = tesla_global(
                call(f"diff_bound{bound}"),
                returnfrom(f"diff_bound{bound}"),
                expression,
                name=class_name(index),
            )
        else:
            assertion = tesla_within(
                f"diff_bound{bound}", expression, name=class_name(index)
            )
        cached = (translate_all([assertion])[0], assertion.context)
        _AUTOMATON_CACHE[key] = cached
    return cached


def build_runtime(
    specs: Tuple[ClassSpec, ...], lazy: bool,
    compile: bool = False, deferred: object = False,
):
    runtime = TeslaRuntime(
        lazy=lazy, policy=LogAndContinue(), compile=compile,
        deferred=deferred,
    )
    for index, (bound, context) in enumerate(specs):
        automaton, ast_context = _automaton_for(index, bound, context)
        runtime.install_automaton(automaton, ast_context)
    return runtime


def events_of(ops: List[Op], close: bool = True) -> List[RuntimeEvent]:
    events: List[RuntimeEvent] = []
    for op in ops:
        if op[0] == "init":
            events.append(call_event(f"diff_bound{op[1]}", ()))
        elif op[0] == "cleanup":
            events.append(return_event(f"diff_bound{op[1]}", (), 0))
        elif op[0] == "check":
            events.append(
                return_event(f"diff_check{op[1]}", ("c", f"val{op[2]}"), 0)
            )
        else:  # site
            events.append(
                assertion_site_event(
                    class_name(op[1]), {"v": f"val{op[2]}"}
                )
            )
    # Drain: close every bound so all configurations reach the same
    # quiescent state (lazy mode defers pool work to bound boundaries, so
    # only quiescent states are comparable instance-by-instance).
    # ``close=False`` skips this for per-thread slices of a multi-thread
    # trace, whose bounds are closed once after all threads join.
    if close:
        for bound in range(N_BOUNDS):
            events.append(return_event(f"diff_bound{bound}", (), 0))
    return events


def verdict(runtime: TeslaRuntime, n_classes: int):
    """Per-class (accepts, errors, sites reached, live instances)."""
    out = []
    for index in range(n_classes):
        accepts = errors = sites = live = 0
        for cr in runtime.all_class_runtimes(class_name(index)):
            accepts += cr.accepts
            errors += cr.errors
            sites += cr.sites_reached
            live += len(cr.pool)
        out.append((accepts, errors, sites, live))
    return out


@st.composite
def scenarios(draw):
    n_classes = draw(st.integers(min_value=2, max_value=5))
    specs = tuple(
        (
            draw(st.integers(0, N_BOUNDS - 1)),
            draw(st.sampled_from(["global", "perthread"])),
        )
        for _ in range(n_classes)
    )
    op = st.one_of(
        st.tuples(st.just("init"), st.integers(0, N_BOUNDS - 1)),
        st.tuples(st.just("cleanup"), st.integers(0, N_BOUNDS - 1)),
        st.tuples(
            st.just("check"),
            st.integers(0, n_classes - 1),
            st.integers(0, N_VALUES - 1),
        ),
        st.tuples(
            st.just("site"),
            st.integers(0, n_classes - 1),
            st.integers(0, N_VALUES - 1),
        ),
    )
    ops = draw(st.lists(op, min_size=4, max_size=48))
    return specs, ops


CONFIGS = [
    ("naive", dict(lazy=False, compile=False)),
    ("lazy", dict(lazy=True, compile=False)),
    ("batched", dict(lazy=True, compile=False)),
    ("deferred", dict(lazy=True, compile=False, deferred="manual")),
    ("codegen", dict(lazy=True, compile=True)),
    ("codegen-naive", dict(lazy=False, compile=True)),
    ("codegen-batched", dict(lazy=True, compile=True)),
    ("deferred-codegen", dict(lazy=True, compile=True, deferred="manual")),
]


def replay(name: str, runtime: TeslaRuntime, events: List[RuntimeEvent]):
    if name.endswith("batched"):
        # Odd chunk size so batch boundaries fall mid-bound, mid-clone,
        # everywhere — any state leaked across a batch edge shows up as a
        # divergence from the per-event configurations.
        for start in range(0, len(events), 7):
            runtime.dispatch_batch(events[start : start + 7])
    else:
        for event in events:
            runtime.handle_event(event)
        if runtime.drain is not None:
            # Deferred capture: evaluate whatever the trace's sync points
            # didn't already force before reading verdicts.
            runtime.flush_deferred()


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(scenarios())
def test_all_modes_agree(scenario):
    specs, ops = scenario
    events = events_of(ops)
    verdicts = {}
    for name, kwargs in CONFIGS:
        runtime = build_runtime(specs, **kwargs)
        replay(name, runtime, events)
        verdicts[name] = verdict(runtime, len(specs))
    baseline = verdicts["naive"]
    for name, got in verdicts.items():
        assert got == baseline, (
            f"{name} diverged from naive: {got} != {baseline} "
            f"(specs={specs}, ops={ops})"
        )
    # Drained traces leave no live instances in any configuration.
    assert all(live == 0 for (_, _, _, live) in baseline)


@settings(max_examples=50, deadline=None)
@given(scenarios())
def test_violation_streams_agree(scenario):
    """Not just counts: the full ordered sequence of (class, reason)
    violations, across classes, must match the naive interpreter's — a
    batch keeps cross-class arrival order under its one lock."""
    specs, ops = scenario
    events = events_of(ops)
    streams = {}
    for name, kwargs in CONFIGS:
        runtime = build_runtime(specs, **kwargs)
        replay(name, runtime, events)
        streams[name] = [
            (violation.automaton, violation.reason)
            for violation in runtime.hub.policy.violations
        ]
    baseline = streams["naive"]
    for name, got in streams.items():
        assert got == baseline, f"{name} violation stream diverged"


def test_known_interleaving_regression():
    """A hand-picked trace exercising re-entrant bounds, cleanup without
    init, sites outside bounds and cross-bound classes — kept as a
    deterministic anchor alongside the randomized sweep."""
    specs = ((0, "global"), (0, "perthread"), (1, "global"))
    ops = [
        ("cleanup", 0),          # close a bound that never opened
        ("site", 0, 0),          # site outside any bound: ignored
        ("init", 0),
        ("init", 0),             # re-entrant: ignored
        ("check", 0, 1),
        ("site", 0, 1),          # satisfied
        ("site", 1, 2),          # same bound, other class: violation
        ("init", 1),
        ("check", 2, 0),
        ("cleanup", 0),
        ("site", 2, 0),          # bound 1 still open: satisfied
        ("check", 0, 1),         # bound 0 closed again: ignored
    ]
    events = events_of(ops)
    verdicts = {}
    for name, kwargs in CONFIGS:
        runtime = build_runtime(specs, **kwargs)
        replay(name, runtime, events)
        verdicts[name] = verdict(runtime, len(specs))
    assert len({tuple(v) for v in verdicts.values()}) == 1, verdicts
    accepts0, errors0, sites0, live0 = verdicts["naive"][0]
    assert (accepts0, errors0) == (1, 0)
    assert verdicts["naive"][1][1] == 1  # class 1's site had no check
    assert verdicts["naive"][2][:2] == (1, 0)


# -- the replay oracle: real concurrency vs the naive interpreter --------------

#: Deferred flavours the multi-thread oracle sweeps: deterministic manual
#: drains on either engine, and the background drainer racing the
#: producers for real.
MT_DEFERRED_CONFIGS = [
    ("mt-deferred", dict(lazy=True, compile=False, deferred="manual")),
    ("mt-deferred-background", dict(lazy=True, compile=True,
                                    deferred=True)),
    ("mt-deferred-codegen", dict(lazy=True, compile=True,
                                 deferred="manual")),
]

N_THREADS = 8


@st.composite
def mt_scenarios(draw):
    """Global-context classes only: per-thread contexts never ride the
    rings (they are evaluated inline on the capturing thread), so the
    merged-sequence oracle is defined for global automata."""
    n_classes = draw(st.integers(min_value=2, max_value=4))
    specs = tuple(
        (draw(st.integers(0, N_BOUNDS - 1)), "global")
        for _ in range(n_classes)
    )
    op = st.one_of(
        st.tuples(st.just("init"), st.integers(0, N_BOUNDS - 1)),
        st.tuples(st.just("cleanup"), st.integers(0, N_BOUNDS - 1)),
        st.tuples(
            st.just("check"),
            st.integers(0, n_classes - 1),
            st.integers(0, N_VALUES - 1),
        ),
        st.tuples(
            st.just("site"),
            st.integers(0, n_classes - 1),
            st.integers(0, N_VALUES - 1),
        ),
    )
    thread_ops = [
        draw(st.lists(op, min_size=1, max_size=10))
        for _ in range(N_THREADS)
    ]
    return specs, thread_ops


def capture_concurrently(runtime: TeslaRuntime, thread_ops):
    """Run each op slice on its own thread; returns the merged dispatch
    log the controller recorded."""
    log = runtime.drain.record_sequence()
    barrier = threading.Barrier(len(thread_ops))

    def worker(ops):
        events = events_of(ops, close=False)
        barrier.wait()
        for event in events:
            runtime.handle_event(event)

    threads = [
        threading.Thread(target=worker, args=(ops,)) for ops in thread_ops
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    # Quiesce from the main thread: close every bound, then evaluate
    # everything that was still sitting in the rings.
    for bound in range(N_BOUNDS):
        runtime.handle_event(return_event(f"diff_bound{bound}", (), 0))
    runtime.flush_deferred()
    if runtime.drain.drainer_alive:
        runtime.drain.stop()
    return log


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(mt_scenarios())
def test_deferred_multithread_matches_naive_replay_of_merged_trace(scenario):
    """The oracle proper: whatever interleaving the 8 threads actually
    produced, replaying the recorded merged sequence through the naive
    synchronous interpreter must reproduce the deferred verdicts —
    verdicts are a function of the merged order alone."""
    specs, thread_ops = scenario
    for name, kwargs in MT_DEFERRED_CONFIGS:
        runtime = build_runtime(specs, **kwargs)
        log = capture_concurrently(runtime, thread_ops)
        got = verdict(runtime, len(specs))
        stats = runtime.drain.stats()
        assert stats["events_lost_to_faults"] == 0
        assert stats["events_enqueued"] == stats["events_drained"], (
            f"{name} lost or duplicated events: {stats}"
        )
        # The log is the merged sequence: seqno-sorted, every capture once.
        seqnos = [seqno for seqno, _ in log]
        assert seqnos == sorted(seqnos)
        assert len(seqnos) == len(set(seqnos)) == stats["events_drained"]
        reference = build_runtime(specs, lazy=False, compile=False)
        for _, event in log:
            reference.handle_event(event)
        expected = verdict(reference, len(specs))
        assert got == expected, (
            f"{name} diverged from naive replay of its own merged trace: "
            f"{got} != {expected} (specs={specs})"
        )
        # Quiescent traces leave no live instances anywhere.
        assert all(live == 0 for (_, _, _, live) in got)


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(mt_scenarios())
def test_deferred_multithread_violation_streams_match_replay(scenario):
    """Stronger than counts: the violation *reason sequences* per class
    must match the naive replay of the merged trace."""
    specs, thread_ops = scenario
    runtime = build_runtime(
        specs, lazy=True, compile=True, deferred="manual"
    )
    log = capture_concurrently(runtime, thread_ops)
    reference = build_runtime(specs, lazy=False, compile=False)
    for _, event in log:
        reference.handle_event(event)

    def stream(rt):
        per_class: Dict[str, List[str]] = {}
        for violation in rt.hub.policy.violations:
            per_class.setdefault(violation.automaton, []).append(
                violation.reason
            )
        return per_class

    assert stream(runtime) == stream(reference)
