"""Differential: timed verdicts agree across every runtime configuration.

Timed assertions (DESIGN §5.9) move part of the semantics off the event
*order* and onto the event *timestamps*: clock guards filter transitions,
deadlines expire without a successor event, sliding rate windows count
occurrences per span of capture time.  Every layer that toucheds a trace —
the naive interpreter, lazy instantiation, the tesla-jit generated path
(which refuses timed automata and must fall back loudly, per key, to the
naive interpreter), the deferred ring/drain pipeline and batched dispatch —
therefore has a new way to diverge.  This module is the timed counterpart
of ``test_mode_equivalence.py``:

* randomized timed traces are built *pre-stamped* on a
  :class:`~repro.runtime.clock.FakeClock` timeline and fed with
  ``stamp_capture=False``, so the capture stamps (not wall-clock arrival)
  are the single time source and every configuration sees the identical
  timed trace;
* all configurations must agree on per-class verdicts and on the
  (sorted) violation-reason streams — sorted because pre-event expiry
  and flush-time expiry may interleave deadline reports differently
  without changing the set of verdicts;
* a journaling twin proves the capture timestamps survive the journal
  byte-exactly and that replay (naive / codegen) and the
  independent LTL oracle reproduce the live timed verdicts from the
  journal alone.

The acceptance scenario of the timed work rides at the bottom: a deadline
violated with *no successor event*, reported at the next synchronization
flush, deterministic under FakeClock, and replaying identically from a
journal through the oracle.
"""

from __future__ import annotations

import io
from typing import Dict, List, Tuple

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.dsl import (
    call,
    deadline,
    eventually,
    previously,
    rate_atmost,
    tesla_within,
    within_ms,
)
from repro.core.events import (
    RuntimeEvent,
    assertion_site_event,
    call_event,
    return_event,
)
from repro.replay import ReplayEngine, ltl_verdicts
from repro.runtime.clock import FakeClock
from repro.runtime.journal import read_journal
from repro.runtime.manager import TeslaRuntime
from repro.runtime.notify import LogAndContinue
from repro.runtime.update import DEADLINE_REASON

#: (index, shape, ms) → TemporalAssertion.  Assertions are immutable and
#: automata are re-translated per install, so one cache serves every
#: runtime of every example.
_ASSERTION_CACHE: Dict[Tuple[int, str, float], object] = {}

ClassSpec = Tuple[str, float]  # (shape, milliseconds)

SHAPES = ("deadline", "within", "rate")
#: Budgets straddling the generator's inter-event gaps, so guards pass,
#: fail and sit exactly on the boundary across the corpus.
MS_CHOICES = (5.0, 20.0, 80.0)
#: Inter-event gaps in seconds; 0.0 keeps simultaneous stamps in play.
DT_CHOICES = (0.0, 0.001, 0.004, 0.01, 0.03, 0.1)


def class_name(index: int) -> str:
    return f"timed_cls{index}"


def assertion_for(index: int, shape: str, ms: float):
    key = (index, shape, ms)
    cached = _ASSERTION_CACHE.get(key)
    if cached is None:
        if shape == "deadline":
            # Site reached, then t_done within ms of *bound entry* — the
            # obligation-with-expiry form; fires at flush with no successor.
            expression = eventually(deadline(ms, call("t_done")))
        elif shape == "within":
            # t_prep within ms of bound entry, then the site — a guarded
            # pre sequence; a late t_prep degrades to a site violation.
            expression = previously(within_ms(ms, call("t_prep")))
        else:
            # At most 2 t_ticks in any sliding ms window after the site.
            expression = eventually(rate_atmost(2, call("t_tick"), ms))
        cached = tesla_within("t_bound", expression, name=class_name(index))
        _ASSERTION_CACHE[key] = cached
    return cached


def assertions_of(specs: Tuple[ClassSpec, ...]):
    return [
        assertion_for(index, shape, ms)
        for index, (shape, ms) in enumerate(specs)
    ]


def stamped(event: RuntimeEvent, ts: float) -> RuntimeEvent:
    """Pre-stamp a capture timestamp, the way the journal decoder and the
    ring record do.  ``timestamp`` is the one mutable-by-design slot of
    the frozen event record."""
    object.__setattr__(event, "timestamp", ts)
    return event


Step = Tuple  # (op tuple, dt seconds)


def events_of(
    steps: List[Step], trailing: float, close: bool, n_classes: int
) -> List[RuntimeEvent]:
    """A pre-stamped single-thread trace.

    The trace always ends with an *unrelated* event stamped ``trailing``
    seconds after the last op: it advances capture time past any pending
    deadline without touching any timed class, so flush-time expiry (the
    no-successor-event path) is exercised whenever the generator leaves
    an obligation open — and live, replay and oracle all judge the trace
    at the same final timestamp.
    """
    events: List[RuntimeEvent] = []
    ts = 0.0
    for op, dt in steps:
        ts += dt
        if op[0] == "enter":
            events.append(stamped(call_event("t_bound", ()), ts))
        elif op[0] == "exit":
            events.append(stamped(return_event("t_bound", (), 0), ts))
        elif op[0] == "prep":
            events.append(stamped(call_event("t_prep", ()), ts))
        elif op[0] == "done":
            events.append(stamped(call_event("t_done", ()), ts))
        elif op[0] == "tick":
            events.append(stamped(call_event("t_tick", ()), ts))
        else:  # ("site", class index)
            events.append(
                stamped(assertion_site_event(class_name(op[1]), {}), ts)
            )
    if close:
        events.append(stamped(return_event("t_bound", (), 0), ts))
    events.append(stamped(call_event("t_noise", ()), ts + trailing))
    return events


def build_runtime(specs: Tuple[ClassSpec, ...], **kwargs) -> TeslaRuntime:
    runtime = TeslaRuntime(
        policy=LogAndContinue(),
        stamp_capture=False,
        clock=FakeClock(),
        **kwargs,
    )
    runtime.install_assertions(assertions_of(specs))
    return runtime


def verdict(runtime: TeslaRuntime, n_classes: int):
    """Per-class (accepts, errors, sites reached).

    Live-instance counts are deliberately excluded: the generator may
    leave bounds open at trace end (that is how flush-time deadline
    expiry is reached), and lazy instantiation defers pool work to bound
    boundaries, so only delivered verdicts are comparable there.
    """
    out = []
    for index in range(n_classes):
        accepts = errors = sites = 0
        for cr in runtime.all_class_runtimes(class_name(index)):
            accepts += cr.accepts
            errors += cr.errors
            sites += cr.sites_reached
        out.append((accepts, errors, sites))
    return out


def sorted_streams(runtime: TeslaRuntime) -> Dict[str, List[str]]:
    per_class: Dict[str, List[str]] = {}
    for violation in runtime.hub.policy.violations:
        per_class.setdefault(violation.automaton, []).append(violation.reason)
    return {name: sorted(reasons) for name, reasons in per_class.items()}


@st.composite
def timed_scenarios(draw):
    n_classes = draw(st.integers(min_value=1, max_value=3))
    specs = tuple(
        (draw(st.sampled_from(SHAPES)), draw(st.sampled_from(MS_CHOICES)))
        for _ in range(n_classes)
    )
    op = st.one_of(
        st.sampled_from(
            [("enter",), ("exit",), ("prep",), ("done",), ("tick",)]
        ),
        st.tuples(st.just("site"), st.integers(0, n_classes - 1)),
    )
    steps = draw(
        st.lists(
            st.tuples(op, st.sampled_from(DT_CHOICES)),
            min_size=4,
            max_size=40,
        )
    )
    trailing = draw(st.sampled_from(DT_CHOICES))
    close = draw(st.booleans())
    return specs, steps, trailing, close


CONFIGS = [
    ("naive", dict(lazy=False, compile=False)),
    ("lazy", dict(lazy=True, compile=False)),
    ("batched", dict(lazy=True, compile=False)),
    # tesla-jit refuses clock guards per key and falls back to the naive
    # interpreter — this config proves the fallback is loud but
    # semantically invisible.
    ("codegen", dict(lazy=True, compile=True)),
    ("deferred", dict(lazy=True, compile=False, deferred="manual")),
    ("deferred-codegen", dict(lazy=True, compile=True, deferred="manual")),
]


def replay(name: str, runtime: TeslaRuntime, events: List[RuntimeEvent]):
    if name == "batched":
        # Odd chunk size so batch edges fall mid-window; with
        # stamp_capture=False the pre-set stamps ride through unchanged.
        for start in range(0, len(events), 7):
            runtime.dispatch_batch(events[start : start + 7])
    else:
        for event in events:
            runtime.handle_event(event)
    # The synchronization point: flushes deferred captures *and* checks
    # pending timer obligations in every configuration.
    runtime.flush_deferred()


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(timed_scenarios())
def test_all_timed_modes_agree(scenario):
    specs, steps, trailing, close = scenario
    events = events_of(steps, trailing, close, len(specs))
    results = {}
    for name, kwargs in CONFIGS:
        runtime = build_runtime(specs, **kwargs)
        replay(name, runtime, events)
        results[name] = (
            verdict(runtime, len(specs)),
            sorted_streams(runtime),
        )
    baseline = results["naive"]
    for name, got in results.items():
        assert got == baseline, (
            f"{name} diverged from naive on a timed trace: {got} != "
            f"{baseline} (specs={specs}, steps={steps}, "
            f"trailing={trailing}, close={close})"
        )


_BOUNDARY_STEPS = [
    (("enter",), 0.004),
    (("enter",), 0.0),
    (("enter",), 0.001),
    (("site", 0), 0.004),
]


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(timed_scenarios())
# The site sits on the deadline, after two re-entries of the open bound
# (which keep the first entry stamp).  In floats, entry + deadline equals
# the site's stamp, yet site - entry exceeds the deadline: the runtime's
# ``now - entry > deadline`` expires the obligation.  The LTL oracle once
# compared ``now > entry + deadline`` and missed the expiry.
@example(((("deadline", 5.0),), _BOUNDARY_STEPS, 0.0, False))
@example(((("deadline", 5.0),), _BOUNDARY_STEPS, 0.0, True))
def test_timed_journal_replays_to_live_verdicts(scenario):
    """Record → replay → oracle, timed: the journalled capture stamps
    round-trip byte-exactly and are sufficient evidence to reproduce the
    live timed verdicts offline."""
    specs, steps, trailing, close = scenario
    events = events_of(steps, trailing, close, len(specs))
    buf = io.BytesIO()
    runtime = TeslaRuntime(
        policy=LogAndContinue(),
        stamp_capture=False,
        clock=FakeClock(),
        deferred="manual",
        journal=buf,
    )
    runtime.install_assertions(assertions_of(specs))
    try:
        for event in events:
            runtime.handle_event(event)
        runtime.flush_deferred()
        runtime.close_journal()
        live = verdict(runtime, len(specs))
        live_streams = sorted_streams(runtime)

        journal = read_journal(buf)
        assert journal.clean_close
        # Byte-exact timestamp round-trip: struct '<d' encodes the float
        # identically or not at all, so equality here is bit equality.
        assert [e.timestamp for _, e in journal.slots] == [
            e.timestamp for e in events
        ]

        engine = ReplayEngine(journal)
        for config in ("naive", "codegen"):
            result = engine.run(config)
            replayed = [
                result.classes[class_name(index)].as_tuple()[:3]
                for index in range(len(specs))
            ]
            assert replayed == live, (
                f"timed journal replay ({config}) diverged: {replayed} != "
                f"{live} (specs={specs})"
            )
            replay_streams = {
                name: sorted(reasons)
                for name, reasons in result.violations.items()
            }
            assert replay_streams == live_streams, (
                f"timed replay ({config}) violation streams diverged"
            )

        verdicts = ltl_verdicts(engine.assertions, engine.slots)
        oracle_counts = [
            (v.accepts, v.errors, v.satisfied_sites)
            for v in (verdicts[class_name(i)] for i in range(len(specs)))
        ]
        assert oracle_counts == live, (
            f"LTL oracle diverged on a timed trace: {oracle_counts} != "
            f"{live} (specs={specs})"
        )
        oracle_streams = {
            name: sorted(v.reason_stream())
            for name, v in verdicts.items()
            if v.violations
        }
        assert oracle_streams == live_streams
    finally:
        runtime.reset()


class TestAcceptance:
    """The issue's acceptance scenario, verbatim: a deadline violation
    with no successor event is reported at the next sync-point flush,
    deterministically reproducible under FakeClock, and replays
    identically from a journal through the independent LTL oracle."""

    def test_deadline_without_successor_fires_at_flush_and_replays(self):
        clock = FakeClock()
        buf = io.BytesIO()
        assertion = tesla_within(
            "t_bound",
            eventually(deadline(50.0, call("t_done"))),
            name="timed_cls0",
        )
        runtime = TeslaRuntime(
            policy=LogAndContinue(),
            clock=clock,
            deferred="manual",
            journal=buf,
        )
        runtime.install_assertions([assertion])
        try:
            runtime.handle_event(call_event("t_bound", ()))
            clock.advance(0.015625)
            runtime.handle_event(assertion_site_event("timed_cls0", {}))
            # No t_done ever arrives.  Time passes well beyond
            # entry + 50ms; the only further event is unrelated noise
            # (it reaches no timed class — nothing steps the automaton).
            clock.advance(0.25)
            runtime.handle_event(call_event("t_noise", ()))
            assert runtime.hub.policy.violations == []

            # The next synchronization flush reports the expiry.
            runtime.flush_deferred()
            reasons = [v.reason for v in runtime.hub.policy.violations]
            assert reasons == [DEADLINE_REASON]
            assert runtime.timer_expiries == 1
            assert runtime.timer_checks >= 1

            runtime.close_journal()
            journal = read_journal(buf)
            # FakeClock stamped capture: the journal carries the exact
            # fake timeline, so offline replay sees identical evidence.
            assert [e.timestamp for _, e in journal.slots] == [
                0.0, 0.015625, 0.265625,
            ]

            engine = ReplayEngine(journal)
            for config in ("naive", "codegen"):
                result = engine.run(config)
                assert result.violations == {
                    "timed_cls0": [DEADLINE_REASON]
                }, f"replay ({config}) lost the no-successor deadline"

            verdicts = ltl_verdicts(engine.assertions, engine.slots)
            assert verdicts["timed_cls0"].reason_stream() == [
                DEADLINE_REASON
            ]
        finally:
            runtime.reset()

    def test_rerun_is_deterministic(self):
        """Same FakeClock script twice → byte-identical journals."""

        def run() -> bytes:
            clock = FakeClock()
            buf = io.BytesIO()
            runtime = TeslaRuntime(
                policy=LogAndContinue(),
                clock=clock,
                deferred="manual",
                journal=buf,
            )
            runtime.install_assertions(
                [
                    tesla_within(
                        "t_bound",
                        eventually(deadline(50.0, call("t_done"))),
                        name="timed_cls0",
                    )
                ]
            )
            try:
                runtime.handle_event(call_event("t_bound", ()))
                clock.advance(0.015625)
                runtime.handle_event(
                    assertion_site_event("timed_cls0", {})
                )
                clock.advance(0.25)
                runtime.handle_event(call_event("t_noise", ()))
                runtime.flush_deferred()
                runtime.close_journal()
                return (
                    buf.getvalue(),
                    tuple(
                        (v.automaton, v.reason)
                        for v in runtime.hub.policy.violations
                    ),
                )
            finally:
                runtime.reset()

        assert run() == run()
