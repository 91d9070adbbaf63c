"""Unit coverage for the timed runtime machinery (DESIGN §5.9): capture
stamping, guard filtering, pre-event and flush-time deadline expiry,
sliding rate windows, journal timestamp round-trips, codegen refusal and
introspection counters."""

import pytest

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
    EventKind,
    assertion_site_event,
    call_event,
    return_event,
)
from repro.core.translate import translate
from repro.introspect import dispatch_stats
from repro.runtime.clock import FakeClock
from repro.runtime.codegen import GenerationFallback, compile_plan_step
from repro.runtime.plans import build_transition_plan
from repro.runtime.journal import decode_event, encode_event
from repro.runtime.manager import TeslaRuntime
from repro.runtime.notify import LogAndContinue
from repro.runtime.update import DEADLINE_REASON, RATE_REASON


def stamped(event, ts):
    object.__setattr__(event, "timestamp", ts)
    return event


def deadline_assertion(name="td_cls", ms=50.0):
    return tesla_within(
        "td_bound", eventually(deadline(ms, call("td_done"))), name=name
    )


def runtime_with(assertion, **kwargs):
    kwargs.setdefault("policy", LogAndContinue())
    runtime = TeslaRuntime(**kwargs)
    runtime.install_assertions([assertion])
    return runtime


def reasons(runtime):
    return [v.reason for v in runtime.hub.policy.violations]


class TestCaptureStamping:
    def test_handle_event_stamps_from_the_runtime_clock(self):
        clock = FakeClock()
        runtime = runtime_with(deadline_assertion(), clock=clock)
        clock.advance(1.5)
        event = call_event("td_bound", ())
        runtime.handle_event(event)
        assert event.timestamp == 1.5

    def test_unobserved_events_still_get_stamped(self):
        # Stamping happens at capture, before dispatch filtering — the
        # stamp is evidence about the trace, not about this runtime's
        # interest in the event.
        clock = FakeClock()
        runtime = runtime_with(deadline_assertion(), clock=clock)
        clock.advance(2.0)
        event = call_event("completely_unrelated", ())
        runtime.handle_event(event)
        assert event.timestamp == 2.0

    def test_prestamped_events_preserved_when_not_stamping(self):
        runtime = runtime_with(
            deadline_assertion(), stamp_capture=False, clock=FakeClock()
        )
        event = stamped(call_event("td_bound", ()), 123.456)
        runtime.handle_event(event)
        assert event.timestamp == 123.456

    def test_batch_dispatch_reads_the_clock_once(self):
        clock = FakeClock()
        runtime = runtime_with(deadline_assertion(), clock=clock)
        clock.advance(3.0)
        events = [call_event("td_bound", ()) for _ in range(4)]
        runtime.dispatch_batch(events)
        assert [event.timestamp for event in events] == [3.0] * 4


class TestTimerSweep:
    def test_flush_expiry_without_successor_event(self):
        clock = FakeClock()
        runtime = runtime_with(deadline_assertion(ms=50.0), clock=clock)
        runtime.handle_event(call_event("td_bound", ()))
        runtime.handle_event(assertion_site_event("td_cls", {}))
        clock.advance(0.2)
        assert reasons(runtime) == []
        expired = runtime.check_timers()
        assert expired == 1
        assert reasons(runtime) == [DEADLINE_REASON]
        assert runtime.timer_checks == 1
        assert runtime.timer_expiries == 1

    def test_sweep_before_the_boundary_expires_nothing(self):
        clock = FakeClock()
        runtime = runtime_with(deadline_assertion(ms=50.0), clock=clock)
        runtime.handle_event(call_event("td_bound", ()))
        runtime.handle_event(assertion_site_event("td_cls", {}))
        clock.advance(0.04)
        assert runtime.check_timers() == 0
        assert runtime.timer_checks == 1
        assert runtime.timer_expiries == 0
        assert reasons(runtime) == []

    def test_sweep_is_free_without_timed_classes(self):
        runtime = runtime_with(
            tesla_within("td_bound", previously(call("f")), name="plain")
        )
        assert runtime.check_timers() == 0
        # The early-out is observable: no sweep is even counted.
        assert runtime.timer_checks == 0

    def test_sweep_judges_at_max_of_clock_and_event_stamps(self):
        # Replay feeds pre-stamped events; the trace's own final stamp
        # counts as elapsed capture time even if the (fake) clock idles.
        runtime = runtime_with(
            deadline_assertion(ms=50.0),
            stamp_capture=False,
            clock=FakeClock(),
        )
        runtime.handle_event(stamped(call_event("td_bound", ()), 0.0))
        runtime.handle_event(stamped(assertion_site_event("td_cls", {}), 0.0))
        runtime.handle_event(stamped(call_event("noise", ()), 0.5))
        assert runtime.check_timers() == 1
        assert reasons(runtime) == [DEADLINE_REASON]

    def test_flush_deferred_sweeps_without_a_drain(self):
        clock = FakeClock()
        runtime = runtime_with(deadline_assertion(ms=50.0), clock=clock)
        runtime.handle_event(call_event("td_bound", ()))
        runtime.handle_event(assertion_site_event("td_cls", {}))
        clock.advance(0.2)
        runtime.flush_deferred()  # no drain installed: sync point only
        assert reasons(runtime) == [DEADLINE_REASON]

    def test_discharged_obligation_never_expires(self):
        clock = FakeClock()
        runtime = runtime_with(deadline_assertion(ms=50.0), clock=clock)
        runtime.handle_event(call_event("td_bound", ()))
        runtime.handle_event(assertion_site_event("td_cls", {}))
        clock.advance(0.01)
        runtime.handle_event(call_event("td_done", ()))
        clock.advance(5.0)
        assert runtime.check_timers() == 0
        runtime.handle_event(return_event("td_bound", (), 0))
        assert reasons(runtime) == []
        assert sum(
            cr.accepts for cr in runtime.all_class_runtimes("td_cls")
        ) == 1


class TestPreEventExpiry:
    def test_successor_event_reports_the_expiry_first(self):
        clock = FakeClock()
        runtime = runtime_with(deadline_assertion(ms=50.0), clock=clock)
        runtime.handle_event(call_event("td_bound", ()))
        runtime.handle_event(assertion_site_event("td_cls", {}))
        clock.advance(0.2)
        # td_done arrives far too late: the sweep at the top of its own
        # dispatch expires the obligation before the event is matched.
        runtime.handle_event(call_event("td_done", ()))
        assert reasons(runtime) == [DEADLINE_REASON]
        assert runtime.timer_expiries == 0  # pre-event path, not a sweep

    def test_late_cleanup_is_a_deadline_not_a_cleanup_violation(self):
        clock = FakeClock()
        runtime = runtime_with(deadline_assertion(ms=50.0), clock=clock)
        runtime.handle_event(call_event("td_bound", ()))
        runtime.handle_event(assertion_site_event("td_cls", {}))
        clock.advance(0.2)
        runtime.handle_event(return_event("td_bound", (), 0))
        assert reasons(runtime) == [DEADLINE_REASON]

    def test_in_time_cleanup_is_an_ordinary_cleanup_violation(self):
        clock = FakeClock()
        runtime = runtime_with(deadline_assertion(ms=50.0), clock=clock)
        runtime.handle_event(call_event("td_bound", ()))
        runtime.handle_event(assertion_site_event("td_cls", {}))
        clock.advance(0.01)
        runtime.handle_event(return_event("td_bound", (), 0))
        got = reasons(runtime)
        assert len(got) == 1
        assert got != [DEADLINE_REASON]


class TestWithinGuards:
    def assertion(self, ms=20.0):
        return tesla_within(
            "td_bound",
            previously(within_ms(ms, call("td_prep"))),
            name="tw_cls",
        )

    def test_in_time_step_passes_the_guard(self):
        clock = FakeClock()
        runtime = runtime_with(self.assertion(), clock=clock)
        runtime.handle_event(call_event("td_bound", ()))
        clock.advance(0.01)
        runtime.handle_event(call_event("td_prep", ()))
        runtime.handle_event(assertion_site_event("tw_cls", {}))
        runtime.handle_event(return_event("td_bound", (), 0))
        assert reasons(runtime) == []
        assert sum(
            cr.accepts for cr in runtime.all_class_runtimes("tw_cls")
        ) == 1

    def test_boundary_is_inclusive(self):
        clock = FakeClock()
        runtime = runtime_with(self.assertion(ms=20.0), clock=clock)
        runtime.handle_event(call_event("td_bound", ()))
        clock.advance(0.02)  # exactly the budget
        runtime.handle_event(call_event("td_prep", ()))
        runtime.handle_event(assertion_site_event("tw_cls", {}))
        runtime.handle_event(return_event("td_bound", (), 0))
        assert reasons(runtime) == []

    def test_late_step_is_filtered_and_the_site_violates(self):
        clock = FakeClock()
        runtime = runtime_with(self.assertion(), clock=clock)
        runtime.handle_event(call_event("td_bound", ()))
        clock.advance(0.05)  # past the 20ms budget
        runtime.handle_event(call_event("td_prep", ()))
        runtime.handle_event(assertion_site_event("tw_cls", {}))
        got = reasons(runtime)
        assert len(got) == 1
        assert "site" in got[0] or "instance" in got[0]


class TestRateWindows:
    def assertion(self):
        return tesla_within(
            "td_bound",
            eventually(rate_atmost(2, call("td_tick"), 50.0)),
            name="tr_cls",
        )

    def feed(self, tick_gaps):
        clock = FakeClock()
        runtime = runtime_with(self.assertion(), clock=clock)
        runtime.handle_event(call_event("td_bound", ()))
        runtime.handle_event(assertion_site_event("tr_cls", {}))
        for gap in tick_gaps:
            clock.advance(gap)
            runtime.handle_event(call_event("td_tick", ()))
        runtime.handle_event(return_event("td_bound", (), 0))
        return runtime

    def test_spaced_ticks_slide_cleanly(self):
        runtime = self.feed([0.04, 0.04, 0.04, 0.04])
        assert reasons(runtime) == []

    def test_burst_beyond_budget_blocks_each_excess_tick(self):
        runtime = self.feed([0.001, 0.001, 0.001, 0.001])
        assert reasons(runtime) == [RATE_REASON, RATE_REASON]

    def test_blocked_ticks_do_not_extend_the_window(self):
        # Burst of 3 (third blocked), then a gap that expires the first
        # two marks: the next tick must be admitted — if the blocked
        # tick had joined the window it would still be saturated.
        runtime = self.feed([0.001, 0.001, 0.001, 0.06, 0.001])
        assert reasons(runtime) == [RATE_REASON]


class TestCodegenRefusal:
    def test_timed_plan_generation_falls_back_with_reason(self):
        automaton = translate(deadline_assertion())
        key = (EventKind.CALL, "td_done")
        plan = build_transition_plan(automaton, key)
        entry = compile_plan_step(automaton, plan, None)
        assert isinstance(entry, GenerationFallback)
        assert entry.reason == "timed-automaton:clock-guards"

    def test_codegen_runtime_records_the_fallback_loudly(self):
        clock = FakeClock()
        runtime = runtime_with(
            deadline_assertion(),
            clock=clock,
            lazy=True,
            compile=True,
        )
        runtime.handle_event(call_event("td_bound", ()))
        runtime.handle_event(assertion_site_event("td_cls", {}))
        clock.advance(0.01)
        runtime.handle_event(call_event("td_done", ()))
        runtime.handle_event(return_event("td_bound", (), 0))
        assert reasons(runtime) == []
        (cr,) = runtime.all_class_runtimes("td_cls")
        assert cr.accepts == 1
        summary = cr.gen_summary()
        assert any(
            reason == "timed-automaton:clock-guards"
            for _, reason in summary["fallback_keys"]
        )


    @pytest.mark.parametrize("late_s", [0.01, 0.2])
    def test_fallback_verdicts_equal_the_naive_engine(self, late_s):
        """The generated engine's fallback for a timed class is the naive
        interpreter itself: on time or late, the verdicts are the same."""

        def run(compile):
            clock = FakeClock()
            runtime = runtime_with(
                deadline_assertion(), clock=clock, compile=compile
            )
            runtime.handle_event(call_event("td_bound", ()))
            runtime.handle_event(assertion_site_event("td_cls", {}))
            clock.advance(late_s)
            runtime.handle_event(call_event("td_done", ()))
            runtime.handle_event(return_event("td_bound", (), 0))
            (cr,) = runtime.all_class_runtimes("td_cls")
            return runtime, (cr.accepts, cr.errors, reasons(runtime))

        jitted, jitted_verdicts = run(True)
        _, naive_verdicts = run(False)
        assert jitted_verdicts == naive_verdicts
        stats = dispatch_stats(jitted)
        assert stats.gen_fallback_plans > 0
        assert stats.gen_hits == 0


class TestJournalTimestamps:
    @pytest.mark.parametrize(
        "ts", [0.0, 1e-9, 0.1, 123456.789, 2.5e8], ids=str
    )
    def test_event_timestamp_round_trips_bit_exact(self, ts):
        event = stamped(call_event("td_bound", (1, "x")), ts)
        body, _ = encode_event(7, event)
        seqno, decoded = decode_event(body)
        assert seqno == 7
        assert decoded.timestamp == ts

    def test_events_differing_only_in_stamp_share_payload_prefix(self):
        # The stamp travels outside the cached payload blob: the bodies
        # differ only in their trailing f64.
        a, _ = encode_event(1, stamped(call_event("f", (1,)), 0.25))
        b, _ = encode_event(1, stamped(call_event("f", (1,)), 0.75))
        assert a[:-8] == b[:-8]
        assert a[-8:] != b[-8:]


class TestIntrospection:
    def test_dispatch_stats_surface_timer_counters(self):
        from repro.introspect.aggregate import (
            dispatch_stats,
            format_dispatch_stats,
        )

        clock = FakeClock()
        runtime = runtime_with(deadline_assertion(ms=50.0), clock=clock)
        runtime.handle_event(call_event("td_bound", ()))
        runtime.handle_event(assertion_site_event("td_cls", {}))
        clock.advance(0.2)
        runtime.check_timers()
        stats = dispatch_stats(runtime)
        assert stats.timer_checks == 1
        assert stats.timer_expiries == 1
        text = format_dispatch_stats(stats)
        assert "1 timer sweeps" in text
        assert "1 deadline expiries" in text

    def test_untimed_runtimes_print_no_timer_line(self):
        from repro.introspect.aggregate import (
            dispatch_stats,
            format_dispatch_stats,
        )

        runtime = runtime_with(
            tesla_within("td_bound", previously(call("f")), name="plain2")
        )
        text = format_dispatch_stats(dispatch_stats(runtime))
        assert "timer sweeps" not in text
