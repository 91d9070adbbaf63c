"""Unit tests for the independent LTL oracle (:mod:`repro.replay.ltl_oracle`).

The differential suite proves oracle ≡ runtime over the randomized
corpus; these tests pin the oracle's own semantics — windowing,
``previously``/``eventually`` obligations, binding compatibility, honest
refusals (:class:`LTLUnsupported`) — and cross-check each hand-written
trace against a live runtime so every example is double-entry
bookkeeping, not the oracle grading its own homework.
"""

from __future__ import annotations

import pytest

from repro.core.dsl import (
    ANY,
    call,
    deadline,
    eventually,
    fn,
    incallstack,
    previously,
    returnfrom,
    strictly,
    tesla_global,
    tesla_perthread,
    tesla_within,
    var,
)
from repro.core.events import (
    EventKind,
    RuntimeEvent,
    assertion_site_event,
    call_event,
    return_event,
)
from repro.replay import LTLUnsupported, RUNTIME_REASONS, ltl_verdict
from repro.replay.ltl_oracle import split_at_site
from repro.runtime.clock import FakeClock
from repro.runtime.manager import TeslaRuntime
from repro.runtime.notify import LogAndContinue


def prev_assertion(name="ltl.prev"):
    return tesla_global(
        call("ltl_bound"),
        returnfrom("ltl_bound"),
        previously(fn("ltl_check", ANY("c"), var("v")) == 0),
        name=name,
    )


def event_assertion(name="ltl.event"):
    """``eventually(ack(v) == 0)`` — v is bound at the site."""
    return tesla_global(
        call("ltl_bound"),
        returnfrom("ltl_bound"),
        eventually(fn("ltl_ack", var("v")) == 0),
        name=name,
    )


def slots_of(events):
    return list(enumerate(events))


def live_verdict(assertion, events):
    """The runtime's (accepts, errors, reasons) for the same trace."""
    runtime = TeslaRuntime(policy=LogAndContinue())
    try:
        runtime.install_assertions([assertion])
        for event in events:
            runtime.handle_event(event)
        accepts = errors = 0
        for cr in runtime.all_class_runtimes(assertion.name):
            accepts += cr.accepts
            errors += cr.errors
        reasons = [
            v.reason
            for v in runtime.hub.policy.violations
            if v.automaton == assertion.name
        ]
        return accepts, errors, reasons
    finally:
        runtime.reset()


def agree(assertion, events):
    """Assert oracle == live runtime on this trace; return the oracle."""
    verdict = ltl_verdict(assertion, slots_of(events))
    accepts, errors, reasons = live_verdict(assertion, events)
    assert (verdict.accepts, verdict.errors) == (accepts, errors), (
        f"oracle {verdict.accepts}/{verdict.errors} != "
        f"live {accepts}/{errors}"
    )
    assert verdict.reason_stream() == reasons
    return verdict


class TestPreviously:
    def test_satisfied(self):
        verdict = agree(
            prev_assertion(),
            [
                call_event("ltl_bound", ()),
                return_event("ltl_check", ("c", 4), 0),
                assertion_site_event("ltl.prev", {"v": 4}),
                return_event("ltl_bound", (), 0),
            ],
        )
        assert verdict.accepts == 1
        assert verdict.satisfied_sites == 1

    def test_site_without_prior_check_is_violation(self):
        verdict = agree(
            prev_assertion(),
            [
                call_event("ltl_bound", ()),
                assertion_site_event("ltl.prev", {"v": 4}),
                return_event("ltl_bound", (), 0),
            ],
        )
        assert verdict.kinds == ["site"]

    def test_wrong_binding_is_violation(self):
        verdict = agree(
            prev_assertion(),
            [
                call_event("ltl_bound", ()),
                return_event("ltl_check", ("c", 4), 0),
                assertion_site_event("ltl.prev", {"v": 5}),
                return_event("ltl_bound", (), 0),
            ],
        )
        assert verdict.kinds == ["site"]

    def test_check_with_nonzero_retval_does_not_satisfy(self):
        verdict = agree(
            prev_assertion(),
            [
                call_event("ltl_bound", ()),
                return_event("ltl_check", ("c", 4), 1),
                assertion_site_event("ltl.prev", {"v": 4}),
                return_event("ltl_bound", (), 0),
            ],
        )
        assert verdict.kinds == ["site"]

    def test_repeated_site_reuses_satisfaction(self):
        verdict = agree(
            prev_assertion(),
            [
                call_event("ltl_bound", ()),
                return_event("ltl_check", ("c", 4), 0),
                assertion_site_event("ltl.prev", {"v": 4}),
                assertion_site_event("ltl.prev", {"v": 4}),
                return_event("ltl_bound", (), 0),
            ],
        )
        assert verdict.satisfied_sites == 2
        assert verdict.accepts == 1  # one distinct binding, one accept

    def test_site_outside_bound_is_ignored(self):
        verdict = agree(
            prev_assertion(),
            [
                assertion_site_event("ltl.prev", {"v": 4}),
                call_event("ltl_bound", ()),
                return_event("ltl_bound", (), 0),
            ],
        )
        assert verdict.errors == 0
        assert verdict.satisfied_sites == 0

    def test_check_does_not_survive_bound_close(self):
        verdict = agree(
            prev_assertion(),
            [
                call_event("ltl_bound", ()),
                return_event("ltl_check", ("c", 4), 0),
                return_event("ltl_bound", (), 0),
                call_event("ltl_bound", ()),
                assertion_site_event("ltl.prev", {"v": 4}),
                return_event("ltl_bound", (), 0),
            ],
        )
        assert verdict.kinds == ["site"]

    def test_reentrant_entry_is_not_a_body_event(self):
        verdict = agree(
            prev_assertion(),
            [
                call_event("ltl_bound", ()),
                call_event("ltl_bound", ()),  # re-entrant: ignored
                return_event("ltl_check", ("c", 4), 0),
                assertion_site_event("ltl.prev", {"v": 4}),
                return_event("ltl_bound", (), 0),
            ],
        )
        assert verdict.accepts == 1


class TestEventually:
    def test_discharged(self):
        verdict = agree(
            event_assertion(),
            [
                call_event("ltl_bound", ()),
                assertion_site_event("ltl.event", {"v": 4}),
                return_event("ltl_ack", (4,), 0),
                return_event("ltl_bound", (), 0),
            ],
        )
        assert verdict.accepts == 1

    def test_undischarged_is_cleanup_violation(self):
        verdict = agree(
            event_assertion(),
            [
                call_event("ltl_bound", ()),
                assertion_site_event("ltl.event", {"v": 4}),
                return_event("ltl_bound", (), 0),
            ],
        )
        assert verdict.kinds == ["cleanup"]
        assert verdict.reason_stream() == [RUNTIME_REASONS["cleanup"]]

    def test_ack_with_wrong_value_does_not_discharge(self):
        verdict = agree(
            event_assertion(),
            [
                call_event("ltl_bound", ()),
                assertion_site_event("ltl.event", {"v": 4}),
                return_event("ltl_ack", (5,), 0),
                return_event("ltl_bound", (), 0),
            ],
        )
        assert verdict.kinds == ["cleanup"]

    def test_ack_before_site_does_not_discharge(self):
        verdict = agree(
            event_assertion(),
            [
                call_event("ltl_bound", ()),
                return_event("ltl_ack", (4,), 0),
                assertion_site_event("ltl.event", {"v": 4}),
                return_event("ltl_bound", (), 0),
            ],
        )
        assert verdict.kinds == ["cleanup"]


def deadline_assertion(ms=5.0, name="ltl.deadline"):
    """``eventually(deadline(ms, done))`` inside a perthread bound."""
    return tesla_within(
        "ltl_bound",
        eventually(deadline(ms, call("ltl_done"))),
        name=name,
    )


def stamped(event, ts):
    object.__setattr__(event, "timestamp", ts)
    return event


def agree_timed(assertion, stamped_events):
    """:func:`agree` for pre-stamped traces: the live runtime keeps the
    stamps and its final flush runs the timer check."""
    runtime = TeslaRuntime(
        policy=LogAndContinue(), stamp_capture=False, clock=FakeClock()
    )
    try:
        runtime.install_assertions([assertion])
        for event in stamped_events:
            runtime.handle_event(event)
        runtime.flush_deferred()
        errors = sum(
            cr.errors for cr in runtime.all_class_runtimes(assertion.name)
        )
        reasons = [v.reason for v in runtime.hub.policy.violations]
    finally:
        runtime.reset()
    verdict = ltl_verdict(assertion, slots_of(stamped_events))
    assert verdict.errors == errors
    assert verdict.reason_stream() == reasons
    return verdict


class TestDeadline:
    def test_stamp_on_the_deadline_uses_the_runtime_float_form(self):
        # entry + 0.005 and the site's stamp are the same float, but
        # site - entry > 0.005: the runtime expires the obligation, and
        # so must the oracle.
        site_ts = 0.004 + 0.001 + 0.004
        assert 0.004 + 0.005 == site_ts
        verdict = agree_timed(
            deadline_assertion(),
            [
                stamped(call_event("ltl_bound", ()), 0.004),
                stamped(assertion_site_event("ltl.deadline", {}), site_ts),
                stamped(call_event("ltl_noise", ()), site_ts),
            ],
        )
        assert verdict.kinds == ["deadline"]

    def test_reentry_keeps_the_first_entry_stamp(self):
        # A nested «init» is a no-op: the budget runs from 0.0, so the
        # done at 0.006 is late.  Restarting at the re-entry (0.004)
        # would wrongly accept it.
        verdict = agree_timed(
            deadline_assertion(),
            [
                stamped(call_event("ltl_bound", ()), 0.0),
                stamped(call_event("ltl_bound", ()), 0.004),
                stamped(assertion_site_event("ltl.deadline", {}), 0.004),
                stamped(call_event("ltl_done", ()), 0.006),
                stamped(return_event("ltl_bound", (), 0), 0.006),
            ],
        )
        assert verdict.kinds == ["deadline"]
        assert verdict.accepts == 0


class TestPerThread:
    def test_threads_evaluated_independently(self):
        assertion = tesla_perthread(
            call("ltl_bound"),
            returnfrom("ltl_bound"),
            previously(fn("ltl_check", ANY("c"), var("v")) == 0),
            name="ltl.thread",
        )

        def ev(thread_id, kind, name, **kwargs):
            return RuntimeEvent(
                kind=kind, name=name, thread_id=thread_id, **kwargs
            )

        # Thread 1 checks then sites; thread 2 sites without checking.
        # The merged order interleaves so a global reading WOULD satisfy
        # thread 2's site from thread 1's check.
        slots = slots_of(
            [
                ev(1, EventKind.CALL, "ltl_bound", args=()),
                ev(2, EventKind.CALL, "ltl_bound", args=()),
                ev(1, EventKind.RETURN, "ltl_check", args=("c", 4), retval=0),
                ev(
                    2,
                    EventKind.ASSERTION_SITE,
                    "ltl.thread",
                    scope={"v": 4},
                ),
                ev(
                    1,
                    EventKind.ASSERTION_SITE,
                    "ltl.thread",
                    scope={"v": 4},
                ),
                ev(1, EventKind.RETURN, "ltl_bound", args=(), retval=0),
                ev(2, EventKind.RETURN, "ltl_bound", args=(), retval=0),
            ]
        )
        verdict = ltl_verdict(assertion, slots)
        assert verdict.accepts == 1
        assert verdict.kinds == ["site"]
        # Violations come back in global seqno order.
        assert [v.seqno for v in verdict.violations] == [3]


class TestRefusals:
    def test_strict_is_unsupported(self):
        assertion = tesla_global(
            call("ltl_bound"),
            returnfrom("ltl_bound"),
            strictly(previously(fn("ltl_check", ANY("c"), var("v")) == 0)),
            name="ltl.strict",
        )
        with pytest.raises(LTLUnsupported, match="strict"):
            ltl_verdict(assertion, [])

    def test_incallstack_is_unsupported(self):
        assertion = tesla_global(
            call("ltl_bound"),
            returnfrom("ltl_bound"),
            previously(incallstack("ltl_helper")),
            name="ltl.stack",
        )
        with pytest.raises(LTLUnsupported, match="incallstack"):
            ltl_verdict(assertion, [])

    def test_eventually_with_free_variable_is_refused_not_guessed(self):
        # ``w`` is never bound at the site: the runtime's wildcard-clone
        # semantics and the linear reading genuinely diverge here, so the
        # oracle must refuse rather than return a verdict.
        assertion = tesla_global(
            call("ltl_bound"),
            returnfrom("ltl_bound"),
            eventually(fn("ltl_ack", var("w")) == 0),
            name="ltl.free",
        )
        slots = slots_of(
            [
                call_event("ltl_bound", ()),
                assertion_site_event("ltl.free", {}),
                return_event("ltl_ack", (4,), 0),
                return_event("ltl_bound", (), 0),
            ]
        )
        with pytest.raises(LTLUnsupported, match="free at the assertion"):
            ltl_verdict(assertion, slots)

    def test_split_requires_exactly_one_site(self):
        assertion = prev_assertion()
        pre, post = split_at_site(assertion.expression)
        assert len(pre) == 1 and post == []
        from repro.core.dsl import tsequence

        with pytest.raises(LTLUnsupported, match="exactly one"):
            split_at_site(
                tsequence(fn("ltl_check", ANY("c"), var("v")) == 0)
            )
