"""Unit tests for concrete runtime events."""

import dataclasses
import threading

import pytest

from repro.core.ast import AssignOp
from repro.core.events import (
    EventKind,
    RuntimeEvent,
    assertion_site_event,
    call_event,
    current_thread_id,
    field_assign_event,
    return_event,
)
from repro.instrument.hooks import site_registry, tesla_site


class TestConstructors:
    def test_call_event(self):
        event = call_event("f", (1, 2))
        assert event.kind is EventKind.CALL
        assert event.name == "f"
        assert event.args == (1, 2)
        assert event.thread_id == current_thread_id()

    def test_return_event(self):
        event = return_event("f", (1,), "result")
        assert event.kind is EventKind.RETURN
        assert event.retval == "result"

    def test_field_assign_event_name_combines_struct_and_field(self):
        target = object()
        event = field_assign_event("proc", "p_flag", target, 0x1, AssignOp.OR)
        assert event.name == "proc.p_flag"
        assert event.target is target
        assert event.op is AssignOp.OR
        assert event.retval == 0x1

    def test_site_event_copies_scope(self):
        scope = {"vp": "v1"}
        event = assertion_site_event("a", scope)
        scope["vp"] = "mutated"
        assert event.scope == {"vp": "v1"}

    def test_site_event_default_scope(self):
        assert assertion_site_event("a").scope == {}


class TestDescribe:
    def test_call_describe(self):
        assert "call f" in call_event("f", (1,)).describe()

    def test_return_describe_shows_value(self):
        assert "-> 0" in return_event("f", (), 0).describe()

    def test_field_describe_shows_operator(self):
        event = field_assign_event("s", "n", object(), 5, AssignOp.ADD)
        assert "+=" in event.describe()

    def test_site_describe(self):
        assert "assertion-site a" in assertion_site_event("a").describe()


class TestThreadIds:
    def test_thread_ids_differ_across_threads(self):
        ids = {}

        def worker():
            ids["worker"] = call_event("f", ()).thread_id

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        assert ids["worker"] != call_event("f", ()).thread_id


class TestFactoriesMatchConstructor:
    """The factories fill the instance dict directly instead of going
    through the frozen dataclass's ``__init__``; what they build must be
    indistinguishable from ``RuntimeEvent(...)``."""

    @staticmethod
    def _pairs():
        tid = current_thread_id()
        target = object()
        return [
            (
                call_event("f", (1, "a"), ("outer",)),
                RuntimeEvent(
                    kind=EventKind.CALL, name="f", args=(1, "a"),
                    thread_id=tid, stack=("outer",),
                ),
            ),
            (
                return_event("f", (1,), [2.5]),
                RuntimeEvent(
                    kind=EventKind.RETURN, name="f", args=(1,),
                    retval=[2.5], thread_id=tid,
                ),
            ),
            (
                field_assign_event("proc", "p_flag", target, 3, AssignOp.OR),
                RuntimeEvent(
                    kind=EventKind.FIELD_ASSIGN, name="proc.p_flag",
                    retval=3, op=AssignOp.OR, target=target, thread_id=tid,
                ),
            ),
            (
                assertion_site_event("a", {"v": 1}),
                RuntimeEvent(
                    kind=EventKind.ASSERTION_SITE, name="a",
                    scope={"v": 1}, thread_id=tid,
                ),
            ),
        ]

    def test_equal_repr_and_every_field(self):
        for fast, slow in self._pairs():
            assert fast == slow
            assert repr(fast) == repr(slow)
            assert fast.describe() == slow.describe()
            for f in dataclasses.fields(RuntimeEvent):
                a, b = getattr(fast, f.name), getattr(slow, f.name)
                assert a == b and type(a) is type(b), f.name
            assert list(vars(fast)) == list(vars(slow))
            assert fast.thread_id == current_thread_id()

    def test_factory_events_are_frozen(self):
        for fast, _ in self._pairs():
            with pytest.raises(dataclasses.FrozenInstanceError):
                fast.timestamp = 1.0
            with pytest.raises(dataclasses.FrozenInstanceError):
                fast.name = "other"

    def test_every_event_gets_its_own_scope_dict(self):
        assert call_event("f", ()).scope is not call_event("f", ()).scope
        scope = {"v": 1}
        assert assertion_site_event("a", scope).scope is not scope

    def test_site_scope_is_a_copy_of_the_callers_dict(self):
        seen = []
        site_registry.attach("events.site", seen.append)
        try:
            local = {"so": "sock0", "cred": "root"}
            tesla_site("events.site", **local)
        finally:
            site_registry.detach("events.site", seen.append)
        (event,) = seen
        assert event.kind is EventKind.ASSERTION_SITE
        assert event.scope == local
        assert event.scope is not local
        local["so"] = "mutated"
        assert event.scope["so"] == "sock0"
        assert event.thread_id == current_thread_id()
