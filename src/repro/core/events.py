"""Concrete run-time events, as produced by program instrumentation.

The instrumenter turns program behaviour into a stream of
:class:`RuntimeEvent` values; event translators match them against the
symbolic events of each automaton class and feed ``tesla_update_state``
(:mod:`repro.runtime.update`).  These are the "program hooks" half of the
paper's section 4.2: function call/return, structure field assignment and
reaching an assertion site.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from .ast import AssignOp


class EventKind(enum.Enum):
    """The four concrete event kinds instrumentation can observe."""
    CALL = "call"
    RETURN = "return"
    FIELD_ASSIGN = "field-assign"
    ASSERTION_SITE = "assertion-site"

    # Members are singletons and compare by identity, so identity hashing
    # is equivalent to Enum's default (which re-hashes the member name on
    # every lookup — measurable in dispatch-key dict probes, which happen
    # several times per instrumented event).
    __hash__ = object.__hash__


@dataclass(frozen=True)
class RuntimeEvent:
    """One observed program event.

    ``name`` is the event's dispatch key: the instrumented function's
    registered name for call/return, ``"Struct.field"`` for field
    assignment, and the assertion name for assertion-site events.

    ``scope`` carries the assertion site's local variable values
    (``{"so": <socket>}``) — the values "taken from the local scope and
    passed to the event translator" when the pseudo-function call at the
    site is replaced (section 4.2).

    ``timestamp`` is the monotonic capture time in seconds, stamped by
    the runtime's clock the moment the event enters ``handle_event`` —
    before any deferral — so clock guards (DESIGN §5.9) evaluate against
    when the program *did* the thing, not when the drain got around to
    evaluating it.  ``0.0`` means "never stamped" (events built by hand
    or by a runtime with stamping disabled, e.g. replay, which preserves
    the journalled stamps instead).
    """

    kind: EventKind
    name: str
    args: Tuple[Any, ...] = ()
    retval: Any = None
    op: Optional[AssignOp] = None
    target: Any = None
    scope: Dict[str, Any] = field(default_factory=dict)
    thread_id: int = 0
    stack: Tuple[str, ...] = ()
    timestamp: float = 0.0

    def describe(self) -> str:
        if self.kind is EventKind.CALL:
            return f"call {self.name}{self.args!r}"
        if self.kind is EventKind.RETURN:
            return f"return {self.name}{self.args!r} -> {self.retval!r}"
        if self.kind is EventKind.FIELD_ASSIGN:
            return f"{self.name} {self.op.value if self.op else '='} {self.retval!r}"
        return f"assertion-site {self.name}"


def current_thread_id() -> int:
    """The identifier used to slice the per-thread automata stores."""
    return threading.get_ident()


_new_instance = object.__new__
_get_ident = threading.get_ident
_CALL = EventKind.CALL
_RETURN = EventKind.RETURN
_FIELD_ASSIGN = EventKind.FIELD_ASSIGN
_ASSERTION_SITE = EventKind.ASSERTION_SITE


def _build(kind, name, args, retval, op, target, scope, thread_id, stack,
           timestamp) -> RuntimeEvent:
    """The construction fast path: fill a fresh event's ``__dict__``.

    The frozen dataclass's generated ``__init__`` routes each of the ten
    fields through ``object.__setattr__``; storing them into the instance
    dict is several times cheaper and gives an event with the same
    ``==``, ``repr`` and frozenness.  Callers pass every field,
    positionally, in declaration order.
    """
    event = _new_instance(RuntimeEvent)
    d = event.__dict__
    d["kind"] = kind
    d["name"] = name
    d["args"] = args
    d["retval"] = retval
    d["op"] = op
    d["target"] = target
    d["scope"] = scope
    d["thread_id"] = thread_id
    d["stack"] = stack
    d["timestamp"] = timestamp
    return event


def call_event(name: str, args: Tuple[Any, ...], stack: Tuple[str, ...] = ()) -> RuntimeEvent:
    """A function-entry event."""
    return _build(_CALL, name, args, None, None, None, {}, _get_ident(),
                  stack, 0.0)


def return_event(
    name: str,
    args: Tuple[Any, ...],
    retval: Any,
    stack: Tuple[str, ...] = (),
) -> RuntimeEvent:
    """A function-return event carrying the return value."""
    return _build(_RETURN, name, args, retval, None, None, {}, _get_ident(),
                  stack, 0.0)


def field_assign_event(
    struct: str,
    field_name: str,
    target: Any,
    value: Any,
    op: AssignOp = AssignOp.SET,
    stack: Tuple[str, ...] = (),
) -> RuntimeEvent:
    """A structure-field store event (``Struct.field``)."""
    return _build(_FIELD_ASSIGN, f"{struct}.{field_name}", (), value, op,
                  target, {}, _get_ident(), stack, 0.0)


def assertion_site_event(
    assertion: str, scope: Optional[Dict[str, Any]] = None, stack: Tuple[str, ...] = ()
) -> RuntimeEvent:
    """An assertion-site event carrying a copy of the site's scope values."""
    return _build(_ASSERTION_SITE, assertion, (), None, None, None,
                  dict(scope or {}), _get_ident(), stack, 0.0)


def _site_event(assertion: str, scope: Dict[str, Any]) -> RuntimeEvent:
    """:func:`assertion_site_event` for a caller that owns *scope*.

    ``tesla_site`` receives its ``**scope`` as a dict built for that one
    call, so the event can keep it instead of copying it again.
    """
    return _build(_ASSERTION_SITE, assertion, (), None, None, None, scope,
                  _get_ident(), (), 0.0)
