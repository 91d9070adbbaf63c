"""Program hooks: the instrumentation points woven into target code.

The original TESLA instrumenter rewrites LLVM IR, adding "program hooks that
identify program events" at function entries/returns and assertion sites.
Python has no IR pass, so this reproduction plants hooks at *decoration
time*: substrate functions are defined with :func:`instrumentable`, which
registers a :class:`HookPoint` keyed by the function's event name.  An
uninstrumented hook point costs one attribute load and a branch — the moral
equivalent of the not-yet-linked hook call in an uninstrumented build —
while an instrumented one synthesises CALL and RETURN events.

Assertion sites are planted with :func:`tesla_site`, the stand-in for the
``__tesla_inline_assertion`` pseudo-function call that the instrumenter
replaces with an event-translator invocation (section 4.2): disabled sites
are near-free; enabled ones emit an assertion-site event carrying the
site's local variable values.

When the runtime behind a sink runs the deferred pipeline (DESIGN §5.4),
``sink(event)`` *is* the enqueue fast path: the interest filter and the
translator's static checks run here as usual, and everything that
survives them is stamped into the calling thread's ring instead of being
dispatched inline.  Assertion sites of drain-evaluated classes (GLOBAL,
or thread-local with a deadline) are synchronization points, so such a
``tesla_site`` call flushes the rings; other thread-local classes are
evaluated inline at capture.  Either way a fail-stop
:class:`~repro.errors.TemporalAssertionError` raises through the same
re-raise branch synchronous dispatch uses — instrumented code cannot
tell the modes apart by where violations surface.  Faults injected at
the drain boundary (``drain.enqueue``) are contained here exactly like
``hooks.dispatch`` faults, via the sink's supervisor.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core.events import (
    EventKind,
    RuntimeEvent,
    _site_event,
    call_event,
    return_event,
)
from ..errors import InstrumentationError, TemporalAssertionError
from ..runtime import faultinject as _fi
from ..runtime.epoch import interest_epoch, interest_stats
from ..runtime.faultinject import fault_site

_FP_DISPATCH = fault_site("hooks.dispatch")
_FP_SITE = fault_site("hooks.site")

#: Anything that consumes concrete events (usually ``TeslaRuntime.handle_event``).
EventSink = Callable[[RuntimeEvent], None]


def contain_sink_fault(sink: EventSink, stage: str, exc: Exception) -> bool:
    """The outermost containment boundary, shared by every hook flavour.

    A fault that escaped the sink (translator chains, dispatch planning —
    anything the per-class boundary inside the runtime did not attribute)
    is routed to the sink's supervisor when it has one (event translators
    carry their runtime's).  Returns True when the caller must swallow
    ``exc`` instead of letting it cross into application frames; sinks
    without a supervisor keep the raw propagate-everything behaviour.
    ``TemporalAssertionError`` must be re-raised *before* calling this —
    fail-stop violations are deliberate, not monitor faults.
    """
    supervisor = getattr(sink, "supervisor", None)
    if supervisor is None:
        return False
    return supervisor.contain(f"({stage})", stage, exc)


class HookPoint:
    """One instrumentable function and its currently attached sinks.

    Beyond the raw sink list, a hook point caches which sinks are actually
    *interested* in its event name (a sink advertising ``interested_in``
    — the event translator — is asked; anything else is assumed
    interested).  The cache is validated against the global
    :data:`~repro.runtime.epoch.interest_epoch` on every instrumented
    call, so a hook whose sinks observe none of its events skips event
    construction entirely, and attach/detach invalidate promptly.
    """

    __slots__ = ("name", "function", "sinks", "_keys", "_epoch", "_live_sinks")

    def __init__(self, name: str, function: Callable) -> None:
        self.name = name
        self.function = function
        #: ``None`` when uninstrumented — the wrapper's fast-path check.
        self.sinks: Optional[List[EventSink]] = None
        self._keys = ((EventKind.CALL, name), (EventKind.RETURN, name))
        self._epoch = -1
        self._live_sinks: List[EventSink] = []

    def attach(self, sink: EventSink) -> None:
        if self.sinks is None:
            self.sinks = []
        if sink not in self.sinks:
            self.sinks.append(sink)
        interest_epoch.bump()

    def detach(self, sink: EventSink) -> None:
        if self.sinks is None:
            return
        if sink in self.sinks:
            self.sinks.remove(sink)
        if not self.sinks:
            self.sinks = None
        # The bump is load-bearing even though ``sinks`` shrank: another
        # sink's cached "interested" verdict may coexist with this one's,
        # and a stale cache would keep delivering events to the detached
        # sink's dead runtime.
        interest_epoch.bump()

    def detach_all(self) -> None:
        self.sinks = None
        interest_epoch.bump()

    def _refresh(self) -> List[EventSink]:
        """Rebuild the interested-sink cache for the current epoch."""
        self._epoch = interest_epoch.value
        live: List[EventSink] = []
        if self.sinks is not None:
            for sink in self.sinks:
                probe = getattr(sink, "interested_in", None)
                if probe is None or probe(self._keys):
                    live.append(sink)
        self._live_sinks = live
        interest_stats.hook_refreshes += 1
        return live

    def live_sinks(self) -> List[EventSink]:
        """The attached sinks interested in this hook's events (cached)."""
        if self._epoch != interest_epoch.value:
            return self._refresh()
        return self._live_sinks


class HookRegistry:
    """All hook points known to the process, keyed by event name."""

    def __init__(self) -> None:
        self._points: Dict[str, HookPoint] = {}

    def register(self, point: HookPoint) -> None:
        if point.name in self._points:
            raise InstrumentationError(
                f"hook point {point.name!r} registered twice"
            )
        self._points[point.name] = point

    def get(self, name: str) -> Optional[HookPoint]:
        return self._points.get(name)

    def require(self, name: str) -> HookPoint:
        point = self._points.get(name)
        if point is None:
            raise InstrumentationError(
                f"no instrumentable function named {name!r}; known: "
                f"{', '.join(sorted(self._points)) or '(none)'}"
            )
        return point

    def names(self) -> List[str]:
        return sorted(self._points)

    def detach_all(self) -> None:
        for point in self._points.values():
            point.detach_all()

    def _unregister(self, name: str) -> None:
        """Test helper: forget a hook point entirely."""
        self._points.pop(name, None)


#: The process-wide registry used by substrates and the instrumenter.
hook_registry = HookRegistry()


def instrumentable(
    name: Optional[str] = None, registry: HookRegistry = None
) -> Callable[[Callable], Callable]:
    """Mark a function as a TESLA instrumentation target.

    ``name`` defaults to the function's ``__name__`` — substrates use the
    same short names the paper's assertions use (``sopoll_generic``,
    ``mac_socket_check_poll`` …).  The returned wrapper is what everything,
    including function-pointer tables, should reference, so callee-side
    instrumentation observes indirect calls exactly as an IR-level rewrite
    would.
    """
    reg = registry if registry is not None else hook_registry

    def decorate(fn: Callable) -> Callable:
        event_name = name or fn.__name__
        point = HookPoint(event_name, fn)
        reg.register(point)

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any):
            if point.sinks is None:
                return fn(*args, **kwargs)
            if point._epoch != interest_epoch.value:
                point._refresh()
            sinks = point._live_sinks
            if not sinks:
                # Instrumented but uninterested: no automaton observes this
                # event name, so skip event construction entirely.
                interest_stats.hook_short_circuits += 1
                return fn(*args, **kwargs)
            event_args = args if not kwargs else args + tuple(kwargs.values())
            call = call_event(event_name, event_args)
            for sink in sinks:
                try:
                    if _fi._active is not None:
                        _fi.fault_point(_FP_DISPATCH)
                    sink(call)
                except TemporalAssertionError:
                    raise
                except Exception as exc:
                    if not contain_sink_fault(sink, "dispatch", exc):
                        raise
            result = fn(*args, **kwargs)
            ret = return_event(event_name, event_args, result)
            for sink in sinks:
                try:
                    if _fi._active is not None:
                        _fi.fault_point(_FP_DISPATCH)
                    sink(ret)
                except TemporalAssertionError:
                    raise
                except Exception as exc:
                    if not contain_sink_fault(sink, "dispatch", exc):
                        raise
            return result

        wrapper.__tesla_hook__ = point  # type: ignore[attr-defined]
        return wrapper

    return decorate


class SiteRegistry:
    """All assertion sites, keyed by assertion name."""

    def __init__(self) -> None:
        self._sinks: Dict[str, List[EventSink]] = {}

    def attach(self, assertion_name: str, sink: EventSink) -> None:
        self._sinks.setdefault(assertion_name, []).append(sink)

    def detach(self, assertion_name: str, sink: EventSink) -> None:
        sinks = self._sinks.get(assertion_name)
        if sinks and sink in sinks:
            sinks.remove(sink)
            if not sinks:
                del self._sinks[assertion_name]

    def detach_all(self) -> None:
        self._sinks.clear()

    def sinks_for(self, assertion_name: str) -> Optional[List[EventSink]]:
        return self._sinks.get(assertion_name)


#: The process-wide assertion-site registry.
site_registry = SiteRegistry()


def tesla_site(assertion_name: str, **scope: Any) -> None:
    """An assertion site: the inline marker substrates write in their code.

    Disabled (no automaton instruments this assertion): a dict lookup and a
    return.  Enabled: emits an assertion-site event whose ``scope`` carries
    the named local values — "the values of variables named in the
    assertion are taken from the local scope and passed to the event
    translator" (section 4.2).
    """
    sinks = site_registry.sinks_for(assertion_name)
    if sinks is None:
        return
    # ``**scope`` is a fresh dict built for this call: hand it over as is.
    event = _site_event(assertion_name, scope)
    for sink in sinks:
        try:
            if _fi._active is not None:
                _fi.fault_point(_FP_SITE)
            sink(event)
        except TemporalAssertionError:
            raise
        except Exception as exc:
            if not contain_sink_fault(sink, "site", exc):
                raise
