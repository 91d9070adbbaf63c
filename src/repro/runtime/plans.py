"""Per-(class, event-key) transition plans: the generator's input.

For one automaton and one dispatch key, a :class:`TransitionPlan` lists
every EVENT/SITE transition whose symbol dispatches on that key, as
``(src-state, transition)`` pairs in transition order.  That is exactly
what tesla-jit (:mod:`repro.runtime.codegen`) needs to emit a step
specialized to the key: the kind/name guards of the interpreted matchers
are tautological for events of the plan's own key, and every other
transition of the automaton is irrelevant to them.

A plan is a pure function of (automaton, key).  It is built only when a
class's step cache misses, handed to the generator, and not kept: the
generated step is what :class:`~repro.runtime.store.ClassRuntime`
caches.  Bound (init/cleanup) events are matched by the interpreter's
own :func:`~repro.runtime.update.handle_init`/``handle_cleanup``.

This module deliberately imports only :mod:`repro.core` (plus the
dependency-free fault-injection checkpoints) — the store imports *it*,
never the reverse.
"""

from __future__ import annotations

from typing import List, Tuple

from ..core.automaton import Automaton, Transition, TransitionKind
from ..core.events import EventKind
from .faultinject import fault_point, fault_site

_FP_BUILD = fault_site("plans.build")

#: An event's routing identity, duplicated from ``runtime.store`` to keep
#: this module free of store imports (the dependency runs store → plans).
PlanKey = Tuple[EventKind, str]


class TransitionPlan:
    """The body transitions one automaton class can take on one key."""

    __slots__ = ("key", "body")

    def __init__(
        self, key: PlanKey, body: Tuple[Tuple[int, Transition], ...]
    ) -> None:
        self.key = key
        self.body = body

    def __repr__(self) -> str:  # pragma: no cover - repr convenience
        return (
            f"<TransitionPlan {self.key[0].name}:{self.key[1]!r} "
            f"body={len(self.body)}>"
        )


def build_transition_plan(automaton: Automaton, key: PlanKey) -> TransitionPlan:
    """Collect one automaton's body transitions for one dispatch key.

    Site symbols dispatch on the *automaton's* name (the event translator
    names assertion-site events after the assertion), mirroring
    ``Automaton.dispatch_keys``.
    """
    fault_point(_FP_BUILD)
    body: List[Tuple[int, Transition]] = []
    for t in automaton.transitions:
        if t.symbol is None or t.kind not in (
            TransitionKind.EVENT,
            TransitionKind.SITE,
        ):
            continue
        kind, name = automaton.symbols[t.symbol].dispatch_key
        if kind is EventKind.ASSERTION_SITE:
            name = automaton.name
        if (kind, name) == key:
            body.append((t.src, t))
    return TransitionPlan(key, tuple(body))
