"""The interest-set epoch: one clock invalidating every interest cache.

The event fast path (section 5.2's "do less work per event" family of
optimisations) caches two kinds of derived state that depend on who is
listening:

* each :class:`~repro.instrument.hooks.HookPoint` caches which of its
  attached sinks are actually interested in its event name, so a hook
  whose events no automaton observes returns before constructing a
  :class:`~repro.core.events.RuntimeEvent`;
* the :class:`~repro.instrument.interpose.InterpositionTable` caches, per
  selector, the hooks whose sinks still care about that selector.

(Per-class generated steps are pure functions of their automaton,
dispatch key and facts, so they are keyed by content and never consult
the epoch — DESIGN §5.7.)

Both verdicts depend on *which automata classes are attached where*,
which changes rarely (installation, ``uninstrument()``, test teardown) but
must invalidate promptly — a detached sink whose cached "interested"
verdict survived would keep receiving events for a dead runtime.  Rather
than registering observers everywhere, every mutation of the listening set
bumps this module's single process-wide generation counter; caches compare
their recorded epoch against the current value on each use (two attribute
loads and an integer compare) and rebuild lazily when stale.
"""

from __future__ import annotations


class InterestEpoch:
    """A monotonically increasing generation counter for the interest set.

    Bumped on automaton installation, hook-point sink attach/detach,
    interposition-table install/remove/clear, and event-translator chain
    rebuilds.  Never reset: consumers cache the value they last saw, and a
    reset could alias a stale cache onto a fresh epoch.
    """

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def bump(self) -> int:
        """Advance the epoch; every dependent cache is now stale."""
        self.value += 1
        return self.value


#: The process-wide epoch (one per process, like the registries it guards).
interest_epoch = InterestEpoch()


class InterestStats:
    """Process-global effectiveness counters for the interest fast path.

    Surfaced through :func:`repro.introspect.dispatch_stats`; benchmarks
    snapshot before/after deltas.  ``reset()`` only zeroes counters — the
    epoch itself is never rewound.
    """

    __slots__ = (
        "hook_short_circuits",
        "hook_refreshes",
        "interpose_short_circuits",
        "interpose_refreshes",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        #: Instrumented hook invocations that skipped event construction
        #: because no attached sink was interested in the event name.
        self.hook_short_circuits = 0
        #: Hook-point interest-cache rebuilds (epoch misses).
        self.hook_refreshes = 0
        #: Message sends whose selector had hooks installed but no
        #: interested sink.
        self.interpose_short_circuits = 0
        #: Interposition-table per-selector cache rebuilds.
        self.interpose_refreshes = 0


#: The process-wide counters matching :data:`interest_epoch`.
interest_stats = InterestStats()
