"""The supervision layer: monitor faults are contained, never exported.

TESLA's paper contract covers *temporal violations*: they "cause the
program to fail-stop by default, but this is configurable at run-time"
(§4.4.2, :class:`~repro.runtime.notify.ErrorPolicy`).  This module covers
the failure mode the paper's kernel deployments (§5) take for granted but
never states: a fault in the *monitor itself* — a broken matcher, a plan
compiler bug, a raising notification handler — must not destabilise the
monitored program.  The monitor may lose coverage; it may never change
application behaviour.

:class:`FailurePolicy` extends the :class:`ErrorPolicy` idea to internal
faults, with four modes:

* :class:`FailStopFaults` — propagate the fault (the development default:
  a monitor bug should be loud on a developer's machine);
* :class:`FailOpen` — record the fault and keep going (the deployed
  configuration: lost coverage, unchanged application);
* :class:`CallbackPolicy` — hand each fault to user code, which decides;
* :class:`QuarantinePolicy` — fail-open, plus auto-detach: after
  ``threshold`` faults from one automaton class within a ``window``-tick
  sliding window, the class is quarantined — shed from dispatch plans and
  translator chains, with the interest epoch bumped so the compiled fast
  path drops it at the hook boundary — then optionally re-armed on
  *probation* after an exponential-backoff cooldown, and permanently
  quarantined after ``max_trips`` trips.

Time is the supervisor's **tick clock** — one tick per dispatched event —
not wall time, so windows, cooldowns and probation are deterministic
functions of the event trace (and of the fault-injection seed, which the
chaos tests exploit).

Every containment boundary (``TeslaRuntime._run_plan`` per class, the hook
wrapper, ``tesla_site``, field hooks, caller-side rewrites, interposition
hooks, notification fan-out) routes through :meth:`Supervisor.contain`;
:class:`~repro.errors.TemporalAssertionError` is never contained — it is
the *deliberate* fail-stop signal of the violation policy, not a fault.
"""

from __future__ import annotations

import enum
import threading
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Tuple

from .faultinject import InjectedFault

__all__ = [
    "MonitorFault",
    "FailurePolicy",
    "FailStopFaults",
    "FailOpen",
    "CallbackPolicy",
    "QuarantinePolicy",
    "QuarantineState",
    "QuarantineRecord",
    "Supervisor",
]


@dataclass(frozen=True)
class MonitorFault:
    """One contained (or about-to-propagate) internal monitor failure."""

    tick: int
    #: The automaton class the fault is attributed to, or a pseudo-label
    #: like ``"(hook)"`` when the fault happened before class dispatch.
    automaton: str
    #: Which boundary caught it: init/body/cleanup/dispatch/hook/site/
    #: field/interpose/caller/handler.
    stage: str
    error_type: str
    error: str
    #: The fault-injection site name, when the fault was an
    #: :class:`~repro.runtime.faultinject.InjectedFault`.
    injected_site: Optional[str] = None

    def describe(self) -> str:
        parts = [
            f"[tick {self.tick}] {self.automaton} {self.stage}: "
            f"{self.error_type}: {self.error}"
        ]
        if self.injected_site:
            parts.append(f"(injected at {self.injected_site})")
        return " ".join(parts)


class FailurePolicy:
    """What to do when TESLA's own machinery faults mid-dispatch.

    The internal-fault counterpart of :class:`~repro.runtime.notify.
    ErrorPolicy`: that one decides whether a *temporal violation* raises
    into the application; this one decides whether a *monitor fault* does.
    """

    def contain(self, fault: MonitorFault) -> bool:
        """True → swallow the fault (fail-open); False → re-raise it."""
        raise NotImplementedError


class FailStopFaults(FailurePolicy):
    """Propagate monitor faults — loud and immediate, for development."""

    def contain(self, fault: MonitorFault) -> bool:
        return False


class FailOpen(FailurePolicy):
    """Contain every monitor fault: coverage degrades, the app never sees
    it — the deployed configuration the kernel use cases require."""

    def contain(self, fault: MonitorFault) -> bool:
        return True


class CallbackPolicy(FailurePolicy):
    """Route each fault to a user callback, which may veto containment.

    The callback returning ``False`` propagates the fault; any other
    return (including ``None``) contains it.  A callback that itself
    raises is contained too — one layer of user code cannot re-open the
    boundary it was asked to guard.
    """

    def __init__(self, callback: Callable[[MonitorFault], Optional[bool]]) -> None:
        self.callback = callback
        self.callback_faults = 0

    def contain(self, fault: MonitorFault) -> bool:
        try:
            verdict = self.callback(fault)
        except Exception:
            self.callback_faults += 1
            return True
        return verdict is not False


class QuarantinePolicy(FailOpen):
    """Fail-open with automatic detachment of persistently faulty classes.

    ``threshold`` faults attributed to one automaton class within a
    sliding ``window`` of dispatch ticks trip quarantine.  A quarantined
    class is shed from dispatch until ``cooldown × backoff^(trip-1)``
    ticks pass; with ``probation=True`` it then re-arms on probation —
    one more fault during probation re-trips immediately with a longer
    cooldown, while ``probation_ticks`` fault-free ticks restore it to
    full service.  The ``max_trips``-th trip is permanent.
    """

    def __init__(
        self,
        threshold: int = 3,
        window: int = 256,
        cooldown: int = 512,
        backoff: float = 2.0,
        max_trips: int = 3,
        probation: bool = True,
        probation_ticks: Optional[int] = None,
    ) -> None:
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.threshold = threshold
        self.window = window
        self.cooldown = cooldown
        self.backoff = backoff
        self.max_trips = max_trips
        self.probation = probation
        self.probation_ticks = (
            window if probation_ticks is None else probation_ticks
        )

    def cooldown_for(self, trip: int) -> int:
        """Exponential backoff: the ``trip``-th quarantine's length."""
        return int(self.cooldown * (self.backoff ** max(0, trip - 1)))


class QuarantineState(enum.Enum):
    """Lifecycle of one automaton class under a :class:`QuarantinePolicy`."""

    ARMED = "armed"
    QUARANTINED = "quarantined"
    PROBATION = "probation"
    PERMANENT = "permanent"


@dataclass
class QuarantineRecord:
    """One automaton class's quarantine lifecycle state."""

    automaton: str
    state: QuarantineState = QuarantineState.ARMED
    trips: int = 0
    #: Tick at which a timed quarantine ends (probation begins).
    until_tick: int = 0
    #: Tick at which a clean probation returns the class to ARMED.
    probation_until: int = 0


#: Labels that never feed quarantine windows: faults caught before (or
#: outside) per-class attribution, and user notification handlers.
_PSEUDO_PREFIX = "("


class Supervisor:
    """Per-runtime fault accounting, containment decisions and quarantine.

    Mutation is lock-protected (faults are rare; the lock is off the happy
    path), while the two hot-path reads — :attr:`tick` bookkeeping in
    :meth:`begin_dispatch` and :meth:`is_shed` — are plain attribute/set
    probes safe under the GIL.
    """

    def __init__(
        self,
        policy: Optional[FailurePolicy] = None,
        on_change: Optional[Callable[[], None]] = None,
        last_errors: int = 64,
    ) -> None:
        self.policy: FailurePolicy = policy or FailStopFaults()
        #: The logical clock: one tick per dispatched event.
        self.tick = 0
        self.contained = 0
        self.propagated = 0
        #: Contained faults that were injected (``InjectedFault``) — the
        #: chaos harness asserts injected == recorded through this.
        self.injected_recorded = 0
        #: Notification-handler faults contained at the hub boundary.
        self.handler_faults = 0
        #: automaton label -> faults attributed to it.
        self.fault_counts: Dict[str, int] = {}
        #: stage -> faults caught at that boundary.
        self.stage_counts: Dict[str, int] = {}
        #: Bounded ring of the most recent faults, oldest first.
        self.last_faults: Deque[MonitorFault] = deque(maxlen=last_errors)
        self._windows: Dict[str, Deque[int]] = {}
        self._records: Dict[str, QuarantineRecord] = {}
        #: Classes currently shed from dispatch (quarantined/permanent,
        #: plus any the overhead governor detached for cost).
        self._shed: set = set()
        #: The subset of ``_shed`` owned by the overhead governor (DESIGN
        #: §5.8) — shed for cost, not for faults.  Kept separate so
        #: quarantine's probation poll never un-sheds a class the
        #: governor still holds, and vice versa.
        self._governor_shed: set = set()
        #: Cheap guard for the per-dispatch probation poll.
        self._has_records = False
        self._listeners: List[Callable[[], None]] = []
        if on_change is not None:
            self._listeners.append(on_change)
        self._lock = threading.Lock()

    # -- wiring ---------------------------------------------------------------

    def add_listener(self, listener: Callable[[], None]) -> None:
        """Register a callback fired whenever the shed set changes."""
        self._listeners.append(listener)

    def _fire_change(self) -> None:
        for listener in self._listeners:
            listener()

    # -- the tick clock --------------------------------------------------------

    def begin_dispatch(self) -> None:
        """One event is about to dispatch: advance the logical clock and,
        when quarantine records exist, poll for due probation re-arms."""
        self.tick += 1
        if self._has_records:
            self._poll()

    def advance(self, ticks: int) -> None:
        """Batched ingestion's clock bump: ``ticks`` events at once."""
        self.tick += ticks
        if self._has_records:
            self._poll()

    def _poll(self) -> None:
        changed = False
        with self._lock:
            now = self.tick
            for record in self._records.values():
                if (
                    record.state is QuarantineState.QUARANTINED
                    and now >= record.until_tick
                ):
                    policy = self.policy
                    if (
                        isinstance(policy, QuarantinePolicy)
                        and policy.probation
                    ):
                        record.state = QuarantineState.PROBATION
                        record.probation_until = now + policy.probation_ticks
                        if record.automaton not in self._governor_shed:
                            # The governor may still be shedding this
                            # class for cost; probation only lifts the
                            # quarantine's claim on it.
                            self._shed.discard(record.automaton)
                        changed = True
                    else:
                        record.state = QuarantineState.PERMANENT
                elif (
                    record.state is QuarantineState.PROBATION
                    and now >= record.probation_until
                ):
                    # A clean probation: back to full service (trip count
                    # is remembered, so the next trip still backs off).
                    record.state = QuarantineState.ARMED
        if changed:
            self._fire_change()

    # -- containment -----------------------------------------------------------

    def contain(
        self, automaton: Optional[str], stage: str, exc: BaseException
    ) -> bool:
        """Record one monitor fault and decide whether to swallow it.

        Returns True when the caller must contain (not re-raise) ``exc``.
        Quarantine bookkeeping only applies to real automaton classes —
        pseudo-labels like ``"(hook)"`` are counted but never shed.
        """
        label = automaton or "(monitor)"
        changed = False
        with self._lock:
            fault = MonitorFault(
                tick=self.tick,
                automaton=label,
                stage=stage,
                error_type=type(exc).__name__,
                error=str(exc),
                injected_site=(
                    exc.site if isinstance(exc, InjectedFault) else None
                ),
            )
            self.last_faults.append(fault)
            self.fault_counts[label] = self.fault_counts.get(label, 0) + 1
            self.stage_counts[stage] = self.stage_counts.get(stage, 0) + 1
            if fault.injected_site is not None:
                self.injected_recorded += 1
            try:
                decision = self.policy.contain(fault)
            except Exception:
                # A broken policy must not re-open the boundary it guards.
                decision = False
            if decision:
                self.contained += 1
            else:
                self.propagated += 1
            if (
                decision
                and stage != "handler"
                and not label.startswith(_PSEUDO_PREFIX)
                and isinstance(self.policy, QuarantinePolicy)
            ):
                changed = self._note_class_fault(label)
        if changed:
            self._fire_change()
        return decision

    def record_handler_fault(
        self, automaton: str, handler: object, exc: BaseException
    ) -> None:
        """The notification hub's boundary: a raising handler is always
        contained (the ``Handler`` contract says it must not raise)
        regardless of policy, so this records without consulting it."""
        label = f"(handler:{automaton})"
        with self._lock:
            self.handler_faults += 1
            self.contained += 1
            fault = MonitorFault(
                tick=self.tick,
                automaton=label,
                stage="handler",
                error_type=type(exc).__name__,
                error=str(exc),
                injected_site=(
                    exc.site if isinstance(exc, InjectedFault) else None
                ),
            )
            self.last_faults.append(fault)
            self.fault_counts[label] = self.fault_counts.get(label, 0) + 1
            self.stage_counts["handler"] = (
                self.stage_counts.get("handler", 0) + 1
            )
            if fault.injected_site is not None:
                self.injected_recorded += 1

    # -- quarantine ------------------------------------------------------------

    def _note_class_fault(self, name: str) -> bool:
        """Sliding-window accounting; returns True when the shed set
        changed.  Caller holds the lock."""
        policy = self.policy  # known QuarantinePolicy
        record = self._records.get(name)
        if record is not None and record.state in (
            QuarantineState.QUARANTINED,
            QuarantineState.PERMANENT,
        ):
            # Faults from an already-shed class (e.g. the rest of a batch
            # planned before the trip) do not re-trip it.
            return False
        if record is not None and record.state is QuarantineState.PROBATION:
            # One strike on probation: immediate re-trip, longer cooldown.
            return self._trip(record)
        window = self._windows.get(name)
        if window is None:
            window = self._windows[name] = deque()
        now = self.tick
        window.append(now)
        horizon = now - policy.window
        while window and window[0] <= horizon:
            window.popleft()
        if len(window) >= policy.threshold:
            window.clear()
            if record is None:
                record = self._records[name] = QuarantineRecord(name)
                self._has_records = True
            return self._trip(record)
        return False

    def _trip(self, record: QuarantineRecord) -> bool:
        """Quarantine one class; caller holds the lock."""
        policy = self.policy  # known QuarantinePolicy
        record.trips += 1
        if record.trips >= policy.max_trips or not policy.probation:
            record.state = QuarantineState.PERMANENT
        else:
            record.state = QuarantineState.QUARANTINED
            record.until_tick = self.tick + policy.cooldown_for(record.trips)
        self._shed.add(record.automaton)
        return True

    # -- governor shedding -------------------------------------------------------

    def governor_shed(self, name: str) -> None:
        """Detach one class for overhead (the governor's final rung,
        DESIGN §5.8).

        Rides the quarantine shed set and the same change hook, so
        dispatch plans, translator chains and the interest epoch all
        follow through ``_on_supervisor_change`` exactly as a quarantine
        trip would — shedding for cost and shedding for faults are one
        mechanism with two policies."""
        with self._lock:
            if name in self._governor_shed:
                return
            self._governor_shed.add(name)
            already = name in self._shed
            self._shed.add(name)
        if not already:
            self._fire_change()

    def governor_unshed(self, name: str) -> None:
        """Release the governor's claim on one class (probation restore
        or governor trip).  A class quarantine still holds stays shed."""
        with self._lock:
            if name not in self._governor_shed:
                return
            self._governor_shed.discard(name)
            record = self._records.get(name)
            if record is not None and record.state in (
                QuarantineState.QUARANTINED,
                QuarantineState.PERMANENT,
            ):
                return
            self._shed.discard(name)
        self._fire_change()

    @property
    def governor_shed_classes(self) -> frozenset:
        return frozenset(self._governor_shed)

    def is_shed(self, name: str) -> bool:
        """Whether this class is currently detached from dispatch."""
        return name in self._shed

    @property
    def shed_classes(self) -> frozenset:
        return frozenset(self._shed)

    @property
    def degraded(self) -> bool:
        """Whether the monitor is running with reduced coverage or has
        contained any fault at all."""
        return bool(self._shed) or self.contained > 0

    def quarantine_state(self, name: str) -> QuarantineState:
        record = self._records.get(name)
        return QuarantineState.ARMED if record is None else record.state

    def quarantine_rows(self) -> List[QuarantineRecord]:
        """Every class that ever tripped, for the health report."""
        with self._lock:
            return [
                QuarantineRecord(
                    automaton=r.automaton,
                    state=r.state,
                    trips=r.trips,
                    until_tick=r.until_tick,
                    probation_until=r.probation_until,
                )
                for r in self._records.values()
            ]

    @property
    def total_faults(self) -> int:
        return self.contained + self.propagated

    # -- maintenance -----------------------------------------------------------

    def reset(self) -> None:
        """Zero counters and lift every quarantine (between runs/tests)."""
        with self._lock:
            had_shed = bool(self._shed)
            self.tick = 0
            self.contained = 0
            self.propagated = 0
            self.injected_recorded = 0
            self.handler_faults = 0
            self.fault_counts.clear()
            self.stage_counts.clear()
            self.last_faults.clear()
            self._windows.clear()
            self._records.clear()
            self._shed.clear()
            self._governor_shed.clear()
            self._has_records = False
        if had_shed:
            self._fire_change()
