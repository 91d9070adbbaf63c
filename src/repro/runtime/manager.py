"""The libtesla front door: event dispatch across stores and automata.

:class:`TeslaRuntime` owns the global and per-thread stores, an index from
event dispatch keys to the automata that observe them, the notification
hub, and the *bound trackers* implementing the paper's section 5.2.2
optimisation.

Naive mode (``lazy=False``) reproduces the first implementation: "on
entering a system call, libtesla would do work on every system-call–related
automaton" — the bound's entry event eagerly creates a wildcard instance
for every class sharing that bound, and its exit event walks all of them.

Lazy mode (``lazy=True``, the default) keeps "a per-context record of
common initialisation and cleanup events": opening a bound is one epoch
bump per *bound*, not per class; a class only materialises its wildcard
instance when it receives its first non-initialisation event; and cleanup
only visits the classes actually touched during the bound.  This is the
change that took the paper's microbenchmarks from ~100× to <7× overhead
(figure 13).

Global-context serialisation is the paper's: one lock over the whole
:class:`~repro.runtime.store.GlobalStore` (figure 12), taken once per
event by :meth:`TeslaRuntime.handle_event`.
:meth:`TeslaRuntime.dispatch_batch` amortises it by taking the lock once
per batch and replaying the batch in arrival order, so every class — and
the violation stream across classes — sees exactly the order per-event
dispatch would give.
"""

from __future__ import annotations

import threading
import weakref
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..core.ast import Context, TemporalAssertion
from ..core.automaton import Automaton, TransitionKind
from ..core.events import EventKind, RuntimeEvent
from ..core.translate import translate_all
from ..errors import ContextError, TemporalAssertionError
from .clock import as_clock
from .drain import OVERFLOW_POLICIES, DrainController
from .epoch import interest_epoch
from .governor import OverheadGovernor
from .journal import JournalWriter
from .notify import ErrorPolicy, NotificationHub
from .prealloc import DEFAULT_CAPACITY
from .ringbuf import DEFAULT_RING_CAPACITY
from .supervisor import FailurePolicy, Supervisor
from .store import (
    BoundId,
    BoundTracker,
    ClassRuntime,
    DispatchKey,
    GlobalStore,
    PerThreadStores,
    Store,
)
from .update import (
    expire_deadlines,
    handle_cleanup,
    handle_init,
    lazy_join_bound,
    tesla_update_state,
)

__all__ = [
    "BoundId",
    "BoundTracker",
    "DispatchKey",
    "TeslaRuntime",
    "live_runtimes",
    "reset_all_runtimes",
]


def _dispatch_keys_of(automaton: Automaton) -> Dict[str, Set[DispatchKey]]:
    """Split an automaton's alphabet into init / cleanup / body keys."""
    init: Set[DispatchKey] = set()
    cleanup: Set[DispatchKey] = set()
    body: Set[DispatchKey] = set()
    for t in automaton.transitions:
        if t.symbol is None:
            continue
        symbol = automaton.symbols[t.symbol]
        kind, name = symbol.dispatch_key
        if kind is EventKind.ASSERTION_SITE:
            key = (kind, automaton.name)
        else:
            key = (kind, name)
        if t.kind is TransitionKind.INIT:
            init.add(key)
        elif t.kind is TransitionKind.CLEANUP:
            cleanup.add(key)
        else:
            body.add(key)
    return {"init": init, "cleanup": cleanup, "body": body}


class _ContextPlan:
    """One dispatch key's work within one context (the global store, or
    the calling thread's local store)."""

    __slots__ = ("init_names", "init_bounds", "body", "cleanup_names",
                 "cleanup_bounds")

    def __init__(self) -> None:
        self.init_names: List[str] = []
        self.init_bounds: List[BoundId] = []
        #: (class name, its bound) — the bound feeds the lazy epoch join.
        self.body: List[Tuple[str, BoundId]] = []
        self.cleanup_names: List[str] = []
        self.cleanup_bounds: List[BoundId] = []

    def empty(self) -> bool:
        return not (self.init_names or self.body or self.cleanup_names)


class _KeyPlan:
    """Everything one dispatch key triggers, pre-split by context.

    Computed once per key and cached — the indexes never change after
    installation, so dispatch does no per-event index walking.
    """

    __slots__ = ("shared", "local", "initiated")

    def __init__(
        self,
        shared: Optional[_ContextPlan],
        local: Optional[_ContextPlan],
        initiated: frozenset,
    ) -> None:
        #: The global-context share (run under the global store's lock).
        self.shared = shared
        self.local = local
        self.initiated = initiated


_EMPTY_PLAN = _KeyPlan(None, None, frozenset())

#: Every constructed runtime, for test hygiene (see ``reset_all_runtimes``).
_live_runtimes: "weakref.WeakSet[TeslaRuntime]" = weakref.WeakSet()


def live_runtimes() -> List["TeslaRuntime"]:
    """Every :class:`TeslaRuntime` still referenced by the process."""
    return list(_live_runtimes)


def reset_all_runtimes() -> None:
    """Reset every live runtime: expunge instances and close bounds.

    The runtime layer's analogue of the instrumentation registries'
    ``detach_all`` — test fixtures call it so automata state and bound
    trackers never leak across tests.
    """
    for runtime in live_runtimes():
        runtime.reset()


class TeslaRuntime:
    """Tracks automata instances and their state across all contexts."""

    def __init__(
        self,
        lazy: bool = True,
        capacity: int = DEFAULT_CAPACITY,
        policy: Optional[ErrorPolicy] = None,
        compile: bool = True,
        failure_policy: Optional[FailurePolicy] = None,
        deferred: object = False,
        overflow_policy: str = "flush",
        ring_capacity: int = DEFAULT_RING_CAPACITY,
        drain_interval: float = 0.002,
        lint: str = "warn",
        prove: str = "off",
        journal: object = None,
        overhead_budget: Optional[float] = None,
        clock: object = None,
        stamp_capture: bool = True,
    ) -> None:
        if deferred not in (False, True, "manual"):
            raise ValueError(
                "deferred must be False (synchronous), True (background "
                f"drainer) or 'manual' (explicit drain), got {deferred!r}"
            )
        # Numeric knobs are range-checked up front: a nonsense value used
        # to surface (if at all) as a confusing failure deep inside pool
        # or ring construction, long after the misconfigured call site.
        if capacity < 1:
            raise ValueError(
                f"capacity is the per-class instance pool size; it must be "
                f">= 1, got {capacity!r}"
            )
        if ring_capacity < 1:
            raise ValueError(
                f"ring_capacity is the per-thread capture ring size; it "
                f"must be >= 1, got {ring_capacity!r}"
            )
        if drain_interval <= 0:
            raise ValueError(
                f"drain_interval is the background drainer's period in "
                f"seconds; it must be > 0, got {drain_interval!r}"
            )
        if overflow_policy not in OVERFLOW_POLICIES:
            raise ValueError(
                f"overflow_policy must be one of {OVERFLOW_POLICIES}, "
                f"got {overflow_policy!r}"
            )
        if overhead_budget is not None and not (
            0.0 < overhead_budget <= 1.0
        ):
            raise ValueError(
                "overhead_budget is a fraction of wall time; it must be "
                f"in (0.0, 1.0], got {overhead_budget!r}"
            )
        if not stamp_capture and clock is None:
            raise ValueError(
                "stamp_capture=False means events arrive pre-stamped by "
                "some external clock; timer expiry would then read an "
                "unrelated monotonic epoch — pass the clock= those "
                "timestamps came from (conflicting clock sources)"
            )
        if journal is not None and not deferred:
            raise ValueError(
                "journal= records at the drain boundary (DESIGN §5.6); it "
                "requires deferred=True or deferred='manual'"
            )
        if lint not in ("error", "warn", "off"):
            raise ValueError(
                f"lint must be 'error', 'warn' or 'off', got {lint!r}"
            )
        if prove not in ("off", "report", "prune"):
            raise ValueError(
                f"prove must be 'off', 'report' or 'prune', got {prove!r}"
            )
        self.lazy = lazy
        #: Which step engine body dispatch uses.  ``True`` (the default)
        #: runs tesla-jit's exec-generated per-(class, key) step functions
        #: (DESIGN §5.7), falling back (loudly, counted) to the naive
        #: interpreter for any key the generator can't specialize.
        #: ``False`` runs the naive interpreter throughout: the
        #: paper-faithful baseline the benchmarks compare against and the
        #: reference the differential tests and replay check.  Both give
        #: identical verdicts.
        self.compiled = compile
        #: Memoized :class:`~repro.runtime.codegen.CodegenFacts` snapshot;
        #: ``None`` until first needed and again whenever an install grows
        #: the lint or prove report.
        self._facts = None
        #: The runtime's one time source (DESIGN §5.9): drives capture
        #: timestamping, timer (deadline) expiry and the overhead
        #: governor's cost accounting alike.  Inject a
        #: :class:`~repro.runtime.clock.FakeClock` for deterministic timed
        #: tests; the default is the process monotonic clock.
        self.clock = as_clock(clock)
        #: Whether ``handle_event``/``dispatch_batch`` stamp each event's
        #: capture timestamp from ``self.clock``.  ``False`` is the replay
        #: posture: events arrive pre-stamped (e.g. from a journal) and
        #: must keep their recorded timestamps.
        self.stamp_capture = stamp_capture
        #: Largest event timestamp observed, for timer expiry when events
        #: arrive pre-stamped: "now" is then defined by the trace itself,
        #: not by this process's clock.
        self._max_event_ts = 0.0
        #: Classes carrying a ``deadline(...)`` obligation — the only ones
        #: the sync-point timer check must visit.
        self._timed_classes: List[str] = []
        #: Timer-check accounting, surfaced via dispatch_stats.
        self.timer_checks = 0
        self.timer_expiries = 0
        self.hub = NotificationHub(policy)
        #: The containment boundary for faults in the monitor itself:
        #: ``failure_policy`` selects fail-stop (default), fail-open,
        #: callback, or quarantine — the internal-fault counterpart of the
        #: violation ``policy``.  Quarantine state changes clear dispatch
        #: plans and rebuild translator chains via ``_on_supervisor_change``.
        self.supervisor = Supervisor(
            failure_policy, on_change=self._on_supervisor_change
        )
        self.hub.fault_sink = self.supervisor.record_handler_fault
        #: Adaptive overhead governor (DESIGN §5.8): feedback controller
        #: bounding monitoring cost to ``overhead_budget`` (a fraction of
        #: wall time) by graduated shedding — sample instantiation, demote
        #: to journal-only recording, shed via the supervisor.  ``None``
        #: (the default) keeps the hot path completely un-instrumented.
        self.governor: Optional[OverheadGovernor] = (
            OverheadGovernor(
                overhead_budget,
                clock=self.clock,
                shed=self.supervisor.governor_shed,
                unshed=self.supervisor.governor_unshed,
                on_demote_change=self._on_governor_change,
            )
            if overhead_budget is not None
            else None
        )
        #: Event translators feeding this runtime, re-filtered when the
        #: supervisor sheds or re-arms a class (weak: translators die with
        #: their instrumentation session).
        self._translators: "weakref.WeakSet" = weakref.WeakSet()
        self.global_store = GlobalStore(capacity)
        self.thread_stores = PerThreadStores(capacity)
        self.automata: Dict[str, Automaton] = {}
        self.contexts: Dict[str, Context] = {}
        self.bounds: Dict[str, BoundId] = {}
        self._init_index: Dict[DispatchKey, List[str]] = {}
        self._cleanup_index: Dict[DispatchKey, List[str]] = {}
        self._body_index: Dict[DispatchKey, List[str]] = {}
        #: Dispatch plans, one per key, built lazily from the indexes.
        self._key_plans: Dict[DispatchKey, _KeyPlan] = {}
        self._thread_trackers = threading.local()
        #: Event counter, for the benchmarks' sanity reporting.
        self.events_processed = 0
        #: Deferred pipeline (DESIGN §5.4).  ``deferred=False`` keeps the
        #: paper's synchronous hot path; ``True`` captures events into
        #: per-thread rings drained by a background thread; ``"manual"``
        #: defers with no thread (explicit ``drain()``/``flush`` calls and
        #: producer-run batch drains give deterministic schedules).
        self.deferred = deferred
        #: Durable trace journal (DESIGN §5.6): a path, binary file-like
        #: or prebuilt :class:`~repro.runtime.journal.JournalWriter`; the
        #: drain appends every merged slot before evaluating it.
        self.journal: Optional[JournalWriter] = None
        if journal is not None:
            # Anything already quacking like a journal sink (JournalWriter
            # or a custom append_batch/close object) is used as-is; paths
            # and binary streams get wrapped.
            self.journal = (
                journal
                if hasattr(journal, "append_batch")
                else JournalWriter(journal)
            )
        self.drain: Optional[DrainController] = (
            DrainController(
                self,
                ring_capacity=ring_capacity,
                overflow_policy=overflow_policy,
                background=(deferred is True),
                drain_interval=drain_interval,
                journal=self.journal,
            )
            if deferred
            else None
        )
        #: Dispatch keys whose events may make the *drain* produce a
        #: verdict — bound entry/exit, assertion sites, and any event a
        #: ``strict`` automaton references — of GLOBAL classes and of
        #: thread-local classes with a ``deadline`` (only the flush's timer
        #: check expires an obligation no successor event discharges).  In
        #: deferred mode these are the synchronization points: capturing
        #: one forces a flush so violations are raised exactly where
        #: synchronous dispatch would raise them.  Other thread-local
        #: classes reach their verdicts inline at capture, so their keys
        #: never force a flush.
        self._sync_keys: frozenset = frozenset()
        #: Keys observed by a thread-local (perthread) automaton.  Their
        #: local share is always evaluated inline on the capturing thread
        #: — a per-thread automaton's serialisation *is* that thread, and
        #: its state lives in the capturing thread's store, which a drain
        #: running on another thread could never reach.
        self._local_keys: frozenset = frozenset()
        #: tesla-lint gate for installs (DESIGN §5.5): ``"warn"`` (default)
        #: lints every installed batch and routes findings to stderr;
        #: ``"error"`` refuses to install a batch with lint errors
        #: (:class:`~repro.errors.LintError`); ``"off"`` skips the passes.
        #: Only the automaton layer runs here — the runtime cannot know
        #: which caller modules or selectors an instrumenter supplies.
        self.lint = lint
        #: Accumulated lint results across installed batches (``None``
        #: until the first lint-enabled install).  Consumed by the event
        #: translator's check-elision fast path and by ``health_report``.
        self.lint_report = None
        #: tesla-prove gate for installs (DESIGN §5.10): ``"off"``
        #: (default) skips proving; ``"report"`` proves every batch on
        #: the automaton basis and accumulates the report; ``"prune"``
        #: additionally *skips installing* PROVED assertions — their
        #: hooks are never referenced, so instrumentation sessions skip
        #: weaving them and monitoring cost drops to zero.
        self.prove = prove
        #: Accumulated prove results across installed batches (``None``
        #: until the first prove-enabled install).
        self.prove_report = None
        #: Assertion names statically discharged and elided at install
        #: (only under ``prove="prune"``); instrumenters consult this to
        #: skip hook weaving and site attachment.
        self.prove_elided: Set[str] = set()
        _live_runtimes.add(self)

    @property
    def codegen(self) -> bool:
        """Read-only alias of :attr:`compiled` (whether generated steps
        run); ``perfbench`` records it in each run's provenance."""
        return self.compiled

    @property
    def shard_count(self) -> int:
        """Always 1.  The global store is one lock; the property remains
        only because ``perfbench`` records it in each run's provenance."""
        return 1

    # -- supervision -----------------------------------------------------------

    def register_translator(self, translator) -> None:
        """Track a translator so quarantine changes re-filter its chains."""
        self._translators.add(translator)

    def _on_supervisor_change(self) -> None:
        """A class was quarantined or re-armed: rebuild every derived
        dispatch structure, then bump the interest epoch so hook-point and
        interposition caches follow.  Per-class plans and generated steps
        depend on nothing a trip changes, so they stay."""
        self._key_plans.clear()
        for translator in list(self._translators):
            translator._rebuild()
        interest_epoch.bump()

    def _on_governor_change(self) -> None:
        """The governor demoted or restored a class: rebuild dispatch plans
        only.  Deliberately *not* ``_on_supervisor_change`` — a demoted
        class must keep capturing events (the journal is its evidence
        trail), so hook interest and translator chains stay untouched; the
        class merely disappears from evaluation plans."""
        self._key_plans.clear()

    def _govern(self, events: int) -> None:
        """One governor control tick, fail-safe: any governor fault trips
        it (all restrictions lift, decisions stop) and is contained under
        the pseudo-label ``(governor)`` — a broken controller degrades to
        "no shedding", never to dropped verdicts."""
        gov = self.governor
        try:
            gov.maybe_control(events)
        except TemporalAssertionError:
            raise
        except Exception as exc:
            gov.trip()
            if not self.supervisor.contain("(governor)", "governor", exc):
                raise

    def _charge(
        self, gov: OverheadGovernor, name: str, seconds: float
    ) -> None:
        """Attribute measured evaluation time to a class's cost ledger,
        with the same trip-and-contain fail-safety as ``_govern``."""
        try:
            gov.charge(name, seconds)
        except TemporalAssertionError:
            raise
        except Exception as exc:
            gov.trip()
            if not self.supervisor.contain("(governor)", "governor", exc):
                raise

    # -- installation ----------------------------------------------------------

    def install_assertion(self, assertion: TemporalAssertion) -> Automaton:
        return self.install_assertions([assertion])[0]

    def install_assertions(
        self, assertions: Sequence[TemporalAssertion]
    ) -> List[Automaton]:
        batch = list(assertions)
        self._lint_batch(batch)
        self._prove_batch(batch)
        if self.journal is not None:
            # Embed the source assertions so the journal is self-contained:
            # offline replay re-derives the automata from the log alone.
            self.journal.record_assertions(batch)
        automata = translate_all(batch)
        for automaton, assertion in zip(automata, batch):
            if automaton.name in self.prove_elided:
                # Statically discharged under prove="prune": the class is
                # never registered, so no dispatch index references its
                # events and instrumenters skip its hooks entirely.
                continue
            self.install_automaton(automaton, assertion.context)
        return automata

    def _lint_batch(self, assertions: Sequence[TemporalAssertion]) -> None:
        """The install-time tesla-lint gate (mode per ``self.lint``).

        Runs the batch and automaton layers only; accumulates results on
        ``self.lint_report`` so the translators' check-elision fast path
        and ``health_report`` can consume them.
        """
        if self.lint == "off" or not assertions:
            return
        from ..analysis.lint import lint_assertions

        report = lint_assertions(assertions)
        if self.lint_report is None:
            self.lint_report = report
        else:
            self.lint_report.extend(report)
        self._facts = None
        if report.errors and self.lint == "error":
            from ..errors import LintError

            raise LintError(report)
        if report.findings:
            import warnings

            warnings.warn(
                "tesla-lint findings on installed assertions:\n"
                + "\n".join(f.format() for f in report.findings),
                stacklevel=3,
            )

    def _prove_batch(self, assertions: Sequence[TemporalAssertion]) -> None:
        """The install-time tesla-prove gate (mode per ``self.prove``).

        Only the automaton proof basis runs here — the runtime has no
        program CFG (instrumenters know the sources; ``repro.cli prove``
        runs the product basis offline).  That basis is strictly weaker,
        so anything it discharges the full engine would too.
        """
        if self.prove == "off" or not assertions:
            return
        from ..analysis.prove import PROVED, prove_assertions

        report = prove_assertions(assertions)
        if self.prove == "prune":
            self.prove_elided |= {
                r.assertion for r in report.results if r.verdict == PROVED
            }
        if self.prove_report is None:
            self.prove_report = report
        else:
            self.prove_report.extend(report)
        self._facts = None

    def install_automaton(self, automaton: Automaton, context: Context) -> None:
        if automaton.name in self.automata:
            raise ContextError(f"automaton {automaton.name!r} already installed")
        self.automata[automaton.name] = automaton
        self.contexts[automaton.name] = context
        keys = _dispatch_keys_of(automaton)
        if len(keys["init"]) != 1 or len(keys["cleanup"]) != 1:
            raise ContextError(
                f"automaton {automaton.name!r} must have exactly one init "
                f"and one cleanup event"
            )
        bound: BoundId = (next(iter(keys["init"])), next(iter(keys["cleanup"])))
        self.bounds[automaton.name] = bound
        self._init_index.setdefault(bound[0], []).append(automaton.name)
        self._cleanup_index.setdefault(bound[1], []).append(automaton.name)
        for key in keys["body"]:
            self._body_index.setdefault(key, []).append(automaton.name)
        if automaton.deadline_s is not None:
            self._timed_classes.append(automaton.name)
        if context is Context.GLOBAL:
            self.global_store.register(automaton)
        else:
            self.thread_stores.register(automaton)
        # The indexes changed; dispatch plans are rebuilt on next dispatch,
        # and the interest epoch bump invalidates every hook-point interest
        # cache in the process.  Other classes' plans and steps are keyed
        # by their own content and stay valid.
        self._key_plans.clear()
        self._rebuild_deferred_keys()
        interest_epoch.bump()

    def _rebuild_deferred_keys(self) -> None:
        """Recompute the sync-point and thread-local key sets (see
        ``_sync_keys``/``_local_keys``) from every installed automaton."""
        sync = set()
        local = set()
        for name, automaton in self.automata.items():
            keys = _dispatch_keys_of(automaton)
            if self.contexts[name] is not Context.GLOBAL:
                local |= keys["init"]
                local |= keys["cleanup"]
                local |= keys["body"]
                if automaton.deadline_s is None:
                    continue
            sync |= keys["init"]
            sync |= keys["cleanup"]
            for key in keys["body"]:
                if key[0] is EventKind.ASSERTION_SITE:
                    sync.add(key)
            if automaton.strict:
                # A strict automaton can raise on any referenced body
                # event it cannot consume, so each is a sync point.
                sync |= keys["body"]
        self._sync_keys = frozenset(sync)
        self._local_keys = frozenset(local)

    # -- store access ------------------------------------------------------------

    def _store_for(self, name: str) -> Store:
        if self.contexts[name] is Context.GLOBAL:
            return self.global_store.store
        return self.thread_stores.current()

    def _thread_tracker(self) -> BoundTracker:
        tracker = getattr(self._thread_trackers, "tracker", None)
        if tracker is None:
            tracker = BoundTracker()
            self._thread_trackers.tracker = tracker
        return tracker

    def class_runtime(self, name: str) -> ClassRuntime:
        cr = self._store_for(name).get(name)
        if cr is None:
            raise ContextError(f"automaton {name!r} not installed in this store")
        return cr

    def all_class_runtimes(self, name: str) -> List[ClassRuntime]:
        """Every context's runtime for one class (for post-run introspection)."""
        out = []
        if self.contexts[name] is Context.GLOBAL:
            cr = self.global_store.store.get(name)
            if cr is not None:
                out.append(cr)
        else:
            for store in self.thread_stores.all_stores():
                cr = store.get(name)
                if cr is not None:
                    out.append(cr)
        return out

    # -- dispatch planning --------------------------------------------------------

    def _codegen_facts(self):
        """The lint and prove facts the generator may rely on, memoized
        until an install grows ``lint_report`` or ``prove_report``."""
        facts = self._facts
        if facts is None:
            from .codegen import CodegenFacts

            facts = self._facts = CodegenFacts.from_report(
                self.lint_report, prove=self.prove_report
            )
        return facts

    def _plan_for(self, key: DispatchKey) -> _KeyPlan:
        plan = self._key_plans.get(key)
        if plan is None:
            plan = self._build_plan(key)
            self._key_plans[key] = plan
        return plan

    def _build_plan(self, key: DispatchKey) -> _KeyPlan:
        shared = _ContextPlan()
        local = _ContextPlan()
        # Quarantined classes are shed at plan-build time: the supervisor's
        # change hook clears ``_key_plans``, so a trip or re-arm takes
        # effect on the very next event.  Governor-demoted classes are
        # excluded from evaluation the same way, but their hooks stay
        # attached (``_on_governor_change`` skips the epoch bump) so the
        # journal keeps recording their events.
        shed = self.supervisor.shed_classes
        gov = self.governor
        if gov is not None and gov.demoted:
            shed = shed | gov.demoted

        def context_plan(name: str) -> _ContextPlan:
            if self.contexts[name] is Context.GLOBAL:
                return shared
            return local

        init_names = [
            name
            for name in self._init_index.get(key, ())
            if name not in shed
        ]
        for name in init_names:
            plan = context_plan(name)
            plan.init_names.append(name)
            bound = self.bounds[name]
            if bound not in plan.init_bounds:
                plan.init_bounds.append(bound)
        for name in self._body_index.get(key, ()):
            if name in shed:
                continue
            context_plan(name).body.append((name, self.bounds[name]))
        for name in self._cleanup_index.get(key, ()):
            if name in shed:
                continue
            plan = context_plan(name)
            plan.cleanup_names.append(name)
            bound = self.bounds[name]
            if bound not in plan.cleanup_bounds:
                plan.cleanup_bounds.append(bound)

        if shared.empty() and local.empty():
            return _EMPTY_PLAN
        return _KeyPlan(
            shared=None if shared.empty() else shared,
            local=None if local.empty() else local,
            initiated=frozenset(init_names),
        )

    # -- dispatch ---------------------------------------------------------------

    def handle_event(self, event: RuntimeEvent) -> None:
        """Route one concrete event to every automaton that observes it.

        In deferred mode this is the *capture* path: the event is stamped
        and appended to the calling thread's ring (thread-local automata
        are then evaluated inline — see ``_local_keys``), and only a
        synchronization-point key forces evaluation before returning.
        """
        if self.stamp_capture:
            # Capture timestamping (DESIGN §5.9): the monotonic stamp is
            # taken *here*, before any deferral, so clock guards measure
            # when the program did the thing, not when the drain ran.
            # Stamped through the instance dict: the frozen dataclass's
            # __setattr__ would refuse, and object.__setattr__ is slower.
            event.__dict__["timestamp"] = self.clock.now()
        elif event.timestamp > self._max_event_ts:
            self._max_event_ts = event.timestamp
        if self.drain is not None:
            drain = self.drain
            key = (event.kind, event.name)
            # Capture before the inline evaluation: a thread-local
            # violation then flushes the event that caused it, and
            # everything before it, into the journal before propagating.
            drain.enqueue(event)
            if key in self._local_keys:
                try:
                    self._dispatch_local(event, key)
                except TemporalAssertionError:
                    drain.flush(sync=True)
                    raise
            if key in self._sync_keys:
                drain.flush(sync=True)
            return
        self.events_processed += 1
        self.supervisor.begin_dispatch()
        if self.governor is not None:
            self._govern(1)
        key = (event.kind, event.name)
        plan = self._plan_for(key)
        if plan.shared is not None:
            gs = self.global_store
            with gs.lock:
                self._run_plan(plan.shared, gs.store, gs.tracker, event,
                               plan.initiated, key)
        if plan.local is not None:
            self._run_plan(plan.local, self.thread_stores.current(),
                           self._thread_tracker(), event, plan.initiated, key)

    def _dispatch_local(self, event: RuntimeEvent, key: DispatchKey) -> None:
        """Evaluate one event's thread-local share inline (deferred mode).

        Per-thread automata are never evaluated from the rings: their
        state lives in the capturing thread's store and their event order
        *is* that thread's program order, so inline evaluation is both
        required and already verdict-exact.  The drain side skips local
        work (``include_local=False``) so nothing runs twice.
        """
        plan = self._plan_for(key)
        if plan.local is not None:
            self._run_plan(plan.local, self.thread_stores.current(),
                           self._thread_tracker(), event, plan.initiated, key)

    def dispatch_batch(
        self, events: Iterable[RuntimeEvent], include_local: bool = True
    ) -> int:
        """Batched event ingestion: the global lock is taken once.

        The batch is replayed in arrival order under a single acquisition
        of the global store's lock, each event's global share followed by
        its thread-local share, so every class, and the violation stream
        across classes, sees exactly what per-event :meth:`handle_event`
        calls would produce.  A batch with no global work takes no lock.

        Under a fail-stop policy a violation raises mid-batch and the
        remaining events are not processed, exactly as if the same events
        had been dispatched one at a time.  Returns the number of events
        ingested.

        ``include_local=False`` is the drain pass calling: thread-local
        work was already evaluated inline at capture time on the owning
        thread, so only the global share runs here.  An external caller
        in deferred mode first flushes the rings so the explicit batch
        cannot overtake events captured before it.
        """
        if self.drain is not None and include_local:
            self.drain.flush()
        events = list(events)
        if include_local:
            # External batch entry: same capture-stamping contract as
            # handle_event.  The drain's internal passes come through with
            # include_local=False and never re-stamp — their events were
            # stamped when the capturing thread enqueued them.
            if self.stamp_capture:
                now = self.clock.now()
                for event in events:
                    event.__dict__["timestamp"] = now
            else:
                for event in events:
                    if event.timestamp > self._max_event_ts:
                        self._max_event_ts = event.timestamp
        self.events_processed += len(events)
        self.supervisor.advance(len(events))
        if self.governor is not None and events:
            self._govern(len(events))
        work: List[
            Tuple[Optional[_ContextPlan], Optional[_ContextPlan],
                  RuntimeEvent, frozenset, DispatchKey]
        ] = []
        shared_work = False
        for event in events:
            key = (event.kind, event.name)
            plan = self._plan_for(key)
            local = plan.local if include_local else None
            if plan.shared is not None:
                shared_work = True
            elif local is None:
                continue
            work.append((plan.shared, local, event, plan.initiated, key))
        if shared_work:
            with self.global_store.lock:
                self._run_batch(work)
        elif work:
            self._run_batch(work)
        return len(events)

    def _run_batch(self, work) -> None:
        """Replay ``dispatch_batch``'s work list in order (caller holds the
        global lock if any entry has a global share)."""
        gs = self.global_store
        store, tracker = gs.store, gs.tracker
        local_store = local_tracker = None
        for shared, local, event, initiated, key in work:
            if shared is not None:
                self._run_plan(shared, store, tracker, event, initiated, key)
            if local is not None:
                if local_store is None:
                    local_store = self.thread_stores.current()
                    local_tracker = self._thread_tracker()
                self._run_plan(local, local_store, local_tracker, event,
                               initiated, key)

    def _run_plan(
        self,
        work: _ContextPlan,
        store: Store,
        tracker: BoundTracker,
        event: RuntimeEvent,
        initiated: frozenset,
        key: DispatchKey,
    ) -> None:
        """One context's share of one event (caller holds the global lock
        for the global context; thread-local contexts need none).

        Every per-class unit of work runs inside a containment boundary:
        a fault in one class's matchers, steps or pool is routed through
        the supervisor's :class:`~repro.runtime.supervisor.FailurePolicy`
        (attributed to that class, which is what lets quarantine find the
        faulty one) without disturbing the other classes on this event.
        ``TemporalAssertionError`` always propagates — it is the fail-stop
        *violation* policy speaking, not a monitor fault.
        """
        # Facts are fetched only for body work: an event that merely opens
        # or closes bounds (all an idle workload sees) never needs them.
        codegen = self.compiled and work.body
        supervisor = self.supervisor
        gov = self.governor
        if codegen:
            facts = self._codegen_facts()
        if self.lazy:
            # One epoch bump per distinct bound — "a per-context record of
            # common initialisation events" — independent of how many
            # classes share that bound.  The entry timestamp rides along so
            # lazily-joining timed classes know when the bound opened.
            for bound in work.init_bounds:
                tracker.begin(bound, event.timestamp)
        else:
            for name in work.init_names:
                t0 = gov.now() if gov is not None else 0.0
                try:
                    cr = store.get(name)
                    if gov is not None and not cr.active:
                        # Rung-1 shedding: 1-in-N bound instantiation.  A
                        # skipped occurrence never materialises (the class
                        # stays inactive, so its events take the ignore
                        # path); an admitted one stamps its rate so any
                        # violation it finds carries the honesty annotation.
                        if not gov.admit_bound(name):
                            continue
                        cr.sample_rate = gov.sample_rate(name)
                    handle_init(cr, event, self.hub, lazy=False)
                except TemporalAssertionError:
                    raise
                except Exception as exc:
                    if not supervisor.contain(name, "init", exc):
                        raise
                finally:
                    if gov is not None:
                        self._charge(gov, name, gov.now() - t0)
        for name, bound in work.body:
            if name in initiated:
                # An event that opens a class's bound is not also one of its
                # body events for the same occurrence.
                continue
            t0 = gov.now() if gov is not None else 0.0
            try:
                cr = store.get(name)
                if self.lazy:
                    lazy_join_bound(cr, bound, tracker, governor=gov)
                entry = cr.step_for(key, facts) if codegen else None
                if entry is not None:
                    entry.step(cr, event, self.hub)
                else:
                    # The naive engine, or the loud fallback for a key the
                    # generator declined (counted in gen_fallback_*).
                    tesla_update_state(cr, event, self.hub, self.lazy)
            except TemporalAssertionError:
                raise
            except Exception as exc:
                if not supervisor.contain(name, "body", exc):
                    raise
            finally:
                if gov is not None:
                    self._charge(gov, name, gov.now() - t0)
        if self.lazy:
            # Cleanup visits only the classes actually touched during the
            # bound, not every class sharing it.
            for bound in work.cleanup_bounds:
                for name in sorted(tracker.end(bound)):
                    t0 = gov.now() if gov is not None else 0.0
                    try:
                        handle_cleanup(store.get(name), event, self.hub)
                    except TemporalAssertionError:
                        raise
                    except Exception as exc:
                        if not supervisor.contain(name, "cleanup", exc):
                            raise
                    finally:
                        if gov is not None:
                            self._charge(gov, name, gov.now() - t0)
        else:
            for name in work.cleanup_names:
                t0 = gov.now() if gov is not None else 0.0
                try:
                    handle_cleanup(store.get(name), event, self.hub)
                except TemporalAssertionError:
                    raise
                except Exception as exc:
                    if not supervisor.contain(name, "cleanup", exc):
                        raise
                finally:
                    if gov is not None:
                        self._charge(gov, name, gov.now() - t0)

    # -- maintenance --------------------------------------------------------------

    def check_timers(self) -> int:
        """Expire overdue deadline obligations with no successor event.

        This is the sync-point half of the timed semantics (DESIGN §5.9):
        per-event expiry inside ``tesla_update_state`` catches deadlines
        that pass *before a later event*, while this check catches the
        case where no further event ever arrives — the drain controller
        and ``flush_deferred`` call it so a missed deadline surfaces as a
        violation at the next flush rather than never.

        "Now" is the later of the runtime clock and the largest event
        timestamp seen, so pre-stamped (replayed) traces expire by trace
        time, not this process's clock.  Per-class faults are contained
        through the supervisor: a faulting timer path degrades that class
        to ordinal semantics (the obligation still reports at cleanup),
        never to a dropped verdict.  Returns the number of instances
        expired.
        """
        if not self._timed_classes:
            return 0
        self.timer_checks += 1
        now = self.clock.now()
        if self._max_event_ts > now:
            now = self._max_event_ts
        expired = 0
        supervisor = self.supervisor
        for name in self._timed_classes:
            if self.contexts[name] is Context.GLOBAL:
                gs = self.global_store
                with gs.lock:
                    cr = gs.store.get(name)
                    if cr is None:
                        continue
                    try:
                        expired += expire_deadlines(cr, now, self.hub)
                    except TemporalAssertionError:
                        raise
                    except Exception as exc:
                        if not supervisor.contain(name, "timer", exc):
                            raise
            else:
                for store in self.thread_stores.all_stores():
                    cr = store.get(name)
                    if cr is None:
                        continue
                    try:
                        expired += expire_deadlines(cr, now, self.hub)
                    except TemporalAssertionError:
                        raise
                    except Exception as exc:
                        if not supervisor.contain(name, "timer", exc):
                            raise
        self.timer_expiries += expired
        return expired

    def flush_deferred(self) -> None:
        """Evaluate everything captured so far and expire overdue timers
        (the sync-point contract; a synchronous runtime only has the timer
        half).

        Introspection readers (``health_report``/``coverage_report``/…)
        call this so reads never observe a store that lags capture.
        """
        if self.drain is not None:
            self.drain.flush()
        else:
            self.check_timers()

    def discard_deferred(self) -> int:
        """Drop captured-but-unevaluated events (teardown after an
        application failure).  Returns how many were dropped."""
        if self.drain is not None:
            return self.drain.discard_pending()
        return 0

    def deferred_queue_depth(self) -> int:
        if self.drain is not None:
            return self.drain.queue_depth()
        return 0

    def close_journal(self) -> None:
        """Footer-close the trace journal (idempotent).

        Does *not* flush the rings first: teardown decides whether pending
        captures are evaluated (clean exit) or discarded (the block body
        raised), and the journal must mirror that choice.
        """
        if self.journal is not None and not self.journal.closed:
            self.journal.close()

    def reset(self) -> None:
        """Expunge all instances and close all bounds (e.g. between runs).

        In deferred mode the background drainer is stopped and pending
        captures discarded *first*, so nothing can repopulate the stores
        mid-reset; the ring objects themselves survive (threads may hold
        references) but come back empty with zeroed accounting.
        """
        if self.drain is not None:
            self.drain.reset()
        self.global_store.reset()
        self.thread_stores.reset()
        self._thread_trackers = threading.local()
        self.events_processed = 0
        self._max_event_ts = 0.0
        self.timer_checks = 0
        self.timer_expiries = 0
        self.hub.reset_counts()
        self.supervisor.reset()
        if self.governor is not None:
            self.governor.reset()

    def observes(self, key: DispatchKey) -> bool:
        """Whether any installed automaton cares about this dispatch key."""
        return (
            key in self._body_index
            or key in self._init_index
            or key in self._cleanup_index
        )
