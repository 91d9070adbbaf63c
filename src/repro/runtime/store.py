"""Automata stores: global and thread-local (sections 3.2, 4.4).

libtesla "can store automata state in either a global or a thread-local
store, as specified by the programmer".  Thread-local stores need no
locking — event serialisation is implicit within a thread.  The global
store provides explicit, lock-based serialisation whose cost figure 12
measures: an event "cannot complete until its instrumentation hook has
finished running", which commits the automaton to an event order consistent
with actual behaviour.

Like the paper's libtesla, :class:`GlobalStore` serialises the whole
global context behind one lock; ``TeslaRuntime.dispatch_batch`` amortises
it by taking that lock once per batch rather than once per event.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..core.automaton import Automaton, Transition
from ..core.events import EventKind
from ..errors import ContextError
from . import faultinject as _fi
from .faultinject import fault_site
from .instance import AutomatonInstance
from .plans import TransitionPlan, build_transition_plan
from .prealloc import DEFAULT_CAPACITY, InstancePool

_FP_PLAN_FOR = fault_site("store.plan_for")

#: An event's routing identity: (event kind, dispatch name).
DispatchKey = Tuple[EventKind, str]
#: A temporal bound's identity: (init dispatch key, cleanup dispatch key).
BoundId = Tuple[DispatchKey, DispatchKey]


class BoundTracker:
    """Per-context record of open temporal bounds (lazy mode, §5.2.2)."""

    __slots__ = ("open", "epoch", "touched", "entry_ts")

    def __init__(self) -> None:
        self.open: Dict[BoundId, bool] = {}
        self.epoch: Dict[BoundId, int] = {}
        self.touched: Dict[BoundId, Set[str]] = {}
        #: Capture timestamp of the event that opened each bound — the
        #: reference point lazily-joined timed instances measure deadlines
        #: and ``since_entry`` guards from (DESIGN §5.9).
        self.entry_ts: Dict[BoundId, float] = {}

    def begin(self, bound: BoundId, ts: float = 0.0) -> None:
        if self.open.get(bound):
            return  # re-entrant bound: ignore until cleanup
        self.open[bound] = True
        self.epoch[bound] = self.epoch.get(bound, 0) + 1
        self.touched[bound] = set()
        self.entry_ts[bound] = ts

    def end(self, bound: BoundId) -> Set[str]:
        if not self.open.get(bound):
            return set()
        self.open[bound] = False
        return self.touched.pop(bound, set())


class ClassRuntime:
    """Per-store state for one automaton class.

    ``active`` tracks whether the temporal bound is currently open;
    ``pending`` is the lazy-initialisation flag (section 5.2.2): the bound
    is open but the wildcard instance has not been materialised because no
    relevant event has arrived yet.
    """

    __slots__ = (
        "automaton",
        "pool",
        "active",
        "pending",
        "seen_epoch",
        "lazy_binding",
        "lazy_entry_ts",
        "overflow_mark",
        "overflow_reported",
        "sample_rate",
        "transition_counts",
        "errors",
        "accepts",
        "sites_reached",
        "_plans",
        "_plan_epoch",
        "plan_hits",
        "plan_misses",
        "plan_invalidations",
        "_gen",
        "_gen_epoch",
        "gen_hits",
        "gen_misses",
        "gen_fallback_plans",
        "gen_fallback_hits",
        "gen_invalidations",
        "gen_elided_guards",
        "gen_elided_transitions",
        "gen_seconds",
    )

    def __init__(self, automaton: Automaton, capacity: int = DEFAULT_CAPACITY) -> None:
        self.automaton = automaton
        self.pool = InstancePool(capacity)
        self.active = False
        self.pending = False
        #: Last bound epoch this class joined (lazy mode, section 5.2.2).
        self.seen_epoch = -1
        #: Binding captured from the bound's entry event (eager mode).
        self.lazy_binding: Dict[str, object] = {}
        #: Capture timestamp of the bound's entry event, threaded to
        #: instances materialised later (pending/lazy joins) so timed
        #: guards measure from when the bound actually opened.
        self.lazy_entry_ts = 0.0
        #: Pool overflow count when the current bound opened; a site miss
        #: after further overflows is suppressed (the dropped instance may
        #: have been the one that would have matched).
        self.overflow_mark = 0
        #: Whether the current bound already emitted its (single) OVERFLOW
        #: notification — a saturated pool reports once per bound, with
        #: exact drop counts kept in ``pool.stats()``.
        self.overflow_reported = False
        #: The overhead governor's honesty annotation (DESIGN §5.8): the
        #: 1-in-N instantiation rate in force when the current bound was
        #: admitted.  1 = unsampled; violations carry this value so a
        #: sampled finding can never report as full coverage.
        self.sample_rate = 1
        #: Transition → times taken; drives figure 9's weighted graphs.
        self.transition_counts: Dict[Transition, int] = {}
        self.errors = 0
        self.accepts = 0
        self.sites_reached = 0
        #: Compiled transition plans, keyed by dispatch key; valid only
        #: while ``_plan_epoch`` matches the global interest epoch.
        self._plans: Dict[DispatchKey, TransitionPlan] = {}
        self._plan_epoch = -1
        self.plan_hits = 0
        self.plan_misses = 0
        self.plan_invalidations = 0
        #: tesla-jit generated step functions (DESIGN §5.7), keyed like
        #: plans; an entry is a ``CompiledStep`` or a ``GenerationFallback``
        #: (the "can't specialize" decision is cached too, so the compiled
        #: interpreter fallback costs one dict probe, not a regeneration).
        self._gen: Dict[DispatchKey, object] = {}
        self._gen_epoch = -1
        self.gen_hits = 0
        self.gen_misses = 0
        self.gen_fallback_plans = 0
        self.gen_fallback_hits = 0
        self.gen_invalidations = 0
        self.gen_elided_guards = 0
        self.gen_elided_transitions = 0
        self.gen_seconds = 0.0

    def count_transition(self, transition: Transition) -> None:
        self.transition_counts[transition] = (
            self.transition_counts.get(transition, 0) + 1
        )

    def plan_for(self, key: DispatchKey, epoch: int) -> TransitionPlan:
        """The compiled plan for ``key``, rebuilt lazily on epoch change.

        ``epoch`` is the caller's snapshot of the global interest epoch
        (read once per event, outside any per-class loop).  The caller
        must hold whatever lock serialises this class — the cache is
        per-class state like the pool.
        """
        if _fi._active is not None:
            _fi.fault_point(_FP_PLAN_FOR)
        if self._plan_epoch != epoch:
            if self._plans:
                self.plan_invalidations += 1
                self._plans.clear()
            self._plan_epoch = epoch
        plan = self._plans.get(key)
        if plan is None:
            self.plan_misses += 1
            plan = build_transition_plan(self.automaton, key)
            self._plans[key] = plan
        else:
            self.plan_hits += 1
        return plan

    def step_for(self, key: DispatchKey, epoch: int, facts):
        """The tesla-jit generated step for ``key``, or ``None`` when the
        generator declined this plan (the caller then runs the compiled
        interpreter via :meth:`plan_for`).

        Same caching discipline as :meth:`plan_for`: valid while
        ``_gen_epoch`` matches the caller's interest-epoch snapshot, and
        the caller must hold whatever lock serialises this class.
        ``facts`` is the runtime's :class:`~repro.runtime.codegen.
        CodegenFacts` snapshot — it only changes on installs, which bump
        the epoch, so facts-staleness rides the same invalidation.
        """
        if self._gen_epoch != epoch:
            if self._gen:
                self.gen_invalidations += 1
                self._gen.clear()
            self._gen_epoch = epoch
        entry = self._gen.get(key)
        if entry is None:
            from time import perf_counter

            from .codegen import compile_plan_step

            self.gen_misses += 1
            plan = self.plan_for(key, epoch)
            start = perf_counter()
            entry = compile_plan_step(self.automaton, plan, facts)
            self.gen_seconds += perf_counter() - start
            self._gen[key] = entry
            if entry.step is None:
                self.gen_fallback_plans += 1
                return None
            self.gen_elided_guards += entry.elided_guards
            self.gen_elided_transitions += entry.elided_transitions
            return entry
        if entry.step is None:
            self.gen_fallback_hits += 1
            return None
        self.gen_hits += 1
        return entry

    def gen_summary(self) -> Dict[str, object]:
        """Per-key generated/fallback split for the codegen report."""
        generated = []
        fallback = []
        for key, entry in self._gen.items():
            label = f"{key[0].value}:{key[1]}"
            if entry.step is None:
                fallback.append((label, entry.reason))
            else:
                generated.append(label)
        return {
            "generated_keys": sorted(generated),
            "fallback_keys": sorted(fallback),
        }

    @property
    def plan_cache_size(self) -> int:
        return len(self._plans)

    @property
    def gen_cache_size(self) -> int:
        return len(self._gen)

    def reset(self) -> None:
        self.pool.expunge()
        self.active = False
        self.pending = False
        self.seen_epoch = -1
        self.lazy_binding = {}
        self.lazy_entry_ts = 0.0
        self.overflow_mark = 0
        self.overflow_reported = False
        self.sample_rate = 1
        # Plans and generated steps survive a reset (the automaton is
        # unchanged); only the effectiveness counters restart.
        self.plan_hits = 0
        self.plan_misses = 0
        self.plan_invalidations = 0
        self.gen_hits = 0
        self.gen_misses = 0
        self.gen_fallback_hits = 0
        self.gen_invalidations = 0
        # gen_fallback_plans / gen_elided_* / gen_seconds describe the
        # cache's *contents* (which survive the reset), not traffic.


class Store:
    """One store context: a set of automata classes and their instances."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        self.capacity = capacity
        self._classes: Dict[str, ClassRuntime] = {}

    def install(self, automaton: Automaton) -> ClassRuntime:
        if automaton.name in self._classes:
            existing = self._classes[automaton.name]
            if existing.automaton is not automaton:
                raise ContextError(
                    f"automaton {automaton.name!r} already installed with a "
                    f"different definition"
                )
            return existing
        runtime = ClassRuntime(automaton, self.capacity)
        self._classes[automaton.name] = runtime
        return runtime

    def get(self, name: str) -> Optional[ClassRuntime]:
        return self._classes.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._classes

    def __iter__(self) -> Iterator[ClassRuntime]:
        return iter(self._classes.values())

    @property
    def names(self) -> List[str]:
        return sorted(self._classes)

    def reset(self) -> None:
        for runtime in self._classes.values():
            runtime.reset()


class PerThreadStores:
    """A :class:`Store` per thread, created on first use.

    Keeps a registry of every thread's store so introspection (coverage,
    weighted graphs) can merge counters after multi-threaded runs.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        self.capacity = capacity
        self._local = threading.local()
        self._all: List[Store] = []
        self._all_lock = threading.Lock()
        self._automata: List[Automaton] = []

    def register(self, automaton: Automaton) -> None:
        """Remember an automaton so stores created later include it."""
        self._automata.append(automaton)
        with self._all_lock:
            for store in self._all:
                store.install(automaton)

    def current(self) -> Store:
        store = getattr(self._local, "store", None)
        if store is None:
            store = Store(self.capacity)
            for automaton in self._automata:
                store.install(automaton)
            self._local.store = store
            with self._all_lock:
                self._all.append(store)
        return store

    def all_stores(self) -> List[Store]:
        with self._all_lock:
            return list(self._all)

    def reset(self) -> None:
        with self._all_lock:
            for store in self._all:
                store.reset()


class GlobalStore:
    """The single cross-thread store, serialised by one lock (figure 12).

    As in libtesla, every global-context event runs under ``lock``, so
    the global automata observe one event order consistent with what the
    program did, across classes as well as within each.  ``tracker`` is
    the global context's record of open bounds (lazy mode, §5.2.2) and
    is guarded by the same lock.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        self.store = Store(capacity)
        self.lock = threading.RLock()
        self.tracker = BoundTracker()

    def register(self, automaton: Automaton) -> None:
        with self.lock:
            self.store.install(automaton)

    def reset(self) -> None:
        with self.lock:
            self.store.reset()
            self.tracker = BoundTracker()
