"""libtesla — the run-time support library.

Accepts streams of concrete program events and uses them to manage automata
instances (create, clone, update, finalise), with global and per-thread
stores, bounded preallocated instance pools, the lazy-initialisation
optimisation of section 5.2.2, and a pluggable notification framework.

Ingestion runs in one of two modes: synchronous (the paper's semantics —
an event is fully evaluated before the instrumented call returns) or
*deferred* (DESIGN §5.4 — capture into per-thread ring buffers via
:mod:`.ringbuf`, evaluation in seqno-merged batches via :mod:`.drain`,
with flushes at synchronization points keeping verdicts exact).
"""

from .drain import DRAINER_THREAD_NAME, OVERFLOW_POLICIES, DrainController
from .faultinject import (
    FaultInjector,
    InjectedFault,
    active_injector,
    arm,
    declared_fault_sites,
    disarm,
    fault_point,
    fault_site,
    injection,
)
from .instance import AutomatonInstance
from .manager import BoundTracker, TeslaRuntime, live_runtimes, reset_all_runtimes
from .notify import (
    CollectingHandler,
    ErrorPolicy,
    FailStop,
    LogAndContinue,
    Notification,
    NotificationHub,
    NotificationKind,
    StderrDebugHandler,
)
from .perobject import (
    ObjectInstrumentation,
    ObjectMonitor,
    instrument_object_assertion,
)
from .prealloc import DEFAULT_CAPACITY, InstancePool
from .ringbuf import DEFAULT_RING_CAPACITY, EventRing, SeqnoSource
from .store import (
    ClassRuntime,
    GlobalStore,
    PerThreadStores,
    Store,
)
from .supervisor import (
    CallbackPolicy,
    FailOpen,
    FailStopFaults,
    FailurePolicy,
    MonitorFault,
    QuarantinePolicy,
    QuarantineRecord,
    QuarantineState,
    Supervisor,
)
from .update import handle_cleanup, handle_init, lazy_join_bound, tesla_update_state

__all__ = [
    "DRAINER_THREAD_NAME",
    "OVERFLOW_POLICIES",
    "DrainController",
    "DEFAULT_RING_CAPACITY",
    "EventRing",
    "SeqnoSource",
    "FaultInjector",
    "InjectedFault",
    "active_injector",
    "arm",
    "declared_fault_sites",
    "disarm",
    "fault_point",
    "fault_site",
    "injection",
    "CallbackPolicy",
    "FailOpen",
    "FailStopFaults",
    "FailurePolicy",
    "MonitorFault",
    "QuarantinePolicy",
    "QuarantineRecord",
    "QuarantineState",
    "Supervisor",
    "AutomatonInstance",
    "BoundTracker",
    "TeslaRuntime",
    "live_runtimes",
    "reset_all_runtimes",
    "CollectingHandler",
    "ErrorPolicy",
    "FailStop",
    "LogAndContinue",
    "Notification",
    "NotificationHub",
    "NotificationKind",
    "StderrDebugHandler",
    "ObjectInstrumentation",
    "ObjectMonitor",
    "instrument_object_assertion",
    "DEFAULT_CAPACITY",
    "InstancePool",
    "ClassRuntime",
    "GlobalStore",
    "PerThreadStores",
    "Store",
    "handle_cleanup",
    "handle_init",
    "lazy_join_bound",
    "tesla_update_state",
]
