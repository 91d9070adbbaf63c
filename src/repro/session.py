"""One-call monitoring sessions.

Most users want exactly one thing: "check these assertions while this code
runs".  :func:`monitoring` composes a :class:`~repro.runtime.manager.TeslaRuntime`
and an :class:`~repro.instrument.module.Instrumenter` into a context
manager::

    with monitoring([assertion]) as runtime:
        run_the_workload()
    print(runtime.class_runtime(assertion.name).accepts)

The instrumentation is fully removed on exit, even when the block raises
(including on a fail-stop :class:`~repro.errors.TemporalAssertionError`).
"""

from __future__ import annotations

import contextlib
import types
from typing import Iterable, Iterator, Optional, Sequence, Union

from .core.ast import TemporalAssertion
from .core.manifest import ProgramManifest
from .instrument.module import Instrumenter
from .runtime.manager import TeslaRuntime
from .runtime.notify import ErrorPolicy
from .runtime.supervisor import FailurePolicy


@contextlib.contextmanager
def monitoring(
    assertions: Union[ProgramManifest, Sequence[TemporalAssertion]],
    policy: Optional[ErrorPolicy] = None,
    caller_modules: Sequence[types.ModuleType] = (),
    objc_selectors: Iterable[str] = (),
    lazy: bool = True,
    capacity: Optional[int] = None,
    compile: Optional[bool] = None,
    failure_policy: Optional[FailurePolicy] = None,
    deferred: object = False,
    overflow_policy: Optional[str] = None,
    ring_capacity: Optional[int] = None,
    drain_interval: Optional[float] = None,
    lint: Optional[str] = None,
    prove: Optional[str] = None,
    journal: object = None,
    overhead_budget: Optional[float] = None,
    clock: object = None,
    stamp_capture: Optional[bool] = None,
) -> Iterator[TeslaRuntime]:
    """Instrument ``assertions`` for the duration of the ``with`` block.

    Parameters mirror :class:`TeslaRuntime` and :class:`Instrumenter`:
    ``policy`` selects fail-stop (default) or log-and-continue;
    ``caller_modules`` enables caller-side weaving for uninstrumentable
    callees; ``objc_selectors`` routes those names through the
    interposition table; ``lazy=False`` selects the pre-optimisation
    runtime (the figure 13 ablation); ``capacity`` bounds instance pools;
    ``compile`` selects the step engine: by default each (class, event
    key) runs as tesla-jit generated Python (DESIGN §5.7), falling back
    to the naive interpreter per key when specialization is unsupported
    (e.g. timed automata); ``compile=False`` runs the naive interpreter
    throughout (the dispatch-cost ablation measured by
    ``benchmarks/bench_dispatch_fastpath.py``); ``failure_policy`` selects
    how faults *inside the monitor* are handled (fail-stop default,
    fail-open, callback, or quarantine — see
    :mod:`repro.runtime.supervisor`).

    ``deferred`` moves evaluation off the instrumented threads (DESIGN
    §5.4): ``True`` captures events into per-thread ring buffers drained
    by a background thread, ``"manual"`` defers with no thread, draining
    at explicit ``runtime.drain.drain()``/``flush_deferred()`` calls and
    in 256-event batches run by the producer (deterministic, for tests).  ``overflow_policy`` picks the ring-full backpressure:
    ``"flush"`` (inline flush by the producer, the default) or
    ``"block"`` (park the producer for the background drainer);
    ``ring_capacity`` sizes each thread's preallocated ring and
    ``drain_interval`` the background drainer's poll period.  ``lint``
    selects the install-time tesla-lint gate (``"warn"`` default,
    ``"error"`` refuses assertions with lint errors, ``"off"`` skips the
    passes — see DESIGN §5.5).  ``prove`` selects the install-time
    tesla-prove gate (DESIGN §5.10): ``"off"`` default, ``"report"``
    proves each batch on the automaton basis and accumulates
    ``runtime.prove_report``, ``"prune"`` additionally elides PROVED
    assertions at install — their hooks are never woven, so their
    monitoring cost is zero.  ``journal`` installs a durable trace
    journal at the drain boundary (DESIGN §5.6): a path or binary
    file-like object every drained event is appended to, replayable
    offline with ``python -m repro.cli replay``; it requires ``deferred``
    and is footer-closed when the block exits.  ``overhead_budget``
    arms the adaptive overhead governor (DESIGN §5.8): monitoring may
    spend at most that fraction of wall time (e.g. ``0.05`` — "≤5%"),
    enforced by graduated shedding (sample instantiation → journal-only
    demotion → shed via the supervisor) of the most expensive assertion
    classes, with sampled findings annotated with their sampling rate;
    ``clock`` replaces the runtime's single time source — the one
    monotonic clock driving the governor, capture timestamping *and*
    timed-assertion expiry (DESIGN §5.9; an object with ``now()`` or a
    plain callable returning seconds — inject a
    :class:`~repro.runtime.clock.FakeClock` for replayable governor
    decisions and deterministic timed verdicts in tests);
    ``stamp_capture=False`` disables capture-time stamping for event
    streams that arrive pre-stamped (replay from a journal) — it then
    *requires* ``clock=`` naming the clock those stamps came from, since
    judging recorded stamps against an unrelated monotonic epoch would
    be meaningless (conflicting clock sources).  On clean
    exit the block flushes pending events first, so deferred verdicts —
    including a fail-stop :class:`~repro.errors.TemporalAssertionError` —
    are delivered no later than the ``with`` block's exit; if the block
    body itself raised, pending events are discarded instead so the
    application's error is never masked by a monitor verdict.
    """
    kwargs = {"lazy": lazy, "policy": policy}
    if capacity is not None:
        kwargs["capacity"] = capacity
    if compile is not None:
        kwargs["compile"] = compile
    if failure_policy is not None:
        kwargs["failure_policy"] = failure_policy
    if deferred:
        kwargs["deferred"] = deferred
    if overflow_policy is not None:
        kwargs["overflow_policy"] = overflow_policy
    if ring_capacity is not None:
        kwargs["ring_capacity"] = ring_capacity
    if drain_interval is not None:
        kwargs["drain_interval"] = drain_interval
    if lint is not None:
        kwargs["lint"] = lint
    if prove is not None:
        kwargs["prove"] = prove
    if journal is not None:
        kwargs["journal"] = journal
    if overhead_budget is not None:
        kwargs["overhead_budget"] = overhead_budget
    if clock is not None:
        kwargs["clock"] = clock
    if stamp_capture is not None:
        kwargs["stamp_capture"] = stamp_capture
    runtime = TeslaRuntime(**kwargs)
    session = Instrumenter(
        runtime,
        caller_modules=caller_modules,
        objc_selectors=objc_selectors,
    )
    session.instrument(assertions)
    try:
        yield runtime
    except BaseException:
        # The block body (or a flush inside it) raised: drop pending
        # captures so teardown evaluation cannot mask the original error,
        # then stop the drainer before uninstrumenting.
        if runtime.drain is not None:
            runtime.drain.stop()
            runtime.discard_deferred()
        runtime.close_journal()
        raise
    else:
        # Clean exit is a synchronization point: evaluate everything the
        # block captured.  A deferred fail-stop violation (or an error
        # parked by the background drainer) surfaces here, exactly at the
        # block boundary.
        if runtime.drain is not None:
            try:
                runtime.flush_deferred()
            finally:
                runtime.drain.stop()
                runtime.close_journal()
    finally:
        session.uninstrument()
