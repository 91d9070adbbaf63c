"""Monitor health: fault accounting, quarantine state, degraded-mode flags.

The supervision layer (:mod:`repro.runtime.supervisor`) contains faults in
TESLA's own machinery so the monitored program never sees them — which
means the *only* way to learn the monitor lost coverage is to ask.  This
module is that question: :func:`health_report` snapshots a runtime's
supervisor, its notification hub's handler-fault counters and (when armed)
the fault injector into one :class:`HealthReport`, and
:func:`format_health` renders it in the same fixed-width table style as
``format_dispatch_stats``.

The report is the operational complement to the paper's overflow reports
(§4.4.1): overflows say "size the pools bigger next run"; a degraded
health report says "trust this run's coverage less, and here is exactly
which classes and boundaries faulted".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..runtime.faultinject import active_injector
from ..runtime.supervisor import MonitorFault, QuarantineRecord


@dataclass
class HealthReport:
    """One runtime's monitor-health snapshot."""

    #: Logical dispatch tick at snapshot time (one tick per event).
    tick: int
    #: Class name of the active :class:`~repro.runtime.supervisor.FailurePolicy`.
    policy: str
    #: Faults swallowed at a containment boundary.
    contained: int
    #: Faults the policy let propagate into the application.
    propagated: int
    #: Contained faults that were injected by the chaos harness.
    injected_recorded: int
    #: Notification-handler faults contained at the hub boundary.
    handler_faults: int
    #: automaton label -> fault count (pseudo-labels in parentheses).
    fault_counts: Dict[str, int] = field(default_factory=dict)
    #: containment stage -> fault count.
    stage_counts: Dict[str, int] = field(default_factory=dict)
    #: Most recent faults, oldest first (bounded ring).
    last_faults: List[MonitorFault] = field(default_factory=list)
    #: Every class that ever tripped quarantine, with lifecycle state.
    quarantine: List[QuarantineRecord] = field(default_factory=list)
    #: Classes currently shed from dispatch.
    shed: Tuple[str, ...] = ()
    #: True when any fault was contained or any class is shed: the run's
    #: verdicts are still sound, but coverage may have gaps.
    degraded: bool = False
    #: Fault-injector accounting when armed (seed, checks, fired per site).
    injector: Optional[dict] = None
    #: Deferred-pipeline accounting when the runtime defers (queue depth,
    #: drains, flush counts/latency, events lost to contained faults, and
    #: — when a trace journal is installed — its record/byte counters);
    #: ``None`` for synchronous runtimes.
    deferred: Optional[dict] = None
    #: tesla-lint summary of every installed batch (DESIGN §5.5);
    #: ``None`` when the runtime installed nothing or lints with ``"off"``.
    lint: Optional[dict] = None
    #: tesla-prove summary (DESIGN §5.10): verdict counts plus how many
    #: assertions were elided at install under ``prove="prune"``;
    #: ``None`` unless the runtime proves installed batches.
    prove: Optional[dict] = None
    #: tesla-jit summary (DESIGN §5.7): per-key generated/fallback counts,
    #: elision totals, generation cost and code-cache traffic; ``None``
    #: when the runtime runs no generated steps (``compile=False``).
    codegen: Optional[dict] = None
    #: Overhead-governor summary (DESIGN §5.8): budget, measured spend
    #: ratios, per-class cost ranking with shedding-ladder state, recent
    #: decisions; ``None`` unless the runtime set ``overhead_budget=``.
    governor: Optional[dict] = None

    @property
    def total_faults(self) -> int:
        return self.contained + self.propagated


def health_report(runtime) -> HealthReport:
    """Snapshot ``runtime``'s supervision state.

    Duck-typed like :func:`~repro.introspect.aggregate.dispatch_stats`:
    anything with a ``supervisor`` (and optionally a ``hub``) works.

    Reading health is a synchronization point (DESIGN §5.4): a deferred
    runtime is flushed first, so the snapshot never describes a store
    that lags capture — and an error parked by the background drainer
    surfaces here rather than going stale.
    """
    flush = getattr(runtime, "flush_deferred", None)
    if flush is not None:
        flush()
    drain = getattr(runtime, "drain", None)
    supervisor = runtime.supervisor
    hub = getattr(runtime, "hub", None)
    handler_faults = supervisor.handler_faults
    if hub is not None:
        # The hub counts all raising handlers, even before a fault sink
        # was attached; take the larger of the two views.
        handler_faults = max(handler_faults, hub.handler_faults)
    from .aggregate import codegen_report, governor_report

    injector = active_injector()
    lint_report = getattr(runtime, "lint_report", None)
    prove_report = getattr(runtime, "prove_report", None)
    prove = None
    if prove_report is not None:
        prove = prove_report.summary()
        prove["elided"] = len(getattr(runtime, "prove_elided", ()))
    return HealthReport(
        tick=supervisor.tick,
        policy=type(supervisor.policy).__name__,
        contained=supervisor.contained,
        propagated=supervisor.propagated,
        injected_recorded=supervisor.injected_recorded,
        handler_faults=handler_faults,
        fault_counts=dict(supervisor.fault_counts),
        stage_counts=dict(supervisor.stage_counts),
        last_faults=list(supervisor.last_faults),
        quarantine=supervisor.quarantine_rows(),
        shed=tuple(sorted(supervisor.shed_classes)),
        degraded=supervisor.degraded,
        injector=None if injector is None else injector.stats(),
        deferred=None if drain is None else drain.stats(),
        lint=None if lint_report is None else lint_report.summary(),
        prove=prove,
        codegen=codegen_report(runtime),
        governor=governor_report(runtime),
    )


def format_health(report: HealthReport) -> str:
    """Render a health report as fixed-width text."""
    lines: List[str] = []
    status = "DEGRADED" if report.degraded else "healthy"
    lines.append(
        f"monitor health: {status}  policy={report.policy}  "
        f"tick={report.tick}"
    )
    lines.append(
        f"  faults: contained={report.contained} "
        f"propagated={report.propagated} "
        f"handler={report.handler_faults} "
        f"injected={report.injected_recorded}"
    )
    if report.stage_counts:
        stages = "  ".join(
            f"{stage}={count}"
            for stage, count in sorted(report.stage_counts.items())
        )
        lines.append(f"  by stage: {stages}")
    if report.fault_counts:
        lines.append(f"  {'automaton':<32} {'faults':>7}")
        for name, count in sorted(
            report.fault_counts.items(), key=lambda kv: (-kv[1], kv[0])
        ):
            lines.append(f"  {name:<32} {count:>7}")
    if report.quarantine:
        lines.append(
            f"  {'quarantine':<32} {'state':<12} {'trips':>5} "
            f"{'until':>8} {'probation':>9}"
        )
        for row in sorted(report.quarantine, key=lambda r: r.automaton):
            lines.append(
                f"  {row.automaton:<32} {row.state.value:<12} "
                f"{row.trips:>5} {row.until_tick:>8} "
                f"{row.probation_until:>9}"
            )
    if report.shed:
        lines.append(f"  shed: {', '.join(report.shed)}")
    if report.injector is not None:
        inj = report.injector
        lines.append(
            f"  injector: seed={inj.get('seed')} rate={inj.get('rate')} "
            f"fired={inj.get('total_fired')}/{inj.get('total_checks')}"
        )
        for site, fired in sorted(inj.get("fired", {}).items()):
            lines.append(f"    {site:<30} {fired:>7}")
    if report.deferred is not None:
        d = report.deferred
        lines.append(
            f"  deferred: depth={d.get('queue_depth')} "
            f"enqueued={d.get('events_enqueued')} "
            f"drained={d.get('events_drained')} "
            f"lost={d.get('events_lost_to_faults')} "
            f"flushes={d.get('flushes')} "
            f"(sync={d.get('sync_flushes')} inline={d.get('inline_flushes')}) "
            f"last_flush={d.get('last_flush_seconds', 0.0) * 1e6:.1f}us"
        )
        j = d.get("journal")
        if j is not None:
            lines.append(
                f"  journal: events={j.get('events')} "
                f"records={j.get('records')} "
                f"bytes={j.get('bytes')} "
                f"opaque={j.get('opaque_values')} "
                f"errors={j.get('errors')} "
                f"path={j.get('path') or '(stream)'}"
            )
    if report.lint is not None:
        lint = report.lint
        verdict = "clean" if lint.get("clean") else "findings"
        codes = ",".join(lint.get("codes", ())) or "-"
        lines.append(
            f"  lint: {verdict}  assertions={lint.get('assertions')} "
            f"errors={lint.get('errors')} warnings={lint.get('warnings')} "
            f"codes={codes} arity_safe={lint.get('arity_safe')}"
        )
    if report.prove is not None:
        pv = report.prove
        verdict = "clean" if pv.get("clean") else "violated"
        lines.append(
            f"  prove: {verdict}  assertions={pv.get('assertions')} "
            f"proved={pv.get('proved')} violated={pv.get('violated')} "
            f"unknown={pv.get('unknown')} elided={pv.get('elided')}"
        )
    if report.codegen is not None:
        cg = report.codegen
        lines.append(
            f"  codegen: generated={sum(cg['generated'].values())} "
            f"fallback={sum(r['classes'] for r in cg['fallbacks'].values())} "
            f"elided_guards={cg['elided_guards']} "
            f"elided_transitions={cg['elided_transitions']} "
            f"gen_time={cg['gen_seconds'] * 1e3:.2f}ms "
            f"code_cache={cg['code_cache_hits']}hit/"
            f"{cg['code_cache_misses']}miss"
        )
        for label, row in cg["fallbacks"].items():
            lines.append(
                f"    fallback {label:<28} x{row['classes']} "
                f"({row['reason']})"
            )
    if report.governor is not None:
        g = report.governor
        state = "TRIPPED" if g.get("tripped") else "active"
        lines.append(
            f"  governor: {state}  budget={g.get('budget'):.1%} "
            f"window={g.get('window_ratio', 0.0):.2%} "
            f"total={g.get('total_ratio', 0.0):.2%} "
            f"spend={g.get('spend_seconds', 0.0) * 1e3:.2f}ms "
            f"decisions={g.get('decisions')} "
            f"(escalate={g.get('escalations')} relax={g.get('relaxations')})"
        )
        if g.get("sampled"):
            sampled = "  ".join(
                f"{name}=1/{rate}"
                for name, rate in sorted(g["sampled"].items())
            )
            lines.append(f"    sampled: {sampled}")
        if g.get("demoted"):
            lines.append(
                "    demoted (journal-only): "
                + ", ".join(sorted(g["demoted"]))
            )
        if g.get("shed"):
            lines.append(
                "    shed for overhead: " + ", ".join(sorted(g["shed"]))
            )
        rows = g.get("classes", ())
        if rows:
            lines.append(
                f"    {'automaton':<30} {'state':<8} {'rate':>5} "
                f"{'window':>9} {'total':>9} {'events':>8}"
            )
            for row in rows[:8]:
                lines.append(
                    f"    {row['automaton']:<30} {row['state']:<8} "
                    f"1/{row['rate']:<3} "
                    f"{row['window_seconds'] * 1e3:>7.2f}ms "
                    f"{row['total_seconds'] * 1e3:>7.2f}ms "
                    f"{row['total_events']:>8}"
                )
    if report.last_faults:
        lines.append("  recent faults:")
        for fault in report.last_faults[-8:]:
            lines.append(f"    {fault.describe()}")
    return "\n".join(lines)
