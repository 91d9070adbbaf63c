"""The measurement loop, the verdict ledger, and the result line.

A run is ``REPS`` repetitions.  Each sets the monitor up afresh on a new
kernel, then runs monitored passes over the op stream; each monitored pass
is followed by Release passes, the same ops with the monitor detached, so
that ``slowdown_x`` pairs passes taken moments apart.  Every op of every
pass is checked against the output model and the expected-verdict ledger;
``--trace 1`` adds span recording on every other monitored pass and prints
the per-layer ledger instead of the scoreboard.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from array import array
from pathlib import Path
from typing import (
    Callable, Dict, List, MutableSequence, Optional, Sequence, Tuple,
)

from repro.instrument.fields import (
    attach_field_hook, detach_field_hook, field_registry,
)
from repro.instrument.hooks import hook_registry, site_registry
from repro.instrument.module import Instrumenter
from repro.instrument.translator import EventTranslator
from repro.introspect import dispatch_stats
from repro.kernel import assertion_sets, bugs
from repro.replay import LTLUnsupported, ReplayEngine, ltl_verdict
from repro.runtime.epoch import interest_stats
from repro.runtime.journal import read_journal
from repro.runtime.manager import TeslaRuntime
from repro.runtime.notify import LogAndContinue

from .ops import WORKLOADS, Op, generate
from .spans import (
    DISPATCH_BATCH, HANDLE_EVENT, INSTALL, INSTRUMENT, JOURNAL_APPEND, LINT,
    OP, TRANSLATE, TRANSLATOR, Tracer, event_targets, self_times,
    setup_targets, write_spans,
)

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = Path(__file__).resolve().parent / "_work"

#: Set-ups per run; setup_s is their median.
REPS = 20
#: Release time after each monitored pass, as a share of that pass's time.
#: The machine's speed drifts over seconds, so each monitored pass is
#: paired with Release passes run right after it, on the same kernel.
RELEASE_SHARE = 0.2

#: End-to-end metrics (``--trace 0``): name -> unit.
E2E_UNITS = {
    "setup_s": "s",
    "slowdown_x": "x",
    "op_latency_p50_x": "x",
    "op_success_ratio": "ratio",
    "rss_peak_mb": "MB",
}

#: Figures printed for reading but not scored (see ``Run.absolute``).
ABSOLUTE_UNITS = {
    "throughput_ops_s": "ops/s",
    "op_latency_p50_us": "us",
    "op_latency_p99_us": "us",
}

#: Per-layer metrics (``--trace 1``): name -> unit.
LAYER_UNITS = {
    "kernel.op_us": "us",
    "instrument.hook_self_us_per_op": "us",
    "instrument.hook_bare_us_per_op": "us",
    "instrument.translator_calls_per_op": "count",
    "instrument.translator_self_us_per_op": "us",
    "instrument.forward_ratio": "ratio",
    "instrument.hook_short_circuits_per_op": "count",
    "runtime.handle_event_calls_per_op": "count",
    "runtime.handle_event_self_us_per_op": "us",
    "runtime.plan_hit_ratio": "ratio",
    "runtime.dispatch_batch_us_per_op": "us",
    "runtime.drain_batch_mean": "events",
    "runtime.flush_calls_per_op": "count",
    "runtime.flush_us_per_op": "us",
    "runtime.journal_append_us_per_op": "us",
    "runtime.journal_bytes_per_event": "B/event",
    "runtime.install_s": "s",
    "core.translate_s": "s",
    "analysis.lint_s": "s",
    "instrument.instrument_self_s": "s",
    "runtime.warm_s": "s",
    "replay.read_s": "s",
    "replay.run_s": "s",
    "replay.oracle_s": "s",
    "replay.oracle_refused": "count",
    "replay.events_per_s": "events/s",
    "trace.op_us": "us",
    "trace.overhead_x": "x",
    "trace.ledger_gap": "ratio",
}


class Ledger:
    """Ops attempted and failed, with the first few failures explained."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.notes) < 10:
            self.notes.append(what)


def run_pass(run_op: Callable, state, ops: Sequence[Op], ledger: Ledger,
             violations: Sequence, monitored: bool,
             latencies: MutableSequence[float],
             flush: Optional[Callable[[], None]] = None) -> float:
    """Run ``ops`` once in a closed loop and return the pass's wall time.

    Each op's latency is appended to ``latencies``.  ``violations`` is the
    live policy's violation list (empty with no monitor); when
    ``monitored`` is false no op may add to it.  ``flush`` runs inside the
    timed pass, after the last op.
    """
    perf = time.perf_counter
    append = latencies.append
    seen = len(violations)
    start = perf()
    for op in ops:
        t0 = perf()
        try:
            ok = run_op(state, op)
        except Exception as exc:  # an op that raised is a failed op
            ok = exc
        append(perf() - t0)
        count = len(violations)
        expect = op.expect if monitored else ()
        if (ok is not True or count - seen != len(expect)
                or (count != seen and tuple(
                    v.automaton for v in violations[seen:count]) != expect)):
            got = [v.automaton for v in violations[seen:count]]
            ledger.fail(f"{op.kind} #{op.target}: result {ok!r}, "
                        f"violations {got} (expected {list(expect)})")
        seen = count
    if flush is not None:
        flush()
    elapsed = perf() - start
    ledger.attempted += len(ops)
    if len(violations) != seen:
        ledger.fail(f"{len(violations) - seen} violations surfaced only at "
                    "the end-of-pass flush")
    return elapsed


@contextlib.contextmanager
def uninstrumented(sink, assertions: Sequence):
    """Detach ``sink`` from every hook point, assertion site and struct field
    it is attached to, so the kernel runs exactly as an uninstrumented one,
    then attach it back.  The runtime and its state are left as they are."""
    points = [point for point in map(hook_registry.get, hook_registry.names())
              if point.sinks and sink in point.sinks]
    sites = [a.name for a in assertions
             if sink in (site_registry.sinks_for(a.name) or ())]
    fields = []
    for struct in field_registry.names():
        cls = field_registry.require(struct)
        hooked = cls.__dict__.get("_tesla_field_sinks") or {}
        fields.extend((cls, name) for name, sinks in hooked.items() if sink in sinks)
    for point in points:
        point.detach(sink)
    for name in sites:
        site_registry.detach(name, sink)
    for cls, name in fields:
        detach_field_hook(cls, name, sink)
    try:
        yield
    finally:
        for point in points:
            point.attach(sink)
        for name in sites:
            site_registry.attach(name, sink)
        for cls, name in fields:
            attach_field_hook(cls, name, sink)


@contextlib.contextmanager
def translator_off():
    """The bare-hook pass: every hook fires and builds its events, but the
    translator returns at once, so neither it nor the runtime does work."""
    original = EventTranslator.__dict__["__call__"]
    EventTranslator.__call__ = lambda self, event: None
    try:
        yield
    finally:
        EventTranslator.__call__ = original


def _counters(session: Instrumenter, runtime: TeslaRuntime) -> Dict[str, float]:
    stats = dispatch_stats(runtime)
    return {
        "forwarded": session.translator.forwarded,
        "dropped": session.translator.dropped,
        "short_circuits": interest_stats.hook_short_circuits,
        "plan_hits": stats.plan_hits,
        "plan_misses": stats.plan_misses,
        "flushes": stats.flushes,
        "flush_seconds": stats.flush_seconds,
        "drains": stats.drains,
        "events_drained": stats.events_drained,
    }


def _live_verdict(runtime: TeslaRuntime, name: str):
    accepts = errors = sites = live = 0
    for cr in runtime.all_class_runtimes(name):
        accepts += cr.accepts
        errors += cr.errors
        sites += cr.sites_reached
        live += len(cr.pool)
    return (accepts, errors, sites, live)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _quantile(values: Sequence[float], q: float) -> float:
    """The nearest-rank ``q`` quantile of a non-empty sample."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def dist(values: Sequence[float]) -> Dict[str, float]:
    """n, min, quartiles and max of a sample."""
    ordered = sorted(values)
    if len(ordered) >= 2:
        q1, median, q3 = statistics.quantiles(ordered, n=4)
    else:
        q1 = median = q3 = ordered[0]
    return {"n": len(ordered), "min": ordered[0], "q1": q1, "median": median,
            "q3": q3, "max": ordered[-1]}


def git_revision(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown"


class Run:
    """One invocation: a workload, a seed, a time budget and a mode."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool,
                 policy_factory: Callable[[], object] = LogAndContinue,
                 reps: Optional[int] = None,
                 work_dir: Optional[Path] = None) -> None:
        self.wl = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.reps = reps if reps is not None else REPS
        self.budget = seconds / self.reps
        self.stream = generate(workload, seed)
        sets = assertion_sets()
        self.assertions = [a for name in self.wl.sets for a in sets[name]]
        self.policy_factory = policy_factory
        self.tracer = Tracer() if trace else None
        self.work_dir = work_dir if work_dir is not None else WORK_DIR
        self.ledger = Ledger()
        self.runtime_config: Dict[str, object] = {}
        # End-to-end samples.
        self.setup: List[float] = []
        self.pass_times: List[float] = []
        #: Every untraced monitored op's latency, unboxed so that the
        #: sample store adds little to ``rss_peak_mb``.
        self.latencies = array("d")
        self.slowdowns: List[float] = []
        self.p50_ratios: List[float] = []
        self.rss_mb = 0.0
        # Ledger samples.
        self.kernel_op: List[float] = []
        self.bare_op: List[float] = []
        self.warm: List[float] = []
        self.setup_layers: List[Dict[str, float]] = []
        self.traced_layers: List[Dict[str, float]] = []
        self.traced_times: List[float] = []
        self.counter_rows: List[Dict[str, float]] = []
        self.replay: Dict[str, float] = {}
        self.replay_mismatches: List[str] = []
        self.last_spans: List[list] = []

    # -- the run -------------------------------------------------------------

    def execute(self) -> None:
        self.work_dir.mkdir(exist_ok=True)
        for rep in range(self.reps):
            self.repetition(last=rep == self.reps - 1)
        if self.replay_mismatches:
            # A replay that disagrees with the live verdicts discredits
            # every verdict of the run.
            self.ledger.failed = self.ledger.attempted
            self.ledger.notes.extend(self.replay_mismatches[:10])
        if self.tracer is not None and self.last_spans:
            write_spans(self.work_dir / f"spans-{self.wl.name}-{self.seed}.jsonl",
                        self.last_spans)

    def repetition(self, last: bool) -> None:
        """Set up, warm, run the timed passes, tear down."""
        wl, stream, tracer = self.wl, self.stream, self.tracer
        state = wl.make_state()
        kwargs = dict(wl.runtime_kwargs)
        journal = None
        if wl.journal:
            journal = (self.work_dir
                       / f"journal-{wl.name}-{self.seed}-{os.getpid()}.tj")
            kwargs["journal"] = str(journal)
        gc.collect()
        patch = (tracer.patched(setup_targets()) if tracer is not None
                 else contextlib.nullcontext())
        with patch:
            start = time.perf_counter()
            policy = self.policy_factory()
            runtime = TeslaRuntime(policy=policy, **kwargs)
            session = Instrumenter(runtime)
            session.instrument(self.assertions)
            warm_start = time.perf_counter()
            run_pass(wl.run_op, state, stream.warm, self.ledger,
                     policy.violations, True, [], runtime.flush_deferred)
            end = time.perf_counter()
        self.setup.append(end - start)
        self.warm.append(end - warm_start)
        if tracer is not None:
            self.setup_layers.append(self._setup_ledger(tracer.take()))
        self.runtime_config = {
            "policy": type(policy).__name__,
            "assertion_sets": list(wl.sets),
            "assertions": len(self.assertions),
            "shards": runtime.shard_count,
            "lazy": runtime.lazy,
            "compile": runtime.compiled,
            "codegen": runtime.codegen,
            "deferred": runtime.deferred,
            "journal": runtime.journal is not None,
            "lint": runtime.lint,
            "prove": runtime.prove,
        }
        try:
            self._timed_passes(state, runtime, session, policy)
            self.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        finally:
            session.uninstrument()
            runtime.close_journal()
            bugs.disable_all()
        if journal is not None:
            try:
                if last:
                    self._grade_replay(journal, runtime, policy)
            finally:
                journal.unlink()

    def _timed_passes(self, state, runtime: TeslaRuntime,
                      session: Instrumenter, policy) -> None:
        """Monitored passes until the repetition's time is spent.  Each
        untraced one is followed by Release passes, the same ops with the
        monitor detached, for ``slowdown_x``'s pair."""
        wl, ops, tracer, ledger = self.wl, self.stream.ops, self.tracer, self.ledger
        violations = policy.violations
        flush = runtime.flush_deferred
        spent = 0.0
        index = 0
        minimum = 1 if tracer is None else 2
        while spent < self.budget or index < minimum:
            if tracer is not None and index % 2 == 1:
                latencies = array("d")
                with tracer.patched(event_targets()):
                    elapsed = run_pass(tracer.wrap(OP, wl.run_op), state, ops,
                                       ledger, violations, True, latencies,
                                       flush)
                self.last_spans = tracer.take()
                self.traced_layers.append(
                    self._event_ledger(self.last_spans, len(ops)))
                self.traced_times.append(elapsed)
            else:
                before = _counters(session, runtime) if tracer else None
                elapsed = run_pass(wl.run_op, state, ops, ledger, violations,
                                   True, self.latencies, flush)
                if tracer is not None:
                    after = _counters(session, runtime)
                    self.counter_rows.append(
                        {k: after[k] - before[k] for k in after})
                self.pass_times.append(elapsed)
                release_times, release_p50 = self._release_passes(
                    state, session.translator, violations, flush, elapsed)
                self.slowdowns.append(elapsed / statistics.fmean(release_times))
                self.p50_ratios.append(
                    _quantile(self.latencies[-len(ops):], 0.5) / release_p50)
                spent += sum(release_times)
            spent += elapsed
            index += 1
        if tracer is not None:
            latencies = array("d")
            with translator_off():
                run_pass(wl.run_op, state, ops, ledger, violations, False,
                         latencies, flush)
            self.bare_op.append(sum(latencies) / len(latencies))

    def _release_passes(self, state, translator: EventTranslator,
                        violations: Sequence, flush: Callable[[], None],
                        monitored: float) -> Tuple[List[float], float]:
        """Release passes lasting at least ``RELEASE_SHARE`` of the
        monitored pass just run; returns their times and their median op
        latency.  The runtime stays installed but sees nothing, so no op
        may add a violation."""
        wl, stream, n_ops = self.wl, self.stream, len(self.stream.ops)
        times: List[float] = []
        latencies = array("d")
        with uninstrumented(translator, self.assertions):
            while not times or sum(times) < monitored * RELEASE_SHARE:
                times.append(run_pass(wl.run_op, state, stream.ops, self.ledger,
                                      violations, False, latencies))
                self.kernel_op.append(sum(latencies[-n_ops:]) / n_ops)
        # Re-attaching moved the interest epoch, which empties the plan
        # caches; refill them off the clock, as set-up does.
        run_pass(wl.run_op, state, stream.warm, self.ledger, violations, True,
                 [], flush)
        return times, _quantile(latencies, 0.5)

    def _grade_replay(self, path: Path, runtime: TeslaRuntime, policy) -> None:
        """Replay the journal offline and grade it against the live verdicts,
        then grade the live verdicts against the LTL oracle wherever the
        oracle supports the assertion."""
        names = [a.name for a in self.assertions]
        live = {name: _live_verdict(runtime, name) for name in names}
        live_streams: Dict[str, List[str]] = {}
        for violation in policy.violations:
            live_streams.setdefault(violation.automaton, []).append(violation.reason)
        perf = time.perf_counter
        t0 = perf()
        journal = read_journal(path)
        t1 = perf()
        engine = ReplayEngine(journal)
        t2 = perf()
        result = engine.run("naive")
        t3 = perf()
        mismatches = self.replay_mismatches
        if not journal.clean_close:
            mismatches.append("journal not cleanly closed")
        for name in names:
            replayed = result.classes[name].as_tuple()
            if replayed != live[name]:
                mismatches.append(f"replay {name}: {replayed} != live {live[name]}")
        if result.violations != live_streams:
            mismatches.append("replay violation streams differ from live")
        refused = 0
        t4 = perf()
        for assertion in engine.assertions:
            try:
                verdict = ltl_verdict(assertion, engine.slots)
            except LTLUnsupported:
                refused += 1
                continue
            counts = (verdict.accepts, verdict.errors, verdict.satisfied_sites)
            if (counts != live[assertion.name][:3]
                    or verdict.reason_stream() != live_streams.get(assertion.name, [])):
                mismatches.append(f"oracle {assertion.name}: {counts} != "
                                  f"live {live[assertion.name][:3]}")
        t5 = perf()
        events = len(journal.slots)
        self.replay = {
            "replay.read_s": t1 - t0,
            "replay.run_s": t3 - t2,
            "replay.oracle_s": t5 - t4,
            "replay.oracle_refused": refused,
            "replay.events_per_s": _ratio(events, (t1 - t0) + (t3 - t2)),
            "runtime.journal_bytes_per_event": _ratio(path.stat().st_size, events),
            "events": events,
        }

    # -- ledgers ---------------------------------------------------------------

    @staticmethod
    def _setup_ledger(spans: List[list]) -> Dict[str, float]:
        agg = self_times(spans)

        def part(name: str, index: int) -> float:
            return agg[name][index] if name in agg else 0.0

        return {
            "runtime.install_s": part(INSTALL, 2),
            "core.translate_s": part(TRANSLATE, 1),
            "analysis.lint_s": part(LINT, 1),
            "instrument.instrument_self_s": part(INSTRUMENT, 2),
        }

    @staticmethod
    def _event_ledger(spans: List[list], n_ops: int) -> Dict[str, float]:
        agg = self_times(spans)

        def per_op(name: str, index: int) -> float:
            return agg[name][index] / n_ops if name in agg else 0.0

        return {
            "op": per_op(OP, 1),
            "translator_calls": per_op(TRANSLATOR, 0),
            "translator_total": per_op(TRANSLATOR, 1),
            "translator_self": per_op(TRANSLATOR, 2),
            "handle_calls": per_op(HANDLE_EVENT, 0),
            "handle_self": per_op(HANDLE_EVENT, 2),
            "dispatch_total": per_op(DISPATCH_BATCH, 1),
            "dispatch_self": per_op(DISPATCH_BATCH, 2),
            "append_total": per_op(JOURNAL_APPEND, 1),
            "append_self": per_op(JOURNAL_APPEND, 2),
        }

    # -- results -----------------------------------------------------------------

    def scoreboard(self) -> Dict[str, float]:
        ledger = self.ledger
        return {
            "setup_s": statistics.median(self.setup),
            "slowdown_x": statistics.median(self.slowdowns),
            "op_latency_p50_x": statistics.median(self.p50_ratios),
            "op_success_ratio": 1.0 - _ratio(ledger.failed, ledger.attempted),
            "rss_peak_mb": self.rss_mb,
        }

    def absolute(self) -> Dict[str, float]:
        """Throughput and latency in seconds-based units.  Reported for
        reading, not scored: the machine's speed shifts between regimes
        far apart for minutes at a time, which these figures follow and
        the paired ratios cancel."""
        if not self.pass_times:
            return {}
        return {
            "throughput_ops_s":
                len(self.stream.ops) * len(self.pass_times) / sum(self.pass_times),
            "op_latency_p50_us": _quantile(self.latencies, 0.5) * 1e6,
            "op_latency_p99_us": _quantile(self.latencies, 0.99) * 1e6,
        }

    def layer_ledger(self) -> Dict[str, float]:
        med = statistics.median

        def traced(key: str) -> float:
            return med(row[key] for row in self.traced_layers)

        def counted(fn: Callable[[Dict[str, float]], float]) -> float:
            return med(fn(row) for row in self.counter_rows)

        n_ops = len(self.stream.ops)
        kernel = med(self.kernel_op)
        op = traced("op")
        hook_bare = med(self.bare_op) - kernel
        layer_self = (traced("translator_self") + traced("handle_self")
                      + traced("dispatch_self") + traced("append_self"))
        out = {
            "kernel.op_us": kernel * 1e6,
            "instrument.hook_self_us_per_op":
                (op - kernel - traced("translator_total")) * 1e6,
            "instrument.hook_bare_us_per_op": hook_bare * 1e6,
            "instrument.translator_calls_per_op": traced("translator_calls"),
            "instrument.translator_self_us_per_op": traced("translator_self") * 1e6,
            "instrument.forward_ratio": counted(
                lambda r: _ratio(r["forwarded"], r["forwarded"] + r["dropped"])),
            "instrument.hook_short_circuits_per_op": counted(
                lambda r: r["short_circuits"] / n_ops),
            "runtime.handle_event_calls_per_op": traced("handle_calls"),
            "runtime.handle_event_self_us_per_op": traced("handle_self") * 1e6,
            "runtime.plan_hit_ratio": counted(
                lambda r: _ratio(r["plan_hits"], r["plan_hits"] + r["plan_misses"])),
            "runtime.dispatch_batch_us_per_op": traced("dispatch_total") * 1e6,
            "runtime.drain_batch_mean": counted(
                lambda r: _ratio(r["events_drained"], r["drains"])),
            "runtime.flush_calls_per_op": counted(lambda r: r["flushes"] / n_ops),
            "runtime.flush_us_per_op": counted(
                lambda r: r["flush_seconds"] / n_ops * 1e6),
            "runtime.journal_append_us_per_op": traced("append_total") * 1e6,
            "runtime.journal_bytes_per_event":
                self.replay.get("runtime.journal_bytes_per_event", 0.0),
            "runtime.warm_s": med(self.warm),
            "trace.op_us": op * 1e6,
            "trace.overhead_x": med(self.traced_times) / med(self.pass_times),
            "trace.ledger_gap": abs(op - (kernel + hook_bare + layer_self)) / op,
        }
        for key in ("runtime.install_s", "core.translate_s", "analysis.lint_s",
                    "instrument.instrument_self_s"):
            out[key] = med(row[key] for row in self.setup_layers)
        for key in ("replay.read_s", "replay.run_s", "replay.oracle_s",
                    "replay.oracle_refused", "replay.events_per_s"):
            out[key] = self.replay.get(key, 0.0)
        return {name: out[name] for name in LAYER_UNITS}

    def samples(self) -> Dict[str, Dict[str, float]]:
        """The distribution behind each reported figure, for provenance."""
        n_ops = len(self.stream.ops)
        rows = {"setup_s": self.setup, "slowdown_x": self.slowdowns,
                "op_latency_p50_x": self.p50_ratios}
        if self.pass_times:
            rows["throughput_ops_s"] = [n_ops / t for t in self.pass_times]
            rows["op_latency_us"] = [t * 1e6 for t in self.latencies]
        if self.kernel_op:
            rows["kernel.op_us"] = [t * 1e6 for t in self.kernel_op]
        if self.traced_layers:
            rows["trace.op_us"] = [row["op"] * 1e6 for row in self.traced_layers]
        return {name: dist(values) for name, values in rows.items() if values}


def result_line(run: Run, trace: bool) -> Dict[str, object]:
    metrics = run.layer_ledger() if trace else run.scoreboard()
    units = LAYER_UNITS if trace else E2E_UNITS
    return {
        "correct": run.ledger.failed == 0,
        "attempted": run.ledger.attempted,
        "failed": run.ledger.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def provenance(run: Run, trace: bool) -> Dict[str, object]:
    n = len(run.latencies)
    return {
        "workload": run.wl.name,
        "seed": run.seed,
        "mode": "traced" if trace else "scoreboard",
        "seconds": run.seconds,
        "reps": run.reps,
        "ops_per_pass": len(run.stream.ops),
        "latency_samples": n,
        "samples_beyond_p99": n - 1 - min(n - 1, int(0.99 * n)) if n else 0,
        "absolute": run.absolute(),
        "failed_op_ratio": _ratio(run.ledger.failed, run.ledger.attempted),
        "failures": run.ledger.notes,
        "replay_events": run.replay.get("events", 0),
        "samples": run.samples(),
        "python": platform.python_version(),
        "git_revision": git_revision(ROOT),
        "nproc": os.cpu_count(),
        "cpu_affinity": (sorted(os.sched_getaffinity(0))
                         if hasattr(os, "sched_getaffinity") else None),
        "runtime_config": run.runtime_config,
    }


def pin_to_one_cpu() -> None:
    """Keep the run on one CPU, so the scheduler never migrates it mid-pass.

    The last allowed CPU is chosen because CPU 0 usually services device
    interrupts.  Where affinity cannot be set the run stays unpinned.
    """
    if hasattr(os, "sched_setaffinity"):
        try:
            os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        except OSError:
            pass


def main(argv: Optional[Sequence[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="Run one perfbench workload and print its metrics.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    trace = bool(args.trace)
    pin_to_one_cpu()
    run = Run(args.workload, args.seed, args.seconds, trace)
    run.execute()
    line = result_line(run, trace)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    for name, metric in line["metrics"].items():
        print(f"  {name:<40} {metric['value']:>14.6g} {metric['unit']}")
    print(f"  {'failed_op_ratio':<40} "
          f"{_ratio(run.ledger.failed, run.ledger.attempted):>14.6g} ratio")
    for name, value in run.absolute().items():
        print(f"  {name:<40} {value:>14.6g} {ABSOLUTE_UNITS[name]}  (not scored)")
    print(json.dumps({"provenance": provenance(run, trace)}))
    print(json.dumps(line))
    sys.stdout.flush()
    return 0 if line["correct"] else 1
