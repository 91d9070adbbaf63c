"""Differential: live verdicts ≡ journal replay ≡ independent LTL oracle.

Every configuration of the randomized-trace corpus gets a *journaling
twin*: the same trace captured through the deferred pipeline with a
:class:`~repro.runtime.journal.JournalWriter` installed at the drain
boundary.  For each twin we require three independent verdict sources to
agree exactly — accept/error/site counts *and* per-class violation-reason
streams:

1. the live run's verdicts,
2. the journal replayed offline through the reference interpreter
   (``naive``) and the tesla-jit generated-code path (``codegen``),
3. the LTL oracle (:mod:`repro.replay.ltl_oracle`), which evaluates the
   ``tesla_ltl_map`` reading of each assertion directly over the journal
   and shares none of the automaton machinery.

The multi-thread sweep extends the check to real concurrency: whatever
interleaving the producer threads actually produced, the journal is the
merged evidence, and replay + oracle must both reproduce the live run's
verdicts from it alone.
"""

from __future__ import annotations

import io
from typing import Dict, List, Tuple

from hypothesis import HealthCheck, given, settings

from repro.core.dsl import (
    ANY,
    call,
    fn,
    previously,
    returnfrom,
    tesla_global,
    tesla_within,
    var,
)
from repro.runtime.manager import TeslaRuntime
from repro.runtime.journal import read_journal
from repro.runtime.notify import LogAndContinue
from repro.replay import ReplayEngine, ltl_verdicts

from .test_mode_equivalence import (
    CONFIGS,
    capture_concurrently,
    class_name,
    events_of,
    mt_scenarios,
    scenarios,
    verdict,
)

ClassSpec = Tuple[int, str]

#: (class index, bound index, context) → TemporalAssertion.  The replay
#: engine and the oracle both need the *assertion* (not the translated
#: automaton the base harness caches), so this harness keeps its own.
_ASSERTION_CACHE: Dict[Tuple[int, int, str], object] = {}


def assertion_for(index: int, bound: int, context: str):
    key = (index, bound, context)
    cached = _ASSERTION_CACHE.get(key)
    if cached is None:
        expression = previously(
            fn(f"diff_check{index}", ANY("c"), var("v")) == 0
        )
        if context == "global":
            cached = tesla_global(
                call(f"diff_bound{bound}"),
                returnfrom(f"diff_bound{bound}"),
                expression,
                name=class_name(index),
            )
        else:
            cached = tesla_within(
                f"diff_bound{bound}", expression, name=class_name(index)
            )
        _ASSERTION_CACHE[key] = cached
    return cached


def assertions_of(specs: Tuple[ClassSpec, ...]):
    return [
        assertion_for(index, bound, context)
        for index, (bound, context) in enumerate(specs)
    ]


def recording_twin(specs: Tuple[ClassSpec, ...], kwargs: dict):
    """A journaling runtime in the given configuration.  The journal
    records at the drain boundary, so every twin defers (``"manual"``
    keeps the corpus deterministic); lazy/compile are the config under
    test."""
    twin_kwargs = dict(kwargs)
    twin_kwargs["deferred"] = "manual"
    buf = io.BytesIO()
    runtime = TeslaRuntime(
        policy=LogAndContinue(), journal=buf, **twin_kwargs
    )
    runtime.install_assertions(assertions_of(specs))
    return runtime, buf


def violation_stream(runtime) -> Dict[str, List[str]]:
    per_class: Dict[str, List[str]] = {}
    for violation in runtime.hub.policy.violations:
        per_class.setdefault(violation.automaton, []).append(violation.reason)
    return per_class


def oracle_summary(assertions, slots):
    """Per-class (accepts, errors, satisfied sites) + reason streams, in
    the same shape the live/replay sides report."""
    verdicts = ltl_verdicts(assertions, slots)
    counts = [
        (v.accepts, v.errors, v.satisfied_sites)
        for v in (verdicts[a.name] for a in assertions)
    ]
    streams = {
        name: v.reason_stream()
        for name, v in verdicts.items()
        if v.violations
    }
    return counts, streams


def check_agreement(name, specs, runtime, buf):
    """Live verdicts vs journal replay (naive + codegen) vs LTL oracle."""
    live = verdict(runtime, len(specs))
    live_streams = violation_stream(runtime)

    journal = read_journal(buf)
    assert journal.clean_close
    assert len(journal.assertions) == len(specs)
    engine = ReplayEngine(journal)

    for config in ("naive", "codegen"):
        result = engine.run(config)
        replayed = [
            result.classes[class_name(index)].as_tuple()
            for index in range(len(specs))
        ]
        assert replayed == live, (
            f"[{name}] journal replay ({config}) diverged from live: "
            f"{replayed} != {live} (specs={specs})"
        )
        assert result.violations == live_streams, (
            f"[{name}] replay ({config}) violation streams diverged"
        )

    oracle_counts, oracle_streams = oracle_summary(
        engine.assertions, engine.slots
    )
    live_counts = [(a, e, s) for (a, e, s, _) in live]
    assert oracle_counts == live_counts, (
        f"[{name}] LTL oracle diverged from live/replay: "
        f"{oracle_counts} != {live_counts} (specs={specs})"
    )
    assert oracle_streams == live_streams, (
        f"[{name}] LTL oracle violation streams diverged (specs={specs})"
    )


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(scenarios())
def test_every_config_journal_replays_to_live_verdicts(scenario):
    specs, ops = scenario
    events = events_of(ops)
    for name, kwargs in CONFIGS:
        runtime, buf = recording_twin(specs, kwargs)
        try:
            for event in events:
                runtime.handle_event(event)
            runtime.flush_deferred()
            runtime.close_journal()
            check_agreement(name, specs, runtime, buf)
        finally:
            runtime.reset()


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(mt_scenarios())
def test_multithread_journal_replays_to_live_verdicts(scenario):
    """Real concurrency: 8 producer threads, tiny-ring overflow flushes,
    then the journal alone must reproduce the live verdicts through both
    replay configs and the LTL oracle."""
    specs, thread_ops = scenario
    runtime, buf = recording_twin(
        specs, dict(lazy=True, compile=True)
    )
    try:
        capture_concurrently(runtime, thread_ops)
        runtime.close_journal()
        check_agreement("mt-journal", specs, runtime, buf)
    finally:
        runtime.reset()


def test_known_interleaving_journal_regression():
    """The hand-picked anchor trace from the base harness, journalled and
    replayed deterministically (no Hypothesis): re-entrant bounds, cleanup
    without init, sites outside bounds, cross-bound classes."""
    specs = ((0, "global"), (0, "perthread"), (1, "global"))
    ops = [
        ("cleanup", 0),
        ("site", 0, 0),
        ("init", 0),
        ("init", 0),
        ("check", 0, 1),
        ("site", 0, 1),
        ("site", 1, 2),
        ("init", 1),
        ("check", 2, 0),
        ("cleanup", 0),
        ("site", 2, 0),
        ("check", 0, 1),
    ]
    runtime, buf = recording_twin(specs, dict(lazy=True))
    try:
        for event in events_of(ops):
            runtime.handle_event(event)
        runtime.flush_deferred()
        runtime.close_journal()
        check_agreement("anchor", specs, runtime, buf)
        assert verdict(runtime, len(specs))[0][:2] == (1, 0)
        assert verdict(runtime, len(specs))[1][1] == 1
    finally:
        runtime.reset()
