"""Unit tests for tesla-jit: source generation, the per-class step
cache, and the runtime fallback contract (DESIGN §5.7)."""

from __future__ import annotations

import pytest

from repro.core.dsl import (
    ANY,
    call,
    either,
    fn,
    previously,
    returnfrom,
    tesla_global,
    var,
)
from repro.core.events import (
    EventKind,
    assertion_site_event,
    call_event,
    return_event,
)
from repro.core.patterns import Pattern
from repro.core.translate import translate
from repro.runtime.codegen import (
    CODEGEN_VERSION,
    CodegenFacts,
    GenerationFallback,
    compile_plan_step,
    generate_source,
)
from repro.runtime.epoch import interest_epoch
from repro.runtime.faultinject import FaultInjector, arm, disarm
from repro.runtime.manager import TeslaRuntime
from repro.runtime.notify import LogAndContinue
from repro.runtime.plans import build_transition_plan
from repro.runtime.store import ClassRuntime


def _assertion(name="cg_cls", check="cg_check", bound="cg_bound"):
    return tesla_global(
        call(bound),
        returnfrom(bound),
        previously(fn(check, ANY("c"), var("v")) == 0),
        name=name,
    )


def _facts(check="cg_check"):
    return CodegenFacts(clean=True, arity_safe=frozenset({(check, 2)}))


def _body_entry(automaton, key, facts=None):
    plan = build_transition_plan(automaton, key)
    return compile_plan_step(automaton, plan, facts)


class _OpaquePattern(Pattern):
    """Matches anything via the interpreter's duck-typed protocol, but is
    unknown to the generator's isinstance chain — a fallback trigger."""

    def match(self, value, binding):
        return binding

    def describe(self):
        return "opaque"


class TestGenerateSource:
    def test_body_key_generates_both_variants(self):
        automaton = translate(_assertion())
        plan = build_transition_plan(automaton, (EventKind.RETURN, "cg_check"))
        gen = generate_source(automaton, plan, _facts())
        assert gen.fallback_reason is None
        assert f"# tesla-jit v{CODEGEN_VERSION} " in gen.source
        assert "def step(cr, event, hub):" in gen.source
        assert "def step_batch(cr, events, hub):" in gen.source
        # Constants live in the namespace, never in the text — values in
        # the source would break the byte-identical determinism contract.
        # (The plain name may appear in the header comment; a quoted
        # literal in code must not.)
        assert "'cg_check'" not in gen.source
        assert '"cg_check"' not in gen.source

    def test_unsupported_pattern_falls_back_with_reason(self):
        weird = tesla_global(
            call("cg_bound"),
            returnfrom("cg_bound"),
            previously(fn("cg_check", _OpaquePattern(), var("v")) == 0),
            name="cg_weird",
        )
        automaton = translate(weird)
        entry = _body_entry(automaton, (EventKind.RETURN, "cg_check"))
        assert isinstance(entry, GenerationFallback)
        assert entry.step is None and entry.step_batch is None
        assert entry.reason == "unsupported-pattern:_OpaquePattern"

    def test_arity_guards_elided_only_under_clean_facts(self):
        automaton = translate(_assertion())
        key = (EventKind.RETURN, "cg_check")
        bare = _body_entry(automaton, key)
        clean = _body_entry(automaton, key, _facts())
        dirty = _body_entry(
            automaton,
            key,
            CodegenFacts(clean=False, arity_safe=frozenset({("cg_check", 2)})),
        )
        unproven = _body_entry(
            automaton, key, CodegenFacts(clean=True, arity_safe=frozenset())
        )
        assert clean.elided_guards > 0
        assert bare.elided_guards == 0
        assert dirty.elided_guards == 0
        assert unproven.elided_guards == 0

    def test_site_key_generates(self):
        automaton = translate(_assertion())
        entry = _body_entry(
            automaton, (EventKind.ASSERTION_SITE, automaton.name), _facts()
        )
        assert entry.step is not None


class TestStepCache:
    def test_miss_hit_and_epoch_invalidation(self):
        cr = ClassRuntime(translate(_assertion(name="cg_cache_cls")))
        key = (EventKind.RETURN, "cg_check")
        epoch = interest_epoch.value
        facts = _facts()
        first = cr.step_for(key, epoch, facts)
        assert first is not None
        assert (cr.gen_misses, cr.gen_hits) == (1, 0)
        assert cr.step_for(key, epoch, facts) is first
        assert (cr.gen_misses, cr.gen_hits) == (1, 1)
        assert cr.gen_cache_size == 1
        assert cr.gen_seconds > 0.0
        assert cr.gen_elided_guards > 0
        stale_epoch = interest_epoch.bump()
        rebuilt = cr.step_for(key, stale_epoch, facts)
        assert rebuilt is not None and rebuilt is not first
        assert cr.gen_invalidations == 1
        assert (cr.gen_misses, cr.gen_hits) == (2, 1)

    def test_fallback_is_cached_not_regenerated(self):
        weird = tesla_global(
            call("cg_bound"),
            returnfrom("cg_bound"),
            previously(fn("cg_check", _OpaquePattern(), var("v")) == 0),
            name="cg_fb_cls",
        )
        cr = ClassRuntime(translate(weird))
        key = (EventKind.RETURN, "cg_check")
        epoch = interest_epoch.value
        assert cr.step_for(key, epoch, None) is None
        assert cr.gen_fallback_plans == 1
        assert cr.step_for(key, epoch, None) is None
        # Second probe hit the cached decision: no second generation.
        assert cr.gen_fallback_plans == 1
        assert cr.gen_fallback_hits == 1
        summary = cr.gen_summary()
        assert summary["generated_keys"] == []
        assert summary["fallback_keys"] == [
            ("return:cg_check", "unsupported-pattern:_OpaquePattern")
        ]

    def test_reset_keeps_cache_but_zeroes_traffic_counters(self):
        cr = ClassRuntime(translate(_assertion(name="cg_reset_cls")))
        key = (EventKind.RETURN, "cg_check")
        epoch = interest_epoch.value
        cr.step_for(key, epoch, _facts())
        cr.step_for(key, epoch, _facts())
        elided = cr.gen_elided_guards
        cr.reset()
        assert cr.gen_cache_size == 1
        assert (cr.gen_misses, cr.gen_hits) == (0, 0)
        # Content counters describe what is resident, and it still is.
        assert cr.gen_elided_guards == elided
        assert cr.gen_seconds > 0.0


def _trace(rounds=6, n_values=3, check="cg_check", bound="cg_bound",
           cls="cg_cls"):
    """Bound windows with clone-producing checks and a mix of satisfied
    and violating sites."""
    events = []
    for r in range(rounds):
        events.append(call_event(bound, ()))
        for v in range(n_values):
            events.append(return_event(check, ("c", f"val{v}"), 0))
        events.append(
            assertion_site_event(cls, {"v": f"val{(r % (n_values + 1))}"})
        )
        events.append(return_event(bound, (), 0))
    return events


def _verdict(runtime, name="cg_cls"):
    cr = runtime.class_runtime(name)
    return (cr.accepts, cr.errors, cr.sites_reached)


def _run(events, **kwargs):
    runtime = TeslaRuntime(
        lazy=True, policy=LogAndContinue(), **kwargs
    )
    runtime.install_assertion(_assertion())
    for event in events:
        runtime.handle_event(event)
    return runtime


class TestRuntimeFallbackContract:
    def test_codegen_requires_compile(self):
        with pytest.raises(ValueError):
            TeslaRuntime(compile=False, codegen=True)

    def test_codegen_matches_interpreters(self):
        events = _trace()
        naive = _run(events, compile=False)
        compiled = _run(events, compile=True)
        jitted = _run(events, compile=True, codegen=True)
        assert _verdict(naive) == _verdict(compiled) == _verdict(jitted)
        cr = jitted.class_runtime("cg_cls")
        assert cr.gen_fallback_plans == 0
        assert cr.gen_hits > 0

    def test_detailed_hub_defers_to_interpreter(self):
        """An attached handler flips ``hub.detailed``: the generated step's
        top guard must route through the interpreter so lifecycle
        notifications are still produced."""
        events = _trace()
        seen = []
        compiled = _run(events, compile=True)
        jitted = TeslaRuntime(
            lazy=True, policy=LogAndContinue(),
            compile=True, codegen=True,
        )
        jitted.hub.add_handler(seen.append)
        jitted.install_assertion(_assertion())
        for event in events:
            jitted.handle_event(event)
        assert _verdict(jitted) == _verdict(compiled)
        assert seen, "detailed handler saw no notifications"

    def test_armed_faultinject_defers_to_interpreter(self):
        """With an injector armed the generated fast path is bypassed so
        fault points stay reachable; a rate-0 injector must not change
        verdicts."""
        events = _trace()
        compiled = _run(events, compile=True)
        arm(FaultInjector(seed=3, rate=0.0))
        try:
            jitted = _run(events, compile=True, codegen=True)
        finally:
            disarm()
        assert _verdict(jitted) == _verdict(compiled)

    def test_batch_drain_matches_sync_dispatch(self):
        events = _trace(rounds=8)
        sync = _run(events, compile=True, codegen=True)
        batched = TeslaRuntime(
            lazy=True, policy=LogAndContinue(),
            compile=True, codegen=True,
        )
        batched.install_assertion(_assertion())
        for start in range(0, len(events), 16):
            batched.dispatch_batch(events[start:start + 16])
        assert _verdict(batched) == _verdict(sync)
        assert batched.class_runtime("cg_cls").gen_hits > 0

    def test_batch_drain_fallback_class_uses_interpreter(self):
        """A class whose plan cannot be specialized still gets correct
        verdicts through ``dispatch_batch`` — the per-run interpreter
        loop inside ``_run_body_batch``."""
        weird = tesla_global(
            call("cg_bound"),
            returnfrom("cg_bound"),
            previously(
                either(
                    fn("cg_check", _OpaquePattern(), var("v")) == 0,
                    fn("cg_check", ANY("c"), var("v")) == 0,
                )
            ),
            name="cg_cls",
        )

        def run(batched):
            runtime = TeslaRuntime(
                lazy=True, policy=LogAndContinue(),
                compile=True, codegen=batched is not None and batched,
            )
            runtime.install_assertion(weird)
            events = _trace(rounds=8)
            if batched:
                for start in range(0, len(events), 16):
                    runtime.dispatch_batch(events[start:start + 16])
            else:
                for event in events:
                    runtime.handle_event(event)
            return runtime

        compiled = run(False)
        jitted = run(True)
        assert _verdict(jitted) == _verdict(compiled)
        cr = jitted.class_runtime("cg_cls")
        assert cr.gen_fallback_plans > 0
        assert cr.gen_fallback_hits > 0
