"""Unit tests for transition plans (the generator's input) and the
content-keyed step cache built from them."""

from repro.core.automaton import TransitionKind
from repro.core.dsl import (
    ANY,
    call,
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
from repro.core.translate import translate_all
from repro.introspect import dispatch_stats
from repro.runtime.epoch import interest_epoch
from repro.runtime.manager import TeslaRuntime
from repro.runtime.notify import LogAndContinue
from repro.runtime.plans import build_transition_plan


def _automaton(name="plan_cls", check="plan_check", bound="plan_bound"):
    assertion = tesla_global(
        call(bound),
        returnfrom(bound),
        previously(fn(check, ANY("c"), var("v")) == 0),
        name=name,
    )
    return translate_all([assertion])[0], assertion.context


class TestPlanConstruction:
    def test_plans_split_by_dispatch_key(self):
        automaton, _ = _automaton()
        # Bound events carry no body transitions: init and cleanup are
        # matched by the interpreter's handle_init/handle_cleanup.
        for key in [
            (EventKind.CALL, "plan_bound"),
            (EventKind.RETURN, "plan_bound"),
            (EventKind.CALL, "someone_else"),
        ]:
            assert not build_transition_plan(automaton, key).body, key
        body_plan = build_transition_plan(
            automaton, (EventKind.RETURN, "plan_check")
        )
        assert body_plan.body
        assert all(
            t.kind is TransitionKind.EVENT and src == t.src
            for src, t in body_plan.body
        )

    def test_site_transitions_keyed_by_automaton_name(self):
        automaton, _ = _automaton()
        site_plan = build_transition_plan(
            automaton, (EventKind.ASSERTION_SITE, automaton.name)
        )
        assert site_plan.body
        assert all(
            t.kind is TransitionKind.SITE for _, t in site_plan.body
        )

    def test_plan_enabled_agrees_with_interpreter(self):
        """The plan's body is the generator's whole view of a key: every
        transition the interpreter enables on an event of that key, from
        any states and under any binding, is in it."""
        automaton, _ = _automaton()
        plan = build_transition_plan(
            automaton, (EventKind.RETURN, "plan_check")
        )
        site_plan = build_transition_plan(
            automaton, (EventKind.ASSERTION_SITE, automaton.name)
        )
        event = return_event("plan_check", ("c", "val1"), 0)
        site = assertion_site_event(automaton.name, {"v": "val1"})
        all_states = frozenset(range(automaton.n_states))
        for p, ev in [(plan, event), (site_plan, site)]:
            body = {t for _, t in p.body}
            for states in [automaton.entry_states, all_states]:
                for binding in [{}, {"v": "val1"}, {"v": "other"}]:
                    enabled = {
                        t for t, _ in automaton.enabled(states, ev, binding)
                    }
                    assert enabled <= body, (states, binding)
            assert {
                t for t, _ in automaton.enabled(all_states, ev, {})
            } == body


class TestPlanCache:
    """The one per-(class, key) cache holds generated steps; plans are
    built only on its misses.  ``dispatch_stats``' plan counters read it."""

    def _runtime(self, name):
        runtime = TeslaRuntime(policy=LogAndContinue())
        automaton, context = _automaton(name=name)
        runtime.install_automaton(automaton, context)
        return runtime

    def _body_events(self, runtime):
        for event in [
            call_event("plan_bound", ()),
            return_event("plan_check", ("c", "v1"), 0),
            return_event("plan_check", ("c", "v1"), 0),
        ]:
            runtime.handle_event(event)

    def test_hits_misses_and_bump_keeps_plans(self):
        runtime = self._runtime("plan_cache_cls")
        self._body_events(runtime)
        stats = dispatch_stats(runtime)
        assert (stats.plan_misses, stats.plan_hits) == (1, 1)
        assert (stats.gen_misses, stats.gen_hits) == (1, 1)
        assert stats.cached_steps == 1
        cr = runtime.class_runtime("plan_cache_cls")
        (step,) = cr._gen.values()
        # A step is a function of (automaton, key, facts) alone: a
        # registration elsewhere bumps the interest epoch but leaves it.
        interest_epoch.bump()
        runtime.handle_event(return_event("plan_check", ("c", "v1"), 0))
        stats = dispatch_stats(runtime)
        assert (stats.plan_misses, stats.plan_hits) == (1, 2)
        assert cr._gen[(EventKind.RETURN, "plan_check")] is step

    def test_reset_keeps_plans_but_zeroes_counters(self):
        runtime = self._runtime("plan_reset_cls")
        self._body_events(runtime)
        runtime.reset()
        stats = dispatch_stats(runtime)
        assert stats.cached_steps == 1
        assert (stats.plan_hits, stats.plan_misses) == (0, 0)


class TestMidTraceAttach:
    """Attaching a class mid-trace must leave verdicts identical to the
    interpreted engine's, and leave the other classes' generated steps in
    place."""

    def _run(self, compile, snapshots=None):
        runtime = TeslaRuntime(
            lazy=True, policy=LogAndContinue(), compile=compile,
        )
        auto_a, ctx_a = _automaton(
            name="attach_a", check="attach_check_a", bound="attach_bound"
        )
        auto_b, ctx_b = _automaton(
            name="attach_b", check="attach_check_b", bound="attach_bound"
        )
        runtime.install_automaton(auto_a, ctx_a)
        part1 = [
            call_event("attach_bound", ()),
            return_event("attach_check_a", ("c", "v1"), 0),
            assertion_site_event("attach_a", {"v": "v1"}),
        ]
        for event in part1:
            runtime.handle_event(event)
        if snapshots is not None:
            cr_a = runtime.class_runtime("attach_a")
            snapshots.append(dict(cr_a._gen))
        runtime.install_automaton(auto_b, ctx_b)
        part2 = [
            return_event("attach_check_b", ("c", "v2"), 0),
            assertion_site_event("attach_b", {"v": "v2"}),
            assertion_site_event("attach_a", {"v": "missing"}),  # violation
            return_event("attach_bound", (), 0),
        ]
        for event in part2:
            runtime.handle_event(event)
        verdicts = {}
        for name in ("attach_a", "attach_b"):
            cr = runtime.class_runtime(name)
            verdicts[name] = (cr.accepts, cr.errors, cr.sites_reached)
        return runtime, verdicts

    def test_codegen_matches_interpreted_and_keeps_steps(self):
        snapshots = []
        jit_runtime, jit_verdicts = self._run(
            compile=True, snapshots=snapshots
        )
        _, interpreted_verdicts = self._run(compile=False)
        assert jit_verdicts == interpreted_verdicts
        assert jit_verdicts["attach_a"] == (1, 1, 1)
        assert jit_verdicts["attach_b"] == (1, 0, 1)
        steps_before, = snapshots
        cr_a = jit_runtime.class_runtime("attach_a")
        assert steps_before
        for key, step in steps_before.items():
            assert cr_a._gen[key] is step
        assert cr_a.gen_misses == cr_a.gen_cache_size

    def test_verdicts_match_a_fresh_runtime(self):
        # A's verdicts are unaffected by B arriving mid-trace: a fresh
        # compiled runtime that only ever knew A sees the same trace
        # (minus B's private events, which A does not observe).
        _, verdicts = self._run(compile=True)
        fresh = TeslaRuntime(
            lazy=True, policy=LogAndContinue(), compile=True
        )
        auto_a, ctx_a = _automaton(
            name="attach_a", check="attach_check_a", bound="attach_bound"
        )
        fresh.install_automaton(auto_a, ctx_a)
        for event in [
            call_event("attach_bound", ()),
            return_event("attach_check_a", ("c", "v1"), 0),
            assertion_site_event("attach_a", {"v": "v1"}),
            assertion_site_event("attach_a", {"v": "missing"}),
            return_event("attach_bound", (), 0),
        ]:
            fresh.handle_event(event)
        cr = fresh.class_runtime("attach_a")
        assert (cr.accepts, cr.errors, cr.sites_reached) == verdicts["attach_a"]
