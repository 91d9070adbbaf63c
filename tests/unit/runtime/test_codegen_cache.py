"""The content-keyed tesla-jit caches (DESIGN §5.7).

A generated step is a pure function of (automaton, dispatch key, the
class's share of the :class:`CodegenFacts`), so nothing that only bumps
the interest epoch — hook attach/detach, quarantine, governor demotion —
and no install that leaves the class's own facts alone may throw it
away.  Below them sits one process-wide,
bounded cache of code objects keyed by generated source text: a second
runtime (or a replay) that generates the same source compiles nothing.
"""

from __future__ import annotations

import gc
import io
import weakref

import pytest

from repro.core.dsl import ANY, call, fn, previously, returnfrom, tesla_global, var
from repro.core.events import (
    EventKind,
    assertion_site_event,
    call_event,
    return_event,
)
from repro.core.translate import translate
from repro.introspect import codegen_report, dispatch_stats
from repro.replay import ReplayEngine
from repro.runtime import codegen
from repro.runtime.codegen import CodegenFacts
from repro.runtime.epoch import interest_epoch
from repro.runtime.journal import read_journal
from repro.runtime.manager import TeslaRuntime
from repro.runtime.notify import LogAndContinue
from repro.runtime.store import ClassRuntime


def _assertion(name, check="cc_check", bound="cc_bound"):
    return tesla_global(
        call(bound),
        returnfrom(bound),
        previously(fn(check, ANY("c"), var("v")) == 0),
        name=name,
    )


def _trace(name, rounds=4, check="cc_check", bound="cc_bound"):
    """Bound windows with clone-producing checks, one satisfied and one
    violating site per window."""
    events = []
    for r in range(rounds):
        events.append(call_event(bound, ()))
        for v in range(3):
            events.append(return_event(check, ("c", f"val{v}"), 0))
        events.append(assertion_site_event(name, {"v": f"val{r % 3}"}))
        events.append(assertion_site_event(name, {"v": "missing"}))
        events.append(return_event(bound, (), 0))
    return events


def _runtime(*names, **kwargs):
    runtime = TeslaRuntime(policy=LogAndContinue(), **kwargs)
    runtime.install_assertions([_assertion(name) for name in names])
    return runtime


def _feed(runtime, events):
    for event in events:
        runtime.handle_event(event)


def _verdict(runtime, name):
    cr = runtime.class_runtime(name)
    return (cr.accepts, cr.errors, cr.sites_reached)


@pytest.fixture
def compiles(monkeypatch):
    """Record the sources the generator hands to ``compile()`` (the
    module-level name shadows the builtin inside
    ``repro.runtime.codegen``)."""
    calls = []

    def counting_compile(source, filename, mode):
        calls.append(source)
        return compile(source, filename, mode)

    monkeypatch.setattr(codegen, "compile", counting_compile, raising=False)
    return calls


class TestBumpKeepsCaches:
    @pytest.mark.parametrize(
        "bump",
        ["epoch", "supervisor", "governor"],
    )
    def test_same_plan_and_step_objects_with_no_new_miss(self, bump):
        runtime = _runtime("cc_bump")
        events = _trace("cc_bump")
        _feed(runtime, events)
        cr = runtime.class_runtime("cc_bump")
        steps = dict(cr._gen)
        assert steps
        before = dispatch_stats(runtime)
        if bump == "epoch":
            interest_epoch.bump()  # what a hook attach/detach does
        elif bump == "supervisor":
            runtime._on_supervisor_change()  # a quarantine trip or re-arm
        else:
            runtime._on_governor_change()  # a demotion or restore
        _feed(runtime, events)
        after = dispatch_stats(runtime)
        assert after.gen_misses == before.gen_misses
        assert after.plan_misses == before.plan_misses
        assert after.gen_hits > before.gen_hits
        for key, step in steps.items():
            assert cr._gen[key] is step

    def test_post_bump_replay_regenerates_nothing(self, compiles):
        """The count form of "a post-bump replay is within 2x of warm":
        after a bump, replaying the same trace generates and compiles
        nothing, so it costs what the warm replay cost."""
        runtime = _runtime("cc_replay")
        events = _trace("cc_replay")
        _feed(runtime, events)
        warm = _verdict(runtime, "cc_replay")
        misses = dispatch_stats(runtime).gen_misses
        assert misses > 0
        del compiles[:]
        interest_epoch.bump()
        _feed(runtime, events)
        assert dispatch_stats(runtime).gen_misses == misses
        assert compiles == []
        assert _verdict(runtime, "cc_replay") == tuple(
            2 * n for n in warm
        )


class TestFactsKeyTheStep:
    def test_changed_facts_regenerate_the_step(self):
        automaton = translate(_assertion("cc_facts"))
        cr = ClassRuntime(automaton)
        key = (EventKind.RETURN, "cc_check")
        clean = CodegenFacts(clean=True, arity_safe=frozenset({("cc_check", 2)}))
        first = cr.step_for(key, clean)
        # An equal snapshot is the same content: same step, no miss.
        same = CodegenFacts(clean=True, arity_safe=frozenset({("cc_check", 2)}))
        assert cr.step_for(key, same) is first
        assert cr.gen_misses == 1
        # Facts about other functions and other automata are not this
        # class's share: same step, no miss.
        wider = CodegenFacts(
            clean=True,
            arity_safe=frozenset({("cc_check", 2), ("elsewhere", 1)}),
            occupancy={"another_cls": frozenset({0, 1})},
        )
        assert cr.step_for(key, wider) is first
        assert cr.gen_misses == 1
        # Different content (the report went dirty): regenerated, and the
        # arity guard that was elided is back.
        dirty = CodegenFacts(clean=False, arity_safe=clean.arity_safe)
        second = cr.step_for(key, dirty)
        assert second is not first
        assert cr.gen_misses == 2
        assert first.elided_guards == 1 and second.elided_guards == 0

    def test_facts_change_resets_the_content_counters(self):
        """Dropping the steps drops what the counters said about them:
        after dirty facts arrive, the one resident step elides nothing
        and was generated once since the drop."""
        cr = ClassRuntime(translate(_assertion("cc_content")))
        key = (EventKind.RETURN, "cc_check")
        clean = CodegenFacts(clean=True, arity_safe=frozenset({("cc_check", 2)}))
        cr.step_for(key, clean)
        assert cr.gen_elided_guards == 1
        cr.step_for(key, CodegenFacts(clean=False))
        assert cr.gen_cache_size == 1
        assert cr.gen_elided_guards == 0
        assert cr.gen_code_hits + cr.gen_code_misses == 1
        assert cr.gen_misses == 2  # traffic, not content: it keeps counting

    def test_install_refreshes_the_facts_snapshot(self, compiles):
        """An install grows the prove report, so the runtime's facts
        snapshot is rebuilt; the other class's own share of it did not
        change, so its steps stay and nothing regenerates."""
        runtime = _runtime("cc_grow", prove="report")
        events = _trace("cc_grow")
        _feed(runtime, events)
        assert set(runtime._codegen_facts().occupancy) == {"cc_grow"}
        del compiles[:]
        runtime.install_assertions(
            [_assertion("cc_other", check="cc_other_check")]
        )
        assert set(runtime._codegen_facts().occupancy) == {
            "cc_grow", "cc_other",
        }
        cr = runtime.class_runtime("cc_grow")
        misses = cr.gen_misses
        steps = dict(cr._gen)
        _feed(runtime, events)
        assert cr.gen_misses == misses
        assert cr.gen_hits > 0
        for key, step in steps.items():
            assert cr._gen[key] is step
        assert compiles == []


class TestCodeCache:
    def test_second_runtime_compiles_nothing(self, compiles):
        first = _runtime("cc_twice")
        _feed(first, _trace("cc_twice"))
        assert compiles, "the first runtime generated nothing"
        del compiles[:]
        second = _runtime("cc_twice")
        _feed(second, _trace("cc_twice"))
        assert compiles == []
        report = codegen_report(second)
        assert report["code_cache_misses"] == 0
        assert report["code_cache_hits"] == dispatch_stats(second).gen_misses
        assert _verdict(second, "cc_twice") == _verdict(first, "cc_twice")

    def test_replay_after_bump_compiles_nothing(self, compiles):
        buf = io.BytesIO()
        live = TeslaRuntime(
            policy=LogAndContinue(), deferred="manual", journal=buf
        )
        live.install_assertions([_assertion("cc_journal")])
        _feed(live, _trace("cc_journal"))
        live.flush_deferred()
        live.close_journal()
        engine = ReplayEngine(read_journal(io.BytesIO(buf.getvalue())))
        warm = engine.run("codegen")
        del compiles[:]
        interest_epoch.bump()
        again = engine.run("codegen")
        assert compiles == []
        assert again.to_json() == warm.to_json()
        assert warm.classes["cc_journal"].as_tuple()[:3] == _verdict(
            live, "cc_journal"
        )

    def test_cache_never_exceeds_its_bound(self, monkeypatch, compiles):
        monkeypatch.setattr(codegen, "CODE_CACHE_SIZE", 3)
        for i in range(6):
            name = f"cc_bound_{i}"
            runtime = _runtime(name)
            _feed(runtime, _trace(name, rounds=1))
            assert codegen.code_cache_size() <= 3
        assert len(compiles) > 3  # the bound was actually exercised

    def test_eviction_and_recompilation_are_invisible(
        self, monkeypatch, compiles
    ):
        # A one-entry cache: each of the class's keys evicts the other,
        # so a fresh runtime replaying the same trace recompiles every
        # step and must end up with byte-identical sources and verdicts.
        monkeypatch.setattr(codegen, "CODE_CACHE_SIZE", 1)
        events = _trace("cc_evict")
        del compiles[:]
        first = _runtime("cc_evict")
        _feed(first, events)
        sources = list(compiles)
        assert len(sources) > 1
        del compiles[:]
        second = _runtime("cc_evict")
        _feed(second, events)
        assert compiles == sources
        assert codegen.code_cache_size() == 1
        assert _verdict(second, "cc_evict") == _verdict(first, "cc_evict")

    def test_cache_keeps_no_runtime_alive(self):
        runtime = _runtime("cc_weak")
        _feed(runtime, _trace("cc_weak"))
        cr = runtime.class_runtime("cc_weak")
        automaton = runtime.automata["cc_weak"]
        assert cr._gen
        refs = [weakref.ref(runtime), weakref.ref(cr), weakref.ref(automaton)]
        refs.extend(weakref.ref(t) for t in automaton.transitions)
        del runtime, cr, automaton
        gc.collect()
        assert codegen.code_cache_size() > 0
        assert [ref for ref in refs if ref() is not None] == []
