"""Generated steps are the default engine; ``compile=False`` is the other.

``compile=False`` selects the naive interpreter, so the naive replay
configuration the benchmark grades journals with still builds its
runtime.  ``runtime.codegen`` survives only as a read-only alias of
``runtime.compiled``.
"""

from __future__ import annotations

import inspect
import io

import pytest

from repro.core.dsl import ANY, call, fn, previously, returnfrom, tesla_global, var
from repro.core.events import assertion_site_event, call_event, return_event
from repro.introspect import codegen_report
from repro.replay import ReplayEngine
from repro.runtime.journal import read_journal
from repro.runtime.manager import TeslaRuntime
from repro.runtime.notify import LogAndContinue
from repro.session import monitoring


def _assertion():
    return tesla_global(
        call("cd_bound"),
        returnfrom("cd_bound"),
        previously(fn("cd_check", ANY("c"), var("v")) == 0),
        name="cd_cls",
    )


EVENTS = [
    call_event("cd_bound", ()),
    return_event("cd_check", ("c", 1), 0),
    assertion_site_event("cd_cls", {"v": 1}),
    assertion_site_event("cd_cls", {"v": 2}),
    return_event("cd_bound", (), 0),
]


class TestDefault:
    def test_codegen_is_on_by_default(self):
        runtime = TeslaRuntime()
        assert runtime.compiled is True
        assert runtime.codegen is True
        assert codegen_report(runtime) is not None

    def test_compile_false_is_the_naive_interpreter(self):
        runtime = TeslaRuntime(compile=False)
        assert runtime.codegen is False
        assert codegen_report(runtime) is None

    def test_codegen_knob_is_gone(self):
        with pytest.raises(TypeError):
            TeslaRuntime(codegen=False)
        with pytest.raises(TypeError):
            with monitoring([], codegen=True):
                pass
        knobs = inspect.signature(TeslaRuntime).parameters
        assert len(knobs) == 15 and "codegen" not in knobs
        with pytest.raises(AttributeError):
            TeslaRuntime().codegen = False

    def test_monitoring_follows_the_same_default(self):
        with monitoring([], policy=LogAndContinue()) as runtime:
            assert runtime.codegen is True
        with monitoring([], policy=LogAndContinue(), compile=False) as runtime:
            assert runtime.codegen is False

    def test_default_runtime_runs_generated_steps(self):
        runtime = TeslaRuntime(policy=LogAndContinue())
        runtime.install_assertion(_assertion())
        for event in EVENTS:
            runtime.handle_event(event)
        cr = runtime.class_runtime("cd_cls")
        assert (cr.accepts, cr.errors) == (1, 1)
        assert cr.gen_misses > 0 and cr.gen_fallback_plans == 0


class TestReplayConfigs:
    def _journal(self):
        buf = io.BytesIO()
        runtime = TeslaRuntime(
            policy=LogAndContinue(), deferred="manual", journal=buf
        )
        try:
            runtime.install_assertion(_assertion())
            for event in EVENTS:
                runtime.handle_event(event)
            runtime.flush_deferred()
            runtime.close_journal()
        finally:
            runtime.reset()
        return read_journal(io.BytesIO(buf.getvalue()))

    def test_naive_replay_of_a_recorded_journal_succeeds(self):
        result = ReplayEngine(self._journal()).run("naive")
        assert result.classes["cd_cls"].as_tuple()[:3] == (1, 1, 1)
