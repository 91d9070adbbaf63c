"""Fail-stop keeps the journal evidence of a deferred thread-local verdict.

A thread-local class is evaluated inline at capture, ahead of the ring.
When that evaluation raises under fail-stop, ``monitoring()`` teardown
discards whatever is still pending, so the runtime must capture the
violating event first and flush before the error propagates: the journal
then holds the violating event and everything before it, and replays to
the same violation.
"""

from __future__ import annotations

import pytest

from repro.core.dsl import (
    ANY,
    call,
    fn,
    previously,
    returnfrom,
    tesla_perthread,
    var,
)
from repro.core.events import EventKind
from repro.errors import TemporalAssertionError
from repro.instrument.hooks import instrumentable, tesla_site
from repro.replay import ReplayEngine
from repro.runtime.journal import read_journal
from repro.session import monitoring


@instrumentable("fsj_sys")
def fsj_sys() -> int:
    fsj_check("cred", "other")
    tesla_site("fsj.cls", v="mine")
    return 0


@instrumentable("fsj_check")
def fsj_check(cred: str, value: str) -> int:
    return 0


def failstop_assertion():
    return tesla_perthread(
        call("fsj_sys"),
        returnfrom("fsj_sys"),
        previously(fn("fsj_check", ANY("c"), var("v")) == 0),
        name="fsj.cls",
    )


def test_failstop_journal_replays_the_thread_local_violation(tmp_path):
    path = tmp_path / "failstop.tjournal"
    with pytest.raises(TemporalAssertionError) as raised:
        with monitoring(
            [failstop_assertion()], deferred="manual", journal=str(path)
        ):
            fsj_sys()
    assert raised.value.violation.automaton == "fsj.cls"

    journal = read_journal(path)
    assert journal.clean_close
    assert [(e.kind, e.name) for _, e in journal.slots] == [
        (EventKind.CALL, "fsj_sys"),
        (EventKind.RETURN, "fsj_check"),
        (EventKind.ASSERTION_SITE, "fsj.cls"),
    ]
    result = ReplayEngine(journal).run()
    assert result.classes["fsj.cls"].errors == 1
    assert result.violations["fsj.cls"] == [raised.value.violation.reason]
