"""Spans recorded from outside the program, around its public entry points.

A :class:`Tracer` swaps a wrapper in for a function or method for the
length of a ``with tracer.patched(...)`` block; nothing in ``src/``
changes.  Each span is ``[name, start, end, parent index, op id]``; spans
whose parent is ``-1`` are roots and start a new op id.  Spans stay in
memory until the harness takes them; :func:`self_times` turns them into
the ledger's per-layer totals and :func:`write_spans` writes them out.
"""

from __future__ import annotations

import contextlib
import json
import time
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Tuple

#: Span layer names, shared by the harness's ledger.
OP = "op"
TRANSLATOR = "instrument.translator"
HANDLE_EVENT = "runtime.handle_event"
DISPATCH_BATCH = "runtime.dispatch_batch"
JOURNAL_APPEND = "runtime.journal_append"
INSTRUMENT = "instrument.instrument"
INSTALL = "runtime.install"
TRANSLATE = "core.translate"
LINT = "analysis.lint"


def event_targets() -> List[Tuple[object, str, str]]:
    """(owner, attribute, span name) for the per-event entry points."""
    from repro.instrument.translator import EventTranslator
    from repro.runtime.journal import JournalWriter
    from repro.runtime.manager import TeslaRuntime

    return [
        (EventTranslator, "__call__", TRANSLATOR),
        (TeslaRuntime, "handle_event", HANDLE_EVENT),
        (TeslaRuntime, "dispatch_batch", DISPATCH_BATCH),
        (JournalWriter, "append_batch", JOURNAL_APPEND),
    ]


def setup_targets() -> List[Tuple[object, str, str]]:
    """(owner, attribute, span name) for the install-time entry points.

    ``translate_all`` is looked up in the runtime manager's namespace and
    ``lint_assertions`` in its own module, which is where their callers
    resolve them.
    """
    import repro.analysis.lint as lint_module
    import repro.runtime.manager as manager_module
    from repro.instrument.module import Instrumenter
    from repro.runtime.manager import TeslaRuntime

    return [
        (Instrumenter, "instrument", INSTRUMENT),
        (TeslaRuntime, "install_assertions", INSTALL),
        (manager_module, "translate_all", TRANSLATE),
        (lint_module, "lint_assertions", LINT),
    ]


class Tracer:
    """In-memory span recorder for one thread.

    The wrappers only append to a flat log (a span's name and start time
    on entry, its end time on exit) so that as little of the recorder's
    own cost as possible lands inside other spans; :meth:`take` rebuilds
    the span tree from the log.
    """

    def __init__(self) -> None:
        self._log: list = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with a span named ``name`` around every call."""
        append = self._log.append
        perf = time.perf_counter

        def traced(*args, **kwargs):
            append(name)
            append(perf())
            try:
                return fn(*args, **kwargs)
            finally:
                append(perf())

        return traced

    @contextlib.contextmanager
    def patched(self, targets: Iterable[Tuple[object, str, str]]) -> Iterator[None]:
        """Wrap each ``owner.attribute`` for the block, then restore it."""
        saved = []
        try:
            for owner, attribute, name in targets:
                original = (owner.__dict__[attribute] if isinstance(owner, type)
                            else getattr(owner, attribute))
                saved.append((owner, attribute, original))
                setattr(owner, attribute, self.wrap(name, original))
            yield
        finally:
            for owner, attribute, original in reversed(saved):
                setattr(owner, attribute, original)

    def take(self) -> List[list]:
        """The spans recorded so far, as ``[name, start, end, parent, op]``
        rows; the log starts again empty."""
        log = self._log
        spans: List[list] = []
        stack: List[int] = []
        next_op = 0
        items = iter(log)
        for item in items:
            if isinstance(item, str):
                if stack:
                    parent = stack[-1]
                    op = spans[parent][4]
                else:
                    parent, op = -1, next_op
                    next_op += 1
                stack.append(len(spans))
                spans.append([item, next(items), 0.0, parent, op])
            else:
                spans[stack.pop()][2] = item
        if stack:
            raise RuntimeError("spans taken while a span is open")
        log.clear()
        return spans


def self_times(spans: List[list]) -> Dict[str, Tuple[int, float, float]]:
    """name -> (count, total seconds, self seconds).

    Self time is a span's duration minus the durations of its child spans;
    one thread records the spans, so children never overlap.
    """
    children = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent] += end - start
    out: Dict[str, list] = {}
    for index, (name, start, end, _, _) in enumerate(spans):
        duration = end - start
        row = out.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += duration
        row[2] += duration - children[index]
    return {name: tuple(row) for name, row in out.items()}


def write_spans(path: Path, spans: List[list]) -> None:
    """Write spans as JSON lines, times relative to the first span."""
    origin = spans[0][1] if spans else 0.0
    with open(path, "w", encoding="utf-8") as out:
        for index, (name, start, end, parent, op) in enumerate(spans):
            out.write(json.dumps({
                "id": index, "name": name, "op": op, "parent": parent,
                "start_us": round((start - origin) * 1e6, 3),
                "end_us": round((end - origin) * 1e6, 3),
            }) + "\n")
