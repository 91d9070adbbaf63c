"""An independent LTL semantics for TESLA assertions over recorded traces.

The ``tesla_ltl_map`` translation (SNIPPETS.md) reads a TESLA assertion
as a linear-temporal formula over a finite trace: within each temporal
bound, ``previously(e₁, …, eₙ)`` means *the sequence e₁…eₙ occurred
before the assertion site* and ``eventually(…)`` means *it occurs after*.
This module evaluates that reading **directly over journal slots** —
sequence search with backtracking over concrete events — sharing none of
the automaton machinery (no translation, no NFA, no instance pools, no
transition plans).  Agreement between a replay's verdicts and this
oracle is therefore evidence about the *semantics*, not about two copies
of the same code.

Scope: the oracle covers the non-``strict`` assertion grammar with a
single assertion site — sequences, ``||``/``^`` alternation,
``optional``, ``ATLEAST`` — under the same per-bound/per-binding
obligation semantics the runtime implements (repeated sites within one
bound re-use a satisfied binding; bounds that never reach a site produce
no verdict).  ``strict`` automata and ``eventually`` obligations whose
variables are unbound at the site have no faithful linear reading here
and raise :class:`LTLUnsupported` rather than guessing.

The timed combinators (``within_ms`` / ``deadline`` / ``rate_atmost``,
DESIGN §5.9) get a timed reading here, evaluated directly against the
capture timestamps journalled with each event: a ``within_ms`` part only
matches an event whose stamp is close enough to the previously consumed
event's, a ``deadline`` bounds every post-site consumption to the bound
entry's stamp plus the limit (mirroring the runtime's pre-event expiry,
which prunes an undischarged instance before it can consume anything
past the deadline), and ``rate_atmost`` replays the same sliding window
the runtime keeps per instance.  Time never comes from a clock read —
only from the recorded stamps — so the oracle's timed verdicts are a
pure function of the journal.

Verdict vocabulary (mapped onto the runtime's violation reasons by the
differential suite):

* ``"site"``     — no prior sequence matches the site's scope values
  (runtime: "no automaton instance could accept the assertion site").
* ``"cleanup"``  — a satisfied site's remaining obligations were not
  discharged before the bound closed (runtime: "temporal bound closed
  before the automaton accepted").
* ``"deadline"`` — a satisfied site's obligations could not be
  discharged within the assertion's deadline (runtime: "deadline
  expired before the automaton discharged its obligations").
* ``"rate"``     — more matching events than the sliding window allows
  (runtime: "rate limit exceeded").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence as Seq, Tuple

from ..core.ast import (
    AssertionSite,
    AtLeast,
    BooleanOr,
    BooleanXor,
    Conditional,
    Context,
    Deadline,
    Expression,
    FieldAssign,
    FunctionCall,
    FunctionReturn,
    InCallStack,
    Optional_,
    RateAtMost,
    Sequence,
    Strict,
    TemporalAssertion,
    WithinMs,
    referenced_variables,
)
from ..core.events import EventKind, RuntimeEvent
from ..core.patterns import match_all
from ..errors import TeslaError

__all__ = [
    "LTLUnsupported",
    "OracleVerdict",
    "OracleViolation",
    "ltl_verdict",
    "ltl_verdicts",
]

Binding = Dict[str, Any]
Slot = Tuple[int, RuntimeEvent]


class LTLUnsupported(TeslaError):
    """The assertion has no faithful linear-trace reading here."""


#: How oracle violation kinds read in the runtime's vocabulary — the
#: mapping the differential suite uses to compare violation *streams*,
#: not just counts.
RUNTIME_REASONS: Dict[str, str] = {
    "site": (
        "no automaton instance could accept the assertion site "
        "(the expected prior events never occurred with these values)"
    ),
    "cleanup": (
        "temporal bound closed before the automaton accepted "
        "(an 'eventually' obligation was never discharged)"
    ),
    "deadline": (
        "deadline expired before the automaton discharged its obligations "
        "(no permitted successor event arrived in time)"
    ),
    "rate": (
        "rate limit exceeded: more matching events than allowed within "
        "the sliding window"
    ),
}


@dataclass(frozen=True)
class OracleViolation:
    """One violation the oracle detected, at the given journal seqno."""

    seqno: int
    kind: str  # "site" | "cleanup" | "deadline" | "rate"


@dataclass
class OracleVerdict:
    """One assertion's verdict over one recorded trace."""

    automaton: str
    satisfied_sites: int = 0
    accepts: int = 0
    violations: List[OracleViolation] = field(default_factory=list)

    @property
    def errors(self) -> int:
        return len(self.violations)

    @property
    def kinds(self) -> List[str]:
        return [violation.kind for violation in self.violations]

    def reason_stream(self) -> List[str]:
        """The violations as the runtime's reason strings, in order."""
        return [
            RUNTIME_REASONS[violation.kind] for violation in self.violations
        ]


# ---------------------------------------------------------------------------
# Formula decomposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Guarded:
    """A sequence part carrying a clock guard from a timed wrapper.

    ``kind`` mirrors the translator's guard kinds: ``"since_prev"``
    (``within_ms``: stamp distance from the previously consumed event)
    or ``"since_entry"`` (``deadline``: stamp distance from bound entry).
    """

    part: Expression
    kind: str
    limit_s: float


def _contains_site(expr) -> bool:
    if isinstance(expr, _Guarded):
        return _contains_site(expr.part)
    if isinstance(expr, AssertionSite):
        return True
    return any(_contains_site(child) for child in expr.children())


def _flatten(expr: Expression) -> List[Expression]:
    """Top-level sequence parts, with nested Sequences spliced in order,
    ``conditional`` wrappers (the default semantics) peeled, and timed
    wrappers dissolved into :class:`_Guarded` annotations on their
    parts (the translator applies the same guard to every transition of
    the wrapped fragment)."""
    if isinstance(expr, Conditional):
        return _flatten(expr.inner)
    if isinstance(expr, Sequence):
        parts: List[Expression] = []
        for part in expr.parts:
            parts.extend(_flatten(part))
        return parts
    if isinstance(expr, WithinMs):
        return [
            _Guarded(part, "since_prev", expr.ms / 1000.0)
            for inner in expr.parts
            for part in _flatten(inner)
        ]
    if isinstance(expr, Deadline):
        return [
            _Guarded(part, "since_entry", expr.ms / 1000.0)
            for inner in expr.parts
            for part in _flatten(inner)
        ]
    return [expr]


def split_at_site(
    expr: Expression,
) -> Tuple[List[Expression], List[Expression]]:
    """Split the assertion body at its (single) assertion site.

    Returns ``(pre, post)``: the sub-sequences that must occur before and
    after the site.  ``previously(…)`` yields ``(parts, [])``;
    ``eventually(…)`` yields ``([], parts)``.
    """
    parts = _flatten(expr)
    site_indexes = [
        index
        for index, part in enumerate(parts)
        if isinstance(part, AssertionSite)
        or (isinstance(part, _Guarded) and isinstance(part.part, AssertionSite))
    ]
    if len(site_indexes) != 1:
        raise LTLUnsupported(
            f"LTL oracle needs exactly one top-level assertion site, "
            f"found {len(site_indexes)} in {expr.describe()}"
        )
    index = site_indexes[0]
    pre, post = parts[:index], parts[index + 1 :]
    for part in pre + post:
        if _contains_site(part):
            raise LTLUnsupported(
                "LTL oracle does not support nested assertion sites"
            )
        if any(isinstance(node, InCallStack) for node in _walk(part)):
            raise LTLUnsupported(
                "incallstack has revocable (non-sequence) semantics the "
                "LTL oracle does not model"
            )
    return pre, post


def _site_guard(expr: Expression) -> Optional[_Guarded]:
    """The guard on the assertion site itself, when the site sits inside
    a timed wrapper (``deadline(ms, ..., site, ...)``)."""
    for part in _flatten(expr):
        if isinstance(part, _Guarded) and isinstance(part.part, AssertionSite):
            return part
    return None


def _walk(expr) -> Iterator[Expression]:
    if isinstance(expr, _Guarded):
        yield from _walk(expr.part)
        return
    yield expr
    for child in expr.children():
        yield from _walk(child)


# ---------------------------------------------------------------------------
# Concrete-event matching (mirrors the symbol-match semantics, but written
# against the AST directly — no EventSymbol, no generated steps)
# ---------------------------------------------------------------------------


def _match_event(
    part: Expression, event: RuntimeEvent, binding: Binding
) -> Optional[Binding]:
    """None on mismatch, else the *new* bindings the match learned."""
    if isinstance(part, FunctionCall):
        if event.kind is not EventKind.CALL or event.name != part.function:
            return None
        if part.args is None:
            return {}
        return match_all(part.args, event.args, binding)
    if isinstance(part, FunctionReturn):
        if event.kind is not EventKind.RETURN or event.name != part.function:
            return None
        new: Binding = {}
        if part.args is not None:
            got = match_all(part.args, event.args, binding)
            if got is None:
                return None
            new.update(got)
        if part.retval is not None:
            scratch = dict(binding)
            scratch.update(new)
            got = part.retval.match(event.retval, scratch)
            if got is None:
                return None
            new.update(got)
        return new
    if isinstance(part, FieldAssign):
        if event.kind is not EventKind.FIELD_ASSIGN:
            return None
        if event.name != f"{part.struct}.{part.field_name}":
            return None
        if part.op is not None and event.op is not part.op:
            return None
        new = {}
        if part.target is not None:
            got = part.target.match(event.target, binding)
            if got is None:
                return None
            new.update(got)
        if part.value is not None:
            scratch = dict(binding)
            scratch.update(new)
            got = part.value.match(event.retval, scratch)
            if got is None:
                return None
            new.update(got)
        return new
    return None


def _binding_key(index: int, binding: Binding) -> Tuple:
    return (index, tuple(sorted((k, repr(v)) for k, v in binding.items())))


@dataclass(frozen=True)
class _TimeCtx:
    """Time context threaded through the sequence search.

    ``entry_ts`` is the bound-entry capture stamp (what ``since_entry``
    guards measure from; the runtime's ``instance.entry_ts``).
    ``deadline_s`` — set during post-site matching of an assertion with a
    deadline — is the budget since entry past which *no* event can be
    consumed: it mirrors the runtime's pre-event expiry, which prunes an
    undischarged instance before it can step on any :func:`_overdue`
    event.
    """

    entry_ts: float = 0.0
    deadline_s: Optional[float] = None


_UNTIMED = _TimeCtx()


def _overdue(ts: float, entry_ts: float, deadline_s: float) -> bool:
    """Is a stamp past the deadline?  The runtime's exact float form
    (``now - entry_ts > deadline``, see ``expire_deadlines``): the
    equivalent-looking ``ts > entry_ts + deadline_s`` rounds differently
    and disagrees on a stamp that sits on the boundary."""
    return ts - entry_ts > deadline_s


def _time_ok(
    ts: float, prev_ts: float, ctx: _TimeCtx, guard: Optional[_Guarded]
) -> bool:
    """May an event stamped ``ts`` be consumed here?  Guard passes are
    inclusive (``<=``) — expiry is strict ``>`` — matching the runtime."""
    if guard is not None:
        if guard.kind == "since_prev":
            if ts - prev_ts > guard.limit_s:
                return False
        elif ts - ctx.entry_ts > guard.limit_s:
            return False
    if ctx.deadline_s is not None and _overdue(
        ts, ctx.entry_ts, ctx.deadline_s
    ):
        return False
    return True


def _match_parts(
    parts: Seq[Expression],
    events: List[Slot],
    lo: int,
    hi: int,
    binding: Binding,
    ctx: _TimeCtx = _UNTIMED,
    guard: Optional[_Guarded] = None,
) -> Iterator[Tuple[int, Binding]]:
    """All ways ``parts`` can match, in order, within ``events[lo:hi]``.

    Yields ``(next_index, binding)`` — the position after the last
    consumed event and the (possibly extended) variable binding.  This is
    the sequence-search core of the LTL reading: ``◇(e₁ ∧ ◇(e₂ ∧ …))``
    over a finite window.

    Invariant the timed reading leans on: at any position ``k`` handed
    through the search, ``events[k - 1]`` is the most recently *consumed*
    event (``k == 0`` means none yet — the bound entry is the previous
    tick).  Concrete matches yield ``index + 1`` and skips keep ``lo``,
    so the invariant holds inductively; it is what lets ``since_prev``
    guards read the previous consumed stamp straight off the window.
    """
    if not parts:
        yield lo, binding
        return
    head, rest = parts[0], parts[1:]
    seen = set()
    for nxt, extended in _match_one(head, events, lo, hi, binding, ctx, guard):
        key = _binding_key(nxt, extended)
        if key in seen:
            continue
        seen.add(key)
        yield from _match_parts(rest, events, nxt, hi, extended, ctx, guard)


def _match_one(
    part: Expression,
    events: List[Slot],
    lo: int,
    hi: int,
    binding: Binding,
    ctx: _TimeCtx = _UNTIMED,
    guard: Optional[_Guarded] = None,
) -> Iterator[Tuple[int, Binding]]:
    if isinstance(part, _Guarded):
        yield from _match_one(part.part, events, lo, hi, binding, ctx, part)
    elif isinstance(part, Conditional):
        yield from _match_one(part.inner, events, lo, hi, binding, ctx, guard)
    elif isinstance(part, Sequence):
        yield from _match_parts(
            list(part.parts), events, lo, hi, binding, ctx, guard
        )
    elif isinstance(part, (BooleanOr, BooleanXor)):
        # Over a linear trace both reduce to branch alternation: some
        # branch occurred.  (XOR's "taking one branch abandons the other"
        # is a *strict*-mode distinction; non-strict automata ignore the
        # other branch's events either way.)
        for branch in part.branches:
            yield from _match_one(branch, events, lo, hi, binding, ctx, guard)
    elif isinstance(part, Optional_):
        yield lo, binding
        yield from _match_one(part.inner, events, lo, hi, binding, ctx, guard)
    elif isinstance(part, AtLeast):
        yield from _match_atleast(
            part.minimum, part.events, events, lo, hi, binding, ctx, guard
        )
    elif isinstance(part, RateAtMost):
        # The rate fragment is a self-loop (entry state == exit state):
        # as a sequence element it consumes nothing.  Its sliding-window
        # violations are evaluated separately, over the whole bound
        # window (:func:`_rate_violations`).
        yield lo, binding
    elif isinstance(part, (FunctionCall, FunctionReturn, FieldAssign)):
        timed = guard is not None or ctx.deadline_s is not None
        prev_ts = (
            (events[lo - 1][1].timestamp if lo > 0 else ctx.entry_ts)
            if timed
            else 0.0
        )
        for index in range(lo, hi):
            event = events[index][1]
            if timed and not _time_ok(event.timestamp, prev_ts, ctx, guard):
                continue
            new = _match_event(part, event, binding)
            if new is not None:
                merged = binding if not new else {**binding, **new}
                yield index + 1, merged
    elif isinstance(part, Strict):
        raise LTLUnsupported(
            "strict sub-expressions have no linear-trace reading here"
        )
    else:
        raise LTLUnsupported(
            f"LTL oracle cannot evaluate {type(part).__name__}"
        )


def _match_atleast(
    minimum: int,
    alternatives: Tuple[Expression, ...],
    events: List[Slot],
    lo: int,
    hi: int,
    binding: Binding,
    ctx: _TimeCtx = _UNTIMED,
    guard: Optional[_Guarded] = None,
) -> Iterator[Tuple[int, Binding]]:
    """``ATLEAST(n, …)``: n occurrences of any listed event, in order of
    occurrence (any mix)."""
    if minimum <= 0:
        yield lo, binding
        return
    timed = guard is not None or ctx.deadline_s is not None
    prev_ts = (
        (events[lo - 1][1].timestamp if lo > 0 else ctx.entry_ts)
        if timed
        else 0.0
    )
    for index in range(lo, hi):
        event = events[index][1]
        if timed and not _time_ok(event.timestamp, prev_ts, ctx, guard):
            continue
        for alternative in alternatives:
            new = _match_event(alternative, event, binding)
            if new is not None:
                merged = binding if not new else {**binding, **new}
                yield from _match_atleast(
                    minimum - 1, alternatives, events, index + 1, hi, merged,
                    ctx, guard,
                )


# ---------------------------------------------------------------------------
# Trace evaluation
# ---------------------------------------------------------------------------


def _scope_compatible(binding: Binding, scope: Binding) -> Optional[Binding]:
    """Merge a candidate prefix binding with the site's scope values;
    None when any shared variable disagrees."""
    merged = dict(binding)
    for name, value in scope.items():
        if name in merged:
            bound = merged[name]
            if not (bound is value or bound == value):
                return None
        else:
            merged[name] = value
    return merged


def _record_compatible(
    record_binding: Binding, scope: Binding, variables: Tuple[str, ...]
) -> bool:
    """The runtime's ``_already_satisfied`` compatibility rule: every
    site-scope variable must be present *and equal* in the satisfied
    binding (missing means a different obligation, not a match)."""
    for name in variables:
        if name not in scope:
            continue
        if name not in record_binding:
            return False
        bound = record_binding[name]
        value = scope[name]
        if not (bound is value or bound == value):
            return False
    return True


@dataclass
class _Obligation:
    """One satisfied site binding within the current bound."""

    binding: Binding
    position: int  # window index of the site event
    seqno: int


@dataclass
class _Spec:
    """One assertion's decomposed, timed-annotated formula."""

    assertion: TemporalAssertion
    pre: List[Expression]
    post: List[Expression]
    variables: Tuple[str, ...]
    site_guard: Optional[_Guarded]
    #: min over the assertion's ``deadline(...)`` wrappers, seconds —
    #: the automaton-level expiry bound (``Automaton.deadline_s``).
    deadline_s: Optional[float]
    #: ``(index in post, node)`` for each top-level rate window.
    rates: List[Tuple[int, RateAtMost]]

    @property
    def timed(self) -> bool:
        return self.deadline_s is not None or bool(self.rates) or any(
            isinstance(part, _Guarded) for part in self.pre + self.post
        )


def _decompose(assertion: TemporalAssertion) -> _Spec:
    pre, post = split_at_site(assertion.expression)
    site_guard = _site_guard(assertion.expression)
    deadlines = [
        node.ms / 1000.0
        for node in _walk(assertion.expression)
        if isinstance(node, Deadline)
    ]
    rates: List[Tuple[int, RateAtMost]] = []
    for part in pre:
        if any(isinstance(node, RateAtMost) for node in _walk(part)):
            raise LTLUnsupported(
                f"{assertion.name}: a rate window before the assertion "
                "site has no pure linear reading here"
            )
    for index, part in enumerate(post):
        if isinstance(part, RateAtMost):
            rates.append((index, part))
        elif any(isinstance(node, RateAtMost) for node in _walk(part)):
            raise LTLUnsupported(
                f"{assertion.name}: rate windows nested below the "
                "top-level sequence have no pure linear reading here"
            )
    return _Spec(
        assertion=assertion,
        pre=pre,
        post=post,
        variables=referenced_variables(assertion),
        site_guard=site_guard,
        deadline_s=min(deadlines) if deadlines else None,
        rates=rates,
    )


def _expiry_seqno(
    window: List[Slot], position: int, ctx: _TimeCtx, fallback: int
) -> int:
    """Where the runtime would report an expiry: the first event after
    the obligation whose stamp is overdue (pre-event check), else
    *fallback* (the close/flush point)."""
    for k in range(position + 1, len(window)):
        if _overdue(window[k][1].timestamp, ctx.entry_ts, ctx.deadline_s):
            return window[k][0]
    return fallback


def _discharge(
    spec: _Spec, window: List[Slot], obligation: _Obligation, ctx: _TimeCtx
) -> Tuple[bool, bool]:
    """(accepted, extension_only) for one obligation's post-parts."""
    accepted = False
    extension_only = False
    for _, binding in _match_parts(
        spec.post, window, obligation.position + 1, len(window),
        dict(obligation.binding), ctx,
    ):
        if set(binding) <= set(obligation.binding):
            accepted = True
            break
        extension_only = True
    return accepted, extension_only


def _rate_violations(
    spec: _Spec,
    window: List[Slot],
    obligations: List[_Obligation],
    ctx: _TimeCtx,
    verdict: OracleVerdict,
) -> None:
    """Sliding-window blocked events: one window per (obligation, rate
    part), violations deduped per event across obligations — mirroring
    the runtime's per-dispatch (guard, event) dedup across instances."""
    for rate_index, rate in spec.rates:
        prefix = spec.post[:rate_index]
        limit_s = rate.per_ms / 1000.0
        blocked: set = set()
        for obligation in obligations:
            # The rate loop activates once the parts before it have
            # matched; the NFA reaches the loop state at the earliest
            # such completion.
            starts = [
                nxt
                for nxt, _ in _match_parts(
                    prefix, window, obligation.position + 1, len(window),
                    dict(obligation.binding), ctx,
                )
            ]
            if not starts:
                continue
            marks: List[float] = []
            for k in range(min(starts), len(window)):
                seqno, event = window[k]
                if _match_event(rate.event, event, obligation.binding) is None:
                    continue
                ts = event.timestamp
                cutoff = ts - limit_s
                while marks and marks[0] < cutoff:
                    marks.pop(0)
                if len(marks) >= rate.count:
                    # A blocked occurrence does not join the window.
                    blocked.add(seqno)
                else:
                    marks.append(ts)
        for seqno in sorted(blocked):
            verdict.violations.append(OracleViolation(seqno, "rate"))


def _eval_window(
    spec: _Spec,
    window: List[Slot],
    obligations: List[_Obligation],
    entry_ts: float,
    close_seqno: int,
    close_ts: float,
    verdict: OracleVerdict,
) -> None:
    """Close one bound: discharge every satisfied site's obligations."""
    assertion = spec.assertion
    deadline_s = spec.deadline_s
    ctx = (
        _TimeCtx(entry_ts, deadline_s) if spec.timed else _UNTIMED
    )
    for obligation in obligations:
        if not spec.post:
            verdict.accepts += 1
            continue
        accepted, extension_only = _discharge(spec, window, obligation, ctx)
        if accepted:
            verdict.accepts += 1
        elif extension_only:
            raise LTLUnsupported(
                f"{assertion.name}: an 'eventually' obligation binds "
                "variables that were free at the assertion site; the "
                "linear reading cannot mirror the runtime's wildcard "
                "semantics for it"
            )
        elif deadline_s is not None and _overdue(
            close_ts, entry_ts, deadline_s
        ):
            # The runtime's cleanup handler expires overdue timers
            # before judging the remaining instances, so a bound that
            # closed past the deadline reports the expiry, not a
            # cleanup violation.
            verdict.violations.append(
                OracleViolation(
                    _expiry_seqno(
                        window, obligation.position, ctx, close_seqno
                    ),
                    "deadline",
                )
            )
        else:
            verdict.violations.append(
                OracleViolation(close_seqno, "cleanup")
            )
    if spec.rates and obligations:
        _rate_violations(spec, window, obligations, ctx, verdict)


def _eval_open_window(
    spec: _Spec,
    window: List[Slot],
    obligations: List[_Obligation],
    entry_ts: float,
    flush_seqno: int,
    flush_ts: float,
    verdict: OracleVerdict,
) -> None:
    """End-of-trace timer check for a still-open bound.

    An open window produces no accepts and no cleanup violations (the
    runtime only finalises instances at the cleanup event) — but the
    sync-point flush *does* expire overdue deadlines and the rate
    windows have already seen their events, so those verdicts surface
    here, judged at the trace's last capture stamp.
    """
    deadline_s = spec.deadline_s
    ctx = _TimeCtx(entry_ts, deadline_s)
    if deadline_s is not None and _overdue(flush_ts, entry_ts, deadline_s):
        for obligation in obligations:
            if spec.post:
                accepted, _ = _discharge(spec, window, obligation, ctx)
                if accepted:
                    continue
                verdict.violations.append(
                    OracleViolation(
                        _expiry_seqno(
                            window, obligation.position, ctx, flush_seqno
                        ),
                        "deadline",
                    )
                )
    if spec.rates and obligations:
        _rate_violations(spec, window, obligations, ctx, verdict)


def _eval_trace(
    spec: _Spec,
    slots: List[Slot],
    flush_seqno: int,
    flush_ts: float,
    verdict: OracleVerdict,
) -> None:
    assertion = spec.assertion
    variables = spec.variables
    window: Optional[List[Slot]] = None
    obligations: List[_Obligation] = []
    #: Bindings whose instance the runtime pruned mid-window (pre-event
    #: deadline expiry).  A pruned instance is gone for good: later sites
    #: with the same binding find no instance and are site violations.
    expired: List[Binding] = []
    entry_ts = 0.0
    entry = assertion.bound.entry
    exit_ = assertion.bound.exit
    for seqno, event in slots:
        if window is None:
            if _match_event(entry, event, {}) is not None:
                window = []
                obligations = []
                expired = []
                entry_ts = event.timestamp
            continue
        if _match_event(exit_, event, {}) is not None:
            _eval_window(
                spec, window, obligations, entry_ts, seqno,
                event.timestamp, verdict,
            )
            window = None
            obligations = []
            expired = []
            continue
        if _match_event(entry, event, {}) is not None:
            # Re-entrant bound entry: the runtime ignores it entirely (a
            # nested «init» is a no-op and the event is excluded from the
            # class's body work), so it is not part of the window either.
            continue
        if (
            event.kind is EventKind.ASSERTION_SITE
            and event.name == assertion.name
        ):
            scope = {
                name: value
                for name, value in event.scope.items()
                if name in variables
            }
            if spec.deadline_s is not None and _overdue(
                event.timestamp, entry_ts, spec.deadline_s
            ):
                # Pre-event expiry: the runtime sweeps overdue timers at
                # the top of every dispatch, so by the time this site is
                # processed any undischarged obligation past the deadline
                # has already been reported and its instance pruned.
                expiry_ctx = _TimeCtx(entry_ts, spec.deadline_s)
                survivors: List[_Obligation] = []
                for obligation in obligations:
                    accepted, _ = _discharge(
                        spec, window, obligation, expiry_ctx
                    )
                    if accepted:
                        survivors.append(obligation)
                    else:
                        verdict.violations.append(
                            OracleViolation(
                                _expiry_seqno(
                                    window, obligation.position, expiry_ctx,
                                    seqno,
                                ),
                                "deadline",
                            )
                        )
                        expired.append(obligation.binding)
                obligations = survivors
            position = len(window)
            ctx = _TimeCtx(entry_ts) if spec.timed else _UNTIMED
            matched: List[Binding] = []
            for nxt, binding in _match_parts(
                spec.pre, window, 0, position, {}, ctx
            ):
                if spec.site_guard is not None and not _time_ok(
                    event.timestamp,
                    window[nxt - 1][1].timestamp if nxt > 0 else entry_ts,
                    ctx,
                    spec.site_guard,
                ):
                    # The site transition itself carries the guard: a
                    # site reached too late matches no instance, which
                    # the runtime reports as an ordinary site violation.
                    continue
                merged = _scope_compatible(binding, scope)
                if (
                    merged is not None
                    and not any(
                        _same_binding(merged, existing)
                        for existing in matched
                    )
                    and not any(
                        _same_binding(merged, gone) for gone in expired
                    )
                ):
                    matched.append(merged)
            if matched:
                verdict.satisfied_sites += 1
                for merged in matched:
                    if not any(
                        _same_binding(merged, o.binding)
                        for o in obligations
                    ):
                        obligations.append(
                            _Obligation(merged, position, seqno)
                        )
            elif any(
                _record_compatible(o.binding, scope, variables)
                for o in obligations
            ):
                verdict.satisfied_sites += 1
            else:
                verdict.violations.append(OracleViolation(seqno, "site"))
        window.append((seqno, event))
    # A still-open window at end of trace produces no accepts or cleanup
    # verdicts (the runtime only finalises instances at the cleanup
    # event) — but overdue deadlines and rate windows still surface, the
    # way the sync-point flush reports them.
    if window is not None and spec.timed:
        _eval_open_window(
            spec, window, obligations, entry_ts, flush_seqno, flush_ts,
            verdict,
        )


def _same_binding(a: Binding, b: Binding) -> bool:
    if set(a) != set(b):
        return False
    for key, value in a.items():
        other = b[key]
        if not (other is value or other == value):
            return False
    return True


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def ltl_verdict(
    assertion: TemporalAssertion, slots: List[Slot]
) -> OracleVerdict:
    """Evaluate one assertion's LTL reading over recorded slots.

    Global-context assertions read the merged (seqno-sorted) stream;
    per-thread assertions read each recorded thread's subsequence, and
    the verdict sums over threads (violations ordered by seqno).
    """
    if assertion.strict:
        raise LTLUnsupported(
            f"{assertion.name}: strict automata reject unconsumable "
            "events, which a pure sequence reading cannot express"
        )
    spec = _decompose(assertion)
    ordered = sorted(slots, key=lambda slot: slot[0])
    verdict = OracleVerdict(assertion.name)
    # The runtime's final flush judges timers at the *global* end of
    # capture — the latest stamp anywhere in the trace — for every
    # context, so per-thread evaluation still flushes at the global max.
    flush_seqno = (max(s for s, _ in ordered) + 1) if ordered else 0
    flush_ts = max((e.timestamp for _, e in ordered), default=0.0)
    if assertion.context is Context.GLOBAL:
        _eval_trace(spec, ordered, flush_seqno, flush_ts, verdict)
    else:
        by_thread: Dict[int, List[Slot]] = {}
        for slot in ordered:
            by_thread.setdefault(slot[1].thread_id, []).append(slot)
        for tid in sorted(by_thread):
            _eval_trace(spec, by_thread[tid], flush_seqno, flush_ts, verdict)
        verdict.violations.sort(key=lambda violation: violation.seqno)
    if spec.timed:
        # Timed verdicts surface at different points in the two readings
        # (the runtime reports pre-event expiry at its next dispatched
        # event); seqno order is the stable common denominator.
        verdict.violations.sort(key=lambda violation: violation.seqno)
    return verdict


def ltl_verdicts(
    assertions: Seq[TemporalAssertion], slots: List[Slot]
) -> Dict[str, OracleVerdict]:
    """:func:`ltl_verdict` for a batch, keyed by assertion name."""
    return {
        assertion.name: ltl_verdict(assertion, slots)
        for assertion in assertions
    }
