"""tesla-jit: compile :class:`TransitionPlan` objects to generated Python.

The naive interpreter (``tesla_update_state``) re-derives, on every
event, facts that depend only on the automaton and the event's dispatch
key: ``Automaton.enabled`` scans every outgoing transition of every
current state, re-checks kind and name, and walks each symbol's pattern
AST.  This module emits specialized Python *source* per (automaton,
dispatch-key) plan instead — matcher checks, bind extraction and
transition application fused into a single ``exec``-compiled function:

* event-static work (arity checks, ``Const``/``Flags``/``Bitmask``/
  ``AddressOf`` filters, ``Var`` value extraction) is hoisted out of the
  instance loop and evaluated once per event;
* the per-instance loop is unrolled over the plan's body transitions,
  with the dominant single-match case stepped inline (``frozenset``
  state update + transition counting, no function calls);
* multi-match and clone-producing cases delegate to
  :func:`_instance_slow_step`, which reuses the interpreter's own
  ``_step``/dedupe/clone machinery so verdicts stay bit-identical.

Lint facts (DESIGN §5.5) feed the generator: under a lint-clean report,
arity guards re-proven by ``arity_safe`` are simply never emitted, and
transitions whose source state can never be occupied (outside the
forward closure of the entry states over EVENT/SITE transitions) are
dropped from the generated code entirely — guard elision extended from
"skip a check" to "the check never exists".

The generator is deliberately *loud* about its limits: any plan it
cannot specialize (a timed automaton, an unknown :class:`Pattern`
subclass, an exotic event expression) yields a
:class:`GenerationFallback` carrying the reason, the caller falls back to
the naive interpreter, and the fallback is counted in
``dispatch_stats``.  A generated function also bails out to the
interpreter at call time whenever fault injection is armed or the
notification hub is in detailed mode — both paths need the
interpreter's exact checkpoint/notification sequence, which the lean
generated code deliberately omits (it emits only the always-on ERROR
and OVERFLOW notifications).

Determinism contract: for one (automaton, key, facts) triple the
generated source is byte-identical across runs and processes — all
runtime values (transitions, pattern constants, variable names) are
injected through the ``exec`` namespace as numbered constants, never
``repr``-ed into the source, and generation never iterates an unordered
collection.  ``tests/property/test_codegen_props.py`` pins this with
Hypothesis and ``tests/fixtures/golden_codegen.txt`` byte-pins one
representative function (bump :data:`CODEGEN_VERSION` on any layout
change, mirroring the journal's ``golden.tjournal`` protocol).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from types import CodeType
from typing import Any, Dict, FrozenSet, List, Optional, Tuple

from ..core.ast import (
    AssertionSite,
    FieldAssign,
    FunctionCall,
    FunctionReturn,
)
from ..core.automaton import Automaton, Transition, TransitionKind
from ..core.events import EventKind
from ..core.patterns import (
    EMPTY_BINDING,
    UNBOUND,
    AddressOf,
    Any_,
    Bitmask,
    Const,
    Flags,
    Pattern,
    Ref,
    Var,
)
from ..errors import TemporalViolation
from . import faultinject as _fi
from .notify import Notification, NotificationKind
from .plans import PlanKey, TransitionPlan, build_transition_plan
from .update import (
    _already_satisfied as _upd_already_satisfied,
    _materialise,
    _same_binding,
    _step,
    tesla_update_state,
)

#: Bump on any change to the generated source layout (see the golden
#: fixture's upgrade protocol in
#: ``tests/unit/runtime/test_codegen_golden.py``).
CODEGEN_VERSION = 2

#: Sentinel for "this symbol did not match" in generated code.  Distinct
#: from ``None`` so generated locals can never be confused with a
#: matcher's ``NO_MATCH`` contract leaking out of the function.
_NO = object()


class CodegenFacts:
    """The lint-derived facts the generator may rely on.

    ``clean`` is the gate: elisions are only sound when the installed
    batches linted without errors *or warnings* (the same bar the event
    translator uses for its dynamic-guard elision).  ``arity_safe`` holds
    ``(function-name, arity)`` pairs statically proven against the hook
    registry by TESLA010's analysis.

    ``occupancy`` carries tesla-prove's per-automaton occupiable-state
    sets (DESIGN §5.10): the union of states over every configuration its
    subset-stepping fixpoint explored.  Unlike the lint facts it needs no
    ``clean`` gate — the fixpoint itself is the proof that a state outside
    the set is never occupied, whatever else lint had to say — so a prove
    report *widens* dead-transition elision to batches lint left dirty.
    """

    __slots__ = ("clean", "arity_safe", "occupancy")

    NONE: "CodegenFacts"

    def __init__(
        self,
        clean: bool = False,
        arity_safe: FrozenSet[Tuple[str, int]] = frozenset(),
        occupancy: object = (),
    ) -> None:
        self.clean = clean
        self.arity_safe = frozenset(arity_safe)
        #: automaton name -> frozenset of prove-occupiable states.
        self.occupancy: Dict[str, FrozenSet[int]] = dict(occupancy)

    @classmethod
    def from_report(cls, report, prove=None) -> "CodegenFacts":
        """Facts from a :class:`~repro.analysis.diagnostics.LintReport`
        and optionally a :class:`~repro.analysis.prove.ProveReport`
        (``None``: no report means no facts, never an error)."""
        if report is None and prove is None:
            return cls.NONE
        return cls(
            clean=bool(report.clean) if report is not None else False,
            arity_safe=(
                frozenset(getattr(report, "arity_safe", ()))
                if report is not None
                else frozenset()
            ),
            occupancy=(
                prove.occupiable_states() if prove is not None else ()
            ),
        )

    def share_for(self, automaton: Automaton) -> "CodegenFacts":
        """The part of these facts the generator can consult for one
        automaton: ``clean``, the ``arity_safe`` pairs its symbols name,
        and its own ``occupancy`` entry.  Generating under the share
        gives byte-identical source to generating under the whole."""
        named = set()
        for symbol in automaton.symbols:
            expr = symbol.expr
            if isinstance(expr, (FunctionCall, FunctionReturn)) and (
                expr.args is not None
            ):
                named.add((expr.function, len(expr.args)))
        occupancy = self.occupancy.get(automaton.name)
        return CodegenFacts(
            clean=self.clean,
            arity_safe=self.arity_safe & named,
            occupancy=(
                () if occupancy is None else ((automaton.name, occupancy),)
            ),
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, CodegenFacts)
            and self.clean == other.clean
            and self.arity_safe == other.arity_safe
            and self.occupancy == other.occupancy
        )

    def __hash__(self) -> int:
        return hash(
            (
                self.clean,
                self.arity_safe,
                frozenset(self.occupancy.items()),
            )
        )

    def __repr__(self) -> str:  # pragma: no cover - repr convenience
        return (
            f"<CodegenFacts clean={self.clean} "
            f"arity_safe={len(self.arity_safe)} "
            f"occupancy={len(self.occupancy)}>"
        )


CodegenFacts.NONE = CodegenFacts()


class GenerationFallback:
    """Why a plan could not be specialized (stored in the step cache so
    the decision is made once per key, not per event).

    ``step`` is a ``None`` class attribute so cache consumers
    discriminate with one attribute load, no isinstance.
    """

    __slots__ = ("reason",)

    step = None

    def __init__(self, reason: str) -> None:
        self.reason = reason

    def __repr__(self) -> str:  # pragma: no cover - repr convenience
        return f"<GenerationFallback {self.reason!r}>"


class GeneratedSource:
    """The outcome of source generation for one plan."""

    __slots__ = (
        "source",
        "fallback_reason",
        "elided_guards",
        "elided_transitions",
        "namespace",
    )

    def __init__(
        self,
        source: str = "",
        fallback_reason: Optional[str] = None,
        elided_guards: int = 0,
        elided_transitions: int = 0,
        namespace: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.source = source
        self.fallback_reason = fallback_reason
        self.elided_guards = elided_guards
        self.elided_transitions = elided_transitions
        self.namespace = namespace


class CompiledStep:
    """An ``exec``-compiled plan: the fused per-event function plus the
    generation accounting.  ``code_cached`` says whether the source's
    code object came from :data:`_CODE_CACHE`.  The source text itself is
    not kept: :data:`_CODE_CACHE` holds one copy per distinct source, and
    ``generate_source`` reproduces it byte for byte."""

    __slots__ = (
        "step",
        "elided_guards",
        "elided_transitions",
        "code_cached",
    )

    def __init__(
        self,
        step,
        elided_guards: int,
        elided_transitions: int,
        code_cached: bool = False,
    ) -> None:
        self.step = step
        self.elided_guards = elided_guards
        self.elided_transitions = elided_transitions
        self.code_cached = code_cached


# ---------------------------------------------------------------------------
# Shared slow-path helpers (injected into every generated namespace)
# ---------------------------------------------------------------------------


def _instance_slow_step(cr, instance, matched_pairs, hub, event, clones):
    """The multi-match / clone-producing tail of the instance walk.

    Byte-for-byte the same algorithm as the general branch of
    ``tesla_update_state`` (split by new bindings, dedupe extensions,
    clone, re-step the clone through ``Automaton.enabled``), reusing the
    interpreter's ``_step`` so transition counting and site accounting
    stay identical.  Returns ``(any_progress, site_taken)`` for this
    instance.
    """
    progress = False
    site = False
    empty: List[Transition] = []
    extensions: List[Dict[str, Any]] = []
    for transition, new in matched_pairs:
        if new:
            if not any(_same_binding(new, seen) for seen in extensions):
                extensions.append(new)
        else:
            empty.append(transition)
    if empty:
        progress = True
        if _step(cr, instance, empty, hub, event):
            site = True
    for extension in extensions:
        merged = dict(instance.binding)
        merged.update(extension)
        if cr.pool.find(merged) is not None or any(
            c.same_binding(merged) for c in clones
        ):
            continue
        clone = instance.clone(extension)
        clone_matches = cr.automaton.enabled(
            clone.states, event, clone.binding
        )
        complete = [t for t, new in clone_matches if not new]
        if complete:
            progress = True
            if _step(cr, clone, complete, hub, event):
                site = True
        clones.append(clone)
    return progress, site


def _add_clones(cr, clones, hub) -> None:
    """Pool-add accumulated clones with the once-per-bound OVERFLOW."""
    for clone in clones:
        if not cr.pool.add(clone):
            if not cr.overflow_reported:
                cr.overflow_reported = True
                hub.emit(
                    Notification(
                        kind=NotificationKind.OVERFLOW,
                        automaton=cr.automaton.name,
                        instance_name=clone.name,
                    )
                )


def _site_error(cr, event, hub) -> None:
    """The assertion-site miss (always-on ERROR notification)."""
    violation = TemporalViolation(
        automaton=cr.automaton.name,
        reason=(
            "no automaton instance could accept the assertion site "
            "(the expected prior events never occurred with these values)"
        ),
        event=event,
        binding=tuple(sorted(event.scope.items())),
        sampling_rate=cr.sample_rate,
    )
    hub.emit(
        Notification(
            kind=NotificationKind.ERROR,
            automaton=cr.automaton.name,
            event=event,
            violation=violation,
        )
    )


def _strict_error(cr, event, hub) -> None:
    violation = TemporalViolation(
        automaton=cr.automaton.name,
        reason="strict automaton observed an event it cannot consume",
        event=event,
        sampling_rate=cr.sample_rate,
    )
    hub.emit(
        Notification(
            kind=NotificationKind.ERROR,
            automaton=cr.automaton.name,
            event=event,
            violation=violation,
        )
    )


# ---------------------------------------------------------------------------
# Source generation
# ---------------------------------------------------------------------------


class _Unsupported(Exception):
    """Raised internally when a plan cannot be specialized."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


class _Emitter:
    """Accumulates source lines and the exec namespace side by side, so a
    constant is *named* in the source and *bound* in the namespace in one
    step (values never appear in the text — the determinism contract)."""

    def __init__(self) -> None:
        self.lines: List[str] = []
        self.namespace: Dict[str, Any] = {}
        self._const_n = 0

    def emit(self, indent: int, text: str) -> None:
        self.lines.append("    " * indent + text)

    def const(self, value: Any, stem: str) -> str:
        name = f"_{stem}{self._const_n}"
        self._const_n += 1
        self.namespace[name] = value
        return name

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"


class _SymbolPlan:
    """Per-symbol generated fragments: the event-static prologue and the
    per-instance match block (both as line lists at abstract indent 0)."""

    __slots__ = ("match_var", "prologue", "instance_block")

    def __init__(self, match_var: str) -> None:
        self.match_var = match_var
        self.prologue: List[Tuple[int, str]] = []
        self.instance_block: List[Tuple[int, str]] = []


def _pattern_value_checks(
    em: _Emitter,
    pattern: Pattern,
    value_expr: str,
    static: List[str],
    variables: List[Tuple[str, str]],
    extract: List[Tuple[str, str]],
) -> None:
    """Decompose one pattern against one value expression.

    Appends the pattern's *event-static* predicate to ``static``, and for
    ``Var`` patterns records ``(name, local)`` in ``variables`` plus the
    guarded extraction assignment in ``extract``.
    """
    if isinstance(pattern, Any_):
        return
    if isinstance(pattern, Const):
        const = em.const(pattern.value, "K")
        static.append(f"{value_expr} == {const}")
        return
    if isinstance(pattern, Var):
        local = f"_x{len(variables)}"
        variables.append((pattern.name, local))
        extract.append((local, value_expr))
        return
    if isinstance(pattern, Flags):
        const = em.const(pattern.flags, "K")
        static.append(
            f"isinstance({value_expr}, int) "
            f"and ({value_expr} & {const}) == {const}"
        )
        return
    if isinstance(pattern, Bitmask):
        const = em.const(~pattern.mask, "K")
        static.append(
            f"isinstance({value_expr}, int) "
            f"and ({value_expr} & {const}) == 0"
        )
        return
    if isinstance(pattern, AddressOf):
        static.append(f"isinstance({value_expr}, _Ref)")
        _pattern_value_checks(
            em, pattern.inner, f"{value_expr}.value", static, variables, extract
        )
        return
    raise _Unsupported(f"unsupported-pattern:{type(pattern).__name__}")


def _compile_symbol(
    em: _Emitter,
    symbol_id: int,
    symbol,
    automaton: Automaton,
    facts: CodegenFacts,
) -> Tuple[_SymbolPlan, int]:
    """Generate the prologue + per-instance block for one event symbol.

    Returns the fragments and the number of arity guards elided.
    """
    expr = symbol.expr
    plan = _SymbolPlan(f"_m{symbol_id}")
    elided_guards = 0

    if isinstance(expr, AssertionSite):
        # Site symbols constrain only the scope variables the site
        # supplies; membership and extraction are event-static.
        has: List[Tuple[str, str, str]] = []  # (name, has-local, val-local)
        for k, name in enumerate(symbol.site_variables):
            n_const = em.const(name, "N")
            h = f"_h{symbol_id}_{k}"
            x = f"_sv{symbol_id}_{k}"
            plan.prologue.append((0, f"{h} = {n_const} in _scope"))
            plan.prologue.append((0, f"{x} = _scope.get({n_const})"))
            has.append((n_const, h, x))
        m = plan.match_var
        if not has:
            plan.instance_block.append((0, f"{m} = _E"))
            return plan, elided_guards
        plan.instance_block.append((0, f"{m} = _E"))
        plan.instance_block.append((0, "_nb = None"))
        for n_const, h, x in has:
            plan.instance_block.append((0, f"if {h}:"))
            plan.instance_block.append(
                (1, f"_b = _bind.get({n_const}, _UB)")
            )
            plan.instance_block.append((1, "if _b is _UB:"))
            plan.instance_block.append((2, "if _nb is None:"))
            plan.instance_block.append((3, f"_nb = {{{n_const}: {x}}}"))
            plan.instance_block.append((2, "else:"))
            plan.instance_block.append((3, f"_nb[{n_const}] = {x}"))
            plan.instance_block.append(
                (1, f"elif not (_b is {x} or _b == {x}):")
            )
            plan.instance_block.append((2, f"{m} = _NO"))
        plan.instance_block.append(
            (0, f"if {m} is not _NO and _nb is not None:")
        )
        plan.instance_block.append((1, f"{m} = _nb"))
        return plan, elided_guards

    static: List[str] = []
    variables: List[Tuple[str, str]] = []
    extract: List[Tuple[str, str]] = []

    if isinstance(expr, FunctionCall):
        if expr.args is not None:
            arity = len(expr.args)
            if facts.clean and (expr.function, arity) in facts.arity_safe:
                elided_guards += 1
            else:
                static.append(f"len(_args) == {arity}")
            for k, pattern in enumerate(expr.args):
                _pattern_value_checks(
                    em, pattern, f"_args[{k}]", static, variables, extract
                )
    elif isinstance(expr, FunctionReturn):
        if expr.args is not None:
            arity = len(expr.args)
            if facts.clean and (expr.function, arity) in facts.arity_safe:
                elided_guards += 1
            else:
                static.append(f"len(_args) == {arity}")
            for k, pattern in enumerate(expr.args):
                _pattern_value_checks(
                    em, pattern, f"_args[{k}]", static, variables, extract
                )
        if expr.retval is not None:
            _pattern_value_checks(
                em, expr.retval, "_ret", static, variables, extract
            )
    elif isinstance(expr, FieldAssign):
        if expr.op is not None:
            op_const = em.const(expr.op, "K")
            static.append(f"_op is {op_const}")
        if expr.target is not None:
            _pattern_value_checks(
                em, expr.target, "_target", static, variables, extract
            )
        if expr.value is not None:
            _pattern_value_checks(
                em, expr.value, "_ret", static, variables, extract
            )
    else:
        raise _Unsupported(f"unsupported-event:{type(expr).__name__}")

    ok = f"_ok{symbol_id}"
    m = plan.match_var

    # Deduplicate repeated variables: the first occurrence binds, later
    # occurrences must agree with it — checked once per event against the
    # extracted values (``match_all``'s scratch-consistency rule).
    first_local: Dict[str, str] = {}
    consistency: List[str] = []
    deduped: List[Tuple[str, str]] = []
    for name, local in variables:
        seen = first_local.get(name)
        if seen is None:
            first_local[name] = local
            deduped.append((name, local))
        else:
            consistency.append(f"({seen} is {local} or {seen} == {local})")

    if not static and not extract:
        # No constraints at all (or args=None): every event of this key
        # matches, learning nothing.
        plan.instance_block.append((0, f"{m} = _E"))
        return plan, elided_guards

    if static:
        plan.prologue.append((0, f"{ok} = " + " and ".join(static)))
    else:
        plan.prologue.append((0, f"{ok} = True"))
    if extract:
        plan.prologue.append((0, f"if {ok}:"))
        for local, value_expr in extract:
            plan.prologue.append((1, f"{local} = {value_expr}"))
        for check in consistency:
            plan.prologue.append((1, f"if not {check}:"))
            plan.prologue.append((2, f"{ok} = False"))

    if not deduped:
        plan.instance_block.append((0, f"{m} = _E if {ok} else _NO"))
        return plan, elided_guards

    plan.instance_block.append((0, f"if {ok}:"))
    plan.instance_block.append((1, f"{m} = _E"))
    plan.instance_block.append((1, "_nb = None"))
    for name, local in deduped:
        n_const = em.const(name, "N")
        plan.instance_block.append((1, f"_b = _bind.get({n_const}, _UB)"))
        plan.instance_block.append((1, "if _b is _UB:"))
        plan.instance_block.append((2, "if _nb is None:"))
        plan.instance_block.append((3, f"_nb = {{{n_const}: {local}}}"))
        plan.instance_block.append((2, "else:"))
        plan.instance_block.append((3, f"_nb[{n_const}] = {local}"))
        plan.instance_block.append(
            (1, f"elif not (_b is {local} or _b == {local}):")
        )
        plan.instance_block.append((2, f"{m} = _NO"))
    plan.instance_block.append((1, f"if {m} is not _NO and _nb is not None:"))
    plan.instance_block.append((2, f"{m} = _nb"))
    plan.instance_block.append((0, "else:"))
    plan.instance_block.append((1, f"{m} = _NO"))
    return plan, elided_guards


def _occupiable_states(automaton: Automaton) -> FrozenSet[int]:
    """States an instance can ever occupy: the forward closure of the
    entry states over EVENT/SITE transitions.

    Under the runtime's move-or-stay stepping a state is only ever
    *added* when some EVENT/SITE transition targets it from an occupied
    state, so transitions whose source lies outside this closure can
    never fire — eliding them from generated code is verdict-preserving.
    (TESLA002's co-reachability is deliberately *not* used here: a
    transition that cannot reach accept can still fire and change the
    verdict under move-or-stay semantics.)
    """
    seen = set(automaton.entry_states)
    frontier = list(automaton.entry_states)
    while frontier:
        state = frontier.pop()
        for t in automaton.outgoing(state):
            if t.kind in (TransitionKind.EVENT, TransitionKind.SITE):
                if t.dst not in seen:
                    seen.add(t.dst)
                    frontier.append(t.dst)
    return frozenset(seen)


def _emit_event_body(
    em: _Emitter,
    base: int,
    automaton: Automaton,
    key: PlanKey,
    body: List[Tuple[int, Transition, int]],
    symbol_plans: Dict[int, _SymbolPlan],
    triple_consts: List[Tuple[str, str, str, str, bool]],
) -> None:
    """Emit the per-event evaluation (lazy materialise, prologue,
    instance walk, endgame) at indentation ``base``."""
    kind = key[0]
    is_site_key = kind is EventKind.ASSERTION_SITE
    strict = automaton.strict

    em.emit(base, "if cr.pending:")
    em.emit(base + 1, "cr.pending = False")
    em.emit(base + 1, "_mat(cr, hub, dict(cr.lazy_binding))")

    if not body:
        # Every body transition was elided (or the plan was empty): no
        # instance can ever step on this key; only the endgame remains.
        em.emit(base, "_prog = False")
        em.emit(base, "_site = False")
        _emit_endgame(em, base, is_site_key, strict)
        return

    # Event field loads + per-symbol static evaluation.
    if kind is EventKind.CALL:
        em.emit(base, "_args = event.args")
    elif kind is EventKind.RETURN:
        em.emit(base, "_args = event.args")
        em.emit(base, "_ret = event.retval")
    elif kind is EventKind.FIELD_ASSIGN:
        em.emit(base, "_op = event.op")
        em.emit(base, "_target = event.target")
        em.emit(base, "_ret = event.retval")
    else:
        em.emit(base, "_scope = event.scope")
    for sid in sorted(symbol_plans):
        for ind, text in symbol_plans[sid].prologue:
            em.emit(base + ind, text)

    em.emit(base, "_prog = False")
    em.emit(base, "_site = False")
    em.emit(base, "_clones = []")
    em.emit(base, "_tc = cr.transition_counts")
    em.emit(base, "for instance in _pool.live():")
    em.emit(base + 1, "_st = instance.states")
    em.emit(base + 1, "_bind = instance.binding")
    for sid in sorted(symbol_plans):
        for ind, text in symbol_plans[sid].instance_block:
            em.emit(base + 1 + ind, text)
    # Per-triple enabled flags and the match count.
    flags = []
    for i, (src_c, _, _, _, _) in enumerate(triple_consts):
        sid = body[i][2]
        m = symbol_plans[sid].match_var
        f = f"_f{i}"
        flags.append(f)
        em.emit(base + 1, f"{f} = {src_c} in _st and {m} is not _NO")
    em.emit(base + 1, f"_n = {' + '.join(flags)}")
    em.emit(base + 1, "if not _n:")
    em.emit(base + 2, "continue")
    em.emit(base + 1, "if _n == 1:")
    first = True
    for i, (src_c, tr_c, srct_c, dfs_c, took_site) in enumerate(triple_consts):
        sid = body[i][2]
        m = symbol_plans[sid].match_var
        dst_c = dfs_c  # strict: frozenset const; else dst tuple const
        kw = "if" if first else "elif"
        first = False
        em.emit(base + 2, f"{kw} _f{i}:")
        em.emit(base + 3, f"if {m} is _E:")
        # Inline single-transition step (update._step's len==1 branch,
        # hub.detailed known False here).
        em.emit(base + 4, "_prog = True")
        if strict:
            em.emit(base + 4, f"instance.states = {dst_c}")
        else:
            em.emit(
                base + 4,
                f"instance.states = _st.difference({srct_c})"
                f".union({dst_c})",
            )
        em.emit(base + 4, f"_tc[{tr_c}] = _tc.get({tr_c}, 0) + 1")
        if took_site:
            em.emit(base + 4, "instance.saw_site = True")
            em.emit(base + 4, "cr.sites_reached += 1")
            em.emit(base + 4, "_site = True")
        em.emit(base + 4, "continue")
        # Single match with a new binding: the clone's only completing
        # transition is this one (any other triple that could complete
        # for the clone would have matched this instance too, making
        # _n >= 2), so the interpreter's clone-and-re-step collapses to
        # a dedupe probe plus an inline step — no matcher re-evaluation.
        em.emit(base + 3, "_nb2 = dict(_bind)")
        em.emit(base + 3, f"_nb2.update({m})")
        em.emit(base + 3, "if _pool.find(_nb2) is None:")
        em.emit(base + 4, "for _c in _clones:")
        em.emit(base + 5, "if _c.same_binding(_nb2):")
        em.emit(base + 6, "break")
        em.emit(base + 4, "else:")
        em.emit(base + 5, f"_cl = instance.clone({m})")
        em.emit(base + 5, "_prog = True")
        if strict:
            em.emit(base + 5, f"_cl.states = {dst_c}")
        else:
            em.emit(
                base + 5,
                f"_cl.states = _st.difference({srct_c}).union({dst_c})",
            )
        em.emit(base + 5, f"_tc[{tr_c}] = _tc.get({tr_c}, 0) + 1")
        if took_site:
            em.emit(base + 5, "_cl.saw_site = True")
            em.emit(base + 5, "cr.sites_reached += 1")
            em.emit(base + 5, "_site = True")
        em.emit(base + 5, "_clones.append(_cl)")
        em.emit(base + 3, "continue")
    em.emit(base + 1, "else:")
    em.emit(base + 2, "_mt = []")
    for i, (_, tr_c, _, _, _) in enumerate(triple_consts):
        sid = body[i][2]
        m = symbol_plans[sid].match_var
        em.emit(base + 2, f"if _f{i}:")
        em.emit(base + 3, f"_mt.append(({tr_c}, {m}))")
    em.emit(
        base + 1,
        "_p, _s = _slow(cr, instance, _mt, hub, event, _clones)",
    )
    em.emit(base + 1, "if _p:")
    em.emit(base + 2, "_prog = True")
    em.emit(base + 1, "if _s:")
    em.emit(base + 2, "_site = True")
    em.emit(base, "if _clones:")
    em.emit(base + 1, "_addc(cr, _clones, hub)")

    _emit_endgame(em, base, is_site_key, strict)


def _emit_endgame(em: _Emitter, base: int, is_site_key: bool, strict: bool) -> None:
    """The interpreter's post-walk verdict chain with the is-site-event /
    strict / references() terms folded at gentime.

    ``references(event)`` is constant-true here: a generated step only
    ever runs for keys the automaton observes as body keys (or its own
    site), exactly the dispatch-index condition ``references`` tests.
    """
    if is_site_key:
        em.emit(base, "if not _site:")
        em.emit(base + 1, "if _already(cr, event):")
        em.emit(base + 2, "cr.sites_reached += 1")
        em.emit(base + 2, "_site = True")
        em.emit(base + 1, "elif _pool.overflows > cr.overflow_mark:")
        em.emit(base + 2, "cr.sites_reached += 1")
        em.emit(base + 2, "_site = True")
        em.emit(base, "if not _site:")
        em.emit(base + 1, "cr.errors += 1")
        em.emit(base + 1, "_serr(cr, event, hub)")
        if strict:
            em.emit(base, "elif not _prog:")
            em.emit(base + 1, "cr.errors += 1")
            em.emit(base + 1, "_xerr(cr, event, hub)")
    elif strict:
        em.emit(base, "if not _prog:")
        em.emit(base + 1, "cr.errors += 1")
        em.emit(base + 1, "_xerr(cr, event, hub)")


def generate_source(
    automaton: Automaton,
    plan: TransitionPlan,
    facts: Optional[CodegenFacts] = None,
) -> GeneratedSource:
    """Generate specialized step source for one plan.

    Returns a :class:`GeneratedSource`; an unspecializable plan yields
    one with ``fallback_reason`` set and no source.
    """
    if facts is None:
        facts = CodegenFacts.NONE
    key = plan.key
    em = _Emitter()
    try:
        if automaton.timed:
            # Timed automata (DESIGN §5.9) need per-event deadline expiry
            # and clock-guard filtering, which live in the interpreter's
            # tesla_update_state; a generated step would bypass both.
            # Refuse every plan of a timed automaton — the loud, counted
            # fallback keeps verdicts exact at naive-interpreter speed.
            raise _Unsupported("timed-automaton:clock-guards")
        occupiable = _occupiable_states(automaton)
        # tesla-prove widening: an occupancy fact intersects the forward
        # closure with the prove fixpoint's occupied-state union and —
        # being a proof in its own right — lifts the lint-clean gate.
        proved_occ = facts.occupancy.get(automaton.name)
        if proved_occ is not None:
            occupiable = occupiable & proved_occ
        may_elide = facts.clean or proved_occ is not None
        body: List[Tuple[int, Transition, int]] = []
        elided_transitions = 0
        for src, transition in plan.body:
            if may_elide and src not in occupiable:
                elided_transitions += 1
                continue
            body.append((src, transition, transition.symbol))

        symbol_plans: Dict[int, _SymbolPlan] = {}
        elided_guards = 0
        for _, _, sid in body:
            if sid not in symbol_plans:
                sym_plan, elided = _compile_symbol(
                    em, sid, automaton.symbols[sid], automaton, facts
                )
                symbol_plans[sid] = sym_plan
                elided_guards += elided
    except _Unsupported as exc:
        return GeneratedSource(fallback_reason=exc.reason)

    triple_consts: List[Tuple[str, str, str, str, bool]] = []
    for src, transition, _sid in body:
        src_c = em.const(src, "S")
        tr_c = em.const(transition, "T")
        srct_c = em.const((src,), "ST")
        if automaton.strict:
            dfs_c = em.const(frozenset((transition.dst,)), "D")
        else:
            dfs_c = em.const((transition.dst,), "D")
        triple_consts.append(
            (src_c, tr_c, srct_c, dfs_c,
             transition.kind is TransitionKind.SITE)
        )

    header = (
        f"# tesla-jit v{CODEGEN_VERSION} automaton={automaton.name} "
        f"key={key[0].name}:{key[1]} strict={automaton.strict} "
        f"triples={len(body)} elided_guards={elided_guards} "
        f"elided_transitions={elided_transitions}"
    )
    em.lines.append(header)
    em.emit(0, "def step(cr, event, hub):")
    em.emit(1, "if _fi._active is not None or hub.detailed:")
    em.emit(2, "return _interp(cr, event, hub)")
    em.emit(1, "if not cr.active:")
    em.emit(2, "return")
    em.emit(1, "_pool = cr.pool")
    _emit_event_body(em, 1, automaton, key, body, symbol_plans, triple_consts)

    namespace = dict(em.namespace)
    namespace.update(
        {
            "_fi": _fi,
            "_interp": tesla_update_state,
            "_mat": _materialise,
            "_slow": _instance_slow_step,
            "_addc": _add_clones,
            "_already": _upd_already_satisfied,
            "_serr": _site_error,
            "_xerr": _strict_error,
            "_E": EMPTY_BINDING,
            "_NO": _NO,
            "_UB": UNBOUND,
            "_Ref": Ref,
        }
    )
    return GeneratedSource(
        source=em.source(),
        elided_guards=elided_guards,
        elided_transitions=elided_transitions,
        namespace=namespace,
    )


#: Most code objects :data:`_CODE_CACHE` keeps; the least recently used
#: one is evicted past this.  fs-mac's 96 assertions generate ~200 steps.
CODE_CACHE_SIZE = 1024

#: Process-wide cache of compiled code objects, keyed by generated source
#: text.  Generation is byte-deterministic, and a code object holds only
#: the source's own literals — every runtime value reaches a step through
#: its per-class ``exec`` namespace — so one entry serves every runtime
#: that generates the same source and keeps none of them alive.
_CODE_CACHE: "OrderedDict[str, CodeType]" = OrderedDict()
_CODE_CACHE_LOCK = threading.Lock()


def _code_for(source: str, filename: str) -> Tuple[CodeType, bool]:
    """The code object for ``source`` and whether it was already cached.
    Compiling happens outside the lock; a racing duplicate is harmless."""
    with _CODE_CACHE_LOCK:
        code = _CODE_CACHE.get(source)
        if code is not None:
            _CODE_CACHE.move_to_end(source)
            return code, True
    code = compile(source, filename, "exec")
    with _CODE_CACHE_LOCK:
        _CODE_CACHE[source] = code
        while len(_CODE_CACHE) > CODE_CACHE_SIZE:
            _CODE_CACHE.popitem(last=False)
    return code, False


def code_cache_size() -> int:
    """How many code objects the process-wide cache holds right now."""
    return len(_CODE_CACHE)


def compile_plan_step(
    automaton: Automaton,
    plan: TransitionPlan,
    facts: Optional[CodegenFacts] = None,
):
    """Compile one plan to a :class:`CompiledStep`, or a
    :class:`GenerationFallback` naming why it could not be specialized."""
    generated = generate_source(automaton, plan, facts)
    if generated.fallback_reason is not None:
        return GenerationFallback(generated.fallback_reason)
    namespace = generated.namespace
    code, cached = _code_for(
        generated.source,
        f"<tesla-jit {automaton.name} {plan.key[0].name}:{plan.key[1]}>",
    )
    exec(code, namespace)
    return CompiledStep(
        step=namespace["step"],
        elided_guards=generated.elided_guards,
        elided_transitions=generated.elided_transitions,
        code_cached=cached,
    )


def dump_sources(
    automaton: Automaton, facts: Optional[CodegenFacts] = None
) -> List[Tuple[PlanKey, GeneratedSource]]:
    """Generated source for every body dispatch key of one automaton,
    in deterministic key order (the CLI's ``codegen --dump`` surface)."""
    keys = set()
    for t in automaton.transitions:
        if t.kind not in (TransitionKind.EVENT, TransitionKind.SITE):
            continue
        if t.symbol is None:
            continue
        kind, name = automaton.symbols[t.symbol].dispatch_key
        if kind is EventKind.ASSERTION_SITE:
            keys.add((kind, automaton.name))
        else:
            keys.add((kind, name))
    out: List[Tuple[PlanKey, GeneratedSource]] = []
    for key in sorted(keys, key=lambda k: (k[0].value, k[1])):
        plan = build_transition_plan(automaton, key)
        out.append((key, generate_source(automaton, plan, facts)))
    return out
