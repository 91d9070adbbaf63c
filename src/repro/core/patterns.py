"""Argument and value patterns used in TESLA events.

The paper's grammar (figure 5) lets each event argument be:

* a concrete C value                      → :class:`Const`
* ``any(C type)`` — a wildcard            → :class:`Any_`
* ``flags(C flags)`` — minimal bitfield   → :class:`Flags`
* ``bitmask(C flags)`` — maximal bitfield → :class:`Bitmask`
* the C address-of operator (``&err``)    → :class:`AddressOf`

On top of these, TESLA assertions name *dynamic variables* from the
assertion's scope (``so``, ``vp`` …).  Those become :class:`Var` patterns;
matching a ``Var`` either checks an existing binding or *extends* the
binding, which is what triggers libtesla's clone operation (section 4.4.1).

Patterns are immutable and hashable so automata that use them can be
deduplicated and serialised.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from ..errors import AssertionParseError

#: The sentinel returned by :meth:`Pattern.match` when a value does not match.
NO_MATCH = None

#: An (im)mutable variable binding: variable name -> observed value.
Binding = Dict[str, Any]

#: Shared empty binding generated steps use for matches that learn
#: nothing.  Consumers treat match results as read-only (the runtime
#: copies before extending a binding), so one shared dict keeps the hot
#: path allocation-free.  Never mutate it.
EMPTY_BINDING: Binding = {}

#: Sentinel distinguishing "unbound" from "bound to None" in generated
#: variable lookups.
UNBOUND = object()


class Pattern:
    """Base class for all argument patterns."""

    def match(self, value: Any, binding: Binding) -> Optional[Binding]:
        """Match ``value`` under ``binding``.

        Returns ``None`` if the value cannot match, an empty dict if it
        matches without learning anything, or a dict of *new* variable
        bindings if matching binds previously-free variables.  The caller
        decides whether new bindings mean "clone an instance".
        """
        raise NotImplementedError

    @property
    def variables(self) -> Tuple[str, ...]:
        """Names of dynamic variables referenced by this pattern."""
        return ()

    def describe(self) -> str:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - repr convenience
        return f"<{type(self).__name__} {self.describe()}>"


@dataclass(frozen=True, repr=False)
class Any_(Pattern):
    """``ANY(type)`` — matches every value.

    ``type_name`` is retained for documentation and manifest output only;
    the reproduction does not type-check Python values against C type names.
    """

    type_name: str = "any"

    def match(self, value: Any, binding: Binding) -> Optional[Binding]:
        return {}

    def describe(self) -> str:
        return f"ANY({self.type_name})"


@dataclass(frozen=True, repr=False)
class Const(Pattern):
    """A concrete value that must compare equal."""

    value: Any

    def match(self, value: Any, binding: Binding) -> Optional[Binding]:
        if value == self.value:
            return {}
        return NO_MATCH

    def describe(self) -> str:
        return repr(self.value)


@dataclass(frozen=True, repr=False)
class Var(Pattern):
    """A dynamic variable from the assertion's scope.

    The first event that supplies a value for the variable extends the
    binding; later events must agree with it.
    """

    name: str

    def __post_init__(self) -> None:
        if not self.name or not self.name.isidentifier():
            raise AssertionParseError(f"invalid variable name {self.name!r}")

    def match(self, value: Any, binding: Binding) -> Optional[Binding]:
        if self.name in binding:
            bound = binding[self.name]
            # Identity first: kernel objects (sockets, vnodes, creds) are
            # matched by identity in the paper; value equality covers ints.
            if bound is value or bound == value:
                return {}
            return NO_MATCH
        return {self.name: value}

    @property
    def variables(self) -> Tuple[str, ...]:
        return (self.name,)

    def describe(self) -> str:
        return self.name


@dataclass(frozen=True, repr=False)
class Flags(Pattern):
    """``flags(F)`` — a *minimal* bitfield: every bit of ``F`` must be set.

    Used in the paper for e.g. ``vn_rdwr(vp ... flags(IO_NOMACCHECK) ...)``:
    the call matches when the observed flag word includes IO_NOMACCHECK,
    whatever else is set.
    """

    flags: int

    def match(self, value: Any, binding: Binding) -> Optional[Binding]:
        if isinstance(value, int) and (value & self.flags) == self.flags:
            return {}
        return NO_MATCH

    def describe(self) -> str:
        return f"flags({self.flags:#x})"


@dataclass(frozen=True, repr=False)
class Bitmask(Pattern):
    """``bitmask(M)`` — a *maximal* bitfield: no bit outside ``M`` may be set."""

    mask: int

    def match(self, value: Any, binding: Binding) -> Optional[Binding]:
        if isinstance(value, int) and (value & ~self.mask) == 0:
            return {}
        return NO_MATCH

    def describe(self) -> str:
        return f"bitmask({self.mask:#x})"


class Ref:
    """A mutable cell standing in for a C out-parameter (``int *err``).

    The simulated substrates pass :class:`Ref` objects where the C original
    would pass a pointer; :class:`AddressOf` patterns match against the
    cell's contents *at event time* (i.e. after the callee has filled it in,
    for return events).
    """

    __slots__ = ("value",)

    def __init__(self, value: Any = None) -> None:
        self.value = value

    def __repr__(self) -> str:
        return f"Ref({self.value!r})"


@dataclass(frozen=True, repr=False)
class AddressOf(Pattern):
    """Match the value *pointed to* by a :class:`Ref` argument.

    This is the paper's C address-of operator support, "particularly useful
    for APIs passing values out by pointer, using return values for error
    codes".
    """

    inner: Pattern

    def match(self, value: Any, binding: Binding) -> Optional[Binding]:
        if not isinstance(value, Ref):
            return NO_MATCH
        return self.inner.match(value.value, binding)

    @property
    def variables(self) -> Tuple[str, ...]:
        return self.inner.variables

    def describe(self) -> str:
        return f"&{self.inner.describe()}"


def coerce_pattern(spec: Any) -> Pattern:
    """Turn a user-supplied argument spec into a :class:`Pattern`.

    The DSL accepts plain Python values (→ :class:`Const`), strings naming
    scope variables via the ``var()`` helper, and pattern instances as-is.
    Plain strings are treated as constants — use :func:`var` for variables —
    which keeps the DSL explicit.
    """
    if isinstance(spec, Pattern):
        return spec
    return Const(spec)


def match_all(
    patterns: Tuple[Pattern, ...], values: Tuple[Any, ...], binding: Binding
) -> Optional[Binding]:
    """Match a tuple of patterns against a tuple of values under ``binding``.

    Returns the combined *new* bindings, or ``None`` on any mismatch.  A
    variable appearing twice in one event must match itself consistently.
    """
    if len(patterns) != len(values):
        return NO_MATCH
    new: Binding = {}
    for pattern, value in zip(patterns, values):
        scratch = dict(binding)
        scratch.update(new)
        got = pattern.match(value, scratch)
        if got is NO_MATCH:
            return NO_MATCH
        for name, bound in got.items():
            if name in new and not (new[name] is bound or new[name] == bound):
                return NO_MATCH
            new[name] = bound
    return new


def compile_static_check(pattern: Pattern) -> Optional[Callable[[Any], bool]]:
    """The statically checkable part of a pattern, as a predicate.

    Returns ``None`` when the pattern imposes no static constraint
    (``Var`` and ``Any_`` — their values are the dynamic mapping handled
    by ``tesla_update_state``).  Mirrors the translator's
    ``_static_pattern_ok`` semantics: an ``AddressOf`` still constrains
    the value to be a :class:`Ref` even when its inner pattern is dynamic.
    """
    if isinstance(pattern, (Var, Any_)):
        return None

    def check(value: Any, _match=pattern.match) -> bool:
        return _match(value, EMPTY_BINDING) is not NO_MATCH

    return check
