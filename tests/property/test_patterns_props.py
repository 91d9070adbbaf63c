"""Property-based tests for argument patterns."""

from hypothesis import given, strategies as st

from repro.core.patterns import (
    AddressOf,
    Any_,
    Bitmask,
    Const,
    Flags,
    Ref,
    Var,
    compile_static_check,
    match_all,
)

values = st.one_of(
    st.integers(), st.text(max_size=8), st.booleans(), st.none()
)
bits = st.integers(min_value=0, max_value=0xFFFF)


class TestFlagsAndBitmask:
    @given(flags=bits, value=bits)
    def test_flags_is_minimal_bitfield(self, flags, value):
        matched = Flags(flags).match(value, {}) is not None
        assert matched == ((value & flags) == flags)

    @given(mask=bits, value=bits)
    def test_bitmask_is_maximal_bitfield(self, mask, value):
        matched = Bitmask(mask).match(value, {}) is not None
        assert matched == ((value & ~mask) == 0)

    @given(value=bits)
    def test_flags_zero_matches_everything(self, value):
        assert Flags(0).match(value, {}) == {}

    @given(value=bits)
    def test_bitmask_all_ones_matches_everything(self, value):
        assert Bitmask(0xFFFF).match(value, {}) == {}

    @given(flags=bits)
    def test_flags_matches_itself(self, flags):
        assert Flags(flags).match(flags, {}) == {}


class TestVarBinding:
    @given(value=values)
    def test_unbound_always_binds(self, value):
        assert Var("x").match(value, {}) == {"x": value}

    @given(value=values)
    def test_bound_matches_same_value(self, value):
        assert Var("x").match(value, {"x": value}) == {}

    @given(a=st.integers(), b=st.integers())
    def test_bound_rejects_different_value(self, a, b):
        got = Var("x").match(b, {"x": a})
        assert (got == {}) == (a == b)


class TestMatchAll:
    @given(args=st.lists(values, min_size=0, max_size=5))
    def test_any_patterns_match_any_arity_exactly(self, args):
        patterns = tuple(Any_("t") for _ in args)
        assert match_all(patterns, tuple(args), {}) == {}
        # One pattern short: arity mismatch.
        if args:
            assert match_all(patterns[:-1], tuple(args), {}) is None

    @given(args=st.lists(st.integers(), min_size=1, max_size=5))
    def test_consts_match_only_themselves(self, args):
        patterns = tuple(Const(v) for v in args)
        assert match_all(patterns, tuple(args), {}) == {}
        shifted = tuple(v + 1 for v in args)
        assert match_all(patterns, shifted, {}) is None

    @given(args=st.lists(st.integers(), min_size=2, max_size=5))
    def test_repeated_var_requires_equal_values(self, args):
        patterns = tuple(Var("x") for _ in args)
        got = match_all(patterns, tuple(args), {})
        if len(set(args)) == 1:
            assert got == {"x": args[0]}
        else:
            assert got is None

    @given(args=st.lists(values, min_size=0, max_size=4))
    def test_match_never_mutates_binding(self, args):
        binding = {"pre": "existing"}
        patterns = tuple(Var(f"v{i}") for i in range(len(args)))
        match_all(patterns, tuple(args), binding)
        assert binding == {"pre": "existing"}


# -- compiled ≡ interpreted ---------------------------------------------------

simple_patterns = st.one_of(
    st.just(Any_("t")),
    values.map(Const),
    st.sampled_from(["x", "y"]).map(Var),
    bits.map(Flags),
    bits.map(Bitmask),
)
patterns = st.one_of(simple_patterns, simple_patterns.map(AddressOf))
match_values = st.one_of(values, values.map(Ref))


class TestCompiledEquivalence:
    """The translator's compiled static checks must be observationally
    identical to the interpreted ``match`` methods for every pattern and
    value."""

    @given(pattern=patterns, value=match_values)
    def test_compile_static_check_matches_static_semantics(
        self, pattern, value
    ):
        check = compile_static_check(pattern)
        if isinstance(pattern, (Var, Any_)):
            assert check is None  # no static constraint
        else:
            assert check(value) == (pattern.match(value, {}) is not None)
