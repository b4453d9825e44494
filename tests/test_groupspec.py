"""Expression language: parsing, validation, series evaluation."""
import sys
import tracemalloc
from collections import Counter
from dataclasses import make_dataclass
from functools import cache
from itertools import zip_longest
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zassenhaus.groupspec
from zassenhaus import series
from zassenhaus.groupspec import (
    ArityError,
    Cyclic,
    Demushkin,
    DirectProduct,
    Free,
    FreeProduct,
    ParseError,
    PrimeMismatch,
    RankOutOfRange,
    SuperPyth,
    ValidationError,
    Zp,
    _fold,
    closed_form,
    hp_series,
    parse_group_spec,
    to_text,
    validate,
)
from zassenhaus.series import (
    MAX_SERIES_BITS,
    RationalFunction,
    SeriesTooLarge,
    TruncSeries,
    expand_rational,
    format_poly,
)
from zassenhaus.verify import builtin_specs


def _poly_mul(a, b):
    """The product of two integer coefficient sequences, low degree first."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _one_minus_t_to(d):
    """(1 - t)^d, by d multiplications."""
    out = [1]
    for _ in range(d):
        out = _poly_mul(out, [1, -1])
    return out


def nest(levels):
    """free(1) * (free(1) x (free(1) * (...))), `levels` alternations deep."""
    text = "free(1)"
    for i in range(levels):
        text = f"free(1) {'*x'[i % 2]} ({text})"
    return text


def nest_by_hand(levels):
    """The tree nest(levels) parses to, built without the parser."""
    spec = Free(1)
    for i in range(levels):
        spec = (FreeProduct, DirectProduct)[i % 2](Free(1), spec)
    return spec


class TestParser:
    def test_leaves(self):
        assert parse_group_spec("free(2)") == Free(2)
        assert parse_group_spec(" cyclic( 3 ) ") == Cyclic(3)
        assert parse_group_spec("demushkin(4)") == Demushkin(4)
        assert parse_group_spec("superpyth(0)") == SuperPyth(0)
        assert parse_group_spec("zp(7)") == Zp(7)

    def test_free_product_left_assoc(self):
        got = parse_group_spec("cyclic(2) * cyclic(2) * cyclic(2)")
        assert got == FreeProduct(FreeProduct(Cyclic(2), Cyclic(2)), Cyclic(2))

    def test_direct_product_binds_tighter(self):
        got = parse_group_spec("free(1) * free(2) x zp(1)")
        assert got == FreeProduct(Free(1), DirectProduct(Free(2), Zp(1)))

    def test_parens_override(self):
        got = parse_group_spec("(free(1) * free(2)) x zp(1)")
        assert got == DirectProduct(FreeProduct(Free(1), Free(2)), Zp(1))

    def test_nested_products_flatten(self):
        a, b, c = Free(1), Cyclic(2), Zp(1)
        assert FreeProduct(a, FreeProduct(b, c)) == FreeProduct(a, b, c)
        assert FreeProduct(a, FreeProduct(b, c)).factors == (a, b, c)
        assert DirectProduct(DirectProduct(a, b), c) == DirectProduct(a, b, c)
        assert FreeProduct(a, DirectProduct(b, c)).factors == (a, DirectProduct(b, c))

    def test_deep_alternating_nesting(self):
        spec = parse_group_spec(nest(300))
        rf = closed_form(spec, 2)
        assert hp_series(spec, 2, 8) == expand_rational(rf, 8)

    def test_alternation_limit(self):
        # no limit: the parser, to_text and == take no stack per level
        spec = parse_group_spec(nest(2000))
        assert spec == nest_by_hand(2000)
        assert parse_group_spec(to_text(spec)) == spec

    def test_direct_product_without_spaces(self):
        spec = parse_group_spec("free(1)xcyclic(2)")
        assert spec == parse_group_spec("free(1) x cyclic(2)")
        assert parse_group_spec(to_text(spec)) == spec
        got = parse_group_spec("(free(1)*zp(1))xdemushkin(2)xfree(2)")
        assert got == DirectProduct(FreeProduct(Free(1), Zp(1)), Demushkin(2), Free(2))

    def test_redundant_parens_not_counted(self):
        depth = 1000
        assert parse_group_spec("(" * depth + "free(1)" + ")" * depth) == Free(1)
        text = "(" * depth + "free(1) * (zp(1) x cyclic(2))" + ")" * depth
        assert isinstance(parse_group_spec(text), FreeProduct)

    def test_unknown_constructor(self):
        with pytest.raises(ParseError) as exc:
            parse_group_spec("braid(3)")
        assert exc.value.position == 0

    def test_missing_close_paren(self):
        with pytest.raises(ParseError):
            parse_group_spec("free(2")

    def test_arity_error(self):
        with pytest.raises(ArityError):
            parse_group_spec("free(2, 3)")
        with pytest.raises(ArityError):
            parse_group_spec("free()")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_group_spec("free(2) free(3)")

    def test_stray_character_position(self):
        with pytest.raises(ParseError) as exc:
            parse_group_spec("free(2) + free(3)")
        assert exc.value.position == 8

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_group_spec("   ")

    @pytest.mark.parametrize(
        "text, position",
        [("free(\u00b2)", 5), ("free(\u0663)", 5), ("free(1\u00b2)", 6), ("cyclic(\uff12)", 7)],
        ids=["superscript-two", "arabic-indic-three", "digit-then-superscript", "fullwidth-two"],
    )
    def test_only_ascii_digits_are_numbers(self, text, position):
        # str.isdigit accepts these; int() reads some and rejects others
        with pytest.raises(ParseError, match="unexpected character") as exc:
            parse_group_spec(text)
        assert exc.value.position == position


class TestRoundTrip:
    @pytest.mark.parametrize(
        "text",
        [
            "free(2)",
            "cyclic(2) * cyclic(2) * cyclic(2)",
            "cyclic(3) * free(2)",
            "free(1) * free(2) x zp(1)",
            "(cyclic(2) * free(1)) x zp(1)",
            "demushkin(3) * demushkin(4) * free(1)",
            "superpyth(2) x free(1)",
            "free(2) x free(2)",
        ],
    )
    def test_to_text_reparses(self, text):
        spec = parse_group_spec(text)
        assert parse_group_spec(to_text(spec)) == spec

    def test_precedence_needs_no_parens(self):
        spec = parse_group_spec("cyclic(2) * free(1) x zp(1)")
        assert to_text(spec) == "cyclic(2) * free(1) x zp(1)"

    def test_parens_kept_when_needed(self):
        spec = parse_group_spec("(cyclic(2) * free(1)) x zp(1)")
        assert to_text(spec) == "(cyclic(2) * free(1)) x zp(1)"

    def test_redundant_parens_dropped(self):
        spec = parse_group_spec("free(1) * (free(2) * zp(1))")
        assert to_text(spec) == "free(1) * free(2) * zp(1)"

    def test_deep_roundtrip_equality(self):
        spec = parse_group_spec(nest(450))
        again = parse_group_spec(to_text(spec))
        assert again == spec
        assert hash(again) == hash(spec)
        assert again != parse_group_spec(nest(449))

    def test_equality_compares_node_types(self):
        a, b, c = Free(1), Cyclic(2), Zp(1)
        assert FreeProduct(a, b) != DirectProduct(a, b)
        assert FreeProduct(a, b) != FreeProduct(b, a)
        assert FreeProduct(a, DirectProduct(b, c)) != FreeProduct(DirectProduct(a, b), c)
        assert FreeProduct(a, b) != a
        assert {FreeProduct(a, DirectProduct(b, c)): 1}[FreeProduct(a, DirectProduct(b, c))] == 1


class TestValidate:
    def test_cyclic_must_match_prime(self):
        with pytest.raises(PrimeMismatch):
            validate(Cyclic(3), 2)
        validate(Cyclic(3), 3)

    def test_superpyth_needs_p2(self):
        with pytest.raises(PrimeMismatch):
            validate(SuperPyth(2), 3)
        validate(SuperPyth(2), 2)

    def test_demushkin_rank_bound(self):
        with pytest.raises(RankOutOfRange):
            validate(Demushkin(1), 2)
        validate(Demushkin(2), 2)

    def test_negative_rank(self):
        with pytest.raises(RankOutOfRange):
            validate(Free(-1), 2)
        validate(Free(0), 2)
        validate(Zp(0), 5)

    def test_nonprime_p(self):
        with pytest.raises(ValidationError):
            validate(Free(2), 4)

    def test_products_validated_recursively(self):
        with pytest.raises(PrimeMismatch):
            validate(FreeProduct(Free(1), Cyclic(5)), 2)
        with pytest.raises(RankOutOfRange):
            validate(DirectProduct(Demushkin(0), Free(1)), 2)


class TestHpSeries:
    def test_free(self):
        assert hp_series(Free(2), 2, 4) == (1, 2, 4, 8, 16)
        assert hp_series(Free(0), 3, 4) == (1, 0, 0, 0, 0)

    def test_cyclic(self):
        assert hp_series(Cyclic(2), 2, 4) == (1, 1, 0, 0, 0)
        assert hp_series(Cyclic(5), 5, 6) == (1, 1, 1, 1, 1, 0, 0)

    def test_demushkin(self):
        # 1/(1 - 3t + t^2): alternate Fibonacci numbers
        assert hp_series(Demushkin(3), 2, 4) == (1, 3, 8, 21, 55)

    def test_zp(self):
        assert hp_series(Zp(3), 5, 4) == (1, 3, 6, 10, 15)

    def test_two_involutions(self):
        s = hp_series(parse_group_spec("cyclic(2) * cyclic(2)"), 2, 4)
        assert s == (1, 2, 2, 2, 2)

    def test_three_cyclic3(self):
        s = hp_series(parse_group_spec("cyclic(3) * cyclic(3) * cyclic(3)"), 3, 4)
        assert s == (1, 3, 9, 24, 66)
        rf = RationalFunction([1, 1, 1], [1, -2, -2])
        assert expand_rational(rf, 4) == s

    def test_cyclic_free_mix(self):
        s = hp_series(parse_group_spec("cyclic(2) * free(2)"), 2, 4)
        assert s == (1, 3, 8, 22, 60)

    def test_superpyth_zero(self):
        s = hp_series(SuperPyth(0), 2, 6)
        assert s == (1, 1, 0, 1, 1, 1, 2)

    @pytest.mark.parametrize("d", range(5))
    def test_superpyth_matches_dense_products(self, d):
        # the leaf divides by 1 - t^k; multiplying by sum_j t^(jk) is the same
        order = 120
        s = TruncSeries(order, expand_rational(RationalFunction([1, 1], _one_minus_t_to(d)), order))
        for k in range(3, order + 1, 2):
            s = s * TruncSeries(order, [1 if j % k == 0 else 0 for j in range(order + 1)])
        assert hp_series(SuperPyth(d), 2, order) == s.coeffs

    def test_direct_product_multiplies(self):
        lhs = hp_series(parse_group_spec("free(2) x free(2)"), 2, 6)
        sq = TruncSeries(6, hp_series(Free(2), 2, 6))
        assert lhs == (sq * sq).coeffs

    def test_series_validates(self):
        with pytest.raises(PrimeMismatch):
            hp_series(Cyclic(2), 3, 4)

    @pytest.mark.parametrize("d", [0, 1, 5, 40])
    @pytest.mark.parametrize("order", [0, 3, 60])
    def test_zp_leaf_is_binomial(self, d, order):
        # 1 / (1 - t)^d has coefficients C(d + k - 1, k), and its exact
        # denominator (-1)^k C(d, k)
        want = (1, *(comb(d + k - 1, k) for k in range(1, order + 1)))
        assert hp_series(Zp(d), 2, order) == want
        assert closed_form(Zp(d), 2).den == tuple((-1) ** k * comb(d, k) for k in range(d + 1))

    @pytest.mark.parametrize("spec", [Free(2), Cyclic(2), Zp(10**8)])
    def test_order_past_the_budget_refused_before_the_fold(self, spec, monkeypatch):
        def unreachable(*args):
            raise AssertionError("a leaf was built")

        monkeypatch.setattr(zassenhaus.groupspec, "_leaf_pair", unreachable)
        with pytest.raises(SeriesTooLarge, match="up to degree 100000000 "):
            hp_series(spec, 2, 10**8)

    @pytest.mark.parametrize("spec, p, order", [
        # the cut leaves build C(10^8, k) for every k up to the order
        (Zp(10**8), 2, 10**6),
        (Zp(10**8), 2, 200_000),
        (SuperPyth(10**8), 2, 10**6),
        (SuperPyth(10**8), 2, 200_000),
        # each leaf is within the budget, their product is not
        (DirectProduct(Zp(20000), Zp(20000)), 2, 40_000),
        # within the bit budget, but about 10^10 multiply-adds
        (DirectProduct(Cyclic(100003), Cyclic(100003)), 100003, 200_004),
        (DirectProduct(Cyclic(1000003), Cyclic(1000003)), 1000003, 100_000),
    ])
    def test_oversized_leaf_or_product_refused(self, spec, p, order):
        with pytest.raises(SeriesTooLarge, match=f"up to degree {order} "):
            hp_series(spec, p, order)

    def test_large_rank_at_a_small_order(self):
        # only the terms up to the order are built, not the rank's
        want = (1, *(comb(10**8 + k - 1, k) for k in range(1, 11)))
        assert hp_series(Zp(10**8), 2, 10) == want

    def test_growing_coefficients_refused_while_dividing(self):
        # a_k = 2^k: a_0..a_46340 take more than 2^30 bits
        with pytest.raises(SeriesTooLarge, match=r"a_0\.\.a_46340 "):
            hp_series(Free(2), 2, 50_000)


class TestClosedForm:
    def test_free(self):
        rf = closed_form(Free(2), 2)
        assert format_poly(rf.num) == "1"
        assert format_poly(rf.den) == "1 - 2t"

    def test_two_involutions(self):
        rf = closed_form(parse_group_spec("cyclic(2) * cyclic(2)"), 2)
        assert (format_poly(rf.num), format_poly(rf.den)) == ("1 + t", "1 - t")

    def test_cyclic5_free2(self):
        rf = closed_form(parse_group_spec("cyclic(5) * free(2)"), 5)
        assert format_poly(rf.num) == "1 + t + t^2 + t^3 + t^4"
        assert format_poly(rf.den) == "1 - 2t - 2t^2 - 2t^3 - 2t^4 - 2t^5"

    def test_demushkin_chain(self):
        spec = parse_group_spec("demushkin(3) * demushkin(4) * free(1)")
        rf = closed_form(spec, 3)
        assert format_poly(rf.num) == "1"
        assert format_poly(rf.den) == "1 - 8t + 2t^2"

    @pytest.mark.parametrize("text, p", [
        ("cyclic(1000000007)", 1000000007),
        ("zp(1000000000)", 2),
        # each leaf's degree is within the budget, their product's is not
        ("zp(8388608) x zp(8388608)", 2),
        ("zp(8388608) * free(1) x zp(8388608)", 2),
        # the degree is within the budget, but (1 - t)^d holds C(d, k) of up
        # to d bits: about 0.72 d^2 bits in all, 2.9e10 at d = 200000
        ("zp(200000)", 2),
        ("zp(20000) x zp(20000)", 2),
        # within the bit budget, but about 10^10 multiply-adds
        ("cyclic(100003) x cyclic(100003)", 100003),
    ])
    def test_past_the_budget_refused_within_the_budget(self, text, p):
        # each leaf or product is refused before it allocates, so the
        # refusal itself stays under the budget it enforces
        spec = parse_group_spec(text)
        tracemalloc.start()
        try:
            with pytest.raises(SeriesTooLarge):
                closed_form(spec, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < MAX_SERIES_BITS // 8

    def test_degree_bound_admits_a_large_cyclic_leaf(self):
        rf = closed_form(Cyclic(1000003), 1000003)
        assert rf.num == (1,) * 1000003 and rf.den == (1,)

    def test_superpyth_has_product_form_only(self):
        form = closed_form(SuperPyth(2), 2)
        assert isinstance(form, str)
        assert "(1 + t) / (1 - t)^2" in form

    def test_every_rational_recipe_matches_series(self):
        for text in [
            "free(3)",
            "zp(2) x cyclic(2)",
            "cyclic(2) * free(2)",
            "(cyclic(2) * free(1)) x zp(1)",
        ]:
            spec = parse_group_spec(text)
            rf = closed_form(spec, 2)
            assert expand_rational(rf, 12) == hp_series(spec, 2, 12)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_catalog_expands_to_int_series(self, p):
        for text, spec in builtin_specs(p):
            form = closed_form(spec, p)
            if isinstance(form, str):
                continue
            got = expand_rational(form, 24)
            assert type(got) is tuple and all(type(a) is int for a in got), text
            assert got == hp_series(spec, p, 24), text


def _count_series_arithmetic(monkeypatch) -> list:
    """Record every TruncSeries inverse, multiply and power from now on."""
    calls = []
    for name in ("inverse", "__mul__", "__rmul__", "__pow__"):
        method = getattr(TruncSeries, name)

        def counted(*args, _name=name, _method=method):
            calls.append(_name)
            return _method(*args)

        monkeypatch.setattr(TruncSeries, name, counted)
    return calls


class TestBottomUpWalk:
    def test_free_product_chain_takes_no_series_inverse(self, monkeypatch):
        calls = _count_series_arithmetic(monkeypatch)
        s = hp_series(FreeProduct(*[Cyclic(2)] * 1200), 2, 8)
        assert calls == []
        # P = (1 + t) / (1 - 1199t)
        assert s[:3] == (1, 1200, 1200 * 1199)

    def test_5000_alternations_built_by_hand(self):
        assert sys.getrecursionlimit() <= 1000
        spec = nest_by_hand(5000)
        twin = nest_by_hand(5000)
        assert spec == twin and hash(spec) == hash(twin)
        assert spec != nest_by_hand(4999)
        names = ("FreeProduct", "DirectProduct")
        opened = "".join(
            f"{names[i % 2]}(factors=(Free(rank=1), " for i in reversed(range(5000))
        )
        assert repr(spec) == opened + "Free(rank=1)" + "))" * 5000
        again = parse_group_spec(to_text(spec))
        assert again == spec and hash(again) == hash(spec)
        validate(spec, 2)
        # every free(1) adds one generator through either product
        assert hp_series(spec, 2, 8)[1] == 5001

    def test_deep_fold_takes_no_series_inverse(self, monkeypatch):
        calls = _count_series_arithmetic(monkeypatch)
        assert hp_series(nest_by_hand(5000), 2, 8)[1] == 5001
        # the fold works on integer pairs and divides once, at the end
        assert calls == []

    def test_closed_form_600_alternations(self):
        spec = nest_by_hand(600)
        assert expand_rational(closed_form(spec, 2), 8) == hp_series(spec, 2, 8)

    def test_non_spec_factor_is_type_error(self):
        bad = FreeProduct(Free(1), DirectProduct(Zp(1), "free(2)"))
        for walk in (to_text, repr, hash, lambda s: validate(s, 2), lambda s: hp_series(s, 2, 4)):
            with pytest.raises(TypeError, match="not a group spec"):
                walk(bad)


def _trees(p, superpyth=True):
    leaves = [
        st.builds(Free, st.integers(0, 3)),
        st.just(Cyclic(p)),
        st.builds(Demushkin, st.integers(2, 4)),
        st.builds(Zp, st.integers(0, 3)),
    ]
    if p == 2 and superpyth:
        leaves.append(st.builds(SuperPyth, st.integers(0, 2)))
    node = st.sampled_from([FreeProduct, DirectProduct])
    return st.recursive(
        st.one_of(leaves),
        lambda kids: st.builds(lambda kind, fs: kind(*fs), node, st.lists(kids, min_size=2, max_size=4)),
        max_leaves=12,
    )


_prime_and_tree = st.sampled_from([2, 3, 5]).flatmap(lambda p: st.tuples(st.just(p), _trees(p)))

# The dataclass repr of a product, from a plain recursive dataclass mirror.
_MIRROR = {kind: make_dataclass(kind.__name__, ["factors"]) for kind in (FreeProduct, DirectProduct)}


def _reference_repr(spec):
    def mirror(s):
        if isinstance(s, (FreeProduct, DirectProduct)):
            return _MIRROR[type(s)](tuple(mirror(f) for f in s.factors))
        return s

    return repr(mirror(spec))


class TestRandomTrees:
    @settings(max_examples=150, deadline=None)
    @given(_prime_and_tree)
    def test_text_roundtrip_and_repr(self, case):
        _, spec = case
        again = parse_group_spec(to_text(spec))
        assert again == spec and hash(again) == hash(spec)
        assert repr(spec) == _reference_repr(spec)

    @settings(max_examples=150, deadline=None)
    @given(_prime_and_tree)
    def test_kernels_check_the_bits_they_return(self, case):
        # each kernel's check is an upper bound on what it returns: at least
        # as many coefficients, and at least the bit length of each
        p, spec = case
        checks, returned = [], []
        real_check = series.check_size

        def check_size(degree, word=64, upper=False):
            checks.append((degree, word))
            real_check(degree, word, upper)

        def watch(kernel):
            def watched(*args):
                start = len(checks)
                out = kernel(*args)
                # _times_binomial multiplies its first argument in place
                returned.append((checks[start:], tuple(args[0]) if out is None else out))
                return out

            return watched

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(series, "check_size", check_size)
            for name in ("_mul", "_plus_multiple", "_times_binomial"):
                kernel = watch(getattr(series, name))
                mp.setattr(series, name, kernel)
                mp.setattr(zassenhaus.groupspec, name, kernel)
            closed_form(spec, p)
            hp_series(spec, p, 12)
        for kernel_checks, out in returned:
            [(degree, word)] = kernel_checks
            assert len(out) <= degree + 1
            assert all(c.bit_length() <= word for c in out)

    @settings(max_examples=60, deadline=None)
    @given(_prime_and_tree)
    def test_series_matches_closed_form(self, case):
        p, spec = case
        form = closed_form(spec, p)
        if not isinstance(form, str):
            assert hp_series(spec, p, 10) == expand_rational(form, 10)


def _inverse_based_hp_series(spec, p, order):
    """hp_series as it stood before the pair fold, kept as a reference.

    Each leaf is a Fraction series, a free product takes one series inverse
    per distinct factor, and a direct product multiplies series.
    """
    validate(spec, p)
    inverse = cache(TruncSeries.inverse)

    def expand(num, den):
        return TruncSeries(order, expand_rational(RationalFunction(num, den), order))

    def leaf(x):
        if isinstance(x, Free):
            return expand([1], [1, -x.rank])
        if isinstance(x, Cyclic):
            return expand([1] * p, [1])
        if isinstance(x, Demushkin):
            return expand([1], [1, -x.rank, 1])
        if isinstance(x, Zp):
            return expand([1], _one_minus_t_to(x.rank))
        s = expand([1, 1], _one_minus_t_to(x.rank))
        for k in range(3, order + 1, 2):
            s = s * TruncSeries(order, [1 if j % k == 0 else 0 for j in range(order + 1)])
        return s

    def node(kind, factors):
        if kind is FreeProduct:
            inv = TruncSeries(order, [1 - len(factors)])
            for q, m in Counter(factors).items():
                inv = inv + m * inverse(q)
            return inv.inverse()
        s = TruncSeries.one(order)
        for f in factors:
            s = s * f
        return s

    return _fold(spec, leaf, node)


class TestPairFoldMatchesInverses:
    """The integer pair fold gives the inverse-based series coefficient for coefficient."""

    @settings(max_examples=120, deadline=None)
    @given(_prime_and_tree, st.integers(0, 30))
    def test_random_trees(self, case, order):
        p, spec = case
        got = hp_series(spec, p, order)
        assert got == _inverse_based_hp_series(spec, p, order).coeffs
        assert all(type(a) is int for a in got)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_catalog(self, p):
        for text, spec in builtin_specs(p):
            assert hp_series(spec, p, 60) == _inverse_based_hp_series(spec, p, 60).coeffs, text

    @pytest.mark.parametrize("d", range(5))
    def test_superpyth(self, d):
        spec = SuperPyth(d)
        assert hp_series(spec, 2, 120) == _inverse_based_hp_series(spec, 2, 120).coeffs


def _per_node_closed_form(spec, p):
    """closed_form as it stood before the single fold, kept as a reference.

    Every leaf is a RationalFunction, and every product node composes its
    factors' lowest-terms fractions into a new one, reduced again, so each
    node's value is checked in lowest terms before its parent uses it.
    Returns None where a superpyth factor leaves no finite form.
    """
    validate(spec, p)

    def leaf(x):
        if isinstance(x, Free):
            return RationalFunction([1], [1, -x.rank])
        if isinstance(x, Cyclic):
            return RationalFunction([1] * p)
        if isinstance(x, Demushkin):
            return RationalFunction([1], [1, -x.rank, 1])
        if isinstance(x, Zp):
            return RationalFunction([1], _one_minus_t_to(x.rank))
        return None

    def node(kind, factors):
        if any(r is None for r in factors):
            return None
        pairs = [(r.num, r.den) for r in factors]
        if kind is FreeProduct:
            # P^-1 = m_1 Q_1^-1 + ... + m_j Q_j^-1 - (k - 1), as num / den
            inv = RationalFunction([1 - len(factors)])
            for (num, den), m in Counter(pairs).items():
                inv_num, inv_den = inv.num, inv.den
                scaled = [m * c for c in _poly_mul(den, inv_den)]
                summed = [x + y for x, y in zip_longest(_poly_mul(inv_num, num), scaled, fillvalue=0)]
                inv = RationalFunction(summed, _poly_mul(inv_den, num))
            return RationalFunction(inv.den, inv.num)
        rf = RationalFunction([1])
        for num, den in pairs:
            rf = RationalFunction(_poly_mul(rf.num, num), _poly_mul(rf.den, den))
        return rf

    return _fold(spec, leaf, node)


_prime_and_rational_tree = st.sampled_from([2, 3, 5]).flatmap(
    lambda p: st.tuples(st.just(p), _trees(p, superpyth=False))
)


class TestClosedFormMatchesPerNodeComposition:
    """The single fold, reduced once, gives the per-node composition's fraction."""

    @settings(max_examples=150, deadline=None)
    @given(_prime_and_rational_tree)
    def test_random_trees(self, case):
        p, spec = case
        assert closed_form(spec, p) == _per_node_closed_form(spec, p)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_catalog(self, p):
        for text, spec in builtin_specs(p):
            form = closed_form(spec, p)
            rational = None if isinstance(form, str) else form
            assert rational == _per_node_closed_form(spec, p), text
            assert rational is not None or form, text
