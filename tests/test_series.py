"""Exact polynomial / truncated series arithmetic."""
import tracemalloc
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zassenhaus import finite, series, verify
from zassenhaus.series import (
    _mul,
    _poly_divexact,
    _times_binomial,
    LOG_BITS_PER_COEFFICIENT,
    MAX_SERIES_BITS,
    RationalFunction,
    SeriesError,
    SeriesTooLarge,
    TruncSeries,
    check_size,
    expand_rational,
    format_poly,
    poly_gcd,
    product_identity_rhs,
)


class TestIntegerPolynomials:
    def test_gcd_primitive(self):
        a = (2, 2)        # 2(1+t)
        b = (4, 0, -4)    # 4(1+t)(1-t)
        assert poly_gcd(a, b) == (1, 1)

    def test_gcd_edge_cases(self):
        assert poly_gcd((), ()) == ()
        assert poly_gcd((), (0, -3, 6)) == (0, -1, 2)
        assert poly_gcd((1,) * 50, (7,)) == (1,)
        assert poly_gcd((3,), (1, 1)) == (1,)

    def test_divexact(self):
        assert _poly_divexact((1, 2, 1), (1, 1)) == (1, 1)
        assert _poly_divexact((6, 0, -6), (-2, 2)) == (-3, -3)
        assert _poly_divexact((), (5, 1)) == ()

    def test_divexact_inexact(self):
        with pytest.raises(ArithmeticError, match="^inexact polynomial division$"):
            _poly_divexact((1, 0, 1), (1, 1))

    def test_divexact_not_integral(self):
        with pytest.raises(ArithmeticError, match="^quotient is not integral$"):
            _poly_divexact((1,), (2,))
        with pytest.raises(ArithmeticError, match="^quotient is not integral$"):
            _poly_divexact((1, 3, 2), (2, 4))

    def test_divexact_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            _poly_divexact((1, 1), ())


class TestRationalFunction:
    def test_common_factor_cancelled(self):
        # (2 - 2t^2) / (2 - 2t) == (1 + t) / 1
        rf = RationalFunction([2, 0, -2], [2, -2])
        assert rf.num == (1, 1)
        assert rf.den == (1,)

    def test_trailing_zeros_stripped(self):
        rf = RationalFunction([1, 2, 0, 0], [1, 0])
        assert (rf.num, rf.den) == ((1, 2), (1,))
        assert RationalFunction([0, 0], [3, 0]).num == ()

    def test_bool_coefficient_rejected(self):
        with pytest.raises(TypeError):
            RationalFunction([True, 1])
        with pytest.raises(TypeError):
            RationalFunction([1], [1, False])

    def test_fraction_coefficient_rejected(self):
        with pytest.raises(TypeError):
            RationalFunction([1, Fraction(2)])
        with pytest.raises(TypeError):
            RationalFunction([1], [1, Fraction(1, 2)])

    def test_zero_numerator_canonical(self):
        assert RationalFunction([0], [1, -1]) == RationalFunction([0], [5])

    def test_denominator_unit_required(self):
        with pytest.raises(SeriesError, match="^denominator vanishes at t = 0; no series expansion exists$"):
            RationalFunction([1], [0, 1])

    def test_fibonacci_expansion(self):
        # 1/(1 - 3t + t^2) generates odd-indexed Fibonacci numbers
        rf = RationalFunction([1], [1, -3, 1])
        got = expand_rational(rf, 4)
        assert got == (1, 3, 8, 21, 55) and all(type(a) is int for a in got)

    def test_non_unit_denominator_expands_in_fractions(self):
        # 1/(2 + t) = sum_k (-1)^k t^k / 2^(k+1)
        got = expand_rational(RationalFunction([1], [2, 1]), 5)
        assert got == tuple(Fraction((-1) ** k, 2 ** (k + 1)) for k in range(6))
        assert all(type(a) is Fraction for a in got)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError, match="^order must be >= 0$"):
            expand_rational(RationalFunction([1], [1, -1]), -1)


class TestTruncSeries:
    def test_order_respected(self):
        s = TruncSeries(3, [1, 1])
        assert s[3] == 0
        with pytest.raises(SeriesError, match="^coefficient 4 requested but series is truncated at 3$"):
            s[4]
        with pytest.raises(SeriesError, match="^negative index$"):
            s[-1]

    def test_too_many_coefficients_rejected(self):
        with pytest.raises(ValueError):
            TruncSeries(1, [1, 2, 3])

    def test_inverse_of_ones(self):
        s = TruncSeries(3, [1, 1, 1, 1])
        assert s.inverse().int_coeffs() == [1, -1, 0, 0]

    def test_inverse_requires_unit(self):
        with pytest.raises(SeriesError, match="^constant term is 0$"):
            TruncSeries(3, [0, 1]).inverse()

    def test_log_one_plus_t(self):
        s = TruncSeries(4, [1, 1]).log()
        assert [s[k] for k in range(5)] == [
            0, 1, Fraction(-1, 2), Fraction(1, 3), Fraction(-1, 4),
        ]

    def test_log_geometric(self):
        # log 1/(1-2t): b_n = 2^n / n
        s = TruncSeries(3, expand_rational(RationalFunction([1], [1, -2]), 3)).log()
        assert [s[k] for k in range(4)] == [0, 2, 2, Fraction(8, 3)]

    def test_log_requires_unit_one(self):
        with pytest.raises(SeriesError, match="^log requires constant term 1$"):
            TruncSeries(3, [2, 1]).log()

    def test_pow_zero_and_huge(self):
        s = TruncSeries(3, [1, 1])
        assert (s ** 0).int_coeffs() == [1, 0, 0, 0]
        big = s ** (10 ** 6)
        # binomial coefficients of a genuinely astronomical power
        assert big[2] == (10 ** 6) * (10 ** 6 - 1) // 2

    def test_pow_negative_rejected(self):
        with pytest.raises(SeriesError, match="^series power must be >= 0$"):
            TruncSeries(2, [1, 1]) ** -2

    def test_scalar_mixing(self):
        s = TruncSeries(2, [1, 2, 4])
        assert (s - 1).valuation() == 1


class TestBudget:
    def test_order_past_the_budget_is_refused_at_once(self):
        # 2^24 coefficients of at least 64 bits are the whole budget
        top = MAX_SERIES_BITS // 64 - 1
        check_size(top)
        with pytest.raises(SeriesTooLarge, match=f"up to degree {top + 1} "):
            check_size(top + 1)
        with pytest.raises(SeriesTooLarge):
            expand_rational(RationalFunction([1], [1, -2]), 10**8)

    def test_word_sets_the_bits_a_coefficient(self):
        # the Fraction log of dims_table takes LOG_BITS_PER_COEFFICIENT bits a
        # degree, so its budget ends far below the integer series'
        top = MAX_SERIES_BITS // LOG_BITS_PER_COEFFICIENT - 1
        check_size(top, LOG_BITS_PER_COEFFICIENT)
        with pytest.raises(SeriesTooLarge, match=f"up to degree {top + 1} "):
            check_size(top + 1, LOG_BITS_PER_COEFFICIENT)

    def test_running_total_refuses_growing_coefficients(self):
        # a_k = 2^k takes k + 1 bits, and a_0..a_k pass 2^30 bits at k = 46340
        with pytest.raises(SeriesTooLarge, match=r"a_0\.\.a_46340 of a series to degree 50000"):
            expand_rational(RationalFunction([1], [1, -2]), 50_000)
        assert expand_rational(RationalFunction([1], [1, -2]), 46_000)[-1] == 2**46_000


    def test_product_counts_the_multiply_adds_of_nonzero_terms(self, monkeypatch):
        monkeypatch.setattr(series, "MAX_PRODUCT_STEPS", 100)
        assert _mul((1,) * 10, (1,) * 10, None) == (*range(1, 11), *range(9, 0, -1))
        # the shorter factor's zeros take no steps
        assert _mul((1, 0, 0, 1), (1,) * 50, None)[:4] == (1, 1, 1, 2)
        with pytest.raises(SeriesTooLarge, match="up to degree 19 of a product could take up to 110 "):
            _mul((1,) * 10, (1,) * 11, None)
        # a cut product counts the terms it keeps
        assert _mul((1,) * 20, (1,) * 20, 5) == (1, 2, 3, 4, 5)

    def test_product_weighs_the_multiply_adds_by_coefficient_width(self, monkeypatch):
        # a step of an a-bit by a b-bit coefficient weighs (1 + a/256)(1 + b/256)
        monkeypatch.setattr(series, "MAX_PRODUCT_STEPS", 100)
        wide = (1 << 1023,) * 2
        # 4 steps at 1024 bits each way weigh 4 * 5 * 5 = 100
        assert _mul(wide, wide, None) == (1 << 2046, 2 << 2046, 1 << 2046)
        with pytest.raises(SeriesTooLarge, match="could take up to 200 weighted multiply-adds, "):
            _mul((1 << 255,) * 10, (1,) * 10, None)
        with pytest.raises(SeriesTooLarge, match="could take up to 150 weighted multiply-adds, "):
            _mul(wide, (1 << 1023,) * 3, None)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(-2**40, 2**40), min_size=1, max_size=30),
        st.integers(1, 4),
        st.integers(-60, 60),
    )
    # equal coefficients add up to near the bound
    @example([2**40] * 30, 1, -1)
    @example([2**40] * 30, 1, 29)
    def test_binomial_bound_holds(self, out, step, e):
        # the bits _times_binomial checks bound every coefficient it leaves
        checks = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(series, "check_size", lambda degree, word=64, upper=False: checks.append(word))
            _times_binomial(out, step, e)
        [word] = checks
        assert all(c.bit_length() <= word for c in out)


def test_product_identity_rhs_single_layer():
    # one generator in degree 1, p=2: (1-t^2)/(1-t) = 1+t
    assert product_identity_rhs([1, 0, 0, 0], 2, 3) == (1, 1, 0, 0)


def test_product_identity_rhs_telescoping():
    # layers at n = 1, 2, 4 telescope to (1-t^8)/(1-t)
    assert product_identity_rhs([1, 1, 0, 1, 0, 0, 0], 2, 7) == (1,) * 8


def test_product_identity_rhs_rejects_negative():
    with pytest.raises(SeriesError, match="^c_2 = -1 is negative$"):
        product_identity_rhs([1, -1], 2, 4)


def test_product_identity_rhs_refuses_an_order_past_the_budget_before_it_allocates():
    # 2^25 + 1 coefficients of one 64-bit word pass 2^30 bits; built, the
    # list of ints would take about 527 MiB
    tracemalloc.start()
    try:
        with pytest.raises(SeriesTooLarge, match="^coefficients up to degree 33554432 would take at least "):
            product_identity_rhs([], 2, 2**25)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_product_identity_rhs_rejects_composite_p():
    with pytest.raises(ValueError):
        product_identity_rhs([1], 6, 4)


def test_product_identity_rhs_rejects_negative_order():
    with pytest.raises(ValueError, match="^order must be >= 0$"):
        product_identity_rhs([1], 2, -3)


def _dense_product_identity(c, p, order):
    """The dense Fraction rebuild: each factor 1 + t^n + ... + t^(n(p-1)) to the power c_n."""
    result = TruncSeries.one(order)
    for n, cn in enumerate(c, start=1):
        if n > order or cn == 0:
            continue
        top = min(order, n * (p - 1))
        base = TruncSeries(order, [1 if k % n == 0 else 0 for k in range(top + 1)])
        result = result * (base ** cn)
    return result


_exponents = st.lists(
    st.one_of(st.just(0), st.integers(0, 5), st.integers(0, 10 ** 12)), max_size=32
)


@settings(max_examples=80, deadline=None)
@given(_exponents, st.sampled_from([2, 3, 5, 7]), st.integers(0, 30))
def test_product_identity_rhs_matches_dense_powers(c, p, order):
    assert product_identity_rhs(c, p, order) == _dense_product_identity(c, p, order).coeffs


def test_product_identity_rhs_output_type():
    s = product_identity_rhs([3, 10 ** 20], 3, 6)
    assert isinstance(s, tuple) and len(s) == 7 and all(type(x) is int for x in s)
    assert list(s) == _dense_product_identity([3, 10 ** 20], 3, 6).int_coeffs()
    assert product_identity_rhs([], 2, 0) == (1,)


def test_jl_polynomial_unchanged_on_finite_suite_groups():
    for label, group, depth in verify.group_algebra_cases():
        c = verify._dims_until_trivial(finite.zassenhaus_filtration_finite(group, depth))
        degree = (group.p - 1) * sum(n * cn for n, cn in enumerate(c, start=1))
        dense = _dense_product_identity(c, group.p, degree).int_coeffs()
        assert verify._jl_polynomial(c, group.p) == tuple(dense), label


def test_format_poly():
    assert format_poly((1, -2, 0, 3)) == "1 - 2t + 3t^3"
    assert format_poly([0, 1]) == "t"
    assert format_poly(()) == "0"
    assert format_poly([0, 0]) == "0"


# property checks on small random series


def _series(order, lo=-4, hi=4, unit=False):
    head = st.just(1) if unit else st.integers(lo, hi)
    return st.lists(st.integers(lo, hi), min_size=order, max_size=order).flatmap(
        lambda tail: head.map(lambda h: TruncSeries(order, [h] + tail))
    )


@settings(max_examples=60, deadline=None)
@given(_series(6, unit=True), _series(6, unit=True))
def test_log_turns_products_into_sums(a, b):
    lhs = (a * b).log()
    rhs = a.log() + b.log()
    assert lhs == rhs


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 12).flatmap(lambda order: _series(order, lo=-30, hi=30, unit=True)))
def test_log_of_integer_series_has_integer_k_b_k(a):
    # Newton's identities: with a_0 = 1 the quotient a' / a divides by 1
    # alone, so every s_k = k * b_k of an integer series is an integer
    b = a.log()
    assert all((k * b[k]).denominator == 1 for k in range(1, a.order + 1))


@settings(max_examples=60, deadline=None)
@given(_series(6, lo=1, hi=5))
def test_double_inverse_is_identity(s):
    assert s.inverse().inverse() == s


@settings(max_examples=60, deadline=None)
@given(_series(5), _series(5), _series(5))
def test_multiplication_laws(a, b, c):
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)


def _poly(max_degree):
    return st.lists(st.integers(-5, 5), min_size=1, max_size=max_degree + 1)


_dens = st.one_of(
    _poly(6).filter(lambda cs: cs[0] != 0),
    st.integers(1, 9).map(lambda k: [1] + [0] * (k - 1) + [-1]),  # 1 - t^k
)


@settings(max_examples=100, deadline=None)
@given(_poly(8), _dens, st.integers(0, 12))
def test_expand_rational_times_den_is_num(num, den, order):
    rf = RationalFunction(num, den)
    expansion = expand_rational(rf, order)
    lhs = TruncSeries(order, rf.den[:order + 1]) * TruncSeries(order, expansion)
    assert lhs == TruncSeries(order, rf.num[:order + 1])


@pytest.mark.parametrize("a0", [0, 2, -1, Fraction(1, 2)])
@pytest.mark.parametrize("tail", [[3, -1, 0, 2, 1, -2], [0, 1, 0, 0, -1, 5]])
def test_pow_any_constant_term_is_repeated_multiplication(a0, tail):
    s = TruncSeries(6, [a0] + tail)
    power = TruncSeries.one(6)
    for e in range(10):
        assert s ** e == power
        power = power * s


# the integer polynomial layer against two references: Euclid over Q in
# Fraction arithmetic, and sympy's gcd


def _ref_divmod(a, b):
    """Quotient and remainder of a by b over Q, low degree first, remainder stripped."""
    rem = [Fraction(c) for c in a]
    quot = [Fraction(0)] * max(len(rem) - len(b) + 1, 0)
    while True:
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) < len(b):
            return quot, rem
        q = rem[-1] / b[-1]
        shift = len(rem) - len(b)
        quot[shift] = q
        for i, c in enumerate(b):
            rem[shift + i] -= q * c


def _stripped(coeffs):
    """Integer coefficients as a tuple without trailing zeros."""
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _ref_primitive(coeffs):
    cs = [Fraction(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    if not cs:
        return ()
    ints = [int(c * lcm(*(c.denominator for c in cs))) for c in cs]
    g = gcd(*ints) * (1 if ints[-1] > 0 else -1)
    return tuple(c // g for c in ints)


def _ref_gcd(a, b):
    while b:
        a, b = b, _ref_divmod(a, b)[1]
    return _ref_primitive(a)


def _ref_reduce(num, den):
    """Lowest terms of num / den by Euclid over Q, as (num, den) coefficient tuples."""
    num, den = _stripped(num), _stripped(den)
    if not num:
        return (), (1,)
    g = _ref_gcd(num, den)
    if len(g) > 1:
        (qn, rn), (qd, rd) = _ref_divmod(num, g), _ref_divmod(den, g)
        assert not rn and not rd and all(c.denominator == 1 for c in qn + qd)
        num, den = _stripped(map(int, qn)), _stripped(map(int, qd))
    k = gcd(*num, *den) * (1 if den[0] > 0 else -1)
    return tuple(c // k for c in num), tuple(c // k for c in den)


_factors = st.lists(st.integers(-4, 4), min_size=1, max_size=4).filter(lambda cs: cs[0] != 0)


def _poly_mul(a, b):
    """The product of two integer coefficient lists, low degree first."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _stripped(out)


@settings(max_examples=300, deadline=None)
@given(_poly(6), _dens, _factors)
def test_rational_function_matches_euclid_over_q(num, den, factor):
    num, den = _poly_mul(num, factor), _poly_mul(den, factor)
    rf = RationalFunction(num, den)
    assert (rf.num, rf.den) == _ref_reduce(num, den)


try:
    import sympy
except ImportError:  # test-only dependency
    sympy = None


def _sympy_gcd(a, b):
    t = sympy.symbols("t")
    g = sympy.Poly(list(reversed(a)) or [0], t, domain="ZZ").gcd(
        sympy.Poly(list(reversed(b)) or [0], t, domain="ZZ")
    )
    g = g.primitive()[1]
    if g.LC() < 0:
        g = -g
    return _stripped(reversed([int(c) for c in g.all_coeffs()]))


@pytest.mark.skipif(sympy is None, reason="sympy not installed")
@settings(max_examples=200, deadline=None)
@given(_poly(6), _poly(6), _factors)
def test_poly_gcd_matches_sympy(a, b, factor):
    a, b = _poly_mul(a, factor), _poly_mul(b, factor)
    assert poly_gcd(a, b) == _sympy_gcd(a, b)
    assert poly_gcd(a, b) == _ref_gcd(a, b)
