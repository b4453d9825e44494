"""Dimension pipeline: log series, Moebius step, p-chain summation."""
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zassenhaus import dimensions, numtheory, verify
from zassenhaus.dimensions import (
    NegativeDimension,
    NonIntegralW,
    OutOfRange,
    UnsupportedSpec,
    c_sequence,
    dims_table,
    min_generators,
    w_sequence,
)
from zassenhaus.groupspec import (
    Cyclic,
    Demushkin,
    Free,
    PrimeMismatch,
    hp_series,
    parse_group_spec,
)
from zassenhaus.numtheory import divisors, is_prime, moebius, moebius_table, w_free_closed
from zassenhaus.series import (
    LOG_BITS_PER_COEFFICIENT,
    MAX_SERIES_BITS,
    ConstantTermNotOne,
    SeriesTooLarge,
)
from zassenhaus.verify import (
    demushkin_power_sum,
    power_sums_free_product_cp,
    w_demushkin_closed,
    w_demushkin_power_sum,
)


class TestNumtheory:
    def test_moebius(self):
        assert [moebius(n) for n in range(1, 13)] == [
            1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0,
        ]
        assert moebius(30) == -1
        assert moebius(210) == 1

    def test_divisors(self):
        assert divisors(12) == [1, 2, 3, 4, 6, 12]
        assert divisors(1) == [1]
        assert divisors(49) == [1, 7, 49]

    def test_is_prime(self):
        assert [n for n in range(2, 30) if is_prime(n)] == [
            2, 3, 5, 7, 11, 13, 17, 19, 23, 29,
        ]
        assert not is_prime(1)
        assert not is_prime(0)

    def test_is_prime_matches_trial_division(self):
        def trial(n):
            return n >= 2 and all(n % f for f in range(2, math.isqrt(n) + 1))

        assert [n for n in range(10**5) if is_prime(n)] == [
            n for n in range(10**5) if trial(n)
        ]

    @pytest.mark.parametrize(
        "n",
        [
            3215031751,  # strong pseudoprime to the bases 2, 3, 5 and 7
            3825123056546413051,  # to every prime base up to 23
            318665857834031151167461,  # psi_12: to every prime base up to 37
        ],
    )
    def test_strong_pseudoprimes_are_composite(self, n):
        assert not is_prime(n)

    def test_large_primes(self):
        assert is_prime(10000000000000061)
        assert is_prime(2**61 - 1) and not is_prime(2**61 + 1)
        assert is_prime(10**24 + 7)
        # the largest prime below the bound
        assert is_prime(3317044064679887385961813)
        # the square of a prime factor of the bound, which lies below it
        assert not is_prime(1287836182261 * 1287836182261)

    def test_refuses_past_the_bound(self):
        bound = numtheory.PRIME_TEST_BOUND
        # the least strong pseudoprime to all 13 bases
        assert bound == 1287836182261 * 2575672364521
        for n in (bound, 10**29 + 319):  # neither has a prime factor up to 41
            with pytest.raises(numtheory.PrimalityUndecided, match=f"below {bound}$"):
                is_prime(n)
        # a small factor still decides it
        assert not is_prime(2 * bound) and not is_prime(3 * 10**40)
        assert issubclass(numtheory.PrimalityUndecided, ValueError)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            divisors(0)
        with pytest.raises(ValueError):
            moebius(0)
        with pytest.raises(ValueError):
            moebius_table(-1)

    def test_sieved_moebius_table(self):
        assert moebius_table(2000) == [0] + [moebius(k) for k in range(1, 2001)]
        assert moebius_table(0) == [0] and moebius_table(1) == [0, 1]


class TestWSequence:
    def test_free_rank2(self):
        # log 1/(1-2t): b_n = 2^n / n, then Moebius inversion
        b = [Fraction(2 ** n, n) for n in range(1, 7)]
        assert w_sequence(b) == [2, 1, 2, 3, 6, 9]

    def test_nonintegral_rejected(self):
        with pytest.raises(NonIntegralW) as exc:
            w_sequence([Fraction(1, 2)])
        assert exc.value.degree == 1

    def test_value_carried_on_error(self):
        # b = [0, 1/2]: w_2 = (2*(1/2) - 0)/2 = 1/2
        with pytest.raises(NonIntegralW) as exc:
            w_sequence([Fraction(0), Fraction(1, 2)])
        assert exc.value.degree == 2
        assert exc.value.value == Fraction(1, 2)


def _w_by_divisor_sums(b):
    """w_n = (1/n) sum over m | n of mu(n/m) m b_m, in Fractions, degree by degree."""
    out = []
    for n in range(1, len(b) + 1):
        acc = Fraction(0)
        for m in divisors(n):
            acc += moebius(n // m) * m * Fraction(b[m - 1])
        acc /= n
        if acc.denominator != 1:
            raise NonIntegralW(n, acc)
        out.append(acc.numerator)
    return out


def _log_of_product(w):
    """b_m = (1/m) sum over n | m of n w_n: log of prod_n 1/(1 - t^n)^(w_n)."""
    return [
        Fraction(sum(n * w[n - 1] for n in divisors(m)), m) for m in range(1, len(w) + 1)
    ]


class TestWSequenceAgainstDivisorSums:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=1, max_size=300))
    def test_integral_inputs(self, w):
        b = _log_of_product(w)
        assert w_sequence(b) == _w_by_divisor_sums(b) == w

    def test_pipeline_logs_to_degree_300(self):
        for text in ("free(2)", "demushkin(3) * free(1)", "cyclic(2) * zp(2)"):
            b = dims_table(parse_group_spec(text), 2, 300).b[1:]
            assert w_sequence(b) == _w_by_divisor_sums(b), text

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.fractions(max_denominator=6), min_size=1, max_size=40))
    def test_same_first_failure(self, b):
        try:
            want = _w_by_divisor_sums(b)
        except NonIntegralW as exc:
            with pytest.raises(NonIntegralW) as got:
                w_sequence(b)
            assert (got.value.degree, got.value.value, str(got.value)) == (
                exc.degree, exc.value, str(exc))
        else:
            assert w_sequence(b) == want


class TestIntegralityChecks:
    """The checks are plain raises, so they hold under python -O too; a
    broken helper makes the closed formulas non-integral on purpose."""

    def test_w_free_closed(self, monkeypatch):
        monkeypatch.setattr(numtheory, "divisors", lambda n: [1])
        with pytest.raises(NonIntegralW, match="w_3 = -2/3"):
            w_free_closed(2, 3)

    def test_w_demushkin_power_sum(self, monkeypatch):
        monkeypatch.setattr(numtheory, "divisors", lambda n: [1])
        with pytest.raises(NonIntegralW, match="w_2 = -3/2"):
            w_demushkin_power_sum(3, 2)

    def test_w_demushkin_closed_inner_power_sum(self, monkeypatch):
        monkeypatch.setattr(verify, "comb", lambda a, b: 1)
        with pytest.raises(NonIntegralW, match="s_3 = -1/2"):
            w_demushkin_closed(1, 3)

    def test_w_demushkin_closed(self, monkeypatch):
        monkeypatch.setattr(numtheory, "divisors", lambda n: [1])
        with pytest.raises(NonIntegralW, match="w_2 = -3/2"):
            w_demushkin_closed(3, 2)

    def test_power_sums_free_product_cp(self, monkeypatch):
        # every binomial reads 1: s_3 = (3/2) * 1 + (3/3) * 1 at d = 1
        monkeypatch.setattr(verify, "comb", lambda a, b: 1)
        with pytest.raises(NonIntegralW, match="^s_3 = 5/2 is not an integer$"):
            power_sums_free_product_cp(1, 2, 3)

    def test_dims_table_constant_term(self, monkeypatch):
        monkeypatch.setattr(
            dimensions, "hp_series", lambda spec, p, order: (2, 1, 0)
        )
        with pytest.raises(ConstantTermNotOne):
            dims_table(Free(1), 2, 2)


class TestCSequence:
    def test_chain_over_p_powers(self):
        # c_4 at p=2 picks up w_1, w_2, w_4; c_6 picks up w_3, w_6 only
        w = [2, 1, 2, 3, 6, 9]
        assert c_sequence(w, 2) == [2, 3, 2, 6, 6, 11]

    def test_prime_to_p_copies_w(self):
        w = [5, 7, 11, 13, 17]
        c = c_sequence(w, 3)
        assert c[0] == 5 and c[1] == 7 and c[3] == 13
        assert c[2] == w[2] + c[0]

    def test_negative_dimension_rejected(self):
        with pytest.raises(NegativeDimension) as exc:
            c_sequence([1, -5], 2)
        assert exc.value.degree == 2


class TestDimsTable:
    def test_order_past_the_log_budget_is_refused_before_the_series(self, monkeypatch):
        # under a 1 GB address space dims "cyclic(2)" --max-n 10000000 ran
        # out of memory in the Fraction log after 10 s; it is refused at once
        top = MAX_SERIES_BITS // LOG_BITS_PER_COEFFICIENT - 1

        def unreachable(*args):
            raise AssertionError("the series was built")

        monkeypatch.setattr(dimensions, "hp_series", unreachable)
        with pytest.raises(SeriesTooLarge, match=f"up to degree {top + 1} "):
            dims_table(Cyclic(2), 2, top + 1)
        # the expression is still checked first
        with pytest.raises(PrimeMismatch):
            dims_table(Cyclic(2), 3, top + 1)

    def test_free2_p2(self):
        t = dims_table(Free(2), 2, 6)
        assert t.w[1:] == (2, 1, 2, 3, 6, 9)
        assert t.c[1:] == (2, 3, 2, 6, 6, 11)
        assert t.a == (1, 2, 4, 8, 16, 32, 64)

    def test_demushkin4_p2(self):
        t = dims_table(Demushkin(4), 2, 4)
        assert t.c[1:] == (4, 9, 16, 54)
        assert t.w[2] == 5 and t.w[3] == 16

    def test_zp1_powers_of_two(self):
        t = dims_table(parse_group_spec("zp(1)"), 2, 16)
        assert t.c[1:] == tuple(1 if (n & (n - 1)) == 0 else 0 for n in range(1, 17))

    def test_superpyth3(self):
        t = dims_table(parse_group_spec("superpyth(3)"), 2, 8)
        assert t.c[1:] == (4, 3, 1, 3, 1, 1, 1, 3)
        assert t.galois_exponent(4) == 8

    # The superpyth(d) leaf's series, (1 + t)/((1 - t)^d prod_(odd k>=3) (1 - t^k)),
    # is not that of the group it names, Z_2^d x| C_2 with C_2 acting by
    # inversion (ROADMAP item 10). These tests hold the facts that do not
    # depend on the corrected leaf; they pass once the leaf is fixed.
    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "superpyth leaf defect: superpyth(0) = Z_2^0 x| C_2 is C_2, of order 2, so by "
        "Jennings (1941) its filtration is that of cyclic(2), series 1 + t"))
    def test_superpyth0_is_cyclic2(self):
        assert hp_series(parse_group_spec("superpyth(0)"), 2, 8) == hp_series(Cyclic(2), 2, 8)

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "superpyth leaf defect: superpyth(1) = Z_2 x| C_2 is the pro-2 completion of the "
        "infinite dihedral group C_2 * C_2, the free pro-2 product of two C_2 "
        "(Ribes & Zalesskii, Profinite Groups, ch. 9)"))
    def test_superpyth1_is_free_product_of_two_cyclic2(self):
        pair = parse_group_spec("cyclic(2) * cyclic(2)")
        assert hp_series(parse_group_spec("superpyth(1)"), 2, 8) == hp_series(pair, 2, 8)

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "superpyth leaf defect: U(3, 2) = D_8 is superpyth(1) modulo 4Z_2 = G_(3) = G_(4), "
        "so its Jennings (1941) dims (2, 1, 0) are c_1..c_3 of superpyth(1); "
        "the leaf gives (2, 1, 1)"))
    def test_superpyth1_matches_finite_dihedral_quotient(self):
        from zassenhaus.finite import unitriangular_group, zassenhaus_filtration_finite

        dims = zassenhaus_filtration_finite(unitriangular_group(3, 2), 3).dims
        assert dims == dims_table(parse_group_spec("superpyth(1)"), 2, 3).c[1:]

    def test_galois_exponent_bounds(self):
        t = dims_table(Free(1), 2, 4)
        assert t.galois_exponent(1) == 0
        assert t.galois_exponent(5) == sum(t.c[1:5])
        with pytest.raises(OutOfRange):
            t.galois_exponent(6)
        with pytest.raises(OutOfRange):
            t.galois_exponent(0)


class TestClosedExponents:
    def test_necklace_values(self):
        assert w_free_closed(2, 1) == 2
        assert w_free_closed(2, 6) == 9
        assert w_free_closed(3, 4) == 18

    def test_demushkin_power_sums(self):
        # s_m = tr of companion powers: s_0=2, s_1=d, s_m = d s_(m-1) - s_(m-2)
        assert demushkin_power_sum(4, 0) == 2
        assert [demushkin_power_sum(4, m) for m in range(1, 5)] == [4, 14, 52, 194]

    def test_demushkin_w_forms_agree(self):
        for d in range(2, 7):
            for n in range(1, 13):
                assert w_demushkin_closed(d, n) == w_demushkin_power_sum(d, n)

    def test_demushkin_w_frozen(self):
        assert w_demushkin_closed(4, 2) == 5
        assert w_demushkin_closed(4, 3) == 16
        assert w_demushkin_closed(2, 4) == 0

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 14))
    def test_necklace_matches_pipeline(self, d, n):
        t = dims_table(Free(d), 2, n)
        assert t.w[n] == w_free_closed(d, n)


class TestPowerSums:
    def test_lucas_row(self):
        assert [power_sums_free_product_cp(1, 2, n) for n in range(1, 6)] == [
            1, 3, 4, 7, 11,
        ]

    def test_d0_vanishes(self):
        assert power_sums_free_product_cp(0, 3, 4) == 0


class TestMinGenerators:
    def test_free_index_formula(self):
        # open subgroup at level 2 of free(2), p=2: 4*(2-1)+1
        assert min_generators(Free(2), 2, 2, [2]) == 5

    def test_demushkin_index_formula(self):
        assert min_generators(Demushkin(2), 2, 2, [2]) == 2

    def test_unsupported(self):
        with pytest.raises(UnsupportedSpec):
            min_generators(Cyclic(2), 2, 2, [1])

    def test_needs_enough_dims(self):
        with pytest.raises(OutOfRange):
            min_generators(Free(2), 2, 4, [2, 3])
