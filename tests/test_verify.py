"""The user-facing verification suites must themselves be green."""
import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zassenhaus import finite, verify
from zassenhaus.groupspec import FreeProduct
from zassenhaus.series import _quotient


def _assert_all(results):
    failed = [r for r in results if not r.passed]
    assert not failed, "\n".join(f"{r.name}: {r.detail}" for r in failed)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_roundtrip_suite(p):
    _assert_all(verify.roundtrip_checks(p, 16))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_closedform_suite(p):
    _assert_all(verify.closedform_checks(p, 16))


def test_finite_suite():
    _assert_all(verify.finite_checks())


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 8), st.integers(1, 60))
def test_demushkin_exponents_binomial_form_matches_power_sums(d, n):
    assert verify.w_demushkin_closed(d, n) == verify.w_demushkin_power_sum(d, n)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([2, 3, 5, 7, 11, 1009]), st.integers(0, 5), st.integers(1, 30))
def test_multinomial_power_sums_match_newton_route(p, d, n):
    # s_n is the coefficient of t^(n-1) in -f'/f for f = 1 - d t - ... - d t^p
    newton = _quotient([k * d for k in range(1, p + 1)], (1,) + (-d,) * p, n - 1)
    assert verify.power_sums_free_product_cp(d, p, n) == newton[n - 1]


def _part_counts(n, p):
    """The number of parts of each composition of n into parts from 1..p.

    A composition is the set of its cut points among 1..n-1, read as a bit mask.
    """
    for cuts in range(2 ** (n - 1)):
        ends = [i for i in range(1, n) if cuts >> (i - 1) & 1] + [n]
        if all(b - a <= p for a, b in zip([0] + ends, ends)):
            yield len(ends)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_multinomial_power_sums_match_composition_enumeration(p):
    # each exponent tuple with K parts stands for K! / (k_1! ... k_p!) compositions
    for n in range(1, 15):
        parts = list(_part_counts(n, p))
        for d in range(6):
            want = sum(Fraction(n, k) * d ** k for k in parts)
            assert verify.power_sums_free_product_cp(d, p, n) == want


def test_closedform_suite_past_the_recursion_limit():
    _assert_all(verify.closedform_checks(1009, 8))


def test_catalog_covers_each_constructor():
    texts = [t for t, _ in verify.builtin_specs(2)]
    for fragment in ("free(", "cyclic(", "demushkin(", "zp(", "superpyth(", "*", "x"):
        assert any(fragment in t for t in texts)


def test_compare_reports_first_difference():
    assert verify._compare("c", "s", [1, 2, 3], (1, 2, 3)) == verify.CheckResult("c", True)
    assert verify._compare("c", "s", [1, 2, 3], [1, 5, 4]).detail == (
        "spec=s n=2 expected=2 got=5"
    )
    assert verify._compare("c", "s", [1, 2, 3], [1, 5, 4], start=0).detail == (
        "spec=s n=1 expected=2 got=5"
    )


def test_compare_fails_on_length_mismatch():
    short = verify._compare("c", "s", [1, 0, 0, 0], [1, 0])
    assert not short.passed and short.detail == "spec=s n=3 expected=0 got=missing"
    long = verify._compare("c", "s", [], [7], start=0)
    assert not long.passed and long.detail == "spec=s n=0 expected=missing got=7"


# -- failure details ---------------------------------------------------------
#
# Each test below injects a fault into one route and pins the FAIL details
# that the suites report, as `name: detail` lines.

def _failures(results):
    return [f"{r.name}: {r.detail}" for r in results if not r.passed]


def _bumped(fn, at, by=1):
    """fn with `by` added to its value when its last argument equals `at`."""
    return lambda *args: fn(*args) + (by if args[-1] == at else 0)


def _series_shifted(fn, k, by):
    """fn with coefficient min(k, order) of the returned coefficients moved by
    `by`, returned as a tuple."""
    def shifted(*args):
        coeffs = list(fn(*args))
        coeffs[min(k, len(coeffs) - 1)] += by
        return tuple(coeffs)
    return shifted


def test_product_identity_fault_roundtrip(monkeypatch):
    monkeypatch.setattr(
        verify, "product_identity_rhs", _series_shifted(verify.product_identity_rhs, 3, 1)
    )
    a3 = [0, 1, 8, 27, 0, 1, 10, 4, 21, 56, 2, 12, 22, 480, 32, 7, 11, 1, 8, 17, 17]
    texts = [t for t, _ in verify.builtin_specs(2)]
    assert _failures(verify.roundtrip_checks(2, 16)) == [
        f"roundtrip: {t}: spec={t} n=3 expected={a} got={a + 1}" for t, a in zip(texts, a3)
    ]
    assert _failures(verify.closedform_checks(2, 16)) == [
        f"superpyth({d}) product form rebuilds the series: spec=superpyth({d}) "
        f"n=3 expected={a} got={a + 1}"
        for d, a in enumerate([1, 3, 8, 17, 31, 51])
    ]


def test_pipeline_relations_fault(monkeypatch):
    real = verify.dims_table

    def w4_bumped(spec, p, order):
        t = real(spec, p, order)
        return dataclasses.replace(t, w=t.w[:4] + (t.w[4] + 1,) + t.w[5:])

    monkeypatch.setattr(verify, "dims_table", w4_bumped)
    texts = [t for t, _ in verify.builtin_specs(3)]
    c4 = [0, 0, 3, 18, 0, 0, 0, 0, 10, 45, 1, 12, 16, 883, 6, 0, 2]
    assert _failures(verify.roundtrip_checks(3, 16)) == [
        f"pipeline relations: {t}: spec={t} n=4 expected={c + 1} got={c}"
        for t, c in zip(texts, c4)
    ]


def test_closed_forms_fault(monkeypatch):
    real = verify.dims_table

    def c2_lowered(spec, p, order):
        t = real(spec, p, order)
        return dataclasses.replace(t, c=t.c[:2] + (t.c[2] - 1,) + t.c[3:])

    monkeypatch.setattr(verify, "dims_table", c2_lowered)
    free_c2 = [0, 1, 3, 6, 10]
    demushkin_c2 = [0, 2, 5, 9, 14]
    assert _failures(verify.closedform_checks(3, 16)) == [
        f"free({d}) c_1..c_5 closed forms, p=3: spec=free({d}) n=2 expected={c} got={c - 1}"
        for d, c in enumerate(free_c2, start=1)
    ] + [
        f"demushkin({d}) c_1..c_5 closed forms, p=3: spec=demushkin({d}) "
        f"n=2 expected={c} got={c - 1}"
        for d, c in enumerate(demushkin_c2, start=2)
    ]


def test_expand_rational_fault(monkeypatch):
    monkeypatch.setattr(
        verify, "expand_rational", _series_shifted(verify.expand_rational, 2, -1)
    )
    texts = [t for t, _ in verify.builtin_specs(5)]
    a2 = [0, 1, 4, 9, 1, 1, 6, 3, 8, 15, 4, 9, 9, 62, 12, 6, 7]
    assert _failures(verify.closedform_checks(5, 16)) == [
        f"closed form expands to series: {t}: spec={t} n=2 expected={a} got={a - 1}"
        for t, a in zip(texts, a2)
    ]


def test_newton_route_fault(monkeypatch):
    # s_2, the second coefficient of -f'/f, lowered by 2
    monkeypatch.setattr(verify, "_quotient", _series_shifted(verify._quotient, 1, -2))
    assert _failures(verify.closedform_checks(5, 16)) == [
        f"power sums: multinomial vs Newton route, d={d}, p=5: spec=d={d} "
        f"n=2 expected={s - 2} got={s}"
        for d, s in enumerate([0, 3, 8, 15, 24])
    ]


def test_necklace_fault(monkeypatch):
    monkeypatch.setattr(verify, "w_free_closed", _bumped(verify.w_free_closed, 5))
    assert _failures(verify.closedform_checks(3, 16)) == [
        "necklace counts match free(1) exponents, p=3: spec=free(1) n=5 expected=1 got=0",
        "necklace counts match free(2) exponents, p=3: spec=free(2) n=5 expected=7 got=6",
        "necklace counts match free(3) exponents, p=3: spec=free(3) n=5 expected=49 got=48",
    ]


def test_demushkin_power_sum_fault(monkeypatch):
    monkeypatch.setattr(
        verify, "w_demushkin_power_sum", _bumped(verify.w_demushkin_power_sum, 4)
    )
    assert _failures(verify.closedform_checks(5, 16)) == [
        f"demushkin({d}) exponents: binomial = power sums = pipeline, p=5: "
        f"spec=demushkin({d}) n=4 expected={w} got=({w + 1}, {w})"
        for d, w in [(2, 0), (3, 10), (4, 45), (5, 126)]
    ]


def test_power_sums_fault(monkeypatch):
    monkeypatch.setattr(
        verify, "power_sums_free_product_cp", _bumped(verify.power_sums_free_product_cp, 6)
    )
    assert _failures(verify.closedform_checks(2, 16)) == [
        f"power sums: multinomial vs Newton route, d={d}, p=2: spec=d={d} "
        f"n=6 expected={s} got={s + 1}"
        for d, s in enumerate([0, 18, 416, 2970, 12672])
    ]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_power_sums_are_compared_to_max_n(monkeypatch, p):
    # a fault past s_15 shows: the multinomial check runs to the order asked for
    monkeypatch.setattr(
        verify, "power_sums_free_product_cp", _bumped(verify.power_sums_free_product_cp, 20)
    )
    s20 = [_quotient([k * d for k in range(1, p + 1)], (1,) + (-d,) * p, 19)[19] for d in range(5)]
    assert _failures(verify.closedform_checks(p, 24)) == [
        f"power sums: multinomial vs Newton route, d={d}, p={p}: spec=d={d} "
        f"n=20 expected={s} got={s + 1}"
        for d, s in enumerate(s20)
    ]


def test_superpyth_pattern_fault(monkeypatch):
    real = verify.superpyth_c_expected

    def c7_bumped(d, order):
        c = real(d, order)
        c[6] += 1
        return c

    monkeypatch.setattr(verify, "superpyth_c_expected", c7_bumped)
    lines = []
    for d, a7 in enumerate([2, 9, 33, 103, 279, 672]):
        lines += [
            f"superpyth({d}) dimension pattern: spec=superpyth({d}) n=7 expected=2 got=1",
            f"superpyth({d}) product form rebuilds the series: spec=superpyth({d}) "
            f"n=7 expected={a7} got={a7 + 1}",
        ]
    assert _failures(verify.closedform_checks(2, 16)) == lines


def test_group_algebra_fault(monkeypatch):
    real = finite.group_algebra_aug_dims

    def a1_bumped(group, n):
        a = real(group, n)
        a[1] += 1
        return a

    monkeypatch.setattr(finite, "group_algebra_aug_dims", a1_bumped)
    results = [
        verify._check_jl_finite(name, group, depth)
        for name, group, depth in [
            ("cyclic(3)", finite.cyclic_group(3), 3),
            ("unitriangular(3, 2)", finite.unitriangular_group(3, 2), 4),
            ("unitriangular(3, 5)", finite.unitriangular_group(3, 5), 3),
        ]
    ]
    assert _failures(results) == [
        "cyclic(3): spec=cyclic(3) n=1 expected=1 got=2",
        "unitriangular(3, 2): spec=unitriangular(3, 2) n=1 expected=2 got=3",
        "unitriangular(3, 5): spec=unitriangular(3, 5) n=1 expected=2 got=3",
    ]


def test_involution_fault_names_the_free_group(monkeypatch):
    # a wrong c_1 of the involution chain is reported against free(d), the
    # route it is compared with, like a wrong c_n at any other degree
    real = verify.dims_table

    def chain_c1_bumped(spec, p, order):
        t = real(spec, p, order)
        if isinstance(spec, FreeProduct):
            t = dataclasses.replace(t, c=(t.c[0], t.c[1] + 1) + t.c[2:])
        return t

    monkeypatch.setattr(verify, "dims_table", chain_c1_bumped)
    assert _failures(verify.closedform_checks(2, 16)) == [
        f"{d + 1} involution factors vs free({d}): spec=free({d}) n=1 "
        f"expected={d + 1} got={d + 2}"
        for d in range(1, 6)
    ]


def test_normality_audit_fault(monkeypatch):
    # a non-normal subgroup planted as G_(2) of U(3, 3): the subgroup of the
    # generator x_12, which conjugation by x_23 takes to x_12 x_13^(+-1),
    # outside it; the dims are left alone, so only the normality audit can
    # see it
    real = finite.zassenhaus_filtration_finite

    def planted(group, depth):
        filt = real(group, depth)
        if (group.p, group.order) != (3, 27):
            return filt
        x12 = int(group.generators()[0])
        sub = frozenset(finite.subgroup_closure(group, [x12])[0].tolist())
        subgroups = (filt.subgroups[0], sub) + filt.subgroups[2:]
        return dataclasses.replace(filt, subgroups=subgroups)

    monkeypatch.setattr(finite, "zassenhaus_filtration_finite", planted)
    assert _failures(verify.finite_checks()) == [
        "normality audit: unitriangular(3, 3): degree 2 member is not normal",
    ]
