"""Acceptance gate.

Ten independent criteria, one test per criterion. Each test prints a
single PASS/FAIL line (visible with -s, or via -v through the test name)
and enforces its runtime bound where one applies. All comparisons are
exact integer / rational equality; there are no tolerances anywhere.
"""
import time
from functools import reduce

import numpy as np

from zassenhaus import finite as fin
from zassenhaus.dimensions import (
    dims_table,
    power_sums_free_product_cp,
    w_free_closed,
)
from zassenhaus.groupspec import Cyclic, Free, FreeProduct, SuperPyth, hp_series, parse_group_spec
from zassenhaus.hall import hall_commutators, zassenhaus_basis
from zassenhaus.series import RationalFunction, TruncSeries, expand_rational, product_identity_rhs
from zassenhaus.verify import (
    _jl_polynomial,
    builtin_specs,
    demushkin_c_closed,
    free_c_closed,
    superpyth_c_expected,
)

PRIMES = (2, 3, 5)


def _report(label, ok):
    print(f"{'PASS' if ok else 'FAIL'} {label}")
    assert ok, label


def test_criterion_01_free_closed_forms():
    """c_1..c_5 of free(d) match the closed polynomials in d, all primes."""
    t0 = time.perf_counter()
    ok = True
    for p in PRIMES:
        for d in range(1, 6):
            got = list(dims_table(Free(d), p, 5).c[1:])
            if got != free_c_closed(d, p):
                ok = False
    elapsed = time.perf_counter() - t0
    _report(f"criterion 1: free closed forms, d<=5, p in {PRIMES} ({elapsed:.2f}s < 1s)",
            ok and elapsed < 1.0)


def test_criterion_02_demushkin_closed_forms():
    """c_1..c_5 of demushkin(d) match the closed polynomials, all primes."""
    t0 = time.perf_counter()
    ok = True
    for p in PRIMES:
        for d in range(2, 7):
            got = list(dims_table(parse_group_spec(f"demushkin({d})"), p, 5).c[1:])
            if got != demushkin_c_closed(d, p):
                ok = False
    elapsed = time.perf_counter() - t0
    _report(f"criterion 2: Demushkin closed forms, d in 2..6, p in {PRIMES} ({elapsed:.2f}s < 1s)",
            ok and elapsed < 1.0)


def test_criterion_03_superpythagorean_pattern():
    """superpyth(d): c_1 = d+1, c at powers of 2 is d, otherwise 1; and the
    infinite-product form reproduces the same series."""
    ok = True
    for d in range(0, 6):
        table = dims_table(SuperPyth(d), 2, 20)
        want = superpyth_c_expected(d, 20)
        if list(table.c[1:]) != want:
            ok = False
        if product_identity_rhs(want, 2, 20) != hp_series(SuperPyth(d), 2, 20):
            ok = False
    _report("criterion 3: superpythagorean dimension pattern, d <= 5, n <= 20", ok)


def test_criterion_04_product_identity_roundtrip():
    """Rebuilding P(t) from the computed c_n recovers P(t) for the whole
    built-in catalog at p = 2 and p = 3, N = 24."""
    t0 = time.perf_counter()
    ok = True
    for p in (2, 3):
        for text, spec in builtin_specs(p):
            table = dims_table(spec, p, 24)
            if product_identity_rhs(table.c[1:], p, 24) != hp_series(spec, p, 24):
                ok = False
    elapsed = time.perf_counter() - t0
    _report(f"criterion 4: product identity round trip, N=24, p in (2, 3) ({elapsed:.2f}s < 5s)",
            ok and elapsed < 5.0)


def test_criterion_05_involution_free_products():
    """A free product of d+1 involutions has c_1 one larger than free(d)
    and identical c_n for all n >= 2."""
    ok = True
    for d in range(1, 6):
        chain = reduce(FreeProduct, [Cyclic(2)] * (d + 1))
        tc = dims_table(chain, 2, 24)
        tf = dims_table(Free(d), 2, 24)
        if tc.c[1] != tf.c[1] + 1:
            ok = False
        if tc.c[2:] != tf.c[2:]:
            ok = False
    _report("criterion 5: d+1 involution factors vs free(d), n <= 24", ok)


def test_criterion_06_unitriangular_filtration():
    """Brute-force filtration of U_(n+1)(F_2) reaches dimension 1 at layer n
    and becomes trivial right after; the order-1024 case stays under 60s."""
    t0 = time.perf_counter()
    ok = True
    for n in (2, 3, 4):
        group = fin.unitriangular_group(n + 1, 2)
        filt = fin.zassenhaus_filtration_finite(group, n + 1)
        if filt.dims[n - 1] != 1 or len(filt.subgroups[n]) != 1:
            ok = False
    elapsed = time.perf_counter() - t0
    _report(f"criterion 6: unitriangular filtration depth, n in (2, 3, 4) ({elapsed:.1f}s < 60s)",
            ok and elapsed < 60.0)


def test_criterion_07_group_algebra_consistency():
    """For five concrete groups the augmentation-quotient dimensions equal
    the polynomial built from the brute-force filtration dimensions."""
    groups = [
        fin.cyclic_group(2),
        fin.cyclic_group(3),
        fin.direct_product(fin.cyclic_group(2), fin.cyclic_group(2)),
        fin.unitriangular_group(3, 2),
        fin.unitriangular_group(3, 3),
    ]
    ok = True
    for group in groups:
        filt = fin.zassenhaus_filtration_finite(group, 6)
        dims = list(filt.dims)
        while dims and dims[-1] == 0:
            dims.pop()
        poly = _jl_polynomial(dims, group.p)
        a = fin.group_algebra_aug_dims(group, len(poly))
        if a != [*poly, 0] or sum(a) != group.order:
            ok = False
    _report("criterion 7: group algebra vs filtration on 5 concrete groups", ok)


def test_criterion_08_hall_counts():
    """Hall layer sizes are necklace numbers; basis sizes equal c_n."""
    ok = True
    for d in range(1, 5):
        layers = hall_commutators(d, 10)
        for n in range(1, 11):
            if len(layers[n]) != w_free_closed(d, n):
                ok = False
    for p in (2, 3):
        for d in range(1, 4):
            table = dims_table(Free(d), p, 10)
            for n in range(1, 11):
                if len(zassenhaus_basis(d, p, n)) != table.c[n]:
                    ok = False
    _report("criterion 8: Hall counts = necklace numbers, basis sizes = c_n", ok)


def test_criterion_09_power_sums():
    """Multinomial power sums agree with the Newton route through
    log 1/(1 - d(t + ... + t^p)); Lucas numbers appear at d=1, p=2."""
    ok = True
    for p in PRIMES:
        for d in range(0, 5):
            logs = TruncSeries(15, expand_rational(RationalFunction([1], [1] + [-d] * p), 15)).log()
            for n in range(1, 16):
                if logs[n] * n != power_sums_free_product_cp(d, p, n):
                    ok = False
    lucas = [power_sums_free_product_cp(1, 2, n) for n in range(1, 6)]
    _report("criterion 9: power sums, multinomial vs Newton; Lucas row 1,3,4,7,11",
            ok and lucas == [1, 3, 4, 7, 11])


def test_criterion_10_integrality_grid():
    """Over the full catalog and all working primes every w_n and c_n is an
    integer, c_n >= 0, and the p-divisibility recurrences hold exactly."""
    ok = True
    for p in PRIMES:
        for text, spec in builtin_specs(p):
            table = dims_table(spec, p, 24)  # raises on non-integer w
            for n in range(1, 25):
                if not isinstance(table.w[n], int) or not isinstance(table.c[n], int):
                    ok = False
                if table.c[n] < 0:
                    ok = False
                if n % p and table.c[n] != table.w[n]:
                    ok = False
                if n % p == 0 and table.c[n] != table.c[n // p] + table.w[n]:
                    ok = False
    _report(f"criterion 10: integrality and recurrences, catalog x p in {PRIMES}, N=24", ok)
