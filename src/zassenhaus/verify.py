"""Cross-route verification suites.

Each check computes the same quantity along two independent routes and
compares exactly. The CLI exposes these to users through its suite table,
cli.SUITES, which names each suite and the function here that runs it; the
test suite asserts them.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest
from typing import TYPE_CHECKING

from .dimensions import (
    dims_table,
    power_sums_free_product_cp,
    w_demushkin_closed,
    w_demushkin_power_sum,
    w_free_closed,
)
from .groupspec import (
    Cyclic,
    Free,
    FreeProduct,
    GroupSpec,
    closed_form,
    hp_series,
    parse_group_spec,
)
from .series import _quotient, check_order, expand_rational, product_identity_rhs

# the finite suite alone needs numpy: its functions import finite when called
if TYPE_CHECKING:
    from . import finite as fin


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _ok(name: str) -> CheckResult:
    return CheckResult(name, True)


def _fail(name: str, spec: str, n, expected, got) -> CheckResult:
    return CheckResult(
        name, False, f"spec={spec} n={n} expected={expected} got={got}"
    )


def _compare(name: str, spec: str, want, got, start: int = 1) -> CheckResult:
    """Pass when the sequences are equal; else fail at the first difference.

    Entry i stands for degree start + i. Sequences of different lengths
    fail where the shorter one ends, with the absent entry shown as missing.
    """
    pairs = zip_longest(want, got, fillvalue="missing")
    for n, (expected, actual) in enumerate(pairs, start=start):
        if expected != actual:
            return _fail(name, spec, n, expected, actual)
    return _ok(name)


def builtin_specs(p: int) -> list[tuple[str, GroupSpec]]:
    """The catalog of representative expressions exercised by the suites."""
    texts = [
        "free(0)",
        "free(1)",
        "free(2)",
        "free(3)",
        f"cyclic({p})",
        "zp(1)",
        "zp(3)",
        "demushkin(2)",
        "demushkin(3)",
        "demushkin(4)",
        f"cyclic({p}) * cyclic({p})",
        f"cyclic({p}) * cyclic({p}) * cyclic({p})",
        f"cyclic({p}) * free(2)",
        "demushkin(3) * demushkin(4) * free(1)",
        "free(2) x free(2)",
        f"zp(2) x cyclic({p})",
        f"(cyclic({p}) * free(1)) x zp(1)",
    ]
    if p == 2:
        texts += [
            "superpyth(0)",
            "superpyth(2)",
            "superpyth(3)",
            "superpyth(2) x free(1)",
        ]
    return [(t, parse_group_spec(t)) for t in texts]


# -- roundtrip suite -------------------------------------------------------


def roundtrip_checks(p: int = 2, order: int = 20) -> list[CheckResult]:
    """Product identity: rebuilding P from the computed c_n returns P.

    The left-hand side is the table's own a_n, the coefficients of P that the
    pipeline started from; the right-hand side multiplies integer binomial
    series and never takes the logarithm the pipeline went through.

    Also re-asserts the arithmetic relations of the pipeline on each table:
    c_n = w_n when gcd(n, p) = 1 and c_n = c_(n/p) + w_n when p | n.
    """
    out = []
    for text, spec in builtin_specs(p):
        table = dims_table(spec, p, order)
        rhs = product_identity_rhs(table.c[1:], p, order)
        out.append(_compare(f"roundtrip: {text}", text, table.a, rhs, start=0))
        if not out[-1].passed:
            continue
        want = [
            table.w[n] if n % p else table.c[n // p] + table.w[n] for n in range(1, order + 1)
        ]
        out.append(_compare(f"pipeline relations: {text}", text, want, table.c[1:]))
    return out


# -- closed-form suite -----------------------------------------------------


def free_c_closed(d: int, p: int) -> list[int]:
    """c_1..c_5 of the rank-d free group, by the explicit polynomials in d."""
    return [
        d,
        (d * d + d) // 2 if p == 2 else (d * d - d) // 2,
        (d ** 3 + 2 * d) // 3 if p == 3 else (d ** 3 - d) // 3,
        (d ** 4 + d * d + 2 * d) // 4 if p == 2 else (d ** 4 - d * d) // 4,
        (d ** 5 + 4 * d) // 5 if p == 5 else (d ** 5 - d) // 5,
    ]


def demushkin_c_closed(d: int, p: int) -> list[int]:
    """c_1..c_5 of the rank-d Demushkin group, by the explicit polynomials."""
    return [
        d,
        (d * d + d - 2) // 2 if p == 2 else (d * d - d - 2) // 2,
        (d ** 3 - d) // 3 if p == 3 else (d ** 3 - 4 * d) // 3,
        (d ** 4 - 3 * d * d + 2 * d) // 4 if p == 2 else (d ** 4 - 5 * d * d + 4) // 4,
        (d ** 5 - 5 * d ** 3 + 9 * d) // 5 if p == 5 else (d ** 5 - 5 * d ** 3 + 4 * d) // 5,
    ]


def superpyth_c_expected(d: int, order: int) -> list[int]:
    """c_1..c_order for superpyth(d): d+1, then d at powers of 2, else 1."""
    out = [d + 1]
    for n in range(2, order + 1):
        out.append(d if (n & (n - 1)) == 0 else 1)
    return out


def closedform_checks(p: int = 2, order: int = 24) -> list[CheckResult]:
    check_order(order)
    out = []
    degrees = range(1, order + 1)

    for d in range(1, 6):
        got = dims_table(Free(d), p, 5).c[1:]
        name = f"free({d}) c_1..c_5 closed forms, p={p}"
        out.append(_compare(name, f"free({d})", free_c_closed(d, p), got))

    for d in range(2, 7):
        got = dims_table(parse_group_spec(f"demushkin({d})"), p, 5).c[1:]
        name = f"demushkin({d}) c_1..c_5 closed forms, p={p}"
        out.append(_compare(name, f"demushkin({d})", demushkin_c_closed(d, p), got))

    for text, spec in builtin_specs(p):
        form = closed_form(spec, p)
        name = f"closed form expands to series: {text}"
        if isinstance(form, str):
            out.append(_ok(name) if form else _fail(name, text, "-", "product form", "missing"))
        else:
            got = expand_rational(form, order)
            out.append(_compare(name, text, hp_series(spec, p, order), got, start=0))

    for d in range(1, 4):
        table = dims_table(Free(d), p, order)
        name = f"necklace counts match free({d}) exponents, p={p}"
        want = [w_free_closed(d, n) for n in degrees]
        out.append(_compare(name, f"free({d})", want, table.w[1:]))

    for d in range(2, 6):
        table = dims_table(parse_group_spec(f"demushkin({d})"), p, order)
        name = f"demushkin({d}) exponents: binomial = power sums = pipeline, p={p}"
        closed = [w_demushkin_closed(d, n) for n in degrees]
        # got is the (power sums, pipeline) pair wherever either route differs
        routes = [(w_demushkin_power_sum(d, n), table.w[n]) for n in degrees]
        got = [w if pair == (w, w) else pair for w, pair in zip(closed, routes)]
        out.append(_compare(name, f"demushkin({d})", closed, got))

    if p == 2:
        for d in range(0, 6):
            spec = parse_group_spec(f"superpyth({d})")
            want = superpyth_c_expected(d, 20)
            name = f"superpyth({d}) dimension pattern"
            out.append(_compare(name, f"superpyth({d})", want, dims_table(spec, 2, 20).c[1:]))
            name = f"superpyth({d}) product form rebuilds the series"
            lhs = product_identity_rhs(want, 2, 20)
            rhs = hp_series(spec, 2, 20)
            out.append(_compare(name, f"superpyth({d})", rhs, lhs, start=0))

        for d in range(1, 6):
            t_chain = dims_table(FreeProduct(*[Cyclic(2)] * (d + 1)), 2, order)
            t_free = dims_table(Free(d), 2, order)
            # one more generator than free(d) in degree 1, the same dims above
            want = [c + (n == 1) for n, c in enumerate(t_free.c[1:], start=1)]
            name = f"{d + 1} involution factors vs free({d})"
            out.append(_compare(name, f"free({d})", want, t_chain.c[1:]))
            want_eps = ([-1, 1] + [0] * order)[:order]
            got_eps = [t_free.w[n] - t_chain.w[n] for n in degrees]
            name = f"exponent defect pattern, rank {d}"
            out.append(_compare(name, f"free({d})", want_eps, got_eps))

    for d in range(0, 5):
        name = f"power sums: multinomial vs Newton route, d={d}, p={p}"
        f = (1,) + (-d,) * p
        # s_n = n [t^n] log(1 / f), the coefficient of t^(n-1) in -f' / f
        newton = _quotient([k * d for k in range(1, p + 1)], f, 14)
        multi = [power_sums_free_product_cp(d, p, n) for n in range(1, 16)]
        out.append(_compare(name, f"d={d}", newton, multi))

    return out


# -- finite oracle suite ---------------------------------------------------


def _jl_polynomial(c: list[int], p: int) -> tuple[int, ...]:
    """prod_n (1 + t^n + ... + t^(n(p-1)))^(c_n), as an exact polynomial.

    It is the product identity's right-hand side taken to its full degree.
    """
    degree = (p - 1) * sum(n * cn for n, cn in enumerate(c, start=1))
    return product_identity_rhs(c, p, degree)


def _dims_until_trivial(result: fin.FiltrationResult) -> list[int]:
    dims = list(result.dims)
    while dims and dims[-1] == 0:
        dims.pop()
    return dims


def _check_jl_finite(name: str, group: fin.FiniteGroup, depth: int) -> CheckResult:
    """Group algebra filtration vs the polynomial built from subgroup dims."""
    from . import finite as fin

    filt = fin.zassenhaus_filtration_finite(group, depth)
    if len(filt.subgroups[-1]) != 1:
        return CheckResult(name, False, f"filtration not exhausted at depth {depth}")
    poly = _jl_polynomial(_dims_until_trivial(filt), group.p)
    a = fin.group_algebra_aug_dims(group, len(poly))
    result = _compare(name, name, [*poly, 0], a, start=0)
    if result.passed and sum(a) != group.order:
        return CheckResult(name, False, f"dims sum to {sum(a)}, not |G| = {group.order}")
    return result


def group_algebra_cases(include_slow: bool = False) -> list[tuple[str, fin.FiniteGroup, int]]:
    """(label, group, filtration depth) of each group-algebra check."""
    from . import finite as fin

    c2 = fin.cyclic_group(2)
    cases = [
        ("cyclic(2)", c2, 3),
        ("cyclic(3)", fin.cyclic_group(3), 3),
        ("cyclic(2) x cyclic(2)", fin.direct_product(c2, c2), 3),
        ("unitriangular(3, 2)", fin.unitriangular_group(3, 2), 4),
        ("unitriangular(3, 3)", fin.unitriangular_group(3, 3), 4),
        ("unitriangular(3, 5)", fin.unitriangular_group(3, 5), 3),
        ("unitriangular(3, 7)", fin.unitriangular_group(3, 7), 3),
        ("unitriangular(5, 2)", fin.unitriangular_group(5, 2), 6),
    ]
    if include_slow:
        cases.append(("unitriangular(4, 3)", fin.unitriangular_group(4, 3), 4))
    return cases


def finite_checks(include_slow: bool = False) -> list[CheckResult]:
    from . import finite as fin

    out = []

    # central series landing: dim G_(n) / G_(n+1) = 1 and G_(n+1) = 1
    # for the full unitriangular group on n+1 points
    for n in (2, 3, 4, 5):
        group = fin.unitriangular_group(n + 1, 2)
        filt = fin.zassenhaus_filtration_finite(group, n + 1)
        name = f"unitriangular({n + 1}, 2): last nontrivial layer at degree {n}"
        if filt.dims[n - 1] == 1 and len(filt.subgroups[n]) == 1:
            out.append(_ok(name))
        else:
            out.append(
                _fail(name, name, n, "(1, trivial)",
                      (filt.dims[n - 1], len(filt.subgroups[n])))
            )

    # cyclic groups collapse immediately
    for p in (2, 3, 5):
        filt = fin.zassenhaus_filtration_finite(fin.cyclic_group(p), 4)
        name = f"cyclic({p}) filtration is [1, 0, 0, ...]"
        out.append(_compare(name, name, [1, 0, 0, 0], filt.dims))

    # group algebra dimensions match the polynomial from the filtration
    for label, group, depth in group_algebra_cases(include_slow):
        out.append(_check_jl_finite(f"group algebra vs filtration: {label}", group, depth))

    # every filtration member must be normal
    for label, group, depth in [
        ("unitriangular(3, 2)", fin.unitriangular_group(3, 2), 4),
        ("unitriangular(4, 2)", fin.unitriangular_group(4, 2), 5),
        ("unitriangular(3, 3)", fin.unitriangular_group(3, 3), 4),
    ]:
        filt = fin.zassenhaus_filtration_finite(group, depth)
        name = f"normality audit: {label}"
        bad = None
        everyone = list(range(group.order))
        for i, sub in enumerate(filt.subgroups):
            conj = group.conjugates(everyone, sorted(sub))
            if not set(int(x) for x in conj) <= sub:
                bad = i + 1
                break
        out.append(
            _ok(name) if bad is None else
            CheckResult(name, False, f"degree {bad} member is not normal")
        )

    # direct products add dimensions layerwise
    f1 = fin.unitriangular_group(2, 2)
    f2 = fin.unitriangular_group(3, 2)
    d1 = fin.zassenhaus_filtration_finite(f1, 4).dims
    d2 = fin.zassenhaus_filtration_finite(f2, 4).dims
    dp = fin.zassenhaus_filtration_finite(fin.direct_product(f1, f2), 4).dims
    name = "direct product adds layer dimensions"
    out.append(_compare(name, name, [x + y for x, y in zip(d1, d2)], dp))

    return out
