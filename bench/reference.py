"""Reference arithmetic for checking zass outputs, in plain int.

Nothing here imports zassenhaus. Every routine transcribes one formula of the
chain expression -> P(t) -> log P -> w_n -> c_n (or of its inverse, the
product identity) directly, so agreement with the program is evidence from a
second route, not a replay of the program's own code.

Series are lists of ints indexed by degree, truncated at a fixed N; every
series inverted here has constant term 1, so integer arithmetic is exact.

Expressions are trees: a leaf is (name, arg) with name one of free, cyclic,
demushkin, zp, superpyth; a product is ("*", factors) for the n-ary free
product or ("x", factors) for the direct product.
"""
from __future__ import annotations


def divisors(n: int) -> list[int]:
    return [m for m in range(1, n + 1) if n % m == 0]


def moebius(n: int) -> int:
    result, f = 1, 2
    while f * f <= n:
        if n % f == 0:
            n //= f
            if n % f == 0:
                return 0
            result = -result
        f += 1
    return -result if n > 1 else result


def _exact_div(num: int, den: int) -> int:
    if num % den:
        raise ArithmeticError(f"{num} is not divisible by {den}")
    return num // den


def necklace(d: int, n: int) -> int:
    """Number of aperiodic necklaces (1/n) sum_(m|n) mu(m) d^(n/m)."""
    return _exact_div(sum(moebius(m) * d ** (n // m) for m in divisors(n)), n)


def power_sums(a: int, b: int, count: int) -> list[int]:
    """s_1..s_count of the inverse roots of 1 - a t + b t^2.

    s_0 = 2, s_1 = a, s_m = a s_(m-1) - b s_(m-2). demushkin(d) is (d, 1),
    free(d) is (d, 0).
    """
    s = [2, a]
    while len(s) <= count:
        s.append(a * s[-1] - b * s[-2])
    return s[1 : count + 1]


def demushkin_power_sums(d: int, count: int) -> list[int]:
    return power_sums(d, 1, count)


def moebius_transform(s: list[int], n: int) -> int:
    """(1/n) sum_(m|n) mu(n/m) s_m, with s listing s_1, s_2, ..."""
    return _exact_div(sum(moebius(n // m) * s[m - 1] for m in divisors(n)), n)


def c_from_w(w: list[int], p: int) -> list[int]:
    """c_n = w_n + w_(n/p) + w_(n/p^2) + ..., with w and c listing degree 1 up."""
    c = []
    for n in range(1, len(w) + 1):
        total, m = w[n - 1], n
        while m % p == 0:
            m //= p
            total += w[m - 1]
        c.append(total)
    return c


# -- truncated integer series ---------------------------------------------


def mul(a: list[int], b: list[int]) -> list[int]:
    n = len(a)
    out = [0] * n
    for i, x in enumerate(a):
        if x:
            for j in range(n - i):
                out[i + j] += x * b[j]
    return out


def inverse(a: list[int]) -> list[int]:
    if a[0] != 1:
        raise ArithmeticError("constant term must be 1")
    out = [1] + [0] * (len(a) - 1)
    for k in range(1, len(a)):
        out[k] = -sum(a[j] * out[k - j] for j in range(1, k + 1) if a[j])
    return out


def expand_rational(num: list[int], den: list[int], order: int) -> list[int]:
    """Coefficients 0..order of num/den, for den[0] = 1."""
    num = num + [0] * (order + 1 - len(num))
    return mul(num[: order + 1], inverse((den + [0] * (order + 1))[: order + 1]))


def _divide_by_one_minus(a: list[int], step: int, times: int = 1) -> list[int]:
    """a / (1 - t^step)^times by running sums."""
    a = list(a)
    for _ in range(times):
        for i in range(step, len(a)):
            a[i] += a[i - step]
    return a


def leaf_series(name: str, arg: int, order: int) -> list[int]:
    ones = [1] + [0] * order
    if name == "free":
        return expand_rational([1], [1, -arg], order)
    if name == "demushkin":
        return expand_rational([1], [1, -arg, 1], order)
    if name == "cyclic":
        return [1 if k < arg else 0 for k in range(order + 1)]
    if name == "zp":
        return _divide_by_one_minus(ones, 1, arg)
    if name == "superpyth":
        # (1 + t) / (1 - t)^d * prod_(i >= 1) 1 / (1 - t^(2i + 1))
        s = _divide_by_one_minus(([1, 1] + [0] * order)[: order + 1], 1, arg)
        for step in range(3, order + 1, 2):
            s = _divide_by_one_minus(s, step)
        return s
    raise ValueError(f"unknown leaf {name!r}")


def series_of(tree, order: int) -> list[int]:
    """Hilbert series P(t) of an expression tree, coefficients 0..order.

    The free product of k factors is (sum P_i^-1 - (k - 1))^-1, the direct
    product is the product of the factors' series.
    """
    head, body = tree
    if head == "*":
        acc = [0] * (order + 1)
        for factor in body:
            for k, x in enumerate(inverse(series_of(factor, order))):
                acc[k] += x
        acc[0] -= len(body) - 1
        return inverse(acc)
    if head == "x":
        acc = [1] + [0] * order
        for factor in body:
            acc = mul(acc, series_of(factor, order))
        return acc
    return leaf_series(head, body, order)


def _times_sparse(a: list[int], step: int, coeffs: list[int]) -> None:
    """a *= sum_k coeffs[k] t^(k step), in place, with coeffs[0] = 1."""
    for i in range(len(a) - 1, step - 1, -1):
        acc = a[i]
        for k in range(1, min(len(coeffs) - 1, i // step) + 1):
            acc += coeffs[k] * a[i - k * step]
        a[i] = acc


def rebuild(c: list[int], p: int, order: int) -> list[int]:
    """prod_n ((1 - t^(np)) / (1 - t^n))^(c_n) to the given order.

    Each factor is applied as two sparse series: (1 - t^(np))^c by the
    binomial theorem and (1 - t^n)^-c = sum_k C(c + k - 1, k) t^(nk).
    """
    out = [1] + [0] * order
    for n, cn in enumerate(c, start=1):
        if n > order or cn == 0:
            continue
        step = n * p
        if step <= order:
            coeffs, binom = [1], 1
            for k in range(1, order // step + 1):
                binom = binom * (cn - k + 1) // k
                coeffs.append(-binom if k % 2 else binom)
            _times_sparse(out, step, coeffs)
        coeffs, binom = [1], 1
        for k in range(1, order // n + 1):
            binom = binom * (cn + k - 1) // k
            coeffs.append(binom)
        _times_sparse(out, n, coeffs)
    return out


def jennings(c: list[int], p: int) -> list[int]:
    """prod_n (1 + t^n + ... + t^((p-1)n))^(c_n), as a full polynomial."""
    poly = [1]
    for n, cn in enumerate(c, start=1):
        for _ in range(cn):
            out = [0] * (len(poly) + (p - 1) * n)
            for i, x in enumerate(poly):
                for j in range(p):
                    out[i + j * n] += x
            poly = out
    return poly
