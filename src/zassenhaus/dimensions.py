"""Dimension pipeline: series coefficients a_n -> log coefficients b_n ->
product exponents w_n -> filtration subquotient dimensions c_n.

The chain implements, in exact arithmetic,

    P(t) = sum a_n t^n = prod_n 1/(1 - t^n)^(w_n),
    w_n  = (1/n) sum_{m | n} mu(n/m) m b_m        with b = log P,
    c_n  = w_m + w_{pm} + ... + w_n               for n = p^k m, gcd(m, p) = 1.

For gcd(n, p) = 1 this gives c_n = w_n, and for p | n it gives
c_n = c_{n/p} + w_n; both identities hold by construction. The closed formulas
that check this chain live in verify, off its route.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .groupspec import Demushkin, Free, GroupSpec, hp_series, validate
from .numtheory import NonIntegralW, is_prime, moebius_table
from .series import LOG_BITS_PER_COEFFICIENT, TruncSeries, check_size

__all__ = [
    "DimensionTable",
    "NonIntegralW",
    "NegativeDimension",
    "UnsupportedSpec",
    "OutOfRange",
    "w_sequence",
    "c_sequence",
    "dims_table",
    "min_generators",
]


class NegativeDimension(ValueError):
    """c_n came out negative: the input is not a group dimension series."""

    def __init__(self, n: int, value: int):
        super().__init__(f"c_{n} = {value} is negative")
        self.degree = n
        self.value = value


class UnsupportedSpec(ValueError):
    """Operation defined only for certain leaf families."""


class OutOfRange(ValueError):
    """Degree argument outside the table's range."""


def w_sequence(b: Sequence[Fraction]) -> list[int]:
    """Product exponents from log coefficients: w_n = (1/n) sum mu(n/m) m b_m.

    b lists b_1, b_2, ... (entry i is the coefficient of t^(i+1) in log P).
    Each s_m = m b_m is added, times mu(k), into degree n = k m for every
    squarefree k, with mu read from one sieved table; for an integral P every
    s_m is an integer and so is the whole sum. Raises NonIntegralW at the
    first degree where n does not divide it.
    """
    top = len(b)
    mu = moebius_table(top)
    squarefree = [(k, mu[k]) for k in range(1, top + 1) if mu[k]]
    sums = [0] * (top + 1)
    for m in range(1, top + 1):
        s = m * Fraction(b[m - 1])
        if s.denominator == 1:
            s = s.numerator
        for k, sign in squarefree:
            if k * m > top:
                break
            sums[k * m] += sign * s
    out = []
    for n in range(1, top + 1):
        w, rest = divmod(sums[n], n)
        if rest:
            raise NonIntegralW(n, Fraction(sums[n], n))
        out.append(w)
    return out


def c_sequence(w: Sequence[int], p: int) -> list[int]:
    """Subquotient dimensions c_n = sum of w over the chain m, pm, ..., n.

    w lists w_1, w_2, ...; raises NegativeDimension at the first negative c_n.
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    out = []
    for n in range(1, len(w) + 1):
        total = w[n - 1]
        m = n
        while m % p == 0:
            m //= p
            total += w[m - 1]
        if total < 0:
            raise NegativeDimension(n, total)
        out.append(total)
    return out


@dataclass(frozen=True)
class DimensionTable:
    """All four sequences for one group at one prime, degrees 1..order.

    Tuples are indexed by degree; entry 0 is padding (a_0 = 1 is real, the
    others hold a zero placeholder so that table.c[n] means c_n).
    """

    p: int
    order: int
    a: tuple[int, ...]
    b: tuple[Fraction, ...]
    w: tuple[int, ...]
    c: tuple[int, ...]

    def galois_exponent(self, n: int) -> int:
        """log_p of the relevant Galois section size: sum of c_1 .. c_(n-1)."""
        if not 1 <= n <= self.order + 1:
            raise OutOfRange(f"n must be in 1..{self.order + 1}, got {n}")
        return sum(self.c[1:n])


def dims_table(spec: GroupSpec, p: int, order: int) -> DimensionTable:
    """Run the whole pipeline for a group expression.

    An order whose Fraction log would pass MAX_SERIES_BITS, at
    LOG_BITS_PER_COEFFICIENT bits a degree, is refused before the series is
    built."""
    validate(spec, p)
    check_size(order, LOG_BITS_PER_COEFFICIENT)
    a = hp_series(spec, p, order)
    b = TruncSeries(order, a).log().coeffs[1:]  # raises ConstantTermNotOne unless a_0 = 1
    w = w_sequence(b)
    return DimensionTable(
        p=p, order=order, a=a, b=(Fraction(0), *b), w=(0, *w), c=(0, *c_sequence(w, p))
    )


def min_generators(spec: GroupSpec, p: int, n: int, c: Sequence[int]) -> int:
    """Minimal generator count of the n-th filtration subgroup (index formula).

    For the free group of rank d the subgroup is free of rank
    p^(c_1 + ... + c_(n-1)) (d - 1) + 1; for a Demushkin group of rank d it is
    Demushkin of rank p^(...) (d - 2) + 2. Other specs are not supported.
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if n < 1:
        raise OutOfRange(f"n must be >= 1, got {n}")
    if len(c) < n - 1:
        raise OutOfRange(f"need c_1..c_{n - 1}, got {len(c)} values")
    if isinstance(spec, Free) and spec.rank >= 1:
        scale, shift = spec.rank - 1, 1
    elif isinstance(spec, Demushkin) and spec.rank >= 2:
        scale, shift = spec.rank - 2, 2
    else:
        raise UnsupportedSpec(
            "index formula applies to free(d >= 1) and demushkin(d >= 2) only"
        )
    exponent = sum(c[: n - 1])
    return p ** exponent * scale + shift
