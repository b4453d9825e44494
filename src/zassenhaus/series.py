"""Exact truncated power series, integer polynomials, and their ratios.

No floats. An integer polynomial is a plain tuple of int, low degree first
with trailing zeros stripped, and () is zero. Rational functions, their
expansions, and the product identity stay in Z[t] with arbitrary-precision
int; only the truncated series, TruncSeries, use fractions.Fraction, for the
logarithm of the Hilbert series. A TruncSeries carries its truncation order
and raises instead of inventing coefficients past it, and binary operations
only ever claim the order both operands support.

Every series quotient is one recurrence, _quotient, which stays in int for an
integer numerator over an integer denominator with constant term 1: the
inverse is 1 / a, the logarithm integrates a' / a, expand_rational is
num / den, and the Hilbert series is its folded num / den. Polynomial
division is likewise one integer pseudo-division, _pseudo_divmod, behind both
poly_gcd and exact division.

Products of polynomials are taken on coefficient tuples by the one fold in
groupspec, and RationalFunction only reduces a finished pair to lowest terms.
"""
from __future__ import annotations

from fractions import Fraction
from math import comb, gcd
from typing import Iterable, Sequence, Union

from .numtheory import is_prime

Scalar = Union[int, Fraction]


class SeriesError(ValueError):
    """Base class for arithmetic contract violations in this module."""


class ZeroConstantDenominator(SeriesError):
    """Denominator vanishes at t = 0, so no power-series expansion exists."""


class NotInvertible(SeriesError):
    """Series has constant term 0 and cannot be inverted."""


class ConstantTermNotOne(SeriesError):
    """log is only defined here for series with constant term 1."""


class NegativeExponent(SeriesError):
    """A product exponent that must be a dimension (hence >= 0) was negative."""


class NonIntegralLog(SeriesError):
    """k * b_k of log P came out non-integral for an integral P."""

    def __init__(self, k: int, value: Fraction):
        super().__init__(f"{k} * b_{k} = {value} is not an integer")
        self.degree = k
        self.value = value


class OrderExceeded(SeriesError):
    """A coefficient beyond the stored truncation order was requested."""


class NegativeOrder(SeriesError):
    """A truncation order below 0: there are no coefficients a_0..a_order."""


def _as_int(x) -> int:
    if isinstance(x, bool):
        raise TypeError("bool is not a coefficient")
    if isinstance(x, int):
        return x
    raise TypeError(f"integer coefficient expected, got {x!r}")


def _strip(coeffs: Iterable[int]) -> tuple[int, ...]:
    """The integer polynomial with these coefficients, low degree first, as a
    tuple without trailing zeros; () is the zero polynomial."""
    cs = [_as_int(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def check_order(order: int) -> None:
    if order < 0:
        raise NegativeOrder("order must be >= 0")


def _primitive(coeffs: Sequence[int]) -> tuple[int, ...]:
    """Divide stripped integer coefficients by their content; leading one > 0."""
    g = gcd(*coeffs)
    if coeffs and coeffs[-1] < 0:
        g = -g
    return tuple(c // g for c in coeffs) if g else ()


def _pseudo_divmod(a: Sequence[int], b: Sequence[int]) -> tuple[list[int], list[int], bool]:
    """q, r and whether m > 1 in m a = q b + r, for b[-1] != 0, in Z[t].

    A step whose leading remainder coefficient b[-1] does not divide first
    scales the remainder and the quotient so far by |b[-1]| / gcd, so m = 1
    exactly when no step scaled. r is stripped: empty exactly when b | a.
    """
    rem, lead = list(a), b[-1]
    quot = [0] * max(len(rem) - len(b) + 1, 0)
    scaled = False
    while True:
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) < len(b):
            return quot, rem, scaled
        if rem[-1] % lead:
            s = abs(lead) // gcd(rem[-1], lead)
            rem = [c * s for c in rem]
            quot = [c * s for c in quot]
            scaled = True
        q = rem[-1] // lead
        shift = len(rem) - len(b)
        quot[shift] = q
        rem[shift:] = [x - q * y for x, y in zip(rem[shift:], b)]


def poly_gcd(a: Iterable[int], b: Iterable[int]) -> tuple[int, ...]:
    """Primitive gcd in Z[t], positive leading coefficient, by the primitive
    remainder sequence; a nonzero constant remainder ends it with gcd 1."""
    fa, fb = _strip(a), _strip(b)
    while len(fb) > 1:
        fa, fb = fb, _primitive(_pseudo_divmod(fa, fb)[1])
    return (1,) if fb else _primitive(fa)


def _poly_divexact(a: tuple[int, ...], g: tuple[int, ...]) -> tuple[int, ...]:
    """Quotient a / g of stripped polynomials; raises ArithmeticError unless
    the division is exact over Z."""
    if not g:
        raise ZeroDivisionError("division by zero polynomial")
    quot, rem, scaled = _pseudo_divmod(a, g)
    if rem:
        raise ArithmeticError("inexact polynomial division")
    if scaled:
        raise ArithmeticError("quotient is not integral")
    return tuple(quot)


def _quotient(num: Sequence, den: Sequence, order: int) -> list:
    """Coefficients 0..order of the series num / den, for den[0] != 0.

    out[k] = (num[k] - sum_{j >= 1} den[j] * out[k - j]) / den[0], visiting only
    the nonzero terms of den; entries past the end of num or den are zero.
    With den[0] == 1 and int coefficients throughout nothing is divided and
    the result is int; otherwise it is Fraction.
    """
    num = num[:order + 1]
    terms = [(j, d) for j, d in enumerate(den[1:order + 1], start=1) if d]
    exact = den[0] == 1 and all(isinstance(x, int) for x in (*num, *(d for _, d in terms)))
    d0 = Fraction(den[0])
    out = []
    for k in range(order + 1):
        acc = num[k] if k < len(num) else 0
        for j, d in terms:
            if j > k:
                break
            acc -= d * out[k - j]
        out.append(acc if exact else acc / d0)
    return out


class RationalFunction:
    """Ratio of integer polynomials with denominator nonzero at t = 0.

    Construction reduces to lowest terms (primitive gcd cancelled, content
    cancelled, denominator constant term made positive) and stores num and
    den as stripped coefficient tuples, so structurally different builds of
    the same function compare equal.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Iterable[int], den: Iterable[int] = (1,)):
        num, den = _strip(num), _strip(den)
        if not den or den[0] == 0:
            raise ZeroConstantDenominator(
                "denominator vanishes at t = 0; no series expansion exists"
            )
        if not num:
            den = (1,)
        else:
            g = poly_gcd(num, den)
            if len(g) > 1:
                num = _poly_divexact(num, g)
                den = _poly_divexact(den, g)
            k = gcd(*num, *den)
            if den[0] < 0:
                k = -k
            num = tuple(c // k for c in num)
            den = tuple(c // k for c in den)
        self.num = num
        self.den = den

    def __eq__(self, other) -> bool:
        if isinstance(other, RationalFunction):
            return self.num == other.num and self.den == other.den
        return NotImplemented

    def __repr__(self) -> str:
        return f"RationalFunction({list(self.num)}, {list(self.den)})"


class TruncSeries:
    """Power series truncated at a fixed order, with exact rational coefficients.

    Stores exactly order + 1 coefficients. Indexing past the order raises
    OrderExceeded rather than returning a fabricated zero.
    """

    __slots__ = ("_order", "_coeffs")

    def __init__(self, order: int, coeffs: Iterable[Scalar] = ()):
        check_order(order)
        cs = [Fraction(c) for c in coeffs]
        if len(cs) > order + 1:
            raise ValueError(f"got {len(cs)} coefficients for order {order}")
        cs.extend([Fraction(0)] * (order + 1 - len(cs)))
        self._order = order
        self._coeffs = tuple(cs)

    @classmethod
    def one(cls, order: int) -> TruncSeries:
        return cls(order, [1])

    @property
    def order(self) -> int:
        return self._order

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return self._coeffs

    def __getitem__(self, n: int) -> Fraction:
        if n < 0:
            raise OrderExceeded("negative index")
        if n > self._order:
            raise OrderExceeded(
                f"coefficient {n} requested but series is truncated at {self._order}"
            )
        return self._coeffs[n]

    def valuation(self) -> int | None:
        """Index of the first nonzero coefficient, or None for the zero series."""
        for k, c in enumerate(self._coeffs):
            if c != 0:
                return k
        return None

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self._coeffs)

    def int_coeffs(self) -> list[int]:
        if not self.is_integral():
            raise ValueError("series has non-integer coefficients")
        return [c.numerator for c in self._coeffs]

    def __add__(self, other) -> TruncSeries:
        if isinstance(other, (int, Fraction)):
            other = TruncSeries(self._order, [other])
        if not isinstance(other, TruncSeries):
            return NotImplemented
        order = min(self._order, other._order)
        return TruncSeries(order, [a + b for a, b in zip(self._coeffs, other._coeffs)])

    __radd__ = __add__

    def __neg__(self) -> TruncSeries:
        return TruncSeries(self._order, [-c for c in self._coeffs])

    def __sub__(self, other) -> TruncSeries:
        if not isinstance(other, (int, Fraction, TruncSeries)):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> TruncSeries:
        if isinstance(other, (int, Fraction)):
            return TruncSeries(self._order, [c * other for c in self._coeffs])
        if not isinstance(other, TruncSeries):
            return NotImplemented
        order = min(self._order, other._order)
        out = [Fraction(0)] * (order + 1)
        for i in range(order + 1):
            a = self._coeffs[i]
            if a == 0:
                continue
            for j in range(order + 1 - i):
                b = other._coeffs[j]
                if b != 0:
                    out[i + j] += a * b
        return TruncSeries(order, out)

    __rmul__ = __mul__

    def inverse(self) -> TruncSeries:
        if self._coeffs[0] == 0:
            raise NotInvertible("constant term is 0")
        return TruncSeries(self._order, _quotient([1], self._coeffs, self._order))

    def log(self) -> TruncSeries:
        """Formal logarithm b = log a from b' = a' / a.

        The coefficient of t^(k-1) in a' / a is s_k = k * b_k. For an
        integer-coefficient input every s_k stays integral;
        NonIntegralLog is raised at the first that is not, so callers need not
        recheck.
        """
        a = self._coeffs
        if a[0] != 1:
            raise ConstantTermNotOne("log requires constant term 1")
        n = self._order
        s = _quotient([k * a[k] for k in range(1, n + 1)], a, n - 1)
        if self.is_integral():
            for k, sk in enumerate(s, start=1):
                if sk.denominator != 1:
                    raise NonIntegralLog(k, sk)
        return TruncSeries(n, [0] + [sk / k for k, sk in enumerate(s, start=1)])

    def __pow__(self, e: int) -> TruncSeries:
        """(a_0 + u)^e = sum_k C(e, k) a_0^(e - k) u^k, over k <= e.

        u^k vanishes in the window once k > order // val(u), which keeps huge
        exponents cheap.
        """
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            raise NegativeExponent("series power must be >= 0")
        a0 = self._coeffs[0]
        u = self - a0
        v = u.valuation()
        top = 0 if v is None else min(e, self._order // v)
        acc = TruncSeries(self._order, [a0 ** e])
        uk = TruncSeries.one(self._order)
        for k in range(1, top + 1):
            uk = uk * u
            acc = acc + comb(e, k) * a0 ** (e - k) * uk
        return acc

    def __eq__(self, other) -> bool:
        if isinstance(other, TruncSeries):
            return self._order == other._order and self._coeffs == other._coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._order, self._coeffs))

    def __repr__(self) -> str:
        return f"TruncSeries(order={self._order}, coeffs={[str(c) for c in self._coeffs]})"


def expand_rational(rf: RationalFunction, order: int) -> tuple[Scalar, ...]:
    """Coefficients 0..order of the series num / den, exactly: int when
    den[0] == 1, as for every closed form of a group expression, and Fraction
    otherwise."""
    check_order(order)
    return tuple(_quotient(rf.num, rf.den, order))


def _times_binomial(out: list[int], step: int, e: int) -> None:
    """Multiply out, in place and cut at its length, by (1 - t^step)^e.

    The factor is sum_k (-1)^k C(e, k) t^(step k) for any integer e. Term k
    follows from term k - 1 by the exact integer step
    term_k = term_(k-1) (k - 1 - e) / k, and for e >= 0 the terms past k = e
    are 0.
    """
    old = out[:]
    term = 1
    for k in range(1, (len(out) - 1) // step + 1):
        term = term * (k - 1 - e) // k
        if term == 0:
            break
        shift = k * step
        out[shift:] = [x + term * y for x, y in zip(out[shift:], old)]


def product_identity_rhs(c: Sequence[int], p: int, order: int) -> tuple[int, ...]:
    """Coefficients 0..order of prod_n ((1 - t^(n p)) / (1 - t^n))^(c_n).

    c lists c_1, c_2, ... (entry i is the exponent for n = i + 1); factors with
    n > order cannot touch the window and are skipped. Each factor is the
    product of two sparse binomial series with integer coefficients,

        (1 - t^(n p))^c = sum_k (-1)^k C(c, k) t^(n p k),   floor(N/(n p)) + 1 terms,
        (1 - t^n)^(-c)  = sum_k C(c + k - 1, k) t^(n k),    floor(N/n) + 1 terms,

    so the whole expansion is O(N^2 log N) integer multiply-adds, however large
    c_n is, and takes no logarithm and no division of series.
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    check_order(order)
    out = [1] + [0] * order
    for n, cn in enumerate(c, start=1):
        cn = _as_int(cn)
        if cn < 0:
            raise NegativeExponent(f"c_{n} = {cn} is negative")
        if n > order or cn == 0:
            continue
        _times_binomial(out, n * p, cn)
        _times_binomial(out, n, -cn)
    return tuple(out)


def format_poly(coeffs: Sequence[int]) -> str:
    """Human-readable rendering like '1 - 2t - 2t^2' of coefficients listed
    low degree first."""
    parts = []
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        mag = abs(c)
        if k == 0:
            body = str(mag)
        elif k == 1:
            body = "t" if mag == 1 else f"{mag}t"
        else:
            body = f"t^{k}" if mag == 1 else f"{mag}t^{k}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts) or "0"
