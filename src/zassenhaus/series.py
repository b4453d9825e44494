"""Exact truncated power series over Q, integer polynomials, and their ratios.

All arithmetic uses fractions.Fraction or arbitrary-precision int; no floats.
A TruncSeries carries its truncation order and raises instead of inventing
coefficients past it, and binary operations only ever claim the order both
operands support.
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


def _as_int(x) -> int:
    if isinstance(x, bool):
        raise TypeError("bool is not a coefficient")
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction) and x.denominator == 1:
        return x.numerator
    raise TypeError(f"integer coefficient expected, got {x!r}")


class TruncPoly:
    """Polynomial with arbitrary-precision integer coefficients.

    Coefficients are stored low degree first with trailing zeros stripped;
    the zero polynomial has an empty coefficient tuple and degree -1.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [_as_int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self._coeffs = tuple(cs)

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self._coeffs

    @property
    def degree(self) -> int:
        return len(self._coeffs) - 1

    def __getitem__(self, n: int) -> int:
        if n < 0:
            raise IndexError("negative degree")
        return self._coeffs[n] if n < len(self._coeffs) else 0

    def __eq__(self, other) -> bool:
        if isinstance(other, TruncPoly):
            return self._coeffs == other._coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __neg__(self) -> TruncPoly:
        return TruncPoly(-c for c in self._coeffs)

    def __add__(self, other) -> TruncPoly:
        if isinstance(other, int):
            other = TruncPoly([other])
        if not isinstance(other, TruncPoly):
            return NotImplemented
        n = max(len(self._coeffs), len(other._coeffs))
        return TruncPoly([self[k] + other[k] for k in range(n)])

    __radd__ = __add__

    def __sub__(self, other) -> TruncPoly:
        if isinstance(other, int):
            other = TruncPoly([other])
        if not isinstance(other, TruncPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> TruncPoly:
        return (-self) + other

    def __mul__(self, other) -> TruncPoly:
        if isinstance(other, int):
            return TruncPoly(c * other for c in self._coeffs)
        if not isinstance(other, TruncPoly):
            return NotImplemented
        if not self._coeffs or not other._coeffs:
            return TruncPoly()
        out = [0] * (len(self._coeffs) + len(other._coeffs) - 1)
        for i, a in enumerate(self._coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other._coeffs):
                out[i + j] += a * b
        return TruncPoly(out)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> TruncPoly:
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            raise NegativeExponent("polynomial power must be >= 0")
        result = TruncPoly([1])
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __repr__(self) -> str:
        return f"TruncPoly({list(self._coeffs)})"


def _content(p: TruncPoly) -> int:
    g = 0
    for c in p.coeffs:
        g = gcd(g, c)
    return g


def _primitive(coeffs: Sequence[Fraction]) -> TruncPoly:
    """Scale a rational-coefficient polynomial to a primitive integer one."""
    cs = [Fraction(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    if not cs:
        return TruncPoly()
    den_lcm = 1
    for c in cs:
        den_lcm = den_lcm * c.denominator // gcd(den_lcm, c.denominator)
    ints = [int(c * den_lcm) for c in cs]
    g = 0
    for c in ints:
        g = gcd(g, c)
    ints = [c // g for c in ints]
    if ints[-1] < 0:
        ints = [-c for c in ints]
    return TruncPoly(ints)


def poly_gcd(a: TruncPoly, b: TruncPoly) -> TruncPoly:
    """Primitive gcd in Z[t], positive leading coefficient (Euclid over Q)."""
    fa = [Fraction(c) for c in a.coeffs]
    fb = [Fraction(c) for c in b.coeffs]
    while fb:
        # remainder of fa modulo fb
        fa = fa[:]
        while len(fa) >= len(fb) and fa:
            q = fa[-1] / fb[-1]
            shift = len(fa) - len(fb)
            for i, c in enumerate(fb):
                fa[shift + i] -= q * c
            while fa and fa[-1] == 0:
                fa.pop()
        fa, fb = fb, fa
    return _primitive(fa)


def _poly_divexact(a: TruncPoly, g: TruncPoly) -> TruncPoly:
    """Quotient a / g, asserting the division is exact over Z."""
    if g.degree < 0:
        raise ZeroDivisionError("division by zero polynomial")
    rem = [Fraction(c) for c in a.coeffs]
    quot = [Fraction(0)] * max(len(rem) - g.degree, 0)
    while len(rem) > g.degree:
        q = rem[-1] / g.coeffs[-1]
        shift = len(rem) - len(g.coeffs)
        quot[shift] = q
        for i, c in enumerate(g.coeffs):
            rem[shift + i] -= q * c
        while rem and rem[-1] == 0:
            rem.pop()
    if rem:
        raise ArithmeticError("inexact polynomial division")
    out = []
    for c in quot:
        if c.denominator != 1:
            raise ArithmeticError("quotient is not integral")
        out.append(c.numerator)
    return TruncPoly(out)


class RationalFunction:
    """Ratio of integer polynomials with denominator nonzero at t = 0.

    Construction reduces to lowest terms (primitive gcd cancelled, content
    cancelled, denominator constant term made positive), so structurally
    different builds of the same function compare equal.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, num, den=(1,)):
        num = num if isinstance(num, TruncPoly) else TruncPoly(num)
        den = den if isinstance(den, TruncPoly) else TruncPoly(den)
        if den[0] == 0:
            raise ZeroConstantDenominator(
                "denominator vanishes at t = 0; no series expansion exists"
            )
        if num.degree < 0:
            den = TruncPoly([1])
        else:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num = _poly_divexact(num, g)
                den = _poly_divexact(den, g)
            k = gcd(_content(num), _content(den))
            if k > 1:
                num = TruncPoly(c // k for c in num.coeffs)
                den = TruncPoly(c // k for c in den.coeffs)
        if den[0] < 0:
            num, den = -num, -den
        self._num = num
        self._den = den

    @property
    def num(self) -> TruncPoly:
        return self._num

    @property
    def den(self) -> TruncPoly:
        return self._den

    def __mul__(self, other) -> RationalFunction:
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return RationalFunction(self._num * other._num, self._den * other._den)

    def __eq__(self, other) -> bool:
        if isinstance(other, RationalFunction):
            return self._num == other._num and self._den == other._den
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._num, self._den))

    def __repr__(self) -> str:
        return f"RationalFunction({list(self._num.coeffs)}, {list(self._den.coeffs)})"


class TruncSeries:
    """Power series truncated at a fixed order, with exact rational coefficients.

    Stores exactly order + 1 coefficients. Indexing past the order raises
    OrderExceeded rather than returning a fabricated zero.
    """

    __slots__ = ("_order", "_coeffs")

    def __init__(self, order: int, coeffs: Iterable[Scalar] = ()):
        if order < 0:
            raise ValueError("order must be >= 0")
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

    def _binary(self, other):
        if isinstance(other, (int, Fraction)):
            other = TruncSeries(self._order, [other])
        if not isinstance(other, TruncSeries):
            return None
        order = min(self._order, other._order)
        return order, other

    def __add__(self, other) -> TruncSeries:
        packed = self._binary(other)
        if packed is None:
            return NotImplemented
        order, other = packed
        return TruncSeries(order, [self._coeffs[k] + other._coeffs[k] for k in range(order + 1)])

    __radd__ = __add__

    def __neg__(self) -> TruncSeries:
        return TruncSeries(self._order, [-c for c in self._coeffs])

    def __sub__(self, other) -> TruncSeries:
        packed = self._binary(other)
        if packed is None:
            return NotImplemented
        order, other = packed
        return TruncSeries(order, [self._coeffs[k] - other._coeffs[k] for k in range(order + 1)])

    def __rsub__(self, other) -> TruncSeries:
        return (-self) + other

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
        a = self._coeffs
        if a[0] == 0:
            raise NotInvertible("constant term is 0")
        n = self._order
        inv0 = 1 / a[0]
        out = [Fraction(0)] * (n + 1)
        out[0] = Fraction(inv0)
        for k in range(1, n + 1):
            acc = Fraction(0)
            for j in range(1, k + 1):
                if a[j] != 0:
                    acc += a[j] * out[k - j]
            out[k] = -inv0 * acc
        return TruncSeries(n, out)

    def log(self) -> TruncSeries:
        """Formal logarithm via the recurrence a * (log a)' = a'.

        For an integer-coefficient input the k-th derivative coefficient
        k * b_k stays integral; NonIntegralLog is raised otherwise, so callers
        need not recheck.
        """
        a = self._coeffs
        if a[0] != 1:
            raise ConstantTermNotOne("log requires constant term 1")
        n = self._order
        integral_input = self.is_integral()
        dlog = [Fraction(0)] * n  # dlog[k] = (k + 1) * b_{k+1}
        for k in range(n):
            acc = Fraction(k + 1) * a[k + 1]
            for j in range(1, k + 1):
                if a[j] != 0:
                    acc -= a[j] * dlog[k - j]
            dlog[k] = acc
            if integral_input and acc.denominator != 1:
                raise NonIntegralLog(k + 1, acc)
        out = [Fraction(0)] * (n + 1)
        for k in range(n):
            out[k + 1] = dlog[k] / (k + 1)
        return TruncSeries(n, out)

    def __pow__(self, e: int) -> TruncSeries:
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            raise NegativeExponent("series power must be >= 0")
        if e == 0:
            return TruncSeries.one(self._order)
        if self._coeffs[0] == 1:
            # (1 + u)^e by binomial expansion; only order // val(u) terms matter,
            # which keeps huge exponents cheap.
            u = self - 1
            v = u.valuation()
            if v is None:
                return TruncSeries.one(self._order)
            acc = TruncSeries.one(self._order)
            uk = TruncSeries.one(self._order)
            for k in range(1, self._order // v + 1):
                uk = uk * u
                acc = acc + comb(e, k) * uk
            return acc
        result = TruncSeries.one(self._order)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, TruncSeries):
            return self._order == other._order and self._coeffs == other._coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._order, self._coeffs))

    def __repr__(self) -> str:
        return f"TruncSeries(order={self._order}, coeffs={[str(c) for c in self._coeffs]})"


def expand_rational(rf: RationalFunction, order: int) -> TruncSeries:
    """Power-series expansion of num/den to the given order, exactly."""
    num, den = rf.num, rf.den
    d0 = Fraction(den[0])
    out = [Fraction(0)] * (order + 1)
    for k in range(order + 1):
        acc = Fraction(num[k])
        for j in range(1, k + 1):
            if den[j] != 0:
                acc -= den[j] * out[k - j]
        out[k] = acc / d0
    return TruncSeries(order, out)


def product_identity_rhs(c: Sequence[int], p: int, order: int) -> TruncSeries:
    """Expand prod_n ((1 - t^(n p)) / (1 - t^n))^(c_n) to the given order.

    c lists c_1, c_2, ... (entry i is the exponent for n = i + 1); factors with
    n > order cannot touch the window and are skipped. Each factor is the
    polynomial 1 + t^n + ... + t^(n(p-1)) raised to c_n.
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    result = TruncSeries.one(order)
    for n, cn in enumerate(c, start=1):
        cn = _as_int(cn)
        if cn < 0:
            raise NegativeExponent(f"c_{n} = {cn} is negative")
        if n > order or cn == 0:
            continue
        top = min(order, n * (p - 1))
        base = TruncSeries(order, [1 if k % n == 0 else 0 for k in range(top + 1)])
        result = result * (base ** cn)
    return result


def format_poly(p: TruncPoly, var: str = "t") -> str:
    """Human-readable rendering like '1 - 2t - 2t^2'."""
    if p.degree < 0:
        return "0"
    parts = []
    for k, c in enumerate(p.coeffs):
        if c == 0:
            continue
        mag = abs(c)
        if k == 0:
            body = str(mag)
        elif k == 1:
            body = var if mag == 1 else f"{mag}{var}"
        else:
            body = f"{var}^{k}" if mag == 1 else f"{mag}{var}^{k}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)
