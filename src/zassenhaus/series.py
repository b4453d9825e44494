"""Exact truncated power series, integer polynomials, and their ratios.

No floats. An integer polynomial is a plain tuple of int, low degree first
with trailing zeros stripped, and () is zero. Rational functions, their
expansions, and the product identity stay in Z[t] with arbitrary-precision
int; only the truncated series, TruncSeries, use fractions.Fraction, for the
logarithm of the Hilbert series. A TruncSeries carries its truncation order
and raises instead of inventing coefficients past it, and binary operations
only ever claim the order both operands support.

Every integer coefficient list is built by a kernel here, and each refuses
with SeriesTooLarge past MAX_SERIES_BITS (check_size). _quotient, the one
series quotient (inverse, log, expand_rational and hp_series), counts the
bits it builds; _mul, _plus_multiple and _times_binomial bound theirs from
their inputs before they allocate, and _mul also refuses past
MAX_PRODUCT_STEPS multiply-adds, weighted by coefficient width. _mul and
_plus_multiple are the whole fold of groupspec, and _times_binomial is every
binomial factor (1 - t^step)^e, for the product identity, which checks its
order first, and the zp and superpyth leaves. Polynomial
division is one integer pseudo-division, _pseudo_divmod, behind poly_gcd and
exact division, and RationalFunction only reduces a finished pair.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import comb, gcd
from typing import Iterable, Sequence

from .numtheory import is_prime

# The most bits that the integer coefficients of one series, or of one exact
# polynomial, may take, each coefficient counted as at least one 64-bit word;
# past it SeriesTooLarge refuses the input rather than run out of memory.
MAX_SERIES_BITS = 1 << 30

# The fewest bits that one degree of dimensions.dims_table takes with its
# Fraction logarithm, counted against the same budget.  Measured with
# tracemalloc on Python 3.11: the peak of dims_table on cyclic(2), whose log
# has the smallest coefficients, is 255 bytes a degree at order 400 and
# 272 at order 8000.
LOG_BITS_PER_COEFFICIENT = 8 * 255

# The most weighted multiply-adds one product of coefficient tuples, _mul,
# may take; past it SeriesTooLarge refuses the product rather than run for
# minutes.  A multiply-add of an a-bit by a b-bit int weighs
# (1 + a/256)(1 + b/256): on Python 3.11.7 and one Xeon core it takes 43 to
# 69 ns a unit of that weight from 1 to 4096 bits, so the limit is 3 to 5 s.
MAX_PRODUCT_STEPS = 1 << 26


class SeriesError(ValueError):
    """An arithmetic contract violation in this module, such as a constant
    term 0 where it must not be or a coefficient past the truncation order."""


class SeriesTooLarge(SeriesError):
    """The coefficients asked for would take more than MAX_SERIES_BITS bits."""


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


def check_size(degree: int, word: int = 64, upper: bool = False) -> None:
    """Refuse coefficients up to t^degree that pass MAX_SERIES_BITS at
    max(64, word) bits each, before any of them is allocated.

    word is the fewest bits a coefficient takes, 64 by default, or with upper
    the most that a kernel's inputs allow; the message names which bound the
    figure is."""
    bits = max(64, word) * (degree + 1)
    if bits > MAX_SERIES_BITS:
        take, bound = ("could take up to", "an upper") if upper else ("would take at least", "a lower")
        raise SeriesTooLarge(
            f"coefficients up to degree {degree} {take} {bits} bits ({bound} bound), "
            f"over the budget of {MAX_SERIES_BITS} bits"
        )


def _bits(coeffs: Iterable[int]) -> int:
    """The most bits any of these int coefficients takes, 0 for none."""
    return max(map(int.bit_length, coeffs), default=0)


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
    the result is int; otherwise it is Fraction. An order that check_size
    refuses is refused at once, and in int SeriesTooLarge is raised at the
    first coefficient that takes the running total of bits, at least 64 a
    coefficient, past MAX_SERIES_BITS.
    """
    check_size(order)
    num = num[:order + 1]
    terms = [(j, d) for j, d in enumerate(den[1:order + 1], start=1) if d]
    exact = den[0] == 1 and all(isinstance(x, int) for x in (*num, *(d for _, d in terms)))
    d0 = Fraction(den[0])
    out = []
    bits = 0
    for k in range(order + 1):
        acc = num[k] if k < len(num) else 0
        for j, d in terms:
            if j > k:
                break
            acc -= d * out[k - j]
        if exact:
            bits += max(64, acc.bit_length())
            if bits > MAX_SERIES_BITS:
                raise SeriesTooLarge(
                    f"coefficients a_0..a_{k} of a series to degree {order} take "
                    f"{bits} bits, over the budget of {MAX_SERIES_BITS} bits"
                )
            out.append(acc)
        else:
            out.append(acc / d0)
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
            raise SeriesError("denominator vanishes at t = 0; no series expansion exists")
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
    SeriesError rather than returning a fabricated zero.
    """

    __slots__ = ("_order", "_coeffs")

    def __init__(self, order: int, coeffs: Iterable[int | Fraction] = ()):
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
            raise SeriesError("negative index")
        if n > self._order:
            raise SeriesError(f"coefficient {n} requested but series is truncated at {self._order}")
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
            raise SeriesError("constant term is 0")
        return TruncSeries(self._order, _quotient([1], self._coeffs, self._order))

    def log(self) -> TruncSeries:
        """Formal logarithm b = log a from b' = a' / a.

        The coefficient of t^(k-1) in a' / a is s_k = k * b_k. With a_0 = 1
        the quotient divides by 1 alone, so for an integer-coefficient input
        every s_k is an integer (Newton's identities).
        """
        a = self._coeffs
        if a[0] != 1:
            raise SeriesError("log requires constant term 1")
        n = self._order
        s = _quotient([k * a[k] for k in range(1, n + 1)], a, n - 1)
        return TruncSeries(n, [0] + [sk / k for k, sk in enumerate(s, start=1)])

    def __pow__(self, e: int) -> TruncSeries:
        """(a_0 + u)^e = sum_k C(e, k) a_0^(e - k) u^k, over k <= e.

        u^k vanishes in the window once k > order // val(u), which keeps huge
        exponents cheap.
        """
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            raise SeriesError("series power must be >= 0")
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


def expand_rational(rf: RationalFunction, order: int) -> tuple[int | Fraction, ...]:
    """Coefficients 0..order of the series num / den, exactly: int when
    den[0] == 1, as for every closed form of a group expression, and Fraction
    otherwise."""
    check_order(order)
    return tuple(_quotient(rf.num, rf.den, order))


def _mul(a: tuple, b: tuple, size: int | None) -> tuple:
    """The product of two coefficient tuples, cut after `size` terms if given.

    Refused with SeriesTooLarge before anything is multiplied when its
    multiply-adds, nonzero terms of a times terms of b, each weighed by the
    widest coefficients of a and b as at MAX_PRODUCT_STEPS, pass that limit,
    or when its coefficients could pass MAX_SERIES_BITS: each is a sum of at
    most min(nonzero terms of a, terms of b) products.
    """
    if len(a) > len(b):
        a, b = b, a
    n = len(a) + len(b) - 1 if size is None else min(len(a) + len(b) - 1, size)
    a, b = a[:n], b[:n]
    terms, bits_a, bits_b = len(a) - a.count(0), _bits(a), _bits(b)
    steps = terms * len(b) * (256 + bits_a) * (256 + bits_b) >> 16
    if steps > MAX_PRODUCT_STEPS:
        raise SeriesTooLarge(
            f"coefficients up to degree {n - 1} of a product could take up to "
            f"{steps} weighted multiply-adds, over the limit of {MAX_PRODUCT_STEPS}"
        )
    check_size(n - 1, bits_a + bits_b + min(terms, len(b)).bit_length(), upper=True)
    out = [0] * n
    for i, x in enumerate(a):
        if x:
            seg = b[:n - i]
            end = i + len(seg)
            out[i:end] = [o + x * y for o, y in zip(out[i:end], seg)]
    return tuple(out)


def _plus_multiple(a: tuple, m: int, b: tuple) -> tuple:
    """a + m * b, coefficientwise, refused with SeriesTooLarge before it is
    built when its coefficients could pass MAX_SERIES_BITS."""
    check_size(max(len(a), len(b)) - 1, max(_bits(a), m.bit_length() + _bits(b)) + 1, upper=True)
    return tuple(x + m * y for x, y in zip_longest(a, b, fillvalue=0))


def _times_binomial(out: list[int], step: int, e: int) -> None:
    """Multiply out, in place and cut at its length, by (1 - t^step)^e.

    The factor is sum_k (-1)^k C(e, k) t^(step k) for any integer e; its terms
    up to top = (len(out) - 1) // step, and for e >= 0 up to e, land in out.
    Term k follows from term k - 1 by the exact integer step
    term_k = term_(k-1) (k - 1 - e) / k. Only the part of out up to its last
    nonzero entry is shifted, so a sparse out costs one step per term.

    Those terms are C(e, k), or C(k - e - 1, k) for e < 0, and their absolute
    sum is at most 2^n and 2^(top bits(n)), for n = e, or n = top - e when
    e < 0. A coefficient of out gains at most that many bits, and an out that
    could pass MAX_SERIES_BITS is refused before it is multiplied.
    """
    top = (len(out) - 1) // step
    top, n = (min(top, e), e) if e >= 0 else (top, top - e)
    check_size(len(out) - 1, _bits(out) + min(n, top * n.bit_length()), upper=True)
    old = out[:]
    while old and old[-1] == 0:
        old.pop()
    term = 1
    for k in range(1, top + 1):
        term = term * (k - 1 - e) // k
        shift = k * step
        end = shift + len(old)
        out[shift:end] = [x + term * y for x, y in zip(out[shift:end], old)]


def product_identity_rhs(c: Sequence[int], p: int, order: int) -> tuple[int, ...]:
    """Coefficients 0..order of prod_n ((1 - t^(n p)) / (1 - t^n))^(c_n).

    c lists c_1, c_2, ... (entry i is the exponent for n = i + 1); factors with
    n > order, and numerators with n p > order, cannot touch the window and
    are skipped. Each factor is the product of two sparse binomial series with
    integer coefficients,

        (1 - t^(n p))^c = sum_k (-1)^k C(c, k) t^(n p k),   floor(N/(n p)) + 1 terms,
        (1 - t^n)^(-c)  = sum_k C(c + k - 1, k) t^(n k),    floor(N/n) + 1 terms,

    so the whole expansion is O(N^2 log N) integer multiply-adds, however large
    c_n is, and takes no logarithm and no division of series.
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    check_order(order)
    check_size(order)
    out = [1] + [0] * order
    for n, cn in enumerate(c, start=1):
        cn = _as_int(cn)
        if cn < 0:
            raise SeriesError(f"c_{n} = {cn} is negative")
        if n > order or cn == 0:
            continue
        if n * p <= order:
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
