"""Hall commutator sets on free generators and restricted-power bases.

The free generators are ordered x_1 > ... > x_d; commutators are ordered by
weight first (heavier is greater), then lexicographically by components.
Weight-n sets are built from the standard condition: [c1, c2] is admitted
when c1 > c2 and, if c1 = [c3, c4], additionally c2 >= c4.
"""
from __future__ import annotations

import math
from typing import NamedTuple

from .numtheory import is_prime, w_free_closed

# The most elements zassenhaus_basis lists: it holds every Hall layer up to
# weight n in memory at once, so the cap bounds its time and memory.
MAX_BASIS_ELEMENTS = 100_000

# The most bits, n log2 d, of the largest power d^n that the exact count of a
# rank-d basis is built from; past it the count is bounded from below.
_EXACT_COUNT_BITS = 1 << 20


class BasisArgumentError(ValueError):
    """A rank, weight, prime or degree for which no basis is defined."""


class BasisTooLarge(ValueError):
    """The requested basis has more than MAX_BASIS_ELEMENTS elements."""


def _layers(d: int, max_weight: int) -> dict[int, list[str]]:
    """Text of the nonempty Hall layers up to max_weight, each smallest first.

    An element is named by its weight w and its position i in the sorted
    weight-w layer, so comparing two elements is comparing these pairs.
    rights[w][i] is the pair of the right component of element (w, i), None
    for a generator: [c1, c2] with c1 > c2 is admitted when c2 >= rights of c1.
    A weight-n element has a left component of weight n1 with n1 < n <= 2 n1,
    so once n passes twice the heaviest nonempty layer no later layer can be
    nonempty and the loop stops: a rank-1 run, whose only layer is weight 1,
    stops at n = 3 whatever max_weight is.
    """
    text = {1: [f"x{d - i}" for i in range(d)]}
    rights = {1: [None] * d}
    top = 1  # the heaviest nonempty layer
    for n in range(2, max_weight + 1):
        if n > 2 * top:
            break
        new_text, new_rights = [], []
        for n1 in [w for w in text if w < n <= 2 * w and n - w in text]:
            n2 = n - n1
            layer2 = text[n2]
            for i1, lim in enumerate(rights[n1]):
                stop = i1 if n1 == n2 else len(layer2)
                if lim is None or lim[0] < n2:
                    start = 0
                elif lim[0] == n2:
                    start = lim[1]
                else:
                    continue
                left = "[" + text[n1][i1] + ","
                new_text.extend([left + t + "]" for t in layer2[start:stop]])
                if n < max_weight:  # the top layer is no left component
                    new_rights.extend([(n2, i2) for i2 in range(start, stop)])
        if new_text:
            text[n] = new_text
            rights[n] = new_rights
            top = n
    return text


def hall_commutators(d: int, max_weight: int) -> list[list[str]]:
    """Hall sets C_1..C_max_weight as text; entry [w] lists weight w, greatest first.

    Entry [0] is empty padding so that result[w] is the weight-w layer.
    """
    if d < 1:
        raise BasisArgumentError(f"rank must be >= 1, got {d}")
    if max_weight < 1:
        raise BasisArgumentError(f"max weight must be >= 1, got {max_weight}")
    layers = _layers(d, max_weight)
    return [[]] + [layers.get(w, [])[::-1] for w in range(1, max_weight + 1)]


class BasisElement(NamedTuple):
    """A Hall commutator of the given weight raised to the p-power p^p_exponent."""

    commutator: str
    weight: int
    p_exponent: int


def zassenhaus_basis(d: int, p: int, n: int) -> list[BasisElement]:
    """Basis of the degree-n filtration subquotient of the rank-d free group.

    For n = p^k m with gcd(m, p) = 1 the blocks are C_m with exponent k,
    C_{pm} with exponent k - 1, ..., C_n with exponent 0, in that order.
    The size is counted first, from the necklace counts |C_w| of the chain,
    and a basis over MAX_BASIS_ELEMENTS raises BasisTooLarge unenumerated.
    The exact count costs time linear in n log2 d, the bits of d^n, so past
    _EXACT_COUNT_BITS of them the refusal rests on the lower bound
    |C_n| >= (d^n - 2 d^(n//2)) / n: the Moebius sum for |C_n| subtracts at
    most d + d^2 + ... + d^(n//2) < 2 d^(n//2) from d^n.
    """
    if not is_prime(p):
        raise BasisArgumentError(f"p must be prime, got {p}")
    if d < 1:
        raise BasisArgumentError(f"rank must be >= 1, got {d}")
    if n < 1:
        raise BasisArgumentError(f"degree must be >= 1, got {n}")
    if d >= 2 and (n > _EXACT_COUNT_BITS or n * math.log2(d) > _EXACT_COUNT_BITS):
        # n > 2^20 implies n log2 d > 2^20 and keeps n * log2 d off a float
        # overflow; the bound is then over 2^(2^20) / 2^20, far past the cap
        raise _too_large(d, p, n, f"about 2^{_bound_bit_length(d, n)}")
    k = 0
    m = n
    while m % p == 0:
        m //= p
        k += 1
    count = sum(w_free_closed(d, m * p ** i) for i in range(k + 1))
    if count > MAX_BASIS_ELEMENTS:
        # a count past Python's 4300-digit str limit is shown by its size
        size = count if count.bit_length() < 10_000 else f"about 2^{count.bit_length()}"
        raise _too_large(d, p, n, size)
    layers = _layers(d, n)
    out = []
    for j in range(k, -1, -1):
        w = m * p ** (k - j)
        out.extend(BasisElement(c, w, j) for c in reversed(layers.get(w, [])))
    return out


def _too_large(d: int, p: int, n: int, size) -> BasisTooLarge:
    return BasisTooLarge(
        f"the degree-{n} basis of free({d}) at p = {p} has {size} elements, "
        f"over the cap of {MAX_BASIS_ELEMENTS}"
    )


def _bound_bit_length(d: int, n: int) -> int:
    """floor(n log2 d - log2 n) + 1, the bit length of d^n / n give or take
    one, in decimal arithmetic precise enough for any n and d."""
    from decimal import Decimal, localcontext

    with localcontext() as ctx:
        ctx.prec = (n * d.bit_length()).bit_length() // 3 + 20
        return int((n * Decimal(d).ln() - Decimal(n).ln()) / Decimal(2).ln()) + 1


def basis_text_lines(basis: list[BasisElement], p: int) -> list[str]:
    """One line per element: the commutator, raised to p^j when j > 0.

    A weight-2 basis for two generators at p = 2 reads
    x1^2, x2^2, [x1,x2].
    """
    return [f"{c}^{p ** j}" if j else c for c, _, j in basis]

