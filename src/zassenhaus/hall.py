"""Hall commutator sets on free generators and restricted-power bases.

Generators are ordered x_1 > x_2 > ... > x_d. Commutators are ordered by
weight first (heavier is greater), then lexicographically by components.
Weight-n sets are built from the standard condition: [c1, c2] is admitted
when c1 > c2 and, if c1 = [c3, c4], additionally c2 >= c4.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Union

from .numtheory import is_prime, w_free_closed

# The most elements zassenhaus_basis lists: it holds every Hall layer up to
# weight n in memory at once, so the cap bounds its time and memory.
MAX_BASIS_ELEMENTS = 100_000


class BasisTooLarge(ValueError):
    """The requested basis has more than MAX_BASIS_ELEMENTS elements."""


@dataclass(frozen=True)
class Generator:
    index: int  # 1-based; x_1 is the greatest generator


@dataclass(frozen=True)
class Bracket:
    left: "HallCommutator"
    right: "HallCommutator"


HallCommutator = Union[Generator, Bracket]


def weight(c: HallCommutator) -> int:
    if isinstance(c, Generator):
        return 1
    return weight(c.left) + weight(c.right)


def hall_key(c: HallCommutator):
    """Sort key realizing the total order: bigger key means greater element.

    Keys of equal-weight elements are shape-compatible (weight 1 is always a
    generator, weight > 1 always a bracket), so tuple comparison is safe.
    """
    if isinstance(c, Generator):
        return (1, -c.index)
    return (weight(c), hall_key(c.left), hall_key(c.right))


def render(c: HallCommutator) -> str:
    """Text form like '[[x1,x2],x2]'."""
    if isinstance(c, Generator):
        return f"x{c.index}"
    return f"[{render(c.left)},{render(c.right)}]"


@lru_cache(maxsize=None)
def _layers(d: int, max_weight: int) -> tuple[tuple[HallCommutator, ...], ...]:
    """Layers 1..max_weight in ascending order; entry [w - 1] is weight w.

    Internally elements are index pairs (weight, position) into already
    sorted layers, which makes the order comparisons plain tuple compares.
    """
    # records[w][i] = (n1, i1, n2, i2) for brackets, None for generators;
    # rights[w][i] = (weight, position) of the right component, None for generators.
    records: list[list] = [[], [None] * d]
    rights: list[list] = [[], [None] * d]
    for n in range(2, max_weight + 1):
        recs = []
        if n % 2 == 0:
            h = n // 2
            size = len(records[h])
            for i1 in range(size):
                lim = rights[h][i1]
                for i2 in range(i1):
                    if lim is None or (h, i2) >= lim:
                        recs.append((h, i1, h, i2))
        for n1 in range(n // 2 + 1, n):
            n2 = n - n1
            for i1 in range(len(records[n1])):
                lim = rights[n1][i1]
                for i2 in range(len(records[n2])):
                    if lim is None or (n2, i2) >= lim:
                        recs.append((n1, i1, n2, i2))
        records.append(recs)
        rights.append([(r[2], r[3]) for r in recs])

    objs: list[list[HallCommutator]] = [[], [Generator(d - i) for i in range(d)]]
    for n in range(2, max_weight + 1):
        objs.append(
            [Bracket(objs[n1][i1], objs[n2][i2]) for (n1, i1, n2, i2) in records[n]]
        )
    return tuple(tuple(layer) for layer in objs[1:])


def hall_commutators(d: int, max_weight: int) -> list[list[HallCommutator]]:
    """Hall sets C_1..C_max_weight; entry [w] lists weight w, greatest first.

    Entry [0] is empty padding so that result[w] is the weight-w layer.
    """
    if d < 1:
        raise ValueError(f"rank must be >= 1, got {d}")
    if max_weight < 1:
        raise ValueError(f"max weight must be >= 1, got {max_weight}")
    layers = _layers(d, max_weight)
    return [[]] + [list(reversed(layer)) for layer in layers]


@dataclass(frozen=True)
class BasisElement:
    """A Hall commutator raised to the p-power p^p_exponent."""

    commutator: HallCommutator
    p_exponent: int


def zassenhaus_basis(d: int, p: int, n: int) -> list[BasisElement]:
    """Basis of the degree-n filtration subquotient of the rank-d free group.

    For n = p^k m with gcd(m, p) = 1 the blocks are C_m with exponent k,
    C_{pm} with exponent k - 1, ..., C_n with exponent 0, in that order.
    The size is counted first, from the necklace counts |C_w| of the chain,
    and a basis over MAX_BASIS_ELEMENTS raises BasisTooLarge unenumerated.
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if d < 1:
        raise ValueError(f"rank must be >= 1, got {d}")
    if n < 1:
        raise ValueError(f"degree must be >= 1, got {n}")
    k = 0
    m = n
    while m % p == 0:
        m //= p
        k += 1
    count = sum(w_free_closed(d, m * p ** i) for i in range(k + 1))
    if count > MAX_BASIS_ELEMENTS:
        raise BasisTooLarge(
            f"the degree-{n} basis of free({d}) at p = {p} has {count} elements, "
            f"over the cap of {MAX_BASIS_ELEMENTS}"
        )
    layers = hall_commutators(d, n)
    out = []
    for j in range(k, -1, -1):
        w = m * p ** (k - j)
        out.extend(BasisElement(c, j) for c in layers[w])
    return out


def basis_text_lines(basis: list[BasisElement], p: int) -> list[str]:
    """One line per element: the commutator, raised to p^j when j > 0.

    A weight-2 basis for two generators at p = 2 reads
    x1^2, x2^2, [x1,x2].
    """
    out = []
    for el in basis:
        text = render(el.commutator)
        if el.p_exponent:
            out.append(f"{text}^{p ** el.p_exponent}")
        else:
            out.append(text)
    return out


def basis_json_dict(d: int, p: int, n: int, basis: list[BasisElement]) -> dict:
    return {
        "rank": d,
        "p": p,
        "degree": n,
        "count": len(basis),
        "elements": [
            {
                "commutator": render(el.commutator),
                "weight": weight(el.commutator),
                "p_exponent": el.p_exponent,
            }
            for el in basis
        ],
    }
