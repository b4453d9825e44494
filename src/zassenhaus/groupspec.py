"""Group expressions: AST, parser, validation, and Hilbert series construction.

The expression language builds finitely generated pro-p groups from five leaf
families and two products:

    free(d)       free pro-p group of rank d
    cyclic(p)     cyclic group of order p (the working prime)
    demushkin(d)  one-relator Demushkin group of rank d >= 2
    zp(d)         free abelian pro-p group of rank d
    superpyth(d)  semidirect product Z_2^d with an inverting involution (p = 2)

'*' is the free product (lowest precedence) and 'x' the direct product
(binds tighter); both are n-ary. Whitespace is insignificant.

The Hilbert series is built by one fold, _pair, into a single unreduced
fraction of integer coefficient tuples: hp_series cuts it after t^order and
divides once, and closed_form keeps it exact and reduces it once. The leaves
and the series kernels bound each list before they build it.
"""
from __future__ import annotations

import sys
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Union

from .numtheory import is_prime
from .series import (
    RationalFunction,
    _mul,
    _plus_multiple,
    _quotient,
    _times_binomial,
    check_order,
    check_size,
)


@dataclass(frozen=True)
class Free:
    rank: int


@dataclass(frozen=True)
class Cyclic:
    order: int


@dataclass(frozen=True)
class Demushkin:
    rank: int


@dataclass(frozen=True)
class Zp:
    rank: int


@dataclass(frozen=True)
class SuperPyth:
    rank: int


class _Product:
    """n-ary product node; a factor of the same kind is spliced in, so
    FreeProduct(FreeProduct(a, b), c) == FreeProduct(a, b, c).

    Equality, hash and repr go through _preorder and _fold, so they hold at
    any nesting depth.
    """

    def __init__(self, *factors: "GroupSpec"):
        flat = []
        for f in factors:
            flat.extend(f.factors if isinstance(f, type(self)) else (f,))
        object.__setattr__(self, "factors", tuple(flat))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return _preorder(self) == _preorder(other)

    def __hash__(self):
        return hash(_preorder(self))

    def __repr__(self):
        def node(kind, parts):
            inner = ", ".join(parts) + ("," if len(parts) == 1 else "")
            return f"{kind.__name__}(factors=({inner}))"

        return _fold(self, repr, node)


@dataclass(frozen=True, init=False, eq=False, repr=False)
class FreeProduct(_Product):
    factors: tuple["GroupSpec", ...]


@dataclass(frozen=True, init=False, eq=False, repr=False)
class DirectProduct(_Product):
    factors: tuple["GroupSpec", ...]


GroupSpec = Union[Free, Cyclic, Demushkin, Zp, SuperPyth, FreeProduct, DirectProduct]

_LEAVES = (Free, Cyclic, Demushkin, Zp, SuperPyth)


def _preorder(spec: GroupSpec) -> tuple:
    """Leaves, and (node type, factor count) for products, in pre-order."""
    out, stack = [], [spec]
    while stack:
        node = stack.pop()
        if isinstance(node, _Product):
            out.append((type(node), len(node.factors)))
            stack.extend(reversed(node.factors))
        elif isinstance(node, _LEAVES):
            out.append(node)
        else:
            raise TypeError(f"not a group spec: {node!r}")
    return tuple(out)


def _fold(spec: GroupSpec, leaf: Callable, node: Callable):
    """Evaluate the tree bottom-up, each distinct subtree once: leaf(x) per
    distinct leaf and node(kind, values) per distinct product, its factors'
    values in order. A first pass numbers the distinct subtrees, a product by
    its kind and its factors' numbers, and counts their uses as factors; a
    value is dropped after its last use, and a key once it is evaluated."""
    number, keys, uses, stack = {}, [], [], []
    for item in reversed(_preorder(spec)):
        if isinstance(item, tuple):
            start = len(stack) - item[1]
            item = (item[0], *reversed(stack[start:]))
            del stack[start:]
        i = number.setdefault(item, len(keys))
        if i == len(keys):
            keys.append(item)
            uses.append(0)
            for j in item[1:] if isinstance(item, tuple) else ():
                uses[j] += 1
        stack.append(i)
    del number
    values = [None] * len(keys)
    for i, item in enumerate(keys):
        keys[i] = None
        if not isinstance(item, tuple):
            values[i] = leaf(item)
            continue
        values[i] = node(item[0], [values[j] for j in item[1:]])
        for j in item[1:]:
            uses[j] -= 1
            if not uses[j]:
                values[j] = None
    return values[-1]


_LEAF_NAMES = {
    "free": Free,
    "cyclic": Cyclic,
    "demushkin": Demushkin,
    "superpyth": SuperPyth,
    "zp": Zp,
}


class ParseError(ValueError):
    """Syntax error in a group expression; carries the 0-based position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ArityError(ParseError):
    """Constructor applied to the wrong kind or number of arguments."""


class ValidationError(ValueError):
    """A well-formed expression that is invalid at the working prime, or an
    argument outside the range an operation supports."""


class RankOutOfRange(ValidationError):
    pass


def check_prime(p: int) -> None:
    if not is_prime(p):
        raise ValidationError(f"working prime must be prime, got {p}")


# str.isdigit also accepts other scripts' digits and superscripts
_DIGITS = frozenset("0123456789")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, position) triples, then an "end" token; '*(),' are kinds of their own."""
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        j = i + 1
        if ch in "*(),":
            kind = ch
        elif ch in _DIGITS:
            kind = "int"
            while j < n and text[j] in _DIGITS:
                j += 1
        elif ch.isalpha() or ch == "_":
            kind = "name"
            # Only an operator may follow ')', so an 'x' there is one even
            # when a leaf name is glued to it, as in 'free(1)xcyclic(2)'.
            if not (ch == "x" and tokens and tokens[-1][0] == ")"):
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
        tokens.append((kind, text[i:j], i))
        i = j
    tokens.append(("end", "", n))
    return tokens


def _leaf(tokens: list[tuple[str, str, int]], i: int) -> GroupSpec:
    """The leaf 'name(int)' in tokens[i:i + 4]; the end token keeps each index in range."""
    kind, name, pos = tokens[i]
    if kind != "name":
        raise ParseError("expected a group expression", pos)
    if name not in _LEAF_NAMES:
        raise ParseError(f"unknown constructor {name!r}", pos)
    if tokens[i + 1][0] != "(":
        raise ParseError(f"expected '(' after {name!r}", tokens[i + 1][2])
    kind, arg, pos = tokens[i + 2]
    if kind != "int":
        raise ArityError(f"{name} takes one integer argument", pos)
    if tokens[i + 3][0] != ")":
        raise ArityError(f"{name} takes exactly one argument", tokens[i + 3][2])
    try:
        value = int(arg)
    except ValueError:
        # the digits are ASCII, so only the interpreter's limit on the
        # length of an integer string can refuse them
        raise ParseError(
            f"{name} argument has {len(arg)} digits, over the interpreter's "
            f"limit of {sys.get_int_max_str_digits()}", pos
        ) from None
    return _LEAF_NAMES[name](value)


def parse_group_spec(text: str) -> GroupSpec:
    """Parse an expression like 'cyclic(2) * (free(1) x zp(2))'."""
    # One frame per open '(' (plus the outermost): its '*' terms, each a
    # list of its 'x' factors. Nesting grows this list, not the call stack.
    tokens, i, frames = _tokenize(text), 0, [[[]]]
    while True:
        while tokens[i][0] == "(":
            frames.append([[]])
            i += 1
        item = _leaf(tokens, i)
        i += 4
        while True:
            frames[-1][-1].append(item)
            kind, value, pos = tokens[i]
            if kind == "*" or (kind, value) == ("name", "x"):
                break
            # the frame closes; a lone factor or term stands for itself
            terms = [t[0] if len(t) == 1 else DirectProduct(*t) for t in frames.pop()]
            item = terms[0] if len(terms) == 1 else FreeProduct(*terms)
            if not frames:
                if kind != "end":
                    raise ParseError(f"unexpected trailing input {value!r}", pos)
                return item
            if kind != ")":
                raise ParseError("expected ')'", pos)
            i += 1
        if kind == "*":
            frames[-1].append([])
        i += 1


_LEAF_TEXT = {cls: name for name, cls in _LEAF_NAMES.items()}


def _leaf_text(leaf) -> str:
    (arg,) = vars(leaf).values()
    return f"{_LEAF_TEXT[type(leaf)]}({arg})"


def to_text(spec: GroupSpec) -> str:
    """Canonical text form; parse_group_spec(to_text(s)) == s."""

    def node(kind, parts):
        # A free factor of a free product is spliced in, so a free product
        # is either the whole expression or a factor of a direct product,
        # where it needs parentheses; the outermost pair is dropped below.
        if kind is FreeProduct:
            return "(" + " * ".join(parts) + ")"
        return " x ".join(parts)

    text = _fold(spec, _leaf_text, node)
    return text[1:-1] if isinstance(spec, FreeProduct) else text


def validate(spec: GroupSpec, p: int) -> None:
    """Check the expression against the working prime; raise on mismatch.

    Leaves are checked left to right, so the first bad one is reported.
    """
    check_prime(p)
    for leaf in _preorder(spec):
        if isinstance(leaf, Cyclic):
            if leaf.order != p:
                raise ValidationError(
                    f"cyclic({leaf.order}) does not match the working prime {p}"
                )
        elif isinstance(leaf, SuperPyth):
            if p != 2:
                raise ValidationError(f"superpyth({leaf.rank}) is only defined at p = 2")
            if leaf.rank < 0:
                raise RankOutOfRange(f"superpyth rank must be >= 0, got {leaf.rank}")
        elif isinstance(leaf, (Free, Zp)):
            if leaf.rank < 0:
                raise RankOutOfRange(f"{_leaf_text(leaf)}: rank must be >= 0")
        elif isinstance(leaf, Demushkin):
            if leaf.rank < 2:
                raise RankOutOfRange(
                    f"demushkin rank must be >= 2, got {leaf.rank}"
                )


def _leaf_pair(leaf, p: int, size: int | None) -> tuple[tuple, tuple] | None:
    """The leaf's series as unreduced (num, den) coefficients, low degree first,
    each cut after `size` terms; exact polynomials when size is None, and then
    None for superpyth, whose series has infinitely many factors."""
    if isinstance(leaf, Free):
        num, den = [1], [1, -leaf.rank]
    elif isinstance(leaf, Cyclic):
        length = p if size is None else min(p, size)
        check_size(length - 1)
        num, den = [1] * length, [1]
    elif isinstance(leaf, Demushkin):
        num, den = [1], [1, -leaf.rank, 1]
    elif isinstance(leaf, Zp):
        length = leaf.rank + 1 if size is None else min(leaf.rank + 1, size)
        check_size(length - 1)
        # one list: [1] + [0] * n would briefly hold two
        num, den = [1], [0] * length
        den[0] = 1
        _times_binomial(den, 1, leaf.rank)
    elif size is None:
        return None
    else:
        # (1 + t) / ((1 - t)^d prod_{odd 3 <= k < size} (1 - t^k))
        num, den = [1, 1], [1] + [0] * (size - 1)
        _times_binomial(den, 1, leaf.rank)
        for k in range(3, size, 2):
            _times_binomial(den, k, 1)
    return tuple(num[:size]), tuple(den[:size])


def _pair(spec: GroupSpec, p: int, size: int | None) -> tuple[tuple, tuple] | None:
    """The expression folded into one unreduced fraction (num, den) of integer
    coefficient tuples, each with constant term 1 and cut after `size` terms.

    Leaves give their known fractions. A direct product multiplies, and a
    free product of k factors composes by P^-1 = P_1^-1 + ... + P_k^-1 - (k - 1),
    summed over the distinct factors with their multiplicities. With size None
    the pair is exact, or None where a superpyth factor leaves no finite form.
    """

    def node(kind, factors):
        if None in factors:
            return None
        if kind is FreeProduct:
            # P^-1 = A / B, built up one distinct factor num / den at a time
            a, b = (1 - len(factors),), (1,)
            for (num, den), m in Counter(factors).items():
                a = _plus_multiple(_mul(a, num, size), m, _mul(den, b, size))
                b = _mul(b, num, size)
            return b, a
        num, den = (1,), (1,)
        for f_num, f_den in factors:
            num, den = _mul(num, f_num, size), _mul(den, f_den, size)
        return num, den

    return _fold(spec, lambda leaf: _leaf_pair(leaf, p, size), node)


def hp_series(spec: GroupSpec, p: int, order: int) -> tuple[int, ...]:
    """a_0..a_order of P(t), the Hilbert series of the graded completed group
    algebra over F_p: the folded pair cut after t^order, divided once in
    integers."""
    validate(spec, p)
    check_order(order)
    check_size(order)
    return tuple(_quotient(*_pair(spec, p, order + 1), order))


def closed_form(spec: GroupSpec, p: int) -> RationalFunction | str:
    """The exact folded pair in lowest terms where one exists; otherwise, where
    a superpyth factor leaves no finite pair, the product form as text.

    A pair too large to build is refused with SeriesTooLarge by the leaf or
    the series kernel that would build it, before it is allocated."""
    validate(spec, p)
    pair = _pair(spec, p, None)
    if pair is not None:
        return RationalFunction(*pair)
    if isinstance(spec, SuperPyth):
        return f"(1 + t) / (1 - t)^{spec.rank} * prod_(i>=1) 1 / (1 - t^(2i+1))"
    return "product form (superpythagorean factor, no finite rational form)"
