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
divides once, and closed_form keeps it exact and reduces it once.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import zip_longest
from typing import Callable, Union

from .numtheory import is_prime
from .series import RationalFunction, _quotient, check_order


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
    """Evaluate the tree bottom-up: leaf(x) once per distinct leaf, and
    node(kind, values) per product, with its factors' values in order."""
    leaf_values, stack = {}, []
    for item in reversed(_preorder(spec)):
        if isinstance(item, tuple):
            kind, count = item
            start = len(stack) - count
            values = stack[start:][::-1]
            del stack[start:]
            stack.append(node(kind, values))
        else:
            if item not in leaf_values:
                leaf_values[item] = leaf(item)
            stack.append(leaf_values[item])
    return stack[0]


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
    """A structurally well-formed expression that is invalid at the working prime."""


class PrimeMismatch(ValidationError):
    pass


class RankOutOfRange(ValidationError):
    pass


def check_prime(p: int) -> None:
    if not is_prime(p):
        raise PrimeMismatch(f"working prime must be prime, got {p}")


# str.isdigit also accepts other scripts' digits and superscripts
_DIGITS = frozenset("0123456789")
_PUNCTUATION = {"*": "star", "(": "lparen", ")": "rparen", ",": "comma"}


def _tokenize(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _PUNCTUATION:
            tokens.append((_PUNCTUATION[ch], ch, i))
            i += 1
        elif ch in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            tokens.append(("int", text[i:j], i))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i + 1
            # Only an operator may follow ')', so an 'x' there is one even
            # when a leaf name is glued to it, as in 'free(1)xcyclic(2)'.
            if not (ch == "x" and tokens and tokens[-1][0] == "rparen"):
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
            tokens.append(("name", text[i:j], i))
            i = j
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str):
        tok = self.peek()
        if tok[0] != kind:
            raise ParseError(f"expected {what}", tok[2])
        return self.advance()

    def parse(self) -> GroupSpec:
        # One frame per open '(' (plus the outermost): its '*' terms, each a
        # list of its 'x' factors. Nesting grows this list, not the call stack.
        frames = [[[]]]
        while True:
            while self.peek()[0] == "lparen":
                self.advance()
                frames.append([[]])
            item = self.parse_leaf()
            while True:
                frames[-1][-1].append(item)
                kind, value, pos = self.peek()
                if kind == "star":
                    frames[-1].append([])
                    break
                if kind == "name" and value == "x":
                    break
                item = _group(frames.pop())
                if not frames:
                    if kind != "end":
                        raise ParseError(f"unexpected trailing input {value!r}", pos)
                    return item
                self.expect("rparen", "')'")
            self.advance()

    def parse_leaf(self) -> GroupSpec:
        kind, value, pos = self.peek()
        if kind != "name":
            raise ParseError("expected a group expression", pos)
        if value not in _LEAF_NAMES:
            raise ParseError(f"unknown constructor {value!r}", pos)
        self.advance()
        self.expect("lparen", f"'(' after {value!r}")
        kind2, value2, pos2 = self.peek()
        if kind2 != "int":
            raise ArityError(f"{value} takes one integer argument", pos2)
        self.advance()
        kind3, _, pos3 = self.peek()
        if kind3 != "rparen":
            raise ArityError(f"{value} takes exactly one argument", pos3)
        self.advance()
        return _LEAF_NAMES[value](int(value2))


def _group(terms: list[list[GroupSpec]]) -> GroupSpec:
    """The node of one parenthesised group; a lone atom stands for itself."""
    factors = [t[0] if len(t) == 1 else DirectProduct(*t) for t in terms]
    return factors[0] if len(factors) == 1 else FreeProduct(*factors)


def parse_group_spec(text: str) -> GroupSpec:
    """Parse an expression like 'cyclic(2) * (free(1) x zp(2))'."""
    return _Parser(text).parse()


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
                raise PrimeMismatch(
                    f"cyclic({leaf.order}) does not match the working prime {p}"
                )
        elif isinstance(leaf, SuperPyth):
            if p != 2:
                raise PrimeMismatch(f"superpyth({leaf.rank}) is only defined at p = 2")
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


def _one_minus_t_power(e: int, size: int) -> list[int]:
    """Coefficients of (1 - t)^e for e >= 0, cut after `size` terms.

    Term k is (-1)^k C(e, k), reached from term k - 1 by one exact step.
    """
    out = [1]
    for k in range(1, min(e + 1, size)):
        out.append(out[-1] * (k - 1 - e) // k)
    return out


def _leaf_pair(leaf, p: int, size: int | None) -> tuple[tuple, tuple] | None:
    """The leaf's series as unreduced (num, den) coefficients, low degree first,
    each cut after `size` terms; exact polynomials when size is None, and then
    None for superpyth, whose series has infinitely many factors."""
    if isinstance(leaf, Free):
        num, den = [1], [1, -leaf.rank]
    elif isinstance(leaf, Cyclic):
        num, den = [1] * (p if size is None else min(p, size)), [1]
    elif isinstance(leaf, Demushkin):
        num, den = [1], [1, -leaf.rank, 1]
    elif isinstance(leaf, Zp):
        num, den = [1], _one_minus_t_power(leaf.rank, leaf.rank + 1 if size is None else size)
    elif size is None:
        return None
    else:
        # (1 + t) / ((1 - t)^d prod_{odd 3 <= k < size} (1 - t^k))
        num, den = [1, 1], _one_minus_t_power(leaf.rank, size)
        den += [0] * (size - len(den))
        for k in range(3, size, 2):
            den[k:] = [a - b for a, b in zip(den[k:], den)]
    return tuple(num[:size]), tuple(den[:size])


def _mul(a: tuple, b: tuple, size: int | None) -> tuple:
    """The product of two coefficient tuples, cut after `size` terms if given."""
    if len(a) > len(b):
        a, b = b, a
    n = len(a) + len(b) - 1 if size is None else min(len(a) + len(b) - 1, size)
    out = [0] * n
    for i, x in enumerate(a[:n]):
        if x:
            seg = b[:n - i]
            end = i + len(seg)
            out[i:end] = [o + x * y for o, y in zip(out[i:end], seg)]
    return tuple(out)


def _plus_multiple(a: tuple, m: int, b: tuple) -> tuple:
    """a + m * b, coefficientwise."""
    return tuple(x + m * y for x, y in zip_longest(a, b, fillvalue=0))


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
    return tuple(_quotient(*_pair(spec, p, order + 1), order))


def closed_form(spec: GroupSpec, p: int) -> RationalFunction | str:
    """The exact folded pair in lowest terms where one exists; otherwise, where
    a superpyth factor leaves no finite pair, the product form as text."""
    validate(spec, p)
    pair = _pair(spec, p, None)
    if pair is not None:
        return RationalFunction(*pair)
    if isinstance(spec, SuperPyth):
        return f"(1 + t) / (1 - t)^{spec.rank} * prod_(i>=1) 1 / (1 - t^(2i+1))"
    return "product form (superpythagorean factor, no finite rational form)"
