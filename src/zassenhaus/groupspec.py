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
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .numtheory import is_prime
from .series import (
    RationalFunction,
    TruncPoly,
    TruncSeries,
    expand_rational,
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

    Equality and hash go through the pre-order walk of the tree, taken
    with an explicit stack, so they hold at any nesting depth.
    """

    def __init__(self, *factors: "GroupSpec"):
        flat = []
        for f in factors:
            flat.extend(f.factors if isinstance(f, type(self)) else (f,))
        object.__setattr__(self, "factors", tuple(flat))

    def _preorder(self) -> tuple:
        """Leaves, and (node type, factor count) for products, in pre-order."""
        out, stack = [], [self]
        while stack:
            node = stack.pop()
            if isinstance(node, _Product):
                out.append((type(node), len(node.factors)))
                stack.extend(reversed(node.factors))
            else:
                out.append(node)
        return tuple(out)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._preorder() == other._preorder()

    def __hash__(self):
        return hash(self._preorder())


@dataclass(frozen=True, init=False, eq=False)
class FreeProduct(_Product):
    factors: tuple["GroupSpec", ...]


@dataclass(frozen=True, init=False, eq=False)
class DirectProduct(_Product):
    factors: tuple["GroupSpec", ...]


GroupSpec = Union[Free, Cyclic, Demushkin, Zp, SuperPyth, FreeProduct, DirectProduct]

# Parsed expressions may nest '*' inside 'x' inside '*' ... at most this many
# levels deep; _hp, _closed and to_text recurse once per level.
MAX_ALTERNATIONS = 500

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


def _tokenize(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "*":
            tokens.append(("star", "*", i))
            i += 1
        elif ch == "(":
            tokens.append(("lparen", "(", i))
            i += 1
        elif ch == ")":
            tokens.append(("rparen", ")", i))
            i += 1
        elif ch == ",":
            tokens.append(("comma", ",", i))
            i += 1
        elif ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("int", text[i:j], i))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
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
        # list of its 'x' factors, held as (node, alternation depth) pairs.
        # Nesting grows this list, not the call stack.
        frames = [[[]]]
        while True:
            while self.peek()[0] == "lparen":
                self.advance()
                frames.append([[]])
            item = (self.parse_leaf(), 0)
            while True:
                frames[-1][-1].append(item)
                kind, value, pos = self.peek()
                if kind == "star":
                    frames[-1].append([])
                    break
                if kind == "name" and value == "x":
                    break
                item = _group(frames.pop())
                if item[1] > MAX_ALTERNATIONS:
                    raise ParseError(
                        f"'*' and 'x' nest more than {MAX_ALTERNATIONS} levels deep", pos
                    )
                if not frames:
                    if kind != "end":
                        raise ParseError(f"unexpected trailing input {value!r}", pos)
                    return item[0]
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


def _group(terms: list[list[tuple[GroupSpec, int]]]) -> tuple[GroupSpec, int]:
    """The node of one parenthesised group and its depth of product nodes;
    a lone atom stands for itself."""
    factors = [t[0] if len(t) == 1 else _product(DirectProduct, t) for t in terms]
    return factors[0] if len(factors) == 1 else _product(FreeProduct, factors)


def _product(kind: type, items: list[tuple[GroupSpec, int]]) -> tuple[GroupSpec, int]:
    # a factor of the same kind is spliced in and keeps its depth; any other
    # factor ends up one level below the new node
    depth = max(d if isinstance(f, kind) else d + 1 for f, d in items)
    return kind(*[f for f, _ in items]), depth


def parse_group_spec(text: str) -> GroupSpec:
    """Parse an expression like 'cyclic(2) * (free(1) x zp(2))'."""
    return _Parser(text).parse()


def to_text(spec: GroupSpec) -> str:
    """Canonical text form; parse_group_spec(to_text(s)) == s."""
    if isinstance(spec, Free):
        return f"free({spec.rank})"
    if isinstance(spec, Cyclic):
        return f"cyclic({spec.order})"
    if isinstance(spec, Demushkin):
        return f"demushkin({spec.rank})"
    if isinstance(spec, Zp):
        return f"zp({spec.rank})"
    if isinstance(spec, SuperPyth):
        return f"superpyth({spec.rank})"
    # Plain loops: a comprehension or map would add stack depth to each level
    # of this recursion, which descends once per alternation of * and x.
    if isinstance(spec, FreeProduct):
        parts = []
        for f in spec.factors:
            parts.append(to_text(f))
        return " * ".join(parts)
    if isinstance(spec, DirectProduct):
        parts = []
        for f in spec.factors:
            parts.append(f"({to_text(f)})" if isinstance(f, FreeProduct) else to_text(f))
        return " x ".join(parts)
    raise TypeError(f"not a group spec: {spec!r}")


def validate(spec: GroupSpec, p: int) -> None:
    """Check the expression against the working prime; raise on mismatch.

    Leaves are checked left to right, so the first bad one is reported.
    """
    if not is_prime(p):
        raise PrimeMismatch(f"working prime must be prime, got {p}")
    stack = [spec]
    while stack:
        spec = stack.pop()
        if isinstance(spec, _Product):
            stack.extend(reversed(spec.factors))
        elif isinstance(spec, Cyclic):
            if spec.order != p:
                raise PrimeMismatch(
                    f"cyclic({spec.order}) does not match the working prime {p}"
                )
        elif isinstance(spec, SuperPyth):
            if p != 2:
                raise PrimeMismatch(f"superpyth({spec.rank}) is only defined at p = 2")
            if spec.rank < 0:
                raise RankOutOfRange(f"superpyth rank must be >= 0, got {spec.rank}")
        elif isinstance(spec, (Free, Zp)):
            if spec.rank < 0:
                raise RankOutOfRange(f"{to_text(spec)}: rank must be >= 0")
        elif isinstance(spec, Demushkin):
            if spec.rank < 2:
                raise RankOutOfRange(
                    f"demushkin rank must be >= 2, got {spec.rank}"
                )
        else:
            raise TypeError(f"not a group spec: {spec!r}")


def _geometric(order: int, step: int) -> TruncSeries:
    return TruncSeries(order, [1 if k % step == 0 else 0 for k in range(order + 1)])


def hp_series(spec: GroupSpec, p: int, order: int) -> TruncSeries:
    """Hilbert series of the graded restricted Lie algebra attached to the group.

    Leaves get their known series; a free product of k factors composes by
    P = (P_1^-1 + ... + P_k^-1 - (k - 1))^-1 and a direct product multiplies.
    """
    validate(spec, p)
    return _hp(spec, p, order)


def _hp(spec: GroupSpec, p: int, order: int) -> TruncSeries:
    if isinstance(spec, Free):
        return expand_rational(RationalFunction([1], [1, -spec.rank]), order)
    if isinstance(spec, Cyclic):
        return TruncSeries(order, [1] * (min(p - 1, order) + 1))
    if isinstance(spec, Demushkin):
        return expand_rational(RationalFunction([1], [1, -spec.rank, 1]), order)
    if isinstance(spec, Zp):
        return expand_rational(
            RationalFunction([1], TruncPoly([1, -1]) ** spec.rank), order
        )
    if isinstance(spec, SuperPyth):
        s = expand_rational(
            RationalFunction([1, 1], TruncPoly([1, -1]) ** spec.rank), order
        )
        k = 3
        while k <= order:
            s = s * _geometric(order, k)
            k += 2
        return s
    if isinstance(spec, FreeProduct):
        inv = TruncSeries(order, [1 - len(spec.factors)])
        for f in spec.factors:
            inv = inv + _hp(f, p, order).inverse()
        return inv.inverse()
    if isinstance(spec, DirectProduct):
        s = TruncSeries.one(order)
        for f in spec.factors:
            s = s * _hp(f, p, order)
        return s
    raise TypeError(f"not a group spec: {spec!r}")


@dataclass(frozen=True)
class SeriesRecipe:
    """Closed form of a Hilbert series.

    Either a rational function, or a textual product form for expressions
    that involve superpyth (whose series has infinitely many factors).
    """

    rational: RationalFunction | None
    product_form: str | None

    @property
    def is_rational(self) -> bool:
        return self.rational is not None


def closed_form(spec: GroupSpec, p: int) -> SeriesRecipe:
    """Finite closed form where one exists; a product-form marker otherwise."""
    validate(spec, p)
    rf = _closed(spec, p)
    if rf is not None:
        return SeriesRecipe(rational=rf, product_form=None)
    if isinstance(spec, SuperPyth):
        d = spec.rank
        text = f"(1 + t) / (1 - t)^{d} * prod_(i>=1) 1 / (1 - t^(2i+1))"
    else:
        text = "product form (superpythagorean factor, no finite rational form)"
    return SeriesRecipe(rational=None, product_form=text)


def _closed(spec: GroupSpec, p: int) -> RationalFunction | None:
    if isinstance(spec, Free):
        return RationalFunction([1], [1, -spec.rank])
    if isinstance(spec, Cyclic):
        return RationalFunction([1] * p, [1])
    if isinstance(spec, Demushkin):
        return RationalFunction([1], [1, -spec.rank, 1])
    if isinstance(spec, Zp):
        return RationalFunction([1], TruncPoly([1, -1]) ** spec.rank)
    if isinstance(spec, SuperPyth):
        return None
    if isinstance(spec, FreeProduct):
        # inv = P^-1 = P_1^-1 + ... + P_k^-1 - (k - 1), as num / den
        inv = RationalFunction([1 - len(spec.factors)])
        for f in spec.factors:
            r = _closed(f, p)
            if r is None:
                return None
            inv = RationalFunction(inv.num * r.num + r.den * inv.den, inv.den * r.num)
        return RationalFunction(inv.den, inv.num)
    if isinstance(spec, DirectProduct):
        rf = RationalFunction([1])
        for f in spec.factors:
            r = _closed(f, p)
            if r is None:
                return None
            rf = rf * r
        return rf
    raise TypeError(f"not a group spec: {spec!r}")
