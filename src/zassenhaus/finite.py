"""Brute-force oracle on finite p-groups of unitriangular matrices.

Groups are sets of unit upper-triangular matrices over F_p supported on a
fixed family of strictly-upper positions that is closed under multiplication
(full triangles, and block-diagonal unions of them for direct products).
Elements are indexed by mixed-radix encoding of the supported entries, so the
index itself is the canonical interned form; a batch encodes in one integer
dot product with the weights.  Indices decode through a table of all |G|
matrices, built on first use; multiplication stays on demand as batched
matrix products instead of a stored composition table.  Beside the decode
table sits an inverse index, allocated on the first inverse call and filled
only for the elements asked for, so the pair scans and the augmentation
gathers invert each element once per group; the inverses themselves are
powers, by fact (d).  Subgroups grow from generators against a membership
bitmap, by the pair scan products of the new elements with the generators,
and normal closures take one commutator scan per round, whose commutators
also seed the next degree of the filtration (see subgroup_closure).

Both oracle routines work from generating sets, using two facts of group
theory and nothing of the series pipeline they check:

(a) for normal subgroups H = <X> and K = <Y>, [H, K] is the normal closure
    of {[x, y] : x in X, y in Y}.  Proof: that closure lies in the normal
    subgroup [H, K]; modulo it x and y commute for all generators, so H and
    K commute and [H, K] lies in it too.
(b) for any generating set S of G and the augmentation ideal I of F_p[G],
    I^(n+1) = span{ b (s - 1) : b in basis(I^n), s in S }.  Proof:
    gh - 1 = g(h - 1) + (g - 1) and I^n is an ideal, so b (g - 1) for every
    g in G is a combination of such rows, by induction on word length.
(c) for any generating set S of G, any n <= p and any normal subgroup N
    of G that contains gamma_n(G), G^p N is the normal closure of N and
    {s^p : s in S}.  Proof: that closure C lies in the normal subgroup
    G^p N.  Modulo C, G has class below n <= p, so it is regular (P. Hall,
    Proc. LMS 1934), and in a regular p-group the elements of order
    dividing p form a subgroup.  That subgroup holds the images of S, so it
    is all of G/C, and every g^p lies in C.
(d) in a group of m x m unitriangular matrices over F_p every g satisfies
    g^q = 1 for q = p^ceil(log_p m), so g^-1 = g^(q-1).  Proof: g - 1 is
    strictly upper triangular, so (g - 1)^m = 0, and q >= m; in
    characteristic p the binomial coefficients of a p-power q vanish
    between the ends, so (g - 1)^q = g^q - 1.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import repeat

import numpy as np

DEFAULT_ELEMENT_CAP = 1 << 20
ENV_CAP = "ZASS_MAX_ELEMENTS"

# pair count per decode/matmul chunk; keeps intermediates in the tens of MB
_CHUNK_PAIRS = 1 << 21


class TooLarge(ValueError):
    """Requested group exceeds the configured element cap."""


class InvalidCap(ValueError):
    """The element cap in the environment is not a positive integer."""


class NonPrimeModulus(ValueError):
    """The matrix entries of a group would not lie in a prime field F_p."""


def element_cap() -> int:
    """The element cap: ZASS_MAX_ELEMENTS if set, else DEFAULT_ELEMENT_CAP."""
    env = os.environ.get(ENV_CAP)
    if not env:
        return DEFAULT_ELEMENT_CAP
    try:
        cap = int(env)
    except ValueError:
        cap = 0
    if cap <= 0:
        raise InvalidCap(f"{ENV_CAP} must be a positive integer, got {env!r}")
    return cap


class FiniteGroup:
    """Matrix p-group with elements addressed by integer index; index 0 = 1."""

    def __init__(self, p: int, size: int, positions):
        # imported here, so that importing this module loads no other one
        from .numtheory import is_prime

        if not is_prime(p):
            raise NonPrimeModulus(f"matrix entries must lie in F_p for a prime p, got p = {p}")
        self.p = p
        self.size = size
        self.positions = tuple(positions)
        order = p ** len(self.positions)
        cap = element_cap()
        if order > cap:
            raise TooLarge(
                f"group would have {order} elements, over the cap of {cap} "
                f"(set {ENV_CAP} to change it)"
            )
        if order > 1 << 62:
            raise TooLarge("element indices would overflow 64-bit integers")
        self.order = order
        self.identity = 0
        self._rows = np.array([i for i, _ in self.positions], dtype=np.intp)
        self._cols = np.array([j for _, j in self.positions], dtype=np.intp)
        self._weights = np.array(
            [p ** k for k in range(len(self.positions))], dtype=np.int64
        )
        # uint8 is safe when a single dot product cannot wrap around 256
        self._dtype = np.uint8 if size * (p - 1) ** 2 < 256 else np.int64
        self._table: np.ndarray | None = None
        # inverse index of each element, -1 until asked for; see inverse
        self._inverses: np.ndarray | None = None

    # -- element codec -------------------------------------------------

    def matrices(self, idx) -> np.ndarray:
        """Decode indices (any shape) to matrices of shape idx.shape + (m, m)."""
        if self._table is None:
            # mixed-radix digits of every index, once per group
            digits = (np.arange(self.order, dtype=np.int64)[:, None] // self._weights) % self.p
            table = np.zeros((self.order, self.size, self.size), dtype=self._dtype)
            diag = np.arange(self.size)
            table[:, diag, diag] = 1
            table[:, self._rows, self._cols] = digits.astype(self._dtype)
            self._table = table
        return self._table.take(idx, axis=0)

    def index_of(self, mats) -> np.ndarray:
        """Indices of matrices of shape (..., m, m): one integer dot product
        of the supported entries with the mixed-radix weights."""
        return np.asarray(mats)[..., self._rows, self._cols] @ self._weights

    # -- group operations ----------------------------------------------

    def mult(self, a, b) -> np.ndarray:
        """Elementwise (broadcasting) product of index arrays."""
        ma = self.matrices(a)
        mb = self.matrices(b)
        return self.index_of((ma @ mb) % self.p)

    def inverse(self, a) -> np.ndarray:
        """Elementwise inverse of an index array, read from the inverse index.

        Elements not yet in the index are inverted together, as their
        (q - 1)-th powers by fact (d), and each result is filed both ways.
        """
        a = np.asarray(a, dtype=np.int64)
        if self._inverses is None:
            self._inverses = np.full(self.order, -1, dtype=np.int64)
        inv = self._inverses[a]
        missing = a[inv < 0]
        if missing.size:
            q = 1
            while q < self.size:
                q *= self.p
            found = self.power(missing, q - 1)
            self._inverses[missing] = found
            self._inverses[found] = missing
            inv = self._inverses[a]
        return inv

    def power(self, a, e: int) -> np.ndarray:
        """Elementwise e-th power of an index array, e >= 0."""
        if e < 0:
            raise ValueError("exponent must be >= 0")
        a = np.asarray(a, dtype=np.int64)
        if e == 0:
            return np.zeros_like(a)
        # left to right from the top bit: one square per lower bit, one
        # multiply by a per lower set bit
        result = a.copy()
        for bit in bin(e)[3:]:
            result = self.mult(result, result)
            if bit == "1":
                result = self.mult(result, a)
        return result

    def generators(self) -> np.ndarray:
        """Indices of the elementary matrices 1 + E_ij that generate the group.

        These sit at the support positions (i, j) that are not a product
        (i, k)(k, j) of two support positions; every other 1 + E_ij is a
        commutator of shorter ones.  For U(m, p) they are the m - 1
        superdiagonal matrices, for a block-diagonal product the union of the
        blocks' generators.
        """
        support = set(self.positions)
        return np.array(
            [
                self.p ** k
                for k, (i, j) in enumerate(self.positions)
                if not any((i, m) in support and (m, j) in support for m in range(i + 1, j))
            ],
            dtype=np.int64,
        )

    # -- batched pair scans ----------------------------------------------

    def _pair_scan(self, a, b, combine) -> np.ndarray:
        """Sorted unique indices of combine(x, y) over the full a x b rectangle.

        combine receives index blocks of shapes (k, 1) and (1, |b|) and
        returns one matrix per pair.
        """
        a = np.asarray(a, dtype=np.int64).ravel()
        b = np.asarray(b, dtype=np.int64).ravel()
        if a.size == 0 or b.size == 0:
            return np.empty(0, dtype=np.int64)
        b = b[None, :]
        chunk = max(1, _CHUNK_PAIRS // b.size)
        pieces = [
            _unique(self.index_of(combine(a[lo : lo + chunk, None], b)))
            for lo in range(0, a.size, chunk)
        ]
        if len(pieces) == 1:
            return pieces[0]
        return _unique(np.concatenate(pieces))

    def commutators(self, a, b) -> np.ndarray:
        """Unique [x, y] = x^-1 y^-1 x y over all x in a, y in b."""
        p = self.p

        def combine(x, y):
            t = (self.matrices(self.inverse(x)) @ self.matrices(self.inverse(y))) % p
            t = (t @ self.matrices(x)) % p
            return (t @ self.matrices(y)) % p

        return self._pair_scan(a, b, combine)

    def products(self, a, b) -> np.ndarray:
        """Unique x y over all x in a, y in b; subgroup_closure grows with it."""
        return self._pair_scan(
            a, b, lambda x, y: (self.matrices(x) @ self.matrices(y)) % self.p
        )

    def __repr__(self) -> str:
        return (
            f"FiniteGroup(p={self.p}, size={self.size}, "
            f"order={self.order}, positions={len(self.positions)})"
        )


def _unique(x: np.ndarray) -> np.ndarray:
    """Sorted distinct entries of x, flattened, as np.unique returns them.

    One sort and one mask: np.unique takes a longer route, and its first
    call imports numpy.ma.
    """
    x = np.sort(x, axis=None)
    keep = np.empty(x.shape, dtype=bool)
    keep[:1] = True
    np.not_equal(x[1:], x[:-1], out=keep[1:])
    return x[keep]


def unitriangular_group(m: int, p: int) -> FiniteGroup:
    """Full group of m x m unit upper-triangular matrices over F_p."""
    if m < 1:
        raise ValueError(f"matrix size must be >= 1, got {m}")
    positions = [(i, j) for i in range(m) for j in range(i + 1, m)]
    return FiniteGroup(p, m, positions)


def cyclic_group(p: int) -> FiniteGroup:
    """Cyclic group of order p, realized as 2 x 2 unitriangular matrices."""
    return unitriangular_group(2, p)


def direct_product(g1: FiniteGroup, g2: FiniteGroup) -> FiniteGroup:
    """Direct product as block-diagonal matrices; both factors share p."""
    if g1.p != g2.p:
        raise ValueError(f"factors live over different primes: {g1.p} and {g2.p}")
    shifted = [(i + g1.size, j + g1.size) for i, j in g2.positions]
    return FiniteGroup(g1.p, g1.size + g2.size, list(g1.positions) + shifted)


def subgroup_closure(
    group: FiniteGroup, candidates, conjugate_by=()
) -> tuple[np.ndarray, list[int], np.ndarray]:
    """Subgroup generated by the candidates and their conjugates by conjugate_by.

    Works in rounds.  A round takes its candidates one at a time; one already
    in the subgroup H is skipped, so the kept generators number at most
    log_p of the order.  A kept element c adds the coset H c, disjoint from
    H, and right multiples of the new elements by every kept generator close
    the union under multiplication.  One scan then forms [k, x] for the
    round's kept generators k and every x in conjugate_by: the next round's
    candidates.  As k^x = x^-1 k x = k [k, x], a subgroup holding k holds
    k^x exactly when it holds [k, x].  So once a round keeps nothing, H holds
    k^x for every kept k and x, and with a generating set of the group there
    H = <kept> is normal (in a finite group x^-1 H x within H is equal to
    it); each [k, x] lies in the normal closure of the candidates, so H is
    that closure.  Returns the sorted elements, the kept generators and the
    sorted distinct [k, x] over every kept k, empty if conjugate_by is.
    """
    member = np.zeros(group.order, dtype=bool)
    member[group.identity] = True
    kept: list[int] = []
    scanned = [np.empty(0, dtype=np.int64)]
    pending = np.asarray(candidates, dtype=np.int64).ravel()
    while True:
        fresh = len(kept)
        for c in pending.tolist():
            if member[c]:
                continue
            kept.append(c)
            frontier = group.products(np.flatnonzero(member), [c])
            while frontier.size:
                member[frontier] = True
                prods = group.products(frontier, kept)
                frontier = prods[~member[prods]]
        if len(kept) == fresh or not len(conjugate_by):
            break
        pending = group.commutators(kept[fresh:], conjugate_by)
        scanned.append(pending)
    return np.flatnonzero(member), kept, _unique(np.concatenate(scanned))


@dataclass(frozen=True)
class FiltrationResult:
    """Descending chain of element-index sets and the subquotient dimensions.

    subgroups holds the chain for degrees 1..depth+1; dims[i] is
    log_p([G_(i+1) : G_(i+2)]) for i in 0..depth-1.
    """

    subgroups: tuple[frozenset[int], ...]
    dims: tuple[int, ...]


def _log_p_exact(ratio: int, p: int) -> int:
    e = 0
    while ratio > 1:
        if ratio % p:
            raise ArithmeticError(f"subgroup index {ratio} is not a power of {p}")
        ratio //= p
        e += 1
    return e


def zassenhaus_filtration_finite(group: FiniteGroup, depth: int) -> FiltrationResult:
    """Filtration from Jennings' recursion (Trans. AMS 1941)

        G_(1) = G,  G_(n) = [G_(n-1), G] G_(ceil(n/p))^p.

    Every term is normal, and the p-th powers of a normal subgroup form a set
    closed under conjugation, so by fact (a) of the module docstring, with
    H = G_(n-1) and K = G, G_(n) is the normal closure of the p-th powers of
    all elements of G_(ceil(n/p)) and of [x, s] for x in the kept generators
    of G_(n-1) and s in the generators of G.  Those commutators are the ones
    the closure of G_(n-1) scanned to make it normal, so it hands them on;
    only degree 2 scans its own, [s, t] for generators s and t.
    At n <= p, where ceil(n/p) = 1, [G_(n-1), G] contains gamma_n(G), so
    by fact (c) the p-th powers of the generators stand in for those of all
    of G: G itself is never raised to the p-th power.
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    p = group.p
    generators = group.generators()
    commutators = group.commutators(generators, generators)
    chain_arrs = [np.arange(group.order, dtype=np.int64)]
    # p-th powers of G_(k), shared by the up to p degrees n with ceil(n/p) = k
    pth_powers = {1: group.power(generators, p)}
    for n in range(2, depth + 2):
        k = -(-n // p)
        if k not in pth_powers:
            pth_powers[k] = _unique(group.power(chain_arrs[k - 1], p))
        candidates = np.concatenate([commutators, pth_powers[k]])
        elements, _, commutators = subgroup_closure(group, candidates, generators)
        chain_arrs.append(elements)
    chain_sets = [frozenset(arr.tolist()) for arr in chain_arrs]
    dims = []
    for n in range(depth):
        top, bottom = len(chain_sets[n]), len(chain_sets[n + 1])
        if top % bottom:
            raise ArithmeticError("chain member is not a subgroup of its predecessor")
        dims.append(_log_p_exact(top // bottom, group.p))
    return FiltrationResult(subgroups=tuple(chain_sets), dims=tuple(dims))


def row_echelon_mod_p(mat: np.ndarray, p: int) -> np.ndarray:
    """Nonzero rows of a row-echelon form over F_p, each leading entry 1.

    Accepts any integer dtype and returns int64.  The input need not be
    reduced: the elimination reduces it itself.  At p = 2 the rows are
    bit-packed and eliminated by XOR (see _row_echelon_gf2).  At odd p one
    column is cleared at a time.  One scan of the reduced column finds its
    nonzero rows; the first becomes the pivot, and as the rows between are
    zero there, swapping it up leaves the others in place, so the scan's
    remaining rows are exactly the rows to update.  The reduction mod p is
    delayed (Dumas, Giorgi & Pernet, ISSAC 2004): only the pivot column and
    the pivot row are reduced, and a pivot subtracts at most (p - 1)^2 from
    an entry of a row below it.  After k pivots without a reduction every
    other entry lies in (-k (p - 1)^2, p); the rows below are reduced again
    only before that bound would pass a quarter of the range of the signed
    type the rows are held in.  That type is the narrowest of int16, int32
    and int64 whose limit, 2^14, 2^30 or 2^62, holds p + (p - 1)^2, so the
    elimination is exact for p < 2^31.  A larger odd p, whose
    p + (p - 1)^2 passes 2^62, raises ValueError.  The returned rows are
    reduced once, at the end, and equal those of a loop that reduces after
    every pivot.
    """
    m = np.asarray(mat)
    if m.dtype.kind not in "iu":
        m = m.astype(np.int64)
    if m.ndim != 2:
        raise ValueError("matrix expected")
    if p == 2:
        return _row_echelon_gf2(m)
    step = (p - 1) ** 2
    for dtype in (np.int16, np.int32, np.int64):
        limit = 1 << (np.iinfo(dtype).bits - 2)
        if p + step <= limit:
            break
    else:
        raise ValueError(
            f"row_echelon_mod_p: p = {p} is too large, p + (p - 1)^2 must be at most 2^62"
        )
    m = (m.astype(np.int64) % p).astype(dtype)
    bound = p  # every entry of the unreduced rows lies in (-bound, bound)
    rank = 0
    rows, cols = m.shape
    for col in range(cols):
        if rank == rows:
            break
        below = m[rank:]  # a view: the rows not yet holding a pivot
        column = below[:, col] % p
        pivots = column.nonzero()[0]
        if pivots.size == 0:
            continue
        # pivots[0] is the first nonzero row, so the rows above it are zero
        # in this column: after the swap the nonzero rows below the pivot
        # are pivots[1:], at the same offsets and with the same entries
        first = int(pivots[0])
        if first:
            below[[0, first]] = below[[first, 0]]
        pivot_row = below[0, col:] % p
        lead = int(column[first])
        if lead != 1:
            pivot_row = (pivot_row * pow(lead, -1, p)) % p
        below[0, col:] = pivot_row
        hits = pivots[1:]
        if hits.size:
            if bound + step > limit:
                below[1:, col:] %= p
                bound = p
            below[hits, col:] -= column[hits, None] * pivot_row
            bound += step
        rank += 1
    return (m[:rank] % p).astype(np.int64)


def _row_echelon_gf2(m: np.ndarray) -> np.ndarray:
    """Row-echelon form of an integer matrix over F_2, one Python int per row.

    The rows are packed into bits, column 0 the top bit, so a row's leading
    column is fixed by its bit_length.  A view of the packed rows as one
    opaque item per row turns each into a bytes object without a Python
    loop, and map(int.from_bytes) reads them as big-endian ints.  Duplicate
    rows are dropped, and the distinct rows are taken in increasing order,
    so in increasing bit_length.  Each is XORed with the pivot at its
    current leading bit until it vanishes or reaches a leading bit with no
    pivot, where it becomes that pivot.  The pivots sit in a list indexed
    by bit_length, 0 where there is none.  Pivots in descending bit_length
    have strictly increasing leading columns, each holding a 1.
    """
    cols = m.shape[1]
    width = (cols + 7) // 8
    packed = np.packbits(m & 1, axis=1)
    ints = map(int.from_bytes, packed.view(f"V{width}").ravel().tolist(), repeat("big"))
    pivots = [0] * (8 * width + 1)
    for row in sorted(set(ints)):
        while row:
            lead = row.bit_length()
            pivot = pivots[lead]
            if not pivot:
                pivots[lead] = row
                break
            row ^= pivot
    found = [pivot for pivot in reversed(pivots) if pivot]
    out = b"".join(pivot.to_bytes(width, "big") for pivot in found)
    bits = np.frombuffer(out, dtype=np.uint8).reshape(len(found), width)
    return np.unpackbits(bits, axis=1, count=cols).astype(np.int64)


def _heaviest_first(group: FiniteGroup) -> np.ndarray:
    """Elements in the coordinate order of F_p[G] for group_algebra_aug_dims.

    Heaviest first: the most nonzero matrix entries, then the larger entry
    sum, then the lower index.  The identity, with no nonzero entry, comes
    last.
    """
    n_el = group.order
    digits = group.matrices(np.arange(n_el))[:, group._rows, group._cols]
    # an entry sum is at most d (p - 1), below |G| = p^d, so one integer
    # ranks by the nonzero count first
    weight = np.count_nonzero(digits, axis=1) * n_el + digits.sum(axis=1, dtype=np.int64)
    # sort keys that hold the index in their lowest base-|G| digit: the
    # heavier element first, the lower index among equals
    return np.sort(np.arange(n_el) - weight * n_el) % n_el


def group_algebra_aug_dims(group: FiniteGroup, depth: int) -> list[int]:
    """Dimensions a_n of I^n / I^(n+1) for the augmentation ideal I of F_p[G].

    Returns a_0..a_depth; once I^n vanishes the remaining entries are 0.
    Vectors live in F_p^|G|, one coordinate per group element, in the order
    of _heaviest_first.  I has the basis g - 1 for g != 1; by fact (b) of
    the module docstring I^(n+1) is spanned by b s - b over basis vectors b
    of I^n and the generators s, and right multiplication by s permutes
    coordinates.  Ranks do not depend on the coordinate order, which is a
    permutation of F_p^|G|; the order only changes how much work the
    eliminations take.
    """
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    n_el = group.order
    p = group.p
    order = _heaviest_first(group)
    position = np.empty(n_el, dtype=np.int64)
    position[order] = np.arange(n_el, dtype=np.int64)
    # (v s)[h] = v[h s^-1]: right multiplication by s gathers coordinates,
    # one row of gathers per generator s
    gathers = position[group.mult(order[None, :], group.inverse(group.generators())[:, None])]

    # basis entries lie in [0, p), so b s - b, formed as b s + (p - b),
    # lies in [0, 2p); row_echelon_mod_p reduces its input itself
    dtype = np.min_scalar_type(2 * p)
    # the basis g - 1 of I: a 1 at the coordinate of each g != 1, and p - 1
    # at that of the identity, the last one in heaviest-first order
    one = int(position[group.identity])
    basis = np.zeros((n_el - 1, n_el), dtype=dtype)
    basis[:one, :one] = np.eye(one, dtype=dtype)
    basis[one:, one + 1:] = np.eye(n_el - 1 - one, dtype=dtype)
    basis[:, one] = p - 1

    ranks = [n_el, basis.shape[0]]
    while basis.shape[0] and len(ranks) <= depth + 1:
        # moved[i, j] is basis row j times generator i: the stack holds one
        # block of all basis rows per generator, in that order, which the
        # pivots at odd p depend on; np.take gathers the 500 x 1024 U(5,2)
        # rows about twice as fast as the fancy index basis[:, gathers]
        moved = np.take(basis, gathers, axis=1).transpose(1, 0, 2)
        stacked = np.empty(moved.shape, dtype=dtype)
        np.add(moved, p - basis, out=stacked)
        basis = row_echelon_mod_p(stacked.reshape(-1, n_el), p).astype(dtype)
        ranks.append(basis.shape[0])
    while len(ranks) <= depth + 1:
        ranks.append(0)
    return [ranks[k] - ranks[k + 1] for k in range(depth + 1)]
