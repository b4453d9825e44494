"""Brute-force finite p-group oracle."""
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zassenhaus import finite as fin


class TestGroupConstruction:
    def test_orders(self):
        assert fin.unitriangular_group(3, 2).order == 8
        assert fin.unitriangular_group(4, 2).order == 64
        assert fin.unitriangular_group(3, 3).order == 27
        assert fin.cyclic_group(5).order == 5

    def test_identity_is_zero(self):
        g = fin.unitriangular_group(3, 3)
        assert g.identity == 0
        mats = g.matrices(np.array([0]))
        assert (mats[0] == np.eye(3, dtype=mats.dtype)).all()

    def test_codec_roundtrip_exhaustive(self):
        g = fin.unitriangular_group(3, 3)
        idx = np.arange(g.order)
        assert (g.index_of(g.matrices(idx)) == idx).all()

    def test_codec_roundtrip_sampled(self):
        g = fin.unitriangular_group(4, 3)
        rng = np.random.default_rng(7)
        idx = rng.integers(0, g.order, size=200)
        assert (g.index_of(g.matrices(idx)) == idx).all()

    @pytest.mark.parametrize(
        "make",
        [
            lambda: fin.unitriangular_group(3, 2),
            lambda: fin.unitriangular_group(4, 3),
            lambda: fin.direct_product(
                fin.unitriangular_group(4, 2), fin.unitriangular_group(2, 2)
            ),
            lambda: fin.unitriangular_group(3, 17),  # int64 matrices
        ],
    )
    def test_table_decode_matches_arithmetic(self, make):
        g = make()
        idx = np.arange(g.order)
        want = np.zeros((g.order, g.size, g.size), dtype=np.int64)
        want[:, range(g.size), range(g.size)] = 1
        for k, (i, j) in enumerate(g.positions):
            want[:, i, j] = idx // g.p**k % g.p
        got = g.matrices(idx)
        assert got.dtype == g._dtype and (got == want).all()
        back = g.index_of(got)
        assert back.dtype == np.int64 and (back == idx).all()
        assert (g.matrices(idx[::-1].reshape(-1, 1)) == want[::-1, None]).all()
        # a decoded matrix is a copy: writing to it leaves the table alone
        one = g.matrices(g.order - 1)
        one[...] = 0
        assert (g.matrices(g.order - 1) == want[-1]).all()

    def test_too_large(self):
        with pytest.raises(fin.TooLarge):
            fin.unitriangular_group(8, 2)

    def test_explicit_cap(self, monkeypatch):
        monkeypatch.setenv(fin.ENV_CAP, "32")
        with pytest.raises(fin.TooLarge):
            fin.unitriangular_group(4, 2)
        monkeypatch.setenv(fin.ENV_CAP, "64")
        assert fin.unitriangular_group(4, 2).order == 64

    def test_direct_product_respects_cap(self, monkeypatch):
        monkeypatch.setenv(fin.ENV_CAP, "16")
        u32 = fin.unitriangular_group(3, 2)
        with pytest.raises(fin.TooLarge, match="64 elements, over the cap of 16"):
            fin.direct_product(u32, u32)
        monkeypatch.setenv(fin.ENV_CAP, "64")
        assert fin.direct_product(u32, u32).order == 64

    def test_cap_message_names_variable(self):
        with pytest.raises(fin.TooLarge, match=fin.ENV_CAP):
            fin.unitriangular_group(8, 2)

    def test_env_cap(self, monkeypatch):
        monkeypatch.setenv(fin.ENV_CAP, "32")
        with pytest.raises(fin.TooLarge):
            fin.unitriangular_group(4, 2)
        monkeypatch.setenv(fin.ENV_CAP, "100")
        assert fin.unitriangular_group(4, 2).order == 64

    def test_direct_product_needs_same_prime(self):
        with pytest.raises(ValueError):
            fin.direct_product(fin.cyclic_group(2), fin.cyclic_group(3))

    def test_direct_product_order(self):
        g = fin.direct_product(fin.cyclic_group(2), fin.unitriangular_group(3, 2))
        assert g.order == 16

    @pytest.mark.parametrize("p", [-3, 0, 1, 4, 9, 15])
    def test_non_prime_modulus(self, p):
        # p = 4 built a 64-element group whose filtration and group algebra
        # both failed, p = 1 ended in an IndexError and p = 0 had order 0
        with pytest.raises(fin.NonPrimeModulus, match=f"got p = {p}$"):
            fin.unitriangular_group(3, p)
        with pytest.raises(fin.NonPrimeModulus):
            fin.FiniteGroup(p, 2, [(0, 1)])


class TestArithmetic:
    def test_mult_matches_matrices(self):
        g = fin.unitriangular_group(4, 2)
        rng = np.random.default_rng(1)
        a = rng.integers(0, g.order, size=50)
        b = rng.integers(0, g.order, size=50)
        direct = g.index_of(g.matrices(a).astype(np.int64) @ g.matrices(b) % 2)
        assert (g.mult(a, b) == direct).all()

    def test_mult_int64_path(self):
        # 3 * 16^2 exceeds the uint8 budget, forcing the wide dtype
        g = fin.unitriangular_group(3, 17)
        assert g._dtype == np.int64
        rng = np.random.default_rng(2)
        a = rng.integers(0, g.order, size=40)
        b = rng.integers(0, g.order, size=40)
        direct = g.index_of(g.matrices(a) @ g.matrices(b) % 17)
        assert (g.mult(a, b) == direct).all()

    def test_inverse(self):
        for g in [fin.unitriangular_group(4, 2), fin.unitriangular_group(3, 5)]:
            idx = np.arange(g.order)
            assert (g.mult(g.inverse(idx), idx) == g.identity).all()
            assert (g.mult(idx, g.inverse(idx)) == g.identity).all()

    @pytest.mark.parametrize(
        "make",
        [
            lambda: fin.unitriangular_group(3, 2),
            lambda: fin.unitriangular_group(4, 3),
            lambda: fin.direct_product(fin.unitriangular_group(4, 2), fin.unitriangular_group(2, 2)),
            # 3 * 16^2 exceeds the uint8 budget: the int64 path
            lambda: fin.unitriangular_group(3, 17),
        ],
        ids=["U(3,2)", "U(4,3)", "U(4,2)xU(2,2)", "U(3,17)"],
    )
    def test_cached_inverse_matches_power_series(self, make):
        g = make()
        idx = np.arange(g.order, dtype=np.int64)
        inverses = _power_series_inverse(g, idx)
        product = (inverses @ g.matrices(idx)) % g.p
        assert (product == np.eye(g.size, dtype=np.int64)).all()
        want = g.index_of(inverses)
        # a partly filled index: some elements, with repeats, then 2-D
        # blocks as the pair scans pass them, then every element
        some = np.random.default_rng(g.order).integers(0, g.order, size=30)
        got = g.inverse(some)
        assert got.dtype == np.int64 and (got == want[some]).all()
        assert (g.inverse(idx[::3, None]) == want[::3, None]).all()
        assert (g.inverse(idx) == want).all()
        assert (g._inverses == want).all()
        assert (make().inverse(idx) == want).all()

    def test_inverse_index_is_filled_once(self, monkeypatch):
        g = fin.unitriangular_group(4, 3)
        inverted = []
        power = fin.FiniteGroup.power

        def counting(self, a, e):
            inverted.append(np.size(a))
            return power(self, a, e)

        monkeypatch.setattr(fin.FiniteGroup, "power", counting)
        assert g._inverses is None
        x = g.inverse([5, 7, 5])
        assert inverted == [3]
        # each result is filed both ways: the inverses need no new call
        assert (g.inverse(x) == [5, 7, 5]).all() and inverted == [3]
        everyone = np.arange(g.order)
        g.inverse(everyone)
        inverted.clear()
        g.commutators(everyone[:40], everyone[40:80])
        _conjugates(g, g.generators(), everyone)
        fin.subgroup_closure(g, everyone[[5, 50]], everyone)
        fin.group_algebra_aug_dims(g, 2)
        assert inverted == []

    @pytest.mark.parametrize(
        "make, q",
        [
            (lambda: fin.unitriangular_group(1, 3), 1),
            (lambda: fin.unitriangular_group(3, 2), 4),
            (lambda: fin.unitriangular_group(4, 3), 9),
            # 6 x 6 matrices, so q = 8, though both blocks have exponent 4
            (lambda: fin.direct_product(
                fin.unitriangular_group(4, 2), fin.unitriangular_group(2, 2)), 8),
            (lambda: fin.unitriangular_group(3, 17), 17),  # int64 matrices
        ],
        ids=["U(1,3)", "U(3,2)", "U(4,3)", "U(4,2)xU(2,2)", "U(3,17)"],
    )
    def test_fact_d_exponent_divides_q(self, make, q):
        # fact (d): g^q = 1 for q = p^ceil(log_p m), so g^-1 = g^(q - 1)
        g = make()
        idx = np.arange(g.order, dtype=np.int64)
        assert (g.power(idx, q) == g.identity).all()
        assert (g.inverse(idx) == g.index_of(_power_series_inverse(g, idx))).all()

    def test_power(self):
        g = fin.unitriangular_group(3, 3)
        idx = np.arange(g.order)
        assert (g.power(idx, 0) == g.identity).all()
        assert (g.power(idx, 1) == idx).all()
        sq = g.mult(idx, idx)
        assert (g.power(idx, 2) == sq).all()
        # exponent of U_3(F_3) is 3^2
        assert (g.power(idx, 9) == g.identity).all()

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_power_matches_repeated_mult(self, p):
        g = fin.unitriangular_group(3, p)
        idx = np.arange(g.order)
        want = np.zeros_like(idx)
        for e in range(10):
            assert (g.power(idx, e) == want).all()
            want = g.mult(want, idx)

    def test_power_multiply_count(self, monkeypatch):
        g = fin.unitriangular_group(3, 3)
        calls = []
        mult = fin.FiniteGroup.mult

        def counting(self, a, b):
            calls.append(1)
            return mult(self, a, b)

        monkeypatch.setattr(fin.FiniteGroup, "mult", counting)
        for e, count in [(2, 1), (3, 2)]:
            calls.clear()
            g.power(np.arange(g.order), e)
            assert len(calls) == count

    def test_commutators_of_identity(self):
        g = fin.unitriangular_group(3, 2)
        everyone = np.arange(g.order)
        comms = g.commutators([g.identity], everyone)
        assert set(comms.tolist()) == {g.identity}

    def test_pair_scan_chunks_agree(self, monkeypatch):
        g = fin.unitriangular_group(4, 2)
        everyone = np.arange(g.order)

        def scans():
            closure = fin.subgroup_closure(g, everyone[[3, 17, 40]], g.generators())
            return [
                g.commutators(everyone, everyone),
                g.commutators(everyone[:9], everyone),
                g.products(everyone[5:], everyone),
                closure[0],
                closure[2],
            ]

        whole = scans()
        # one row of a per chunk, so every scan is many chunks
        monkeypatch.setattr(fin, "_CHUNK_PAIRS", 50)
        for one, many in zip(whole, scans()):
            assert one.dtype == many.dtype == np.int64
            assert (one == many).all() and (np.diff(one) > 0).all()


def _conjugates(g, a, b):
    """Sorted distinct x^-1 y x over x in a, y in b, from mult and inverse
    alone: a reference off the library's pair scans."""
    x = np.asarray(a, dtype=np.int64).ravel()[:, None]
    y = np.asarray(b, dtype=np.int64).ravel()[None, :]
    return np.unique(g.mult(g.mult(g.inverse(x), y), x))


def _commutator_set(g, a, b):
    """{[x, y] = x^-1 y^-1 x y : x in a, y in b}, from mult and inverse alone."""
    x = np.asarray(a, dtype=np.int64).ravel()[:, None]
    y = np.asarray(b, dtype=np.int64).ravel()[None, :]
    inv = g.mult(g.inverse(x), g.inverse(y))
    return frozenset(g.mult(inv, g.mult(x, y)).ravel().tolist())


def _power_series_inverse(g, idx):
    """Reference inverses, as matrices: (1 + N)(1 - N)(1 + N^2)(1 + N^4)...
    telescopes to 1 - N^(2^k), which is 1 once N^(2^k) = 0."""
    eye = np.eye(g.size, dtype=np.int64)
    nil = (g.matrices(idx).astype(np.int64) - eye) % g.p
    acc = (eye - nil) % g.p
    square = (nil @ nil) % g.p
    while square.any():
        acc = (acc + acc @ square) % g.p
        square = (square @ square) % g.p
    return acc


_unique_inputs = st.lists(
    st.one_of(st.integers(-3, 3), st.integers(-(2**63), 2**63 - 1)), max_size=50
)


@settings(max_examples=200, deadline=None)
@given(_unique_inputs, st.booleans())
@example([], False)
@example([7], False)
@example([4, 4, 4, -1, 4, -1], True)
def test_unique_matches_np_unique(values, column):
    x = np.array(values, dtype=np.int64)
    if column:  # a 2-D block, flattened as np.unique flattens it
        x = x[:, None]
    got = fin._unique(x)
    want = np.unique(x)
    assert got.dtype == want.dtype == np.int64
    assert got.shape == want.shape and (got == want).all()


class TestGenerators:
    def test_unitriangular_superdiagonal(self):
        for m, p in ((2, 2), (3, 3), (5, 2)):
            g = fin.unitriangular_group(m, p)
            mats = g.matrices(g.generators())
            assert len(mats) == m - 1
            for k, mat in enumerate(mats):
                want = np.eye(m, dtype=mat.dtype)
                want[k, k + 1] = 1
                assert (mat == want).all()

    def test_direct_product_takes_union(self):
        g = fin.direct_product(fin.unitriangular_group(4, 2), fin.unitriangular_group(2, 2))
        mats = g.matrices(g.generators())
        corners = sorted(tuple(np.argwhere(np.triu(m, 1))[0].tolist()) for m in mats)
        assert corners == [(0, 1), (1, 2), (2, 3), (4, 5)]


class TestClosure:
    def test_central_element_generates_cyclic(self):
        g = fin.unitriangular_group(3, 3)
        mat = np.eye(3, dtype=np.int64)
        mat[0, 2] = 1
        center = int(g.index_of(mat[None])[0])
        elements, kept, comms = fin.subgroup_closure(g, [center])
        assert elements.tolist() == [0, center, 2 * center] and kept == [center]
        assert comms.dtype == np.int64 and comms.size == 0

    def test_generators_recover_group(self):
        g = fin.unitriangular_group(3, 2)
        m1 = np.eye(3, dtype=np.int64)
        m1[0, 1] = 1
        m2 = np.eye(3, dtype=np.int64)
        m2[1, 2] = 1
        gens = g.index_of(np.stack([m1, m2]))
        elements, _, _ = fin.subgroup_closure(g, gens)
        assert (elements == np.arange(g.order)).all()

    @pytest.mark.parametrize("conjugate", [False, True])
    def test_empty_generators(self, conjugate):
        g = fin.cyclic_group(3)
        elements, kept, comms = fin.subgroup_closure(g, [], g.generators() if conjugate else ())
        assert elements.tolist() == [g.identity] and kept == [] and comms.size == 0

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("name", ["U(3,3)", "U(4,2)", "U(2,2)^3", "U(3,5)", "U(4,2)xU(2,2)"])
    def test_matches_full_product_search(self, name, seed):
        g = {**_small_groups(), **_larger_groups()}[name]
        rng = np.random.default_rng(seed)
        gens = rng.integers(0, g.order, size=int(rng.integers(0, 4)))
        assert _closed(g, gens) == _bfs_subgroup(g, gens)
        # with conjugation by the generators: the normal closure, and the
        # commutators of every kept generator with every generator
        everyone = np.arange(g.order)
        elements, kept, comms = fin.subgroup_closure(g, gens, g.generators())
        want = _bfs_subgroup(g, _conjugates(g, everyone, gens))
        assert frozenset(elements.tolist()) == want
        assert _bfs_subgroup(g, kept) == want
        assert (np.diff(comms) > 0).all()
        assert frozenset(comms.tolist()) == _commutator_set(g, kept, g.generators())

    def test_one_commutator_scan_per_round(self, monkeypatch):
        # a round keeps what its candidates add and scans the commutators
        # [k, x] of all of it with conjugate_by in one scan; that scan's
        # commutators are the next round's candidates, a round that keeps
        # nothing ends the closure, and every scan's output is returned
        scans = []
        commutators = fin.FiniteGroup.commutators

        def recording(self, a, b):
            out = commutators(self, a, b)
            scans.append((list(a), np.array(b), out.tolist()))
            return out

        g = fin.unitriangular_group(5, 2)
        gens = g.generators()
        candidates = g.commutators(gens, gens)  # 1, x_13, x_24, x_35
        monkeypatch.setattr(fin.FiniteGroup, "commutators", recording)
        elements, kept, comms = fin.subgroup_closure(g, candidates, gens)
        assert len(elements) == 2**6  # x_13 .. x_15, x_24, x_25, x_35
        assert [len(a) for a, _, _ in scans] == [3, 2]
        assert all((b == gens).all() for _, b, _ in scans)
        assert [k for a, _, _ in scans for k in a] == kept
        assert set(scans[0][0]) <= set(candidates.tolist())
        assert set(scans[1][0]) <= set(scans[0][2])
        assert set(scans[1][2]) <= set(elements.tolist())
        assert comms.tolist() == sorted(set(scans[0][2]) | set(scans[1][2]))

    def test_grows_through_products(self, monkeypatch):
        # each kept generator c first adds the coset H c in one scan of
        # (H, [c]); the scans after it multiply the new elements by every
        # generator kept so far, and every element comes from some scan
        scans = []
        products = fin.FiniteGroup.products

        def recording(self, a, b):
            out = products(self, a, b)
            scans.append((np.array(a).tolist(), list(b), out.tolist()))
            return out

        monkeypatch.setattr(fin.FiniteGroup, "products", recording)
        g = fin.unitriangular_group(4, 2)
        elements, kept, _ = fin.subgroup_closure(g, g.generators())
        assert len(elements) == g.order and len(kept) == 3
        assert scans[0][:2] == ([g.identity], [kept[0]])
        assert all(b == [b[-1]] or b == kept[: len(b)] for _, b, _ in scans)
        for c in kept:
            assert [b for _, b, _ in scans if b[-1] == c][0] == [c]
        found = {g.identity}.union(*(set(out) for _, _, out in scans))
        assert found == set(elements.tolist())


def _closed(group, gens):
    """The subgroup generated by gens, as a set of element indices."""
    elements, _, _ = fin.subgroup_closure(group, gens)
    return frozenset(elements.tolist())


def _bfs_subgroup(group, gens):
    """<gens>, by multiplying every element found by every element found
    until no product is new."""
    found = {group.identity, *np.asarray(gens, dtype=np.int64).tolist()}
    while True:
        els = np.array(sorted(found))
        more = set(group.mult(els[:, None], els[None, :]).ravel().tolist())
        if more <= found:
            return frozenset(found)
        found |= more


class TestFiltration:
    def test_cyclic(self):
        for p in (2, 3, 5):
            f = fin.zassenhaus_filtration_finite(fin.cyclic_group(p), 4)
            assert f.dims == (1, 0, 0, 0)

    def test_u3_f2(self):
        f = fin.zassenhaus_filtration_finite(fin.unitriangular_group(3, 2), 4)
        assert f.dims == (2, 1, 0, 0)
        assert [len(s) for s in f.subgroups] == [8, 2, 1, 1, 1]

    def test_u4_f2(self):
        f = fin.zassenhaus_filtration_finite(fin.unitriangular_group(4, 2), 5)
        assert f.dims == (3, 2, 1, 0, 0)

    def test_u3_f3(self):
        f = fin.zassenhaus_filtration_finite(fin.unitriangular_group(3, 3), 4)
        assert f.dims == (2, 1, 0, 0)

    def test_u3_f5_uses_uint8(self):
        g = fin.unitriangular_group(3, 5)
        assert g._dtype == np.uint8
        f = fin.zassenhaus_filtration_finite(g, 5)
        # exponent-5 Heisenberg group: [G, G] = G_(2), fifth powers vanish
        assert f.dims == (2, 1, 0, 0, 0)

    def test_elementary_abelian(self):
        g = fin.direct_product(fin.cyclic_group(2), fin.cyclic_group(2))
        f = fin.zassenhaus_filtration_finite(g, 3)
        assert f.dims == (2, 0, 0)

    def test_members_are_normal(self):
        g = fin.unitriangular_group(4, 2)
        f = fin.zassenhaus_filtration_finite(g, 4)
        everyone = np.arange(g.order)
        for sub in f.subgroups:
            assert set(_conjugates(g, everyone, sorted(sub)).tolist()) <= sub

    def test_u4_f5_members_are_normal(self):
        # exponent 5, so p-th powers are trivial: x_14 = [x_12, x_24] enters
        # G_(2) only through the normal closure of the generator commutators
        g = fin.unitriangular_group(4, 5)
        f = fin.zassenhaus_filtration_finite(g, 4)
        assert f.dims == (3, 2, 1, 0)
        for sub in f.subgroups:
            assert set(_conjugates(g, g.generators(), sorted(sub)).tolist()) <= sub

    def test_members_nested(self):
        f = fin.zassenhaus_filtration_finite(fin.unitriangular_group(4, 2), 4)
        for big, small in zip(f.subgroups, f.subgroups[1:]):
            assert small <= big

    def test_depth_below_one(self):
        for depth in (0, -1):
            with pytest.raises(ValueError, match="depth must be >= 1"):
                fin.zassenhaus_filtration_finite(fin.cyclic_group(2), depth)

    def test_closure_commutators_feed_the_next_degree(self, monkeypatch):
        # Jennings: G_(n) = [G_(n-1), G] G_(ceil(n/p))^p.  Degree 2 scans
        # the generators against themselves; every later scan is a round of
        # a closure, and the commutators [k, s] that make G_(n-1) normal are
        # degree n's commutator candidates, so each kept generator is
        # scanned against the group's generators exactly once
        scans, closures = [], []
        commutators = fin.FiniteGroup.commutators
        closure = fin.subgroup_closure

        def recording(self, a, b):
            scans.append((list(a), np.array(b)))
            return commutators(self, a, b)

        def closing(group, candidates, conjugate_by=()):
            out = closure(group, candidates, conjugate_by)
            closures.append((np.array(candidates), out))
            return out

        monkeypatch.setattr(fin.FiniteGroup, "commutators", recording)
        monkeypatch.setattr(fin, "subgroup_closure", closing)
        g = fin.unitriangular_group(5, 2)
        gens = g.generators()
        f = fin.zassenhaus_filtration_finite(g, 5)
        assert f.dims == (4, 3, 2, 1, 0)
        assert scans[0][0] == gens.tolist()
        assert all((b == gens).all() for _, b in scans)
        assert [k for a, _ in scans[1:] for k in a] == [
            k for _, (_, kept, _) in closures for k in kept
        ]
        handed = _commutator_set(g, gens, gens)
        for prev, (candidates, (_, kept, comms)) in zip(f.subgroups[1:], closures):
            # kept generators, at most log_2 |G| = 10 of them, that generate G_(n)
            assert len(kept) <= 10 and _closed(g, kept) == prev
            assert frozenset(candidates[: len(handed)].tolist()) == handed
            assert frozenset(comms.tolist()) == _commutator_set(g, kept, gens)
            handed = frozenset(comms.tolist())

    def test_finite_oracle_pass_scan_counts(self, monkeypatch):
        # the three filtrations of the finite-oracle benchmark pass make 13
        # commutator scans (3 of degree 2, 10 closure rounds) and 40
        # products scans, and no other pair scan
        counts = dict.fromkeys(["commutators", "products", "_pair_scan"], 0)
        for name in counts:
            method = getattr(fin.FiniteGroup, name)

            def counting(self, *args, _method=method, _name=name):
                counts[_name] += 1
                return _method(self, *args)

            monkeypatch.setattr(fin.FiniteGroup, name, counting)
        u, dp = fin.unitriangular_group, fin.direct_product
        for group, depth in [(u(5, 2), 5), (u(4, 3), 4), (dp(u(4, 2), u(2, 2)), 4)]:
            fin.zassenhaus_filtration_finite(group, depth)
        assert counts == {"commutators": 13, "products": 40, "_pair_scan": 53}

    def test_one_closure_per_degree_under_its_module_name(self, monkeypatch):
        # a wrapper set on the module attribute, as a trace hook sets it,
        # sees every closure of the filtration: G_(2) .. G_(7) at depth 6
        calls = []
        closure = fin.subgroup_closure

        def counting(group, candidates, conjugate_by=()):
            calls.append(len(conjugate_by))
            return closure(group, candidates, conjugate_by)

        monkeypatch.setattr(fin, "subgroup_closure", counting)
        g = fin.unitriangular_group(5, 2)
        f = fin.zassenhaus_filtration_finite(g, 6)
        assert f.dims == (4, 3, 2, 1, 0, 0)
        # each a normal closure under the 4 generators
        assert calls == [4] * 6

    def test_second_term_from_generator_powers(self, monkeypatch):
        # fact (c): G_(2) takes the squares of the 4 generators, not of all
        # of G, and at p = 2 no later degree squares G_(1) either; degrees
        # 3..7 square G_(2), G_(3) and G_(4), as ceil(n/2) asks
        g = fin.unitriangular_group(5, 2)
        chain, dims = _literal_filtration(g, 6)
        inputs = []
        power = fin.FiniteGroup.power

        def recording(self, a, e):
            if e == self.p:  # the inverse index fills by power too, fact (d)
                inputs.append(np.array(a))
            return power(self, a, e)

        monkeypatch.setattr(fin.FiniteGroup, "power", recording)
        f = fin.zassenhaus_filtration_finite(g, 6)
        assert f.subgroups == chain and f.dims == dims
        assert (inputs[0] == g.generators()).all()
        assert [len(a) for a in inputs] == [4, 64, 8, 2]
        assert [frozenset(a.tolist()) for a in inputs[1:]] == list(chain[1:4])

    def test_odd_p_takes_the_generators_p_th_powers(self, monkeypatch):
        # fact (c) at n <= p: degrees 2 and 3 of U(4, 3) share the cubes of
        # the 3 generators, not of all 729 elements; degrees 4 and 5 cube
        # G_(2), of order 27
        g = fin.unitriangular_group(4, 3)
        chain, _ = _literal_filtration(g, 4)
        sizes = []
        power = fin.FiniteGroup.power

        def recording(self, a, e):
            if e == self.p:  # the inverse index fills by power too, fact (d)
                sizes.append(np.size(a))
            return power(self, a, e)

        monkeypatch.setattr(fin.FiniteGroup, "power", recording)
        f = fin.zassenhaus_filtration_finite(g, 4)
        assert f.subgroups == chain and f.dims == (3, 2, 1, 0)
        assert sizes == [3, 27]


def _column_loop_echelon(mat, p):
    """Reference: clear one column at a time with int64 rows, at every p."""
    m = np.array(mat, dtype=np.int64) % p
    rank = 0
    rows, cols = m.shape
    for col in range(cols):
        if rank == rows:
            break
        pivots = np.nonzero(m[rank:, col])[0]
        if pivots.size == 0:
            continue
        piv = rank + int(pivots[0])
        if piv != rank:
            m[[rank, piv]] = m[[piv, rank]]
        m[rank] = (m[rank] * pow(int(m[rank, col]), -1, p)) % p
        below = m[rank + 1 :, col]
        hits = np.nonzero(below)[0]
        if hits.size:
            m[rank + 1 + hits] = (m[rank + 1 + hits] - np.outer(below[hits], m[rank])) % p
        rank += 1
    return m[:rank]


class TestGroupAlgebra:
    def test_row_echelon_rank(self):
        mat = np.array([[1, 2], [2, 4]])
        assert fin.row_echelon_mod_p(mat, 5).shape[0] == 1
        assert fin.row_echelon_mod_p(np.eye(3, dtype=np.int64), 2).shape[0] == 3
        # rank differs between characteristics
        mat2 = np.array([[1, 1], [1, 3]])
        assert fin.row_echelon_mod_p(mat2, 2).shape[0] == 1
        assert fin.row_echelon_mod_p(mat2, 3).shape[0] == 2

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize(
        "shape",
        [(0, 0), (0, 5), (3, 0), (1, 1), (6, 1), (1, 9), (5, 7), (17, 8),
         (40, 13), (9, 70), (130, 20), (24, 129),
         # whole and part 64-bit words, up to the U(5, 2) group algebra
         (70, 64), (33, 65), (150, 128), (40, 1024)],
    )
    def test_gf2_matches_column_loop(self, shape, seed):
        rng = np.random.default_rng(seed)
        rows, cols = shape
        mats = [
            rng.integers(-5, 6, size=shape),
            rng.integers(0, 2, size=shape) * (rng.random(shape) < 0.15),
            np.zeros(shape, dtype=np.int64),
        ]
        if rows >= 2:
            # duplicate rows, and a row that is the sum of two others mod 2
            dup = rng.integers(-3, 4, size=shape)
            dup[rows // 2] = dup[0]
            dup[-1] = dup[0] + 3 * dup[1]
            mats.append(dup)
        for mat in mats:
            want = _column_loop_echelon(mat, 2)
            got = fin.row_echelon_mod_p(mat, 2)
            assert got.dtype == np.int64 and got.shape[1] == cols
            assert got.shape[0] == want.shape[0]
            assert _column_loop_echelon(np.vstack([got, want]), 2).shape[0] == want.shape[0]
            leads = [int(np.flatnonzero(row)[0]) for row in got]
            assert all(row[lead] == 1 for row, lead in zip(got, leads))
            assert leads == sorted(set(leads))
            assert ((got == 0) | (got == 1)).all()

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_narrow_stack_matches_int64(self, p):
        rng = np.random.default_rng(p)
        for rows, cols in [(0, 4), (12, 9), (40, 17), (25, 70)]:
            narrow = rng.integers(0, 2 * p, size=(rows, cols)).astype(np.uint8)
            if rows:
                narrow[rows // 2] = narrow[0]
            got = fin.row_echelon_mod_p(narrow, p)
            wide = fin.row_echelon_mod_p(narrow.astype(np.int64), p)
            assert got.dtype == wide.dtype == np.int64
            assert got.shape == wide.shape
            assert _column_loop_echelon(np.vstack([got, wide]), p).shape[0] == got.shape[0]
            assert _column_loop_echelon(narrow, p).shape[0] == got.shape[0]
            leads = [int(np.flatnonzero(row)[0]) for row in got]
            assert all(row[lead] == 1 for row, lead in zip(got, leads))
            assert leads == sorted(set(leads))

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_delayed_reduction_matches_column_loop(self, p):
        # tall inputs, unreduced as the augmentation stacks are: the rows
        # below take up to rank updates before the end, so their entries
        # grow far past p
        rng = np.random.default_rng(p)
        low_rank = rng.integers(0, p, size=(320, 12)) @ rng.integers(0, p, size=(12, 60))
        for mat in [
            rng.integers(0, 2 * p, size=(300, 40)),
            rng.integers(0, 2 * p, size=(400, 90)).astype(np.uint8),
            low_rank % p + p * rng.integers(0, 2, size=low_rank.shape),
        ]:
            want = _column_loop_echelon(mat, p)
            got = fin.row_echelon_mod_p(mat, p)
            assert got.dtype == np.int64
            assert got.shape == want.shape and (got == want).all()

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_pivots_below_the_top_row(self, p):
        # every row starts with a run of zeros; sorted by run length, longest
        # first, each column's first nonzero row lies below the rows not yet
        # used, so most pivots are swapped up from further down (22 to 30 of
        # the 30 here, in either row order)
        rng = np.random.default_rng(100 + p)
        rows, cols = 80, 30
        runs = rng.integers(0, cols + 1, size=rows)
        mat = rng.integers(0, 2 * p, size=(rows, cols))
        mat[np.arange(cols) < runs[:, None]] = 0
        mat[5] = mat[60] + p  # a duplicate row, unreduced
        by_run = np.argsort(-runs, kind="stable")
        assert runs[by_run[0]] > runs[by_run[-1]] == 0
        for order in (by_run, rng.permutation(rows)):
            want = _column_loop_echelon(mat[order], p)
            got = fin.row_echelon_mod_p(mat[order], p)
            assert got.dtype == np.int64
            assert got.shape == want.shape and (got == want).all()

    @pytest.mark.parametrize("p", [127, 131, 32749, 32771, 2147483647])
    def test_delayed_reduction_at_large_prime(self, p):
        # the largest and smallest primes eliminated in int16, int32 and
        # int64: at 127, 32749 and 2147483647, p + (p - 1)^2 just fits a
        # quarter of the range, so the rows below are reduced again before
        # every update but the first; without that they wrap
        rng = np.random.default_rng(11)
        mat = rng.integers(0, 2 * p, size=(24, 16))
        want = _column_loop_echelon(mat, p)
        got = fin.row_echelon_mod_p(mat, p)
        assert got.dtype == np.int64
        assert got.shape == want.shape == (16, 16) and (got == want).all()

    def test_prime_past_int64_rows_raises(self):
        # p + (p - 1)^2 > 2^62: no row type holds one update; in int64 the
        # rows of this matrix wrap into an echelon form that differs from
        # _column_loop_echelon, with no error
        p = 4294967311
        mat = np.random.default_rng(11).integers(0, p, size=(24, 16))
        with pytest.raises(ValueError, match=r"p = 4294967311 .*2\^62"):
            fin.row_echelon_mod_p(mat, p)

    def test_delayed_reduction_of_large_entries(self):
        # entries at the bottom of int64 would wrap on the first update
        # unless the input is reduced first
        rng = np.random.default_rng(13)
        mat = np.iinfo(np.int64).min + rng.integers(0, 50, size=(60, 12))
        for p in (3, 7):
            want = _column_loop_echelon(mat, p)
            assert (fin.row_echelon_mod_p(mat, p) == want).all()

    def test_aug_dims_use_module_row_echelon(self, monkeypatch):
        # bench/tracing.py hooks the elimination through the module attribute
        calls = []
        echelon = fin.row_echelon_mod_p

        def counting(mat, p):
            calls.append(len(mat))
            return echelon(mat, p)

        monkeypatch.setattr(fin, "row_echelon_mod_p", counting)
        g = fin.unitriangular_group(3, 2)
        assert fin.group_algebra_aug_dims(g, 5) == [1, 2, 2, 2, 1, 0]
        # I^2..I^5, each stacked from 2 generators times the rank before it
        assert calls == [14, 10, 6, 2]

    def test_gathers_in_one_mult_call(self, monkeypatch):
        g = fin.unitriangular_group(4, 2)
        want = _literal_aug_dims(g, 12)
        calls = []
        mult = fin.FiniteGroup.mult

        def counting(self, a, b):
            calls.append((np.shape(a), np.shape(b)))
            return mult(self, a, b)

        # file the generators' inverses first: their fill multiplies too
        g.inverse(g.generators())
        monkeypatch.setattr(fin.FiniteGroup, "mult", counting)
        assert fin.group_algebra_aug_dims(g, 12) == want
        # every generator's gather at once: (1, |G|) against (3 generators, 1)
        assert calls == [((1, 64), (3, 1))]

    @pytest.mark.parametrize("name", ["U(3,2)", "U(3,3)", "C2xU(3,2)"])
    def test_depth_below_nilpotency(self, name):
        # a_depth is dim I^depth / I^(depth+1) even where I^(depth+1) != 0
        group = _small_groups()[name]
        full = fin.group_algebra_aug_dims(group, 12)
        assert full[-1] == 0
        for depth in range(12):
            assert fin.group_algebra_aug_dims(group, depth) == full[: depth + 1]

    def test_cyclic2(self):
        assert fin.group_algebra_aug_dims(fin.cyclic_group(2), 2) == [1, 1, 0]

    def test_cyclic3(self):
        assert fin.group_algebra_aug_dims(fin.cyclic_group(3), 3) == [1, 1, 1, 0]

    def test_klein_four(self):
        g = fin.direct_product(fin.cyclic_group(2), fin.cyclic_group(2))
        assert fin.group_algebra_aug_dims(g, 3) == [1, 2, 1, 0]

    def test_u3_f2(self):
        g = fin.unitriangular_group(3, 2)
        assert fin.group_algebra_aug_dims(g, 5) == [1, 2, 2, 2, 1, 0]

    def test_negative_depth(self):
        g = fin.unitriangular_group(3, 2)
        with pytest.raises(ValueError, match="depth must be >= 0, got -2"):
            fin.group_algebra_aug_dims(g, -2)
        assert fin.group_algebra_aug_dims(g, 0) == [1]

    def test_dims_sum_to_group_order(self):
        for g in [
            fin.unitriangular_group(3, 3),
            fin.direct_product(fin.cyclic_group(3), fin.cyclic_group(3)),
        ]:
            dims = fin.group_algebra_aug_dims(g, 4 * g.p)
            assert sum(dims) == g.order


# -- independence: the generating-set routines against literal all-pairs ones


def _literal_filtration(group, depth):
    """G_(n) = < G_(ceil(n/p))^p, [G_(i), G_(j)] for i + j = n >, scanning
    every element and every commutator pair; no generating sets.  This is
    Lazard's form, not the Jennings recursion the oracle uses."""
    chain = [frozenset(range(group.order))]
    for n in range(2, depth + 2):
        parts = [group.power(sorted(chain[-(-n // group.p) - 1]), group.p)]
        for i in range(1, n):
            parts.append(group.commutators(sorted(chain[i - 1]), sorted(chain[n - i - 1])))
        chain.append(_closed(group, np.unique(np.concatenate(parts))))
    dims = []
    for big, small in zip(chain, chain[1:]):
        ratio, e = len(big) // len(small), 0
        while ratio > 1:
            ratio //= group.p
            e += 1
        dims.append(e)
    return tuple(chain), tuple(dims)


def _literal_aug_dims(group, depth):
    """Ranks of I^n, stacking b g - b over every g in G."""
    p, n_el = group.p, group.order
    everyone = np.arange(n_el)
    perms = [group.mult(everyone, g) for g in range(1, n_el)]
    basis = np.zeros((n_el - 1, n_el), dtype=np.int64)
    for g in range(1, n_el):
        basis[g - 1, g], basis[g - 1, 0] = 1, p - 1
    ranks = [n_el, n_el - 1]
    while len(ranks) <= depth + 1:
        stacked = []
        for perm in perms:
            moved = np.zeros_like(basis)
            moved[:, perm] = basis
            stacked.append((moved - basis) % p)
        basis = fin.row_echelon_mod_p(np.vstack(stacked), p)
        ranks.append(basis.shape[0])
    return [ranks[k] - ranks[k + 1] for k in range(depth + 1)]


def _small_groups():
    u, c, dp = fin.unitriangular_group, fin.cyclic_group, fin.direct_product
    return {
        "U(2,2)": u(2, 2),
        "U(3,2)": u(3, 2),
        "U(4,2)": u(4, 2),
        "U(3,3)": u(3, 3),
        "C2xC2": dp(c(2), c(2)),
        "C2xU(3,2)": dp(c(2), u(3, 2)),
        "U(2,2)^3": dp(dp(u(2, 2), u(2, 2)), u(2, 2)),
        "C3xC3": dp(c(3), c(3)),
    }


def _larger_groups():
    u, dp = fin.unitriangular_group, fin.direct_product
    return {
        "U(3,5)": u(3, 5),
        "U(4,2)xU(2,2)": dp(u(4, 2), u(2, 2)),
        "U(3,3)xU(2,3)": dp(u(3, 3), u(2, 3)),
    }


def _assert_filtration_matches_literal(group):
    chain, dims = _literal_filtration(group, 5)
    fast = fin.zassenhaus_filtration_finite(group, 5)
    assert fast.subgroups == chain
    assert fast.dims == dims


class TestIndependence:
    @pytest.mark.parametrize("name", sorted(_small_groups()))
    def test_filtration_matches_literal(self, name):
        group = _small_groups()[name]
        assert group.order <= 64
        _assert_filtration_matches_literal(group)

    @pytest.mark.parametrize("name", sorted(_larger_groups()))
    def test_larger_filtration_matches_literal(self, name):
        _assert_filtration_matches_literal(_larger_groups()[name])

    @pytest.mark.parametrize("name", sorted(_small_groups()))
    def test_aug_dims_match_literal(self, name):
        group = _small_groups()[name]
        depth = 12
        assert fin.group_algebra_aug_dims(group, depth) == _literal_aug_dims(group, depth)

    def test_generators_generate(self):
        groups = list(_small_groups().values()) + [
            fin.unitriangular_group(5, 2),
            fin.direct_product(fin.unitriangular_group(4, 2), fin.unitriangular_group(2, 2)),
        ]
        for group in groups:
            assert _closed(group, group.generators()) == frozenset(range(group.order))


class TestCoordinateOrder:
    """group_algebra_aug_dims orders the coordinates of F_p[G] heaviest first;
    a permutation of the coordinates changes no rank."""

    GROUPS = {**_small_groups(), **_larger_groups()}

    @pytest.mark.parametrize("name", sorted(GROUPS))
    def test_heaviest_first_ends_with_the_identity(self, name):
        group = self.GROUPS[name]
        order = fin._heaviest_first(group).tolist()
        assert sorted(order) == list(range(group.order))
        assert order[-1] == group.identity
        # off-diagonal entries of each matrix, read from the decode table
        mats = group.matrices(np.array(order)).astype(np.int64)
        nonzero = np.count_nonzero(mats, axis=(1, 2)) - group.size
        sums = mats.sum(axis=(1, 2)) - group.size
        keys = [(-int(k), -int(s), g) for k, s, g in zip(nonzero, sums, order)]
        assert keys == sorted(keys)

    @pytest.mark.parametrize("name", sorted(GROUPS))
    def test_dims_do_not_depend_on_the_order(self, monkeypatch, name):
        group = self.GROUPS[name]
        depth = 12
        want = fin.group_algebra_aug_dims(group, depth)
        rng = np.random.default_rng(20141)
        for order in (np.arange(group.order), rng.permutation(group.order)):
            monkeypatch.setattr(fin, "_heaviest_first", lambda g, order=order: order)
            assert fin.group_algebra_aug_dims(group, depth) == want


@pytest.mark.parametrize("p", [2, 3])
class TestTrivialGroup:
    """U(1, p) has order 1 and no generators; a trivial direct factor
    changes neither route."""

    def test_order_one(self, p):
        g = fin.unitriangular_group(1, p)
        assert g.order == 1 and g.generators().size == 0
        f = fin.zassenhaus_filtration_finite(g, 3)
        assert f.dims == (0, 0, 0)
        assert f.subgroups == (frozenset({0}),) * 4
        assert fin.group_algebra_aug_dims(g, 3) == [1, 0, 0, 0]

    def test_trivial_direct_factor(self, p):
        u3 = fin.unitriangular_group(3, p)
        g = fin.direct_product(fin.unitriangular_group(1, p), u3)
        assert g.order == u3.order
        chain, dims = _literal_filtration(g, 5)
        f = fin.zassenhaus_filtration_finite(g, 5)
        assert f.subgroups == chain == fin.zassenhaus_filtration_finite(u3, 5).subgroups
        assert f.dims == dims == (2, 1, 0, 0, 0)
        depth = 3 * p
        want = _literal_aug_dims(g, depth)
        assert fin.group_algebra_aug_dims(g, depth) == want
        assert fin.group_algebra_aug_dims(u3, depth) == want


class TestAugmentationStacks:
    """Every stack that group_algebra_aug_dims eliminates, against the
    test-local column loop."""

    GROUPS = dict(
        _small_groups(),
        **{"U(3,5)": fin.unitriangular_group(3, 5), "U(3,7)": fin.unitriangular_group(3, 7)},
    )

    @pytest.mark.parametrize("name", sorted(GROUPS))
    def test_stacks_match_column_loop(self, monkeypatch, name):
        group = self.GROUPS[name]
        p = group.p
        stacks = []
        echelon = fin.row_echelon_mod_p

        def recording(mat, prime):
            stacks.append(mat.copy())
            return echelon(mat, prime)

        monkeypatch.setattr(fin, "row_echelon_mod_p", recording)
        dims = fin.group_algebra_aug_dims(group, group.order)
        assert sum(dims) == group.order and stacks
        for mat in stacks:
            # handed over unreduced, in the narrow dtype
            assert mat.dtype == np.min_scalar_type(2 * p) and int(mat.max()) < 2 * p
            want = _column_loop_echelon(mat, p)
            got = echelon(mat, p)
            assert got.dtype == np.int64 and got.shape[0] == want.shape[0]
            if p > 2:
                assert (got == want).all()


def test_u6_f2_filtration_is_fast():
    t0 = time.perf_counter()
    f = fin.zassenhaus_filtration_finite(fin.unitriangular_group(6, 2), 6)
    elapsed = time.perf_counter() - t0
    assert f.dims == (5, 4, 3, 2, 1, 0)
    assert elapsed < 5.0
