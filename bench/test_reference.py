"""Hand-checkable values for the benchmark's reference arithmetic.

    python3 -m pytest bench/test_reference.py
"""
import reference as ref


def test_necklace_counts():
    # binary necklaces: 2, 1, 2, 3, 6, 9
    assert [ref.necklace(2, n) for n in range(1, 7)] == [2, 1, 2, 3, 6, 9]
    assert [ref.necklace(1, n) for n in range(1, 5)] == [1, 0, 0, 0]


def test_c_of_free_2_at_p_2():
    w = [ref.necklace(2, n) for n in (1, 2)]
    assert ref.c_from_w(w, 2) == [2, 3]  # c_2 = w_2 + w_1


def test_demushkin_power_sums():
    # s_m = 3 s_(m-1) - s_(m-2) from s_0 = 2, s_1 = 3
    assert ref.demushkin_power_sums(3, 4) == [3, 7, 18, 47]
    # demushkin(2) has series 1/(1 - t)^2: w = 2, 0, 0, ...
    s = ref.demushkin_power_sums(2, 6)
    assert [ref.moebius_transform(s, n) for n in range(1, 7)] == [2, 0, 0, 0, 0, 0]


def test_free_power_sums_are_necklaces():
    s = ref.power_sums(3, 0, 8)
    assert [ref.moebius_transform(s, n) for n in range(1, 9)] == [
        ref.necklace(3, n) for n in range(1, 9)]


def test_expand_rational():
    assert ref.expand_rational([1], [1, -1, -1], 6) == [1, 1, 2, 3, 5, 8, 13]
    assert ref.leaf_series("zp", 2, 4) == [1, 2, 3, 4, 5]
    assert ref.leaf_series("cyclic", 3, 4) == [1, 1, 1, 0, 0]


def test_superpyth_leaf():
    # (1 + t) times partitions into odd parts >= 3
    assert ref.leaf_series("superpyth", 0, 9) == [1, 1, 0, 1, 1, 1, 2, 2, 2, 3]


def test_free_product_of_two_involutions():
    # (2/(1 + t) - 1)^-1 = (1 + t)/(1 - t)
    tree = ("*", (("cyclic", 2), ("cyclic", 2)))
    assert ref.series_of(tree, 5) == [1, 2, 2, 2, 2, 2]


def test_cyclic_2_free_2_rebuilds_from_its_c():
    # c of cyclic(2) * free(2) at p = 2 is 3, 5, 6, 17, 30
    tree = ("*", (("cyclic", 2), ("free", 2)))
    assert ref.rebuild([3, 5, 6, 17, 30], 2, 5) == ref.series_of(tree, 5)
    assert ref.rebuild([3, 5, 6, 17, 31], 2, 5) != ref.series_of(tree, 5)


def test_rebuild_telescopes_for_free_1():
    # c_n = 1 at powers of p: prod (1 + t^n + ... ) telescopes to 1/(1 - t)
    assert ref.rebuild([1, 1, 0, 1, 0, 0, 0, 1], 2, 8) == [1] * 9
    assert ref.rebuild([1, 0, 1, 0, 0, 0, 0, 0, 1], 3, 9) == [1] * 10


def test_superpyth_c_pattern_rebuilds_its_series():
    c = [1, 0, 1, 0, 1, 1, 1, 0, 1]  # d + 1, then d at powers of 2, 1 elsewhere
    assert ref.rebuild(c, 2, 9) == ref.leaf_series("superpyth", 0, 9)


def test_jennings_polynomial():
    # U(3, 2): layer dims 2, 1 give (1 + t)^2 (1 + t^2)
    assert ref.jennings([2, 1], 2) == [1, 2, 2, 2, 1]
    assert sum(ref.jennings([3, 2, 1], 2)) == 2 ** 6
    assert ref.jennings([1], 3) == [1, 1, 1]
