"""Hall commutator enumeration and graded bases."""
import pytest

from zassenhaus import hall
from zassenhaus.dimensions import dims_table
from zassenhaus.groupspec import Free
from zassenhaus.hall import (
    MAX_BASIS_ELEMENTS,
    BasisArgumentError,
    BasisTooLarge,
    basis_text_lines,
    hall_commutators,
    zassenhaus_basis,
)
from zassenhaus.numtheory import w_free_closed


def _parse(text):
    """Nested pairs from the text form, a generator x_i read as i:
    '[[x1,x2],x2]' becomes ((1, 2), 2)."""

    def parse(pos):
        if text[pos] == "x":
            end = pos + 1
            while end < len(text) and text[end].isdigit():
                end += 1
            return int(text[pos + 1:end]), end
        assert text[pos] == "["
        left, pos = parse(pos + 1)
        assert text[pos] == ","
        right, pos = parse(pos + 1)
        assert text[pos] == "]"
        return (left, right), pos + 1

    c, end = parse(0)
    assert end == len(text)
    return c


def _weight(c):
    return 1 if isinstance(c, int) else _weight(c[0]) + _weight(c[1])


def _key(c):
    """Sort key of the Hall order, independent of the library: weight
    first, then the components; x_i is keyed by -i, so x1 is greatest."""
    if isinstance(c, int):
        return (1, -c)
    return (_weight(c), _key(c[0]), _key(c[1]))


def _is_hall(c):
    """Structural audit straight from the defining condition."""
    if isinstance(c, int):
        return True
    left, right = c
    ok = _is_hall(left) and _is_hall(right) and _key(left) > _key(right)
    if isinstance(left, tuple):
        ok = ok and _key(right) >= _key(left[1])
    return ok


class TestLayers:
    def test_rank2_sizes(self):
        layers = hall_commutators(2, 10)
        assert [len(layers[w]) for w in range(1, 11)] == [
            2, 1, 2, 3, 6, 9, 18, 30, 56, 99,
        ]

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_sizes_are_necklace_numbers(self, d):
        layers = hall_commutators(d, 10)
        for n in range(1, 11):
            assert len(layers[n]) == w_free_closed(d, n)

    def test_small_layers_exactly(self):
        layers = hall_commutators(2, 3)
        assert layers[1] == ["x1", "x2"]
        assert layers[2] == ["[x1,x2]"]
        assert layers[3] == ["[[x1,x2],x1]", "[[x1,x2],x2]"]

    def test_layers_sorted_greatest_first(self):
        layers = hall_commutators(3, 7)
        for n in range(1, 8):
            keys = [_key(_parse(c)) for c in layers[n]]
            assert keys == sorted(keys, reverse=True)
            assert len(set(keys)) == len(keys)

    def test_all_weights_correct(self):
        layers = hall_commutators(2, 8)
        for n in range(1, 9):
            assert all(_weight(_parse(c)) == n for c in layers[n])

    def test_hall_condition_holds_everywhere(self):
        layers = hall_commutators(3, 8)
        for layer in layers[1:]:
            for c in layer:
                assert _is_hall(_parse(c))

    def test_generator_order(self):
        # x1 is the greatest generator: it leads layer 1, and a bracket
        # ending in x1 precedes the same bracket ending in x2
        layers = hall_commutators(3, 3)
        assert layers[1] == ["x1", "x2", "x3"]
        assert layers[3].index("[[x1,x2],x1]") < layers[3].index("[[x1,x2],x2]")

    def test_bad_arguments(self):
        with pytest.raises(BasisArgumentError, match="rank must be >= 1"):
            hall_commutators(0, 3)
        with pytest.raises(BasisArgumentError, match="max weight must be >= 1"):
            hall_commutators(2, 0)


class TestBasis:
    def test_weight2_rank2_p2(self):
        basis = zassenhaus_basis(2, 2, 2)
        assert basis_text_lines(basis, 2) == ["x1^2", "x2^2", "[x1,x2]"]

    def test_rank1_p3_degree3(self):
        basis = zassenhaus_basis(1, 3, 3)
        assert basis_text_lines(basis, 3) == ["x1^3"]

    def test_rank2_p2_degree4_count(self):
        assert len(zassenhaus_basis(2, 2, 4)) == 6

    def test_rank3_p3_degree3_count(self):
        assert len(zassenhaus_basis(3, 3, 3)) == 11

    def test_block_structure(self):
        # degree 12 = 4 * 3 at p = 2: commutator weights 3, 6, 12
        basis = zassenhaus_basis(2, 2, 12)
        blocks = {}
        for el in basis:
            assert el.weight == _weight(_parse(el.commutator))
            blocks.setdefault((el.weight, el.p_exponent), 0)
            blocks[(el.weight, el.p_exponent)] += 1
        assert set(blocks) == {(3, 2), (6, 1), (12, 0)}
        assert blocks[(3, 2)] == w_free_closed(2, 3)
        assert blocks[(6, 1)] == w_free_closed(2, 6)
        assert blocks[(12, 0)] == w_free_closed(2, 12)

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_count_equals_dimension(self, p, d):
        table = dims_table(Free(d), p, 12)
        for n in range(1, 13):
            assert len(zassenhaus_basis(d, p, n)) == table.c[n]

    def test_bad_arguments(self):
        # a typed error, which the CLI reports as a validation error (exit 3)
        with pytest.raises(BasisArgumentError, match="rank must be >= 1"):
            zassenhaus_basis(0, 2, 2)
        with pytest.raises(BasisArgumentError, match="p must be prime"):
            zassenhaus_basis(2, 4, 2)
        with pytest.raises(BasisArgumentError, match="degree must be >= 1"):
            zassenhaus_basis(2, 2, 0)

    def test_oversized_basis_refused_before_enumeration(self, monkeypatch):
        def enumerate_nothing(d, max_weight):
            raise AssertionError("enumerated an oversized basis")

        monkeypatch.setattr(hall, "_layers", enumerate_nothing)
        # c_26 of free(2) at p = 2 is w_13 + w_26 = 630 + 2580795
        with pytest.raises(BasisTooLarge, match=f"2581425 elements, over the cap of {MAX_BASIS_ELEMENTS}"):
            zassenhaus_basis(2, 2, 26)
        with pytest.raises(BasisTooLarge):
            zassenhaus_basis(2, 2, 10 ** 6)

    def test_huge_degree_refused_from_the_lower_bound(self, monkeypatch):
        # past 2^20 bits of d^n the count is not built at all
        def count_nothing(d, n):
            raise AssertionError("built the exact count")

        monkeypatch.setattr(hall, "w_free_closed", count_nothing)
        for d, n, bits in [(2, 10**9, 999999971), (3, 10**12, 1584962500682)]:
            with pytest.raises(BasisTooLarge, match=(
                rf"^the degree-{n} basis of free\({d}\) at p = 2 has about 2\^{bits} "
                rf"elements, over the cap of {MAX_BASIS_ELEMENTS}$"
            )):
                zassenhaus_basis(d, 2, n)
        # a degree past the range of a float
        with pytest.raises(BasisTooLarge, match=r"has about 2\^\d{400} elements"):
            zassenhaus_basis(2, 3, 10**400)

    @pytest.mark.parametrize("d, p, n, size", [
        (2, 2, 100, "12676506002282305273966761072"),
        (2, 2, 14000, "about 2^13987"),
        # at the threshold, n log2 d = 2^20, and just below it for d = 3 and 7
        (2, 2, 2**20, "about 2^1048557"),
        (3, 2, 661000, "about 2^1047641"),
        (7, 2, 372000, "about 2^1044318"),
    ])
    def test_exact_count_messages_up_to_the_threshold(self, d, p, n, size):
        with pytest.raises(BasisTooLarge) as info:
            zassenhaus_basis(d, p, n)
        assert str(info.value) == (
            f"the degree-{n} basis of free({d}) at p = {p} has {size} elements, "
            f"over the cap of {MAX_BASIS_ELEMENTS}"
        )

    def test_lower_bound_exponent_is_within_one(self, monkeypatch):
        # every refusal takes the bound once the threshold is 0 bits
        monkeypatch.setattr(hall, "_EXACT_COUNT_BITS", 0)
        for d in (2, 3, 7):
            for p in (2, 3):
                for n in (40, 64, 81, 100, 243, 1000, 1024):
                    m, k = n, 0
                    while m % p == 0:
                        m, k = m // p, k + 1
                    count = sum(w_free_closed(d, m * p**i) for i in range(k + 1))
                    assert n * count >= d**n - 2 * d ** (n // 2)
                    with pytest.raises(BasisTooLarge) as info:
                        zassenhaus_basis(d, p, n)
                    bits = int(str(info.value).split("about 2^")[1].split()[0])
                    assert abs(bits - count.bit_length()) <= 1

    def test_rank1_powers_of_p(self):
        basis = zassenhaus_basis(1, 2, 65536)
        assert basis_text_lines(basis, 2) == ["x1^65536"]
        assert basis == [("x1", 1, 16)]

    def test_rank1_empty_at_large_degree(self):
        assert zassenhaus_basis(1, 3, 100000) == []

    def test_cap_admits_bases_of_thousands(self):
        assert len(zassenhaus_basis(2, 3, 18)) == 14542
        assert len(zassenhaus_basis(3, 2, 10)) == 5928
