"""Hall commutators and graded bases for free groups.

Layer n of the Hall family has exactly (1/n) sum_(m|n) mu(m) d^(n/m)
elements (necklace counting). A basis of the degree-n piece of the
filtration of a free group mixes commutators of several weights, each
raised to the p-power that lifts its weight to n.
"""
from zassenhaus.dimensions import dims_table
from zassenhaus.groupspec import Free
from zassenhaus.hall import basis_text_lines, hall_commutators, zassenhaus_basis
from zassenhaus.numtheory import w_free_closed

d = 2
layers = hall_commutators(d, 6)
print(f"Hall layers for {d} generators:")
for n in range(1, 7):
    names = ", ".join(layers[n])
    print(f"  weight {n} ({len(layers[n])} = necklace {w_free_closed(d, n)}): {names}"
          if n <= 4 else f"  weight {n}: {len(layers[n])} elements")

print()
for (rank, p, degree) in [(2, 2, 2), (2, 2, 4), (1, 3, 3), (3, 3, 3)]:
    basis = zassenhaus_basis(rank, p, degree)
    c_n = dims_table(Free(rank), p, degree).c[degree]
    print(f"basis of degree {degree}, rank {rank}, p = {p} "
          f"({len(basis)} elements, c_{degree} = {c_n}):")
    for line in basis_text_lines(basis, p):
        print("   ", line)
    assert len(basis) == c_n
