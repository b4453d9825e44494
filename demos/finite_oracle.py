"""Brute-force cross-checks on honest finite groups.

The filtration is built by Jennings' recursion
G_(1) = G, G_(n) = [G_(n-1), G] G_(ceil(n/p))^p, each term the normal
closure of the commutators of its predecessor's generators with those of
G and of p-th powers, with vectorized matrix arithmetic. The commutator
scan that makes one term normal also yields the next term's commutators.
Nothing here knows any series formula, which is what makes the agreement
informative.
"""
import numpy as np

from zassenhaus import finite as fin
from zassenhaus.verify import _jl_polynomial

for m in (3, 4, 5):
    group = fin.unitriangular_group(m, 2)
    filt = fin.zassenhaus_filtration_finite(group, m)
    print(f"U_{m}(F_2), order {group.order}: layer dims {filt.dims}")

print()
group = fin.unitriangular_group(3, 3)
filt = fin.zassenhaus_filtration_finite(group, 4)
dims = [x for x in filt.dims if x]
print("U_3(F_3) layer dims:", filt.dims)

# group-algebra side: ranks of powers of the augmentation ideal
a = fin.group_algebra_aug_dims(group, 9)
print("augmentation quotient dims:", a)

# the two sides are linked by a polynomial identity
poly = _jl_polynomial(dims, group.p)
print("polynomial from the filtration:", list(poly))
assert a[: len(poly)] == list(poly)

# closures from chosen generators
g = fin.unitriangular_group(3, 3)
corner = np.eye(3, dtype=np.int64)
corner[0, 2] = 1
sub, _, _ = fin.subgroup_closure(g, g.index_of(corner[None]))
print()
print("central corner element generates a subgroup of order", len(sub))
