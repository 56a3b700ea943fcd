"""
Patch closure as the image through residue fields
=================================================

The patch-closed subsets of Spec(R) are exactly the images of induced
spectral maps, and the patch closure of E is the image of
Spec(prod k(p) over p in E) -> Spec(R).  The maps module computes that
image directly (residue-map contractions, lying over, explicit exclusion
witnesses); the topology module computes the closure from representation
rules.  The two agree everywhere.
"""

from itertools import combinations
from random import Random

from spectop import construction, maps, rings, spectrum as sp, topology as top

# On a finite spectrum the patch topology is discrete: closure = identity.
R = rings.zmod(30)
for k in (0, 1, 3):
    for sub in combinations(sp.spec_points(R), k):
        E = sp.explicit(R, sub)
        assert top.patch_closure(E) == E
        assert maps.residue_product_image(E) == E
print("finite spectra: patch closure is the identity (checked on Z/30)")

# Residue fields themselves.
print("\nresidue fields:")
for ring, point in (
    (rings.ZZ, sp.ZMax(7)),
    (rings.ZZ, sp.ZGeneric()),
    (rings.poly_ring(2), sp.FpxMax((1, 1, 1))),
    (construction.build_supplement(rings.prime_field(2), 3),
     sp.MonoPrime(frozenset({2, 3}))),
):
    rf = maps.residue_field(ring, point)
    print(f"  k({sp.point_str(point)}) over {ring} = {rf.label}")

# On the symbolic families the closure adds exactly one limit point.
E = sp.cofinite(rings.ZZ, {sp.ZMax(11)}, False)
print("\nover Z, E =", sp.subset_str(E))
print("  patch closure       =", sp.subset_str(top.patch_closure(E)))
print("  residue-field image =", sp.subset_str(maps.residue_product_image(E)))

AXES = rings.symbolic_supplement(rings.prime_field(2))
F = sp.cofinite(AXES, {sp.SuppMin(2), sp.SuppMin(5)}, False)
print("on the axes ring, E =", sp.subset_str(F))
print("  patch closure       =", sp.subset_str(top.patch_closure(F)))
print("  residue-field image =", sp.subset_str(maps.residue_product_image(F)))

# And at random, across all three symbolic families.
rng = Random(1)
for ring in (rings.ZZ, rings.poly_ring(2), AXES):
    for _ in range(50):
        pts = sp.sample_points(ring, rng, rng.randint(1, 4))
        E = sp.explicit(ring, pts)
        assert maps.residue_product_image(E) == top.patch_closure(E)
print("\nrandom finite sets over symbolic spectra: identity confirmed")
