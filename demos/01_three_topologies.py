"""
Three topologies on a prime spectrum
====================================

Spec(R) carries the Zariski topology (closed sets V(I)), the flat or
inverse topology (the V(a) become a sub-basis of opens), and the patch
topology refining both.  On a finite spectrum the patch topology is
discrete, the Zariski closure is the up closure in the specialization
order, and the flat closure is the down closure.
"""

from spectop import rings, spectrum as sp, topology as top

R = rings.zmod(360)  # primes (2), (3), (5), all maximal
print("ring:", R)
print("Spec =", sp.subset_str(sp.whole(R)))

E = sp.explicit(R, {sp.ZmodPrime(2)})
for t in top.TOPOLOGIES:
    print(f"  {t:8s} closure of {sp.subset_str(E)} =", sp.subset_str(top.closure(E, t)))

# A one-dimensional example: the local ring at the origin of three
# coordinate axes.  The specialization order is three minimal primes
# under one maximal ideal.
from spectop import construction

A = construction.build_supplement(rings.prime_field(2), 3)
print("\nring:", A)
pts = sp.spec_points(A)
print("Spec =", "{" + ", ".join(sp.point_str(p) for p in pts) + "}")

P1 = sp.MonoPrime(frozenset({2, 3}))  # the first axis
single = sp.explicit(A, {P1})
print("zariski closure of {P_1} =", sp.subset_str(top.zariski_closure(single)))
print("flat closure of {P_1}    =", sp.subset_str(top.flat_closure(single)))
print("patch closure of {P_1}   =", sp.subset_str(top.patch_closure(single)))

# The patch closure always sits inside the other two.
for k in range(len(pts) + 1):
    from itertools import combinations

    for sub in combinations(pts, k):
        E = sp.explicit(A, sub)
        gamma = top.patch_closure(E)
        assert sp.subset_le(gamma, top.zariski_closure(E))
        assert sp.subset_le(gamma, top.flat_closure(E))
print("\npatch closure contained in zariski and flat closures: checked on all subsets")
