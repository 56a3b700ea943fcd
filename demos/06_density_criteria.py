"""
When is every infinite subset dense?
====================================

Every infinite subset of Spec(R) is Zariski dense exactly when V(a) is
finite for every non-nilpotent a, and flat dense exactly when D(a) is
finite for every nonunit a.  Z and GF(p)[x] satisfy the first criterion
(factorization makes every nonzero vanishing locus finite) but not the
second; the axes ring is the mirror image.
"""

from spectop import rings, spectrum as sp, topology as top

AXES = rings.symbolic_supplement(rings.prime_field(2))

for R in (rings.ZZ, rings.poly_ring(2), AXES):
    print("ring:", R)
    for mode in (top.ZARISKI, top.FLAT):
        cert = top.density_criterion(R, mode)
        if cert.holds:
            print(f"  every infinite subset is {mode}-dense  ({cert.rationale})")
        else:
            w = rings.el_str(cert.witness, R)
            locus = (
                sp.v_locus(cert.witness, R)
                if mode == top.ZARISKI
                else sp.d_locus(cert.witness, R)
            )
            print(f"  {mode} fails: witness {w} has infinite locus {sp.subset_str(locus)}")
    print()

# Confirm the positive side concretely: a cofinite set of primes of Z is
# Zariski dense, and a cofinite set of axes is flat dense.
E = sp.cofinite(rings.ZZ, {sp.ZMax(2), sp.ZMax(3), sp.ZMax(31)}, False)
print("over Z,", sp.subset_str(E))
print("  zariski dense:", top.is_dense(E, top.ZARISKI))
print("  flat dense:   ", top.is_dense(E, top.FLAT))

F = sp.cofinite(AXES, {sp.SuppMin(1), sp.SuppMin(4)}, False)
print("on the axes ring,", sp.subset_str(F))
print("  flat dense:   ", top.is_dense(F, top.FLAT))
print("  zariski dense:", top.is_dense(F, top.ZARISKI))
