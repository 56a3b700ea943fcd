"""
Lying over a minimal prime
==========================

An injective ring map A -> B always has a prime of B lying over each
minimal prime of A.  The engine finds one by search on enumerable
targets and by branch rules on symbolic ones, always returning the least
candidate in the canonical point order.
"""

from spectop import construction, maps, rings, spectrum as sp

# A diagonal map Z/12 -> Z/4 x Z/3 (injective because lcm(4, 3) = 12).
Z12 = rings.zmod(12)
m = maps.DiagonalIntoModProduct(Z12, (4, 3))
print(m, "injective:", maps.is_injective(m))
for p in sp.spec_points(Z12):
    q = maps.laying_over(m, p)
    print(f"  over {sp.point_str(p)}: {sp.point_str(q)} "
          f"(contracts back to {sp.point_str(maps.contract(m, q))})")

# The canonical map from the three-axes ring into the product of its
# axis quotients; the kernel is the intersection of the axes, i.e. zero.
R = construction.build_supplement(rings.prime_field(2), 3)
mins = [p for p in sp.spec_points(R) if len(p.cover) == 2]
m2 = maps.CanonicalIntoQuotientProduct(sp.explicit(R, mins))
print(f"\n{m2}", "injective:", maps.is_injective(m2))
for p in mins:
    q = maps.laying_over(m2, p)
    print(f"  over {sp.point_str(p)}: {sp.point_str(q)}")

# A symbolic target: localizations of Z at a cofinite set of primes.
E = sp.cofinite(rings.ZZ, {sp.ZMax(2)}, False)
m3 = maps.CanonicalIntoLocalProduct(E)
q = maps.laying_over(m3, sp.ZGeneric())
print(f"\n{m3}")
print("  over (0):", sp.point_str(q))

# Where only wild primes would lie over, the engine refuses rather than
# fabricate one: quotients kill the generic point of Z.
m4 = maps.CanonicalIntoQuotientProduct(E)
try:
    maps.laying_over(m4, sp.ZGeneric())
except Exception as exc:
    print("  quotient-product side refuses:", exc)
