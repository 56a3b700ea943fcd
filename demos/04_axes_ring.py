"""
The local ring at the origin of n coordinate axes
=================================================

R = (K[x_1..x_n]/(x_i x_k : i != k)) localized at (x_1..x_n).  Four
facts, each checked here against an independent brute-force oracle:

  (i)   the defining ideal is the intersection of the axis ideals
        I_k = (x_i : i != k);
  (ii)  the minimal primes are exactly the I_k (minimal vertex covers of
        the pair hypergraph);
  (iii) the ring has Krull dimension 1 over a field;
  (iv)  it is reduced and satisfies infinite prime absorbance: a prime
        containing an intersection of minimal primes contains one of
        them.
"""

from spectop import construction as con
from spectop import covers, rings, spectrum as sp
from spectop.rings import MonomialIdeal

K = rings.prime_field(2)

for n in (2, 3, 5):
    R = con.build_supplement(K, n)
    print(f"n = {n}: {R}")

    ok = con.verify_intersection(n)
    print(f"  (i)   intersection of axis ideals equals the pair ideal: {ok}")

    mins = con.minimal_primes_monomial(MonomialIdeal(R.gens))
    oracle = covers.brute_force_minimal_covers(R.gens, n)
    assert [p.cover for p in mins] == [rings.mask_support(c) for c in oracle]
    print(f"  (ii)  minimal primes (cover enumeration == 2^n oracle):",
          "{" + ", ".join(sp.point_str(p) for p in mins) + "}")

    print(f"  (iii) krull_dim = {con.krull_dim(R)}")
    print(f"  (iv)  reduced = {con.is_reduced(R)}, absorbance = {con.absorbance_holds(sp.whole(R))}")
    print()

# The full report object bundles the same checks.
rep = con.supplement_report(K, 8)
print("n = 8 report: all statements hold:", rep.all_ok)

# n = 1 is the degenerate case: the ideal is zero and the ring is a
# one-variable local ring the statements above do not cover.
rep1 = con.supplement_report(K, 1)
print("n = 1 is degenerate:", rep1.degenerate, "(dim", str(rep1.dim) + ")")
