"""
Images over principal ideal domains
===================================

For an infinite set E of maximal ideals of Z (or GF(p)[x]): the image of
Spec(prod R/p) -> Spec(R) is exactly E plus the generic point, and the
image of Spec(prod R_p) -> Spec(R) equals the flat closure of E, which
is again E plus the generic point.  Every extra prime of those huge
products contracts onto (0).
"""

from spectop import products, rings, spectrum as sp, topology as top
from spectop.spectrum import FpxMax, ZMax

E = sp.cofinite(rings.ZZ, {ZMax(2), ZMax(7)}, False)
print("over Z, E =", sp.subset_str(E))
print("  quotient image =", sp.subset_str(products.quotient_product_image(E)))
li = products.local_product_image(E)
print("  local image    =", sp.subset_str(li))
print("  flat closure   =", sp.subset_str(top.flat_closure(E)))
assert li == top.flat_closure(E)

F2X = rings.poly_ring(2)
x_plus_1 = FpxMax((1, 1))
x2_x_1 = FpxMax((1, 1, 1))
Ef = sp.cofinite(F2X, {x_plus_1, x2_x_1}, False)
print("\nover GF(2)[x], E =", sp.subset_str(Ef))
print("  quotient image =", sp.subset_str(products.quotient_product_image(Ef)))
print("  local image    =", sp.subset_str(products.local_product_image(Ef)))

# Finite sets behave differently: there the images realize the closures
# on the nose, e.g. the flat closure of {(5)} is {(0), (5)}.
single = sp.explicit(rings.ZZ, {ZMax(5)})
print("\nfinite case: local image of {(5)} =",
      sp.subset_str(products.local_product_image(single)))
