"""
An image strictly smaller than the Zariski closure
==================================================

For a finite E the image of Spec(prod R/p) -> Spec(R) IS the Zariski
closure of E.  For infinite E the image only sits inside the closure,
and the gap can be real: take every prime of Z except 11.  The set is
Zariski dense, yet 11 maps to a unit in every factor Z/p with p != 11,
so (11) is not hit by the image.
"""

from spectop import products, rings, spectrum as sp, topology as top
from spectop.rings import IntEl
from spectop.spectrum import ZMax

E = sp.cofinite(rings.ZZ, {ZMax(11)}, False)
print("E =", sp.subset_str(E))

image = products.quotient_product_image(E)
closure = top.zariski_closure(E)
print("Im pi*          =", sp.subset_str(image))
print("zariski closure =", sp.subset_str(closure))

report = products.strictness_demo(E, top.ZARISKI)
assert report.strict
print("strict inclusion, witness:", sp.point_str(report.witness))

# The mechanism: 11 avoids every member of E, so its image in the
# product is invertible and no prime of the product can contract to (11).
assert products.is_unit_in_quotient_product(IntEl(11), E)
assert not products.is_unit_in_quotient_product(IntEl(22), E)
print("image of 11 in prod Z/p is a unit: confirmed")

# The image still picks up the generic point (0): the kernel of the
# canonical map vanishes, so a prime lies over it.
assert sp.subset_member(sp.ZGeneric(), image)
print("(0) belongs to the image: confirmed")
