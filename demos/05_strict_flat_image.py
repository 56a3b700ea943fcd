"""
An image strictly smaller than the flat closure
===============================================

The dual of the strict Zariski example lives on the symbolic axes ring:
countably many coordinate axes through one origin.  Every infinite set
of axes is flat dense, but the image of Spec(prod R_p) -> Spec(R) over a
proper infinite set E of axes is only E plus the maximal ideal.
"""

from spectop import products, rings, spectrum as sp, topology as top

R = rings.symbolic_supplement(rings.prime_field(2))
E = sp.cofinite(R, {sp.SuppMin(7)}, False)  # every axis except the seventh
print("ring:", R)
print("E =", sp.subset_str(E))

image = products.local_product_image(E)
closure = top.flat_closure(E)
print("Im pi*       =", sp.subset_str(image))
print("flat closure =", sp.subset_str(closure))

report = products.strictness_demo(E, top.FLAT)
assert report.strict
print("strict inclusion, witness:", sp.point_str(report.witness))

# The mechanism this time: x_7 vanishes on every axis in E, so it maps
# to the zero sequence, yet it avoids P_7.  No prime of the product can
# contract onto P_7.
x7 = rings.var_el(R, 7)
print("V(x_7) =", sp.subset_str(sp.v_locus(x7, R)))
assert not sp.point_contains(sp.SuppMin(7), x7, R)

# On the Zariski side the same E is NOT dense; its closure just adds the
# maximal ideal, and there the image fills the whole closure.
print("zariski closure =", sp.subset_str(top.zariski_closure(E)))
zrep = products.strictness_demo(E, top.ZARISKI)
print("zariski-side strict:", zrep.strict)
