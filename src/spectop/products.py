"""Tame primes of products and the image operators for canonical maps.

For a finite set E the image of Spec(prod R/p) -> Spec(R) is the union
of the up sets V(p), and the image of Spec(prod R_p) -> Spec(R) the
union of the down sets.  For the symbolic infinite families the images
gain exactly one limit point: the generic point over Z and GF(p)[x], the
maximal ideal on the axes ring.  Wild primes of the infinite products
are never materialized; only their contractions matter, and those are
pinned to the limit-point terms.
"""

from __future__ import annotations

from random import Random

from . import maps, rings
from . import spectrum as sp
from . import topology as top
from .errors import (
    BadSlotError,
    KindMismatchError,
    NonEnumerableError,
    UnsupportedError,
)
from .rings import El, ModRing, Product, Record, RingExpr, TupleEl
from .spectrum import PrimePoint, SpecSubset

QUOTIENT = "quotient"
LOCAL = "local"


def unit_idempotent(k: int, R: Product) -> El:
    """e_k: 1 in slot k, 0 elsewhere; e_k * e_k = e_k."""
    if not isinstance(R, Product):
        raise KindMismatchError("unit idempotents live in product rings")
    if not 0 <= k < len(R.factors):
        raise BadSlotError(f"slot {k} out of range for {R}")
    return TupleEl(
        tuple(
            rings.one(f) if i == k else rings.zero(f) for i, f in enumerate(R.factors)
        )
    )


def quotient_product_image(E: SpecSubset) -> SpecSubset:
    """Image of Spec(prod_{p in E} R/p) -> Spec(R)."""
    return _product_image(E, up=True)


def local_product_image(E: SpecSubset) -> SpecSubset:
    """Image of Spec(prod_{p in E} R_p) -> Spec(R)."""
    return _product_image(E, up=False)


def _product_image(E: SpecSubset, up: bool) -> SpecSubset:
    """The quotient (up) or localization image: the up (down) closure of
    E together with its patch closure.

    The tame primes of the factor R/p (R_p) contract onto the primes
    above (below) p.  An infinite E also gives its limit point, the one
    point its patch closure adds: over Z and GF(p)[x] the canonical map is
    injective, so (0) lies under a prime of the product; on the axes ring
    the primes above the direct-sum ideal contract onto m.
    """
    return sp.subset_union(top.order_closure(E, up), top._patch(E))


def brute_force_image(E: SpecSubset, kind: str) -> SpecSubset:
    """Oracle: enumerate the product's tame primes and contract each.

    Goes through the order correspondences Spec(R/p) = {q >= p} and
    Spec(R_p) = {q <= p}; agrees with the formula branch on finite
    inputs.  The map enumerates its tame primes from the ring's spectrum,
    so each goes to the map's _contract unchecked, and the image is built
    from points of R.
    """
    if kind not in (QUOTIENT, LOCAL):
        raise UnsupportedError(f"unknown image kind {kind!r}")
    R = E.ring
    if not R.is_enumerable():
        raise NonEnumerableError("the oracle needs an enumerable spectrum")
    if kind == QUOTIENT:
        m: maps.RingMapSpec = maps.CanonicalIntoQuotientProduct(E)
    else:
        m = maps.CanonicalIntoLocalProduct(E)
    image = {m._contract(q) for q in maps.tame_points(m)}
    return sp._subset(R, image)


def is_unit_in_quotient_product(r: El, E: SpecSubset) -> bool:
    """Whether the image of r in prod_{p in E} R/p is invertible.

    r is a unit in R/p exactly when no prime above p contains it, so the
    image is a unit iff V(r) misses the up closure of E; over Z this reads
    "no prime factor of r lies above a member of E".
    """
    R = E.ring
    return sp.subset_intersect(sp.v_locus(r, R), top.order_closure(E, up=True)) == sp.empty_set(R)


# The oracle squares this many times, so it sees a nilpotency index up to 2^8.
_SQUARINGS = 8


def _nilpotent_by_squaring(R: RingExpr, r: El, zero: El) -> bool:
    """Oracle nilpotence test: whether the canonical r, squared _SQUARINGS
    times, is R's zero.  Pure arithmetic, so it cannot agree with the
    radical rules by construction."""
    return R.power(r, 1 << _SQUARINGS) == zero


def nilradical_product_law_check(R: Product) -> bool:
    """Concrete check that nilpotents of a finite product are componentwise.

    (a) On a generated element sample, nilpotence by repeated squaring
    agrees with the conjunction of componentwise nilpotence tests.
    (b) The minimal tame primes are Zariski dense in the enumerated
    spectrum.  Both always hold for finite products, so a failure flags
    an engine bug.  Squaring sees a nilpotency index up to 2^8 only.  A
    nilpotent of Z/n has index at most log2(n), so a Z/n factor with
    n >= 2^257 is refused with UnsupportedError rather than answered.
    """
    if not isinstance(R, Product):
        raise KindMismatchError("expected a product ring")
    for f in R.factors:
        if isinstance(f, ModRing) and f.n.bit_length() - 1 > 1 << _SQUARINGS:
            raise UnsupportedError(
                f"a nilpotent of Z/n with n >= 2^{(1 << _SQUARINGS) + 1} may have an "
                f"index above 2^{_SQUARINGS}, which repeated squaring cannot see"
            )
    pts = sp.spec_points(R)
    rng = Random(0x5EED)
    zero = rings.zero(R)
    sample = rings.sample_elements(R, rng, 40)
    sample.append(zero)
    sample.append(rings.one(R))
    for k in range(len(R.factors)):
        sample.append(unit_idempotent(k, R))
    # An element drawn twice is compared once.
    for t in dict.fromkeys(sample):
        product_side = _nilpotent_by_squaring(R, t, zero)
        # The product's rule is the conjunction of its factors' rules; the
        # sample is canonical, so each slot goes to its factor's rule as is.
        component_side = R.is_nilpotent(t)
        if product_side != component_side:
            return False
    minimal = [p for p in pts if R.is_minimal_prime(p)]
    return top.zariski_closure(sp._subset(R, minimal)) == sp.whole(R)


class ImageReport(Record):
    """Image versus closure for one canonical map, with strictness witness."""

    __slots__ = ()
    image: SpecSubset
    closure: SpecSubset
    topology: str
    strict: bool
    witness: PrimePoint | None


def strictness_demo(E: SpecSubset, topology: str) -> ImageReport:
    """Compare Im pi* with the matching closure and exhibit a gap point.

    The quotient-product image is compared with the Zariski closure, the
    localization-product image with the flat closure.
    """
    if topology == top.ZARISKI:
        image = quotient_product_image(E)
        cl = top.zariski_closure(E)
    elif topology == top.FLAT:
        image = local_product_image(E)
        cl = top.flat_closure(E)
    else:
        raise UnsupportedError(f"strictness compares zariski or flat, not {topology!r}")
    strict = image != cl
    witness: PrimePoint | None = None
    if strict:
        gap = sp.subset_difference(cl, image)
        pts = sp.subset_points(gap)
        if not pts:
            raise AssertionError("strict inclusion must leave a witness")
        witness = pts[0]
    return ImageReport(image, cl, topology, strict, witness)
