"""Ring map descriptors, contraction of primes, and lying over.

Maps are symbolic: a quotient map R -> R/p, the canonical map into a
product of quotients or localizations indexed by a subset of Spec(R), a
diagonal Z/n -> prod Z/d_i, or a residue map R -> k(p).  Primes of the
quotient and localization factors are represented upstairs through the
order correspondences Spec(R/p) = {q >= p} and Spec(R_p) = {q <= p}, so
contraction never builds the factor rings.

Lying over a minimal prime is found by enumerative search on enumerable
targets and by branch rules on symbolic ones; the tensor-product pushout
that proves existence in general is not modeled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import rings
from . import spectrum as sp
from .errors import (
    KindMismatchError,
    LyingOverNotFoundError,
    NonEnumerableError,
    UnsupportedMapError,
    WildPrimeError,
)
from .rings import ResidueField, RingExpr  # ResidueField is named from here too
from .spectrum import (
    Cofinite,
    EmptySet,
    Explicit,
    FieldZero,
    PrimePoint,
    SpecSubset,
    TamePrime,
    Whole,
    ZmodPrime,
)

# ---------------------------------------------------------------------------
# Map descriptors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuotientMap:
    ring: RingExpr
    prime: PrimePoint


@dataclass(frozen=True)
class CanonicalIntoQuotientProduct:
    ring: RingExpr
    subset: SpecSubset


@dataclass(frozen=True)
class CanonicalIntoLocalProduct:
    ring: RingExpr
    subset: SpecSubset


@dataclass(frozen=True)
class DiagonalIntoModProduct:
    n: int
    divisors: tuple[int, ...]


@dataclass(frozen=True)
class ResidueMap:
    ring: RingExpr
    prime: PrimePoint


RingMapSpec = (
    QuotientMap
    | CanonicalIntoQuotientProduct
    | CanonicalIntoLocalProduct
    | DiagonalIntoModProduct
    | ResidueMap
)


def map_source(m: RingMapSpec) -> RingExpr:
    if isinstance(m, DiagonalIntoModProduct):
        return rings.zmod(m.n)
    return m.ring


def map_str(m: RingMapSpec) -> str:
    if isinstance(m, QuotientMap):
        return f"{m.ring} -> {m.ring}/{sp.point_str(m.prime)}"
    if isinstance(m, CanonicalIntoQuotientProduct):
        return f"{m.ring} -> prod R/p over {sp.subset_str(m.subset)}"
    if isinstance(m, CanonicalIntoLocalProduct):
        return f"{m.ring} -> prod R_p over {sp.subset_str(m.subset)}"
    if isinstance(m, DiagonalIntoModProduct):
        return f"Z/{m.n} -> " + " x ".join(f"Z/{d}" for d in m.divisors)
    if isinstance(m, ResidueMap):
        return f"{m.ring} -> k({sp.point_str(m.prime)})"
    return str(m)


def _resolve_slot(E: SpecSubset, slot) -> PrimePoint:
    """The base point of E a tame slot refers to."""
    if isinstance(slot, int):
        pts = sp.subset_points(E)
        if not 0 <= slot < len(pts):
            raise WildPrimeError(f"slot {slot} out of range for {sp.subset_str(E)}")
        return pts[slot]
    if not sp.subset_member(slot, E):
        raise WildPrimeError(f"{sp.point_str(slot)} is not a member of the index set")
    return slot


# ---------------------------------------------------------------------------
# Contraction
# ---------------------------------------------------------------------------


def contract(m: RingMapSpec, q: PrimePoint) -> PrimePoint:
    """The preimage of a (tame) prime of the target."""
    if isinstance(m, QuotientMap):
        if isinstance(q, FieldZero):
            # The zero ideal of R/p pulls back to the kernel.
            return m.prime
        if sp.leq_specialization(m.prime, q, m.ring):
            return q
        raise WildPrimeError("the point does not dominate the quotient kernel")
    if isinstance(m, CanonicalIntoQuotientProduct):
        if not isinstance(q, TamePrime):
            raise WildPrimeError(f"{sp.point_str(q)} is not tame")
        base = _resolve_slot(m.subset, q.slot)
        return contract(QuotientMap(m.ring, base), q.inner)
    if isinstance(m, CanonicalIntoLocalProduct):
        if not isinstance(q, TamePrime):
            raise WildPrimeError(f"{sp.point_str(q)} is not tame")
        base = _resolve_slot(m.subset, q.slot)
        if sp.leq_specialization(q.inner, base, m.ring):
            return q.inner
        raise WildPrimeError("the point does not survive the localization")
    if isinstance(m, DiagonalIntoModProduct):
        if not isinstance(q, TamePrime) or not isinstance(q.slot, int):
            raise WildPrimeError(f"{sp.point_str(q)} is not tame")
        if not 0 <= q.slot < len(m.divisors):
            raise WildPrimeError(f"slot {q.slot} out of range")
        d = m.divisors[q.slot]
        inner = q.inner
        if not isinstance(inner, ZmodPrime) or d % inner.p != 0:
            raise KindMismatchError(f"{sp.point_str(inner)} is not a prime of Z/{d}")
        return ZmodPrime(inner.p)
    if isinstance(m, ResidueMap):
        if isinstance(q, FieldZero):
            return m.prime
        raise WildPrimeError("residue fields have a single point, (0)")
    raise UnsupportedMapError(f"unknown map {m}")


def tame_points(m: RingMapSpec) -> list[PrimePoint]:
    """All tame primes of the target, for enumerable targets."""
    if isinstance(m, QuotientMap):
        R = m.ring
        sp.validate_point(m.prime, R)
        return [q for q in sp.spec_points(R) if R._leq(m.prime, q)]
    if isinstance(m, CanonicalIntoQuotientProduct):
        R = m.ring
        pts = sp.spec_points(R)
        out = []
        for slot, base in enumerate(sp.subset_points(m.subset)):
            out.extend(
                TamePrime(slot, q) for q in pts if R._leq(base, q)
            )
        return out
    if isinstance(m, CanonicalIntoLocalProduct):
        R = m.ring
        pts = sp.spec_points(R)
        out = []
        for slot, base in enumerate(sp.subset_points(m.subset)):
            out.extend(
                TamePrime(slot, q) for q in pts if R._leq(q, base)
            )
        return out
    if isinstance(m, DiagonalIntoModProduct):
        out = []
        for slot, d in enumerate(m.divisors):
            if d >= 2:
                out.extend(TamePrime(slot, ZmodPrime(p)) for p, _ in rings.zmod(d).factorization)
        return out
    if isinstance(m, ResidueMap):
        return [FieldZero()]
    raise UnsupportedMapError(f"unknown map {m}")


# ---------------------------------------------------------------------------
# Injectivity
# ---------------------------------------------------------------------------


def is_injective(m: RingMapSpec) -> bool:
    """Whether the described map has zero kernel."""
    if isinstance(m, DiagonalIntoModProduct):
        if any(m.n % d != 0 for d in m.divisors):
            raise KindMismatchError("divisors must divide n")
        return math.lcm(*m.divisors) == m.n if m.divisors else False
    if isinstance(m, (QuotientMap, ResidueMap)):
        # Both kernels are p: R -> k(p) factors through R/p, and Frac is
        # injective on domains.
        sp.validate_point(m.prime, m.ring)
        return m.ring.point_is_zero(m.prime)
    if isinstance(m, CanonicalIntoQuotientProduct):
        return _quotient_product_kernel_zero(m.ring, m.subset)
    if isinstance(m, CanonicalIntoLocalProduct):
        return _local_product_kernel_zero(m.ring, m.subset)
    raise UnsupportedMapError(f"unknown map {m}")


def _quotient_product_kernel_zero(R: RingExpr, E: SpecSubset) -> bool:
    """Whether the intersection of the members of E vanishes."""
    if isinstance(E, EmptySet):
        return False
    if isinstance(E, Whole):
        return True if R.symbolic else _finite_meet_zero(R, sp.spec_points(R))
    if isinstance(E, Cofinite):
        # Below the limit: a nonzero element has finitely many prime
        # divisors.  Above it: excluding axis k leaves x_k inside every
        # remaining minimal prime.
        return not E.limit_above or not E.excluded
    if isinstance(E, Explicit):
        if any(R.point_is_zero(p) for p in E.points):
            return True
        if R.symbolic:
            return False
        return _finite_meet_zero(R, list(E.points))
    raise UnsupportedMapError(f"no kernel rule for {sp.subset_str(E)}")


def _finite_meet_zero(R: RingExpr, points) -> bool:
    # Tame primes meet slot by slot; an unmentioned slot keeps the whole
    # factor, which is nonzero.
    return all(
        inner
        and rings.ideal_is_zero(
            rings.ideal_intersect_all([f.point_ideal(p) for p in inner], f), f
        )
        for f, inner in R.slots(points)
    )


def _local_product_kernel_zero(R: RingExpr, E: SpecSubset) -> bool:
    if isinstance(E, EmptySet):
        return False
    if R.domain:
        return True  # localizations of a domain
    if R.top is not None:
        # R_m is R itself, and at a minimal prime of a reduced ring the
        # kernel is the prime: only all the minimal primes together meet in 0.
        return sp.subset_member(R.top, E) or _quotient_product_kernel_zero(R, E)
    # Localizing at a tame prime keeps only its slot's factor.
    return all(
        inner and (f.domain or f.local_kernel_zero(inner))
        for f, inner in R.slots(sp.subset_points(E))
    )


# ---------------------------------------------------------------------------
# Lying over
# ---------------------------------------------------------------------------


def laying_over(m: RingMapSpec, p: PrimePoint) -> PrimePoint:
    """Some tame prime of the target contracting to the minimal prime p.

    Deterministic: the least candidate in the canonical point order.
    Raises only on misuse (non-injective map, non-minimal p) or when the
    sole witnesses would be wild primes, which are never materialized.
    """
    src = map_source(m)
    sp.validate_point(p, src)
    if not src.is_minimal_prime(p):
        raise LyingOverNotFoundError(f"{sp.point_str(p)} is not a minimal prime")
    if not is_injective(m):
        raise LyingOverNotFoundError("the map is not injective")
    try:
        candidates = tame_points(m)
    except (NonEnumerableError, UnsupportedMapError):
        candidates = None
    if candidates is not None:
        for q in sorted(candidates, key=sp.point_sort_key):
            try:
                if contract(m, q) == p:
                    return q
            except WildPrimeError:
                continue
        raise LyingOverNotFoundError("no tame prime lies over the given point")
    return _symbolic_laying_over(m, p)


def _symbolic_laying_over(m: RingMapSpec, p: PrimePoint) -> PrimePoint:
    if isinstance(m, QuotientMap):
        # Injective quotient maps have a zero kernel, so the map is an
        # isomorphism onto the quotient: lift p to itself.
        return p
    if isinstance(m, CanonicalIntoQuotientProduct):
        E = m.subset
        if sp.subset_member(p, E):
            q = TamePrime(p, p)
            assert contract(m, q) == p
            return q
        raise NonEnumerableError(
            "only wild primes of the quotient product lie over this point; "
            "wild primes are not materialized"
        )
    if isinstance(m, CanonicalIntoLocalProduct):
        E = m.subset
        if sp.subset_member(p, E):
            q = TamePrime(p, p)
            assert contract(m, q) == p
            return q
        slot = _least_slot(E, p)
        q = TamePrime(slot, p)
        assert contract(m, q) == p
        return q
    raise NonEnumerableError(f"no symbolic lying-over rule for {map_str(m)}")


def _least_slot(E: SpecSubset, p: PrimePoint) -> PrimePoint:
    """A member of E whose localization keeps p, a minimal prime outside E.

    Every member keeps p.  Over Z and GF(p)[x], p outside E is the generic
    point, so E holds closed points only, and the least of them is taken.
    On the axes ring the map is injective only when E holds the top point
    or every axis, and the top point, above every axis, is taken.
    """
    if not isinstance(E, Cofinite):
        raise NonEnumerableError(f"no slot rule for {sp.subset_str(E)}")
    if E.with_limit:
        return E.limit
    return next(q for q in E.ring.closed_points() if q not in E.excluded)


# ---------------------------------------------------------------------------
# Residue fields and the image through a product of residue fields
# ---------------------------------------------------------------------------


def residue_field(R: RingExpr, p: PrimePoint) -> ResidueField:
    sp.validate_point(p, R)
    return R.residue_field(p)


def residue_product_image(R: RingExpr, E: SpecSubset) -> SpecSubset:
    """Image of Spec(prod k(p)) -> Spec(R) for the canonical map.

    Independent of the closure rules: finite sets go through residue-map
    contraction, and an infinite set gives itself plus its limit point, by
    the argument at its branch.
    """
    if R != E.ring:
        raise KindMismatchError("subset does not live over the given ring")
    if isinstance(E, EmptySet):
        return E
    if isinstance(E, (Explicit,)) or (isinstance(E, Whole) and not R.symbolic):
        pts = {contract(ResidueMap(R, p), FieldZero()) for p in sp.subset_points(E)}
        return sp._explicit(R, pts)
    if isinstance(E, Whole):
        return E
    if isinstance(E, Cofinite):
        # The image is E plus the limit point.  Below the family (Z,
        # GF(p)[x]): an excluded q's generator is a unit in every k(p), p in
        # E, yet lies in q, so no prime of the product contracts onto q; the
        # generic point lies over the minimal prime along the canonical map,
        # which is injective.  Above it (the axes ring): x_k is zero in every
        # k(p) yet misses P_k; elements of the maximal ideal vanish at
        # cofinitely many axes, hence land in the direct-sum ideal, and any
        # prime above that contracts onto the maximal ideal.
        if E.limit_above:
            for q in E.excluded:
                x_k = rings.var_el(R, q.k)
                if not sp.subset_le(E, sp.v_locus(x_k, R)) or R._contains(q, x_k):
                    raise AssertionError("exclusion witnesses must verify")
        elif not is_injective(CanonicalIntoQuotientProduct(R, E)):
            raise AssertionError("cofinite families must have zero kernel")
        return sp._cofinite(R, E.excluded, True)
    raise UnsupportedMapError(f"no residue-product rule for {sp.subset_str(E)}")
