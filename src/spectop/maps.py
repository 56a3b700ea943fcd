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

from . import gfpoly, rings
from . import spectrum as sp
from .errors import (
    KindMismatchError,
    LyingOverNotFoundError,
    NonEnumerableError,
    UnsupportedMapError,
    WildPrimeError,
)
from .primes import next_prime
from .rings import (
    IntegerRing,
    LocalizedAtIrrelevant,
    ModRing,
    MonomialQuotient,
    PolyRingOverPrimeField,
    PrimeField,
    Product,
    RationalField,
    RingExpr,
    SymbolicSupplement,
)
from .spectrum import (
    CofiniteClosed,
    CofiniteMin,
    EmptySet,
    Explicit,
    FieldZero,
    FpxGeneric,
    FpxMax,
    PrimePoint,
    SpecSubset,
    SuppMin,
    SuppTop,
    TamePrime,
    Whole,
    ZGeneric,
    ZmodPrime,
    ZMax,
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
        sp.validate_point(q, m.ring)
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
        sp.validate_point(q.inner, m.ring)
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
        return [q for q in sp.spec_points(R) if sp.leq_specialization(m.prime, q, R)]
    if isinstance(m, CanonicalIntoQuotientProduct):
        R = m.ring
        pts = sp.spec_points(R)
        out = []
        for slot, base in enumerate(sp.subset_points(m.subset)):
            out.extend(
                TamePrime(slot, q) for q in pts if sp.leq_specialization(base, q, R)
            )
        return out
    if isinstance(m, CanonicalIntoLocalProduct):
        R = m.ring
        pts = sp.spec_points(R)
        out = []
        for slot, base in enumerate(sp.subset_points(m.subset)):
            out.extend(
                TamePrime(slot, q) for q in pts if sp.leq_specialization(q, base, R)
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
        return _point_is_zero_ideal(m.prime, m.ring)
    if isinstance(m, CanonicalIntoQuotientProduct):
        return _quotient_product_kernel_zero(m.ring, m.subset)
    if isinstance(m, CanonicalIntoLocalProduct):
        return _local_product_kernel_zero(m.ring, m.subset)
    raise UnsupportedMapError(f"unknown map {m}")


def _point_is_zero_ideal(p: PrimePoint, R: RingExpr) -> bool:
    if isinstance(R, SymbolicSupplement):
        # x_j witnesses a nonzero element of every prime here.
        return False
    if isinstance(R, Product):
        # With two or more factors the prime holds the unit idempotent of
        # another slot, which is nonzero.
        return len(R.factors) == 1 and _point_is_zero_ideal(p.inner, R.factors[0])
    return rings.ideal_is_zero(sp.point_ideal(p, R), R)


def _quotient_product_kernel_zero(R: RingExpr, E: SpecSubset) -> bool:
    """Whether the intersection of the members of E vanishes."""
    if isinstance(E, EmptySet):
        return False
    if isinstance(E, Whole):
        return True if sp.has_symbolic_spectrum(R) else _finite_meet_zero(R, sp.spec_points(R))
    if isinstance(E, CofiniteClosed):
        # A nonzero element has finitely many prime divisors.
        return True
    if isinstance(E, CofiniteMin):
        # Excluding axis k leaves x_k inside every remaining minimal prime.
        return not E.excluded
    if isinstance(E, Explicit):
        if any(_point_is_zero_ideal(p, R) for p in E.points):
            return True
        if sp.has_symbolic_spectrum(R):
            return False
        return _finite_meet_zero(R, list(E.points))
    raise UnsupportedMapError(f"no kernel rule for {sp.subset_str(E)}")


def _finite_meet_zero(R: RingExpr, points) -> bool:
    if isinstance(R, Product):
        # Tame primes meet slot by slot; an unmentioned slot keeps the
        # whole factor, which is nonzero.
        for k, f in enumerate(R.factors):
            inner = [p.inner for p in points if p.slot == k]
            if not inner or not _finite_meet_zero(f, inner):
                return False
        return True
    ideals = [sp.point_ideal(p, R) for p in points]
    return rings.ideal_is_zero(rings.ideal_intersect_all(ideals, R), R)


def _local_product_kernel_zero(R: RingExpr, E: SpecSubset) -> bool:
    if isinstance(E, EmptySet):
        return False
    if isinstance(R, Product):
        # Localizing at a tame prime keeps only its slot's factor.
        pts = sp.subset_points(E)
        for k, f in enumerate(R.factors):
            inner = [p.inner for p in pts if p.slot == k]
            if not inner or not _local_product_kernel_zero(f, sp.explicit(f, inner)):
                return False
        return True
    if isinstance(R, (IntegerRing, PolyRingOverPrimeField, PrimeField, RationalField)):
        return True  # localizations of a domain
    if isinstance(R, SymbolicSupplement):
        if isinstance(E, Whole):
            return True
        if isinstance(E, CofiniteMin):
            return E.with_top or not E.excluded
        if isinstance(E, Explicit):
            # ker(R -> R_p) is p itself at a minimal prime of a reduced
            # ring, and zero at the maximal ideal.
            return any(isinstance(p, SuppTop) for p in E.points)
        raise UnsupportedMapError(f"no kernel rule for {sp.subset_str(E)}")
    if isinstance(R, ModRing):
        pts = sp.subset_points(E)
        prod = 1
        for p in pts:
            e = dict(R.factorization)[p.p]
            prod *= p.p**e
        return prod == R.n
    if isinstance(R, (LocalizedAtIrrelevant, MonomialQuotient)):
        pts = sp.subset_points(E)
        full = frozenset(range(1, (R.inner.nvars if isinstance(R, LocalizedAtIrrelevant) else R.nvars) + 1))
        if any(p.cover == full for p in pts):
            return True
        ideals = [sp.point_ideal(p, R) for p in pts]
        return rings.ideal_is_zero(rings.ideal_intersect_all(ideals, R), R)
    raise UnsupportedMapError(f"no localization kernel rule over {R}")


# ---------------------------------------------------------------------------
# Lying over
# ---------------------------------------------------------------------------


def _is_minimal_prime(p: PrimePoint, R: RingExpr) -> bool:
    if sp.is_enumerable(R):
        return not any(
            q != p and sp.leq_specialization(q, p, R) for q in sp.spec_points(R)
        )
    if isinstance(R, (IntegerRing, PolyRingOverPrimeField)):
        return isinstance(p, (ZGeneric, FpxGeneric))
    if isinstance(R, SymbolicSupplement):
        return isinstance(p, SuppMin)
    raise NonEnumerableError(f"cannot test minimality over {R}")


def laying_over(m: RingMapSpec, p: PrimePoint) -> PrimePoint:
    """Some tame prime of the target contracting to the minimal prime p.

    Deterministic: the least candidate in the canonical point order.
    Raises only on misuse (non-injective map, non-minimal p) or when the
    sole witnesses would be wild primes, which are never materialized.
    """
    src = map_source(m)
    sp.validate_point(p, src)
    if not _is_minimal_prime(p, src):
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
            except (WildPrimeError, KindMismatchError):
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
    """Least member of E whose localization keeps p (p minimal: any member)."""
    R = E.ring
    if isinstance(E, Whole):
        if isinstance(R, IntegerRing):
            return ZGeneric()
        if isinstance(R, PolyRingOverPrimeField):
            return FpxGeneric()
        return SuppMin(1)
    if isinstance(E, CofiniteClosed):
        if E.with_generic:
            return ZGeneric() if isinstance(R, IntegerRing) else FpxGeneric()
        if isinstance(R, IntegerRing):
            q = 2
            while ZMax(q) in E.excluded:
                q = next_prime(q)
            return ZMax(q)
        gen = gfpoly.irreducibles(R.p)
        while True:
            f = FpxMax(next(gen))
            if f not in E.excluded:
                return f
    if isinstance(E, CofiniteMin):
        if E.with_top:
            return SuppTop()
        k = 1
        while k in E.excluded:
            k += 1
        return SuppMin(k)
    raise NonEnumerableError(f"no slot rule for {sp.subset_str(E)}")


# ---------------------------------------------------------------------------
# Residue fields and the image through a product of residue fields
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ResidueField:
    """A residue field k(p): printable label plus a concrete ring when one exists."""

    label: str
    ring: RingExpr | None


def residue_field(R: RingExpr, p: PrimePoint) -> ResidueField:
    sp.validate_point(p, R)
    if isinstance(R, IntegerRing):
        if isinstance(p, ZGeneric):
            return ResidueField("Q", rings.QQ)
        return ResidueField(f"F_{p.p}", PrimeField(p.p))
    if isinstance(R, ModRing):
        return ResidueField(f"F_{p.p}", PrimeField(p.p))
    if isinstance(R, (PrimeField, RationalField)):
        return ResidueField(str(R), R)
    if isinstance(R, PolyRingOverPrimeField):
        if isinstance(p, FpxGeneric):
            return ResidueField(f"F_{R.p}(x)", None)
        d = gfpoly.deg(p.coeffs)
        if d == 1:
            return ResidueField(f"F_{R.p}", PrimeField(R.p))
        return ResidueField(f"GF({R.p}^{d})", None)
    if isinstance(R, (MonomialQuotient, LocalizedAtIrrelevant)):
        inner = R.inner if isinstance(R, LocalizedAtIrrelevant) else R
        free = sorted(set(range(1, inner.nvars + 1)) - set(p.cover))
        if not free:
            return ResidueField(str(inner.field), inner.field)
        vars_str = ",".join(f"x{i}" for i in free)
        return ResidueField(f"{inner.field}({vars_str})", None)
    if isinstance(R, SymbolicSupplement):
        if isinstance(p, SuppTop):
            return ResidueField(str(R.field), R.field)
        return ResidueField(f"{R.field}(x{p.k})", None)
    if isinstance(R, Product):
        return residue_field(R.factors[p.slot], p.inner)
    raise UnsupportedMapError(f"no residue field rule for {R}")


def residue_product_image(R: RingExpr, E: SpecSubset) -> SpecSubset:
    """Image of Spec(prod k(p)) -> Spec(R) for the canonical map.

    Independent of the closure rules: finite sets go through residue-map
    contraction, the generic point enters through lying over the minimal
    prime along the injective canonical map, finite exclusions are
    certified by an element vanishing on E but not at the excluded point,
    and the top point of the axes family enters because every element of
    the maximal ideal maps into the direct-sum ideal.
    """
    if R != E.ring:
        raise KindMismatchError("subset does not live over the given ring")
    if isinstance(E, EmptySet):
        return E
    if isinstance(E, (Explicit,)) or (isinstance(E, Whole) and not sp.has_symbolic_spectrum(R)):
        pts = {contract(ResidueMap(R, p), FieldZero()) for p in sp.subset_points(E)}
        return sp.explicit(R, pts)
    if isinstance(E, Whole):
        return E
    if isinstance(E, CofiniteClosed):
        still_out = set()
        for q in E.excluded:
            # q's generator is invertible in every k(p), p in E, exactly
            # when q is not a member of E; then q cannot be contracted.
            if not sp.subset_member(q, E):
                still_out.add(q)
        generic_in = is_injective(CanonicalIntoQuotientProduct(R, E))
        if not generic_in:
            raise AssertionError("cofinite families must have zero kernel")
        return sp.cofinite_closed(R, still_out, True)
    if isinstance(E, CofiniteMin):
        still_out = set()
        for k in E.excluded:
            x_k = rings.var_el(R, k)
            vanishes_on_e = sp.subset_le(
                sp.cofinite_min(R, E.excluded, False), sp.v_locus(x_k, R)
            )
            if vanishes_on_e and not sp.point_contains(SuppMin(k), x_k, R):
                # x_k maps to the zero sequence yet misses P_k, so no
                # prime of the product contracts onto P_k.
                still_out.add(k)
        if still_out != set(E.excluded):
            raise AssertionError("exclusion witnesses must verify")
        # Elements of the maximal ideal vanish at cofinitely many axes,
        # hence land in the direct-sum ideal; any prime above it
        # contracts onto the maximal ideal of this local ring.
        return sp.cofinite_min(R, still_out, True)
    raise UnsupportedMapError(f"no residue-product rule for {sp.subset_str(E)}")
