"""Prime points, the specialization order, and symbolic spectrum subsets.

Spectra come in two flavors here.  Enumerable spectra (Z/n, fields,
dimension <= 1 monomial rings, finite products of these) are finite point
lists.  Symbolic spectra (Z, GF(p)[x], the infinite axes ring) are
infinite; their subsets are represented exactly by one of: empty, an
explicit finite set, "all closed points except a finite list, with or
without the generic point", "all minimal axes except a finite list, with
or without the top point", or the whole space.  Every membership and
inclusion question on these representations is decidable.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import gfpoly, rings
from .errors import (
    KindMismatchError,
    NonEnumerableError,
    UnsupportedError,
    UnsupportedSymbolicError,
)
from .primes import USE_ACTIVE, is_prime, prime_factors
from .rings import (
    El,
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

# ---------------------------------------------------------------------------
# Points
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ZGeneric:
    """(0) in Spec(Z)."""


@dataclass(frozen=True)
class ZMax:
    """pZ for a prime p."""

    p: int


@dataclass(frozen=True)
class ZmodPrime:
    """(p) in Z/n for a prime p dividing n."""

    p: int


@dataclass(frozen=True)
class FpxGeneric:
    """(0) in GF(p)[x]."""


@dataclass(frozen=True)
class FpxMax:
    """(f) for a monic irreducible f over GF(p)."""

    coeffs: tuple[int, ...]


@dataclass(frozen=True)
class FieldZero:
    """The sole point (0) of a field."""


@dataclass(frozen=True)
class MonoPrime:
    """(x_i : i in cover); cover is a vertex cover of the generator supports."""

    cover: frozenset[int]


@dataclass(frozen=True)
class SuppMin:
    """The minimal prime (x_i : i != k) of the axes ring, k >= 1."""

    k: int


@dataclass(frozen=True)
class SuppTop:
    """The maximal ideal (x_1, x_2, ...) of the axes ring."""


@dataclass(frozen=True)
class TamePrime:
    """The preimage of a factor prime under a projection.

    slot is the factor index for a concrete product ring, or the base
    point of E for the target of a canonical map into a product indexed
    by E.
    """

    slot: object
    inner: "PrimePoint"


PrimePoint = (
    ZGeneric
    | ZMax
    | ZmodPrime
    | FpxGeneric
    | FpxMax
    | FieldZero
    | MonoPrime
    | SuppMin
    | SuppTop
    | TamePrime
)


def point_sort_key(p: PrimePoint):
    if isinstance(p, (ZGeneric, FpxGeneric, FieldZero)):
        return (0, 0, ())
    if isinstance(p, ZMax):
        return (1, p.p, ())
    if isinstance(p, ZmodPrime):
        return (1, p.p, ())
    if isinstance(p, FpxMax):
        return (1, len(p.coeffs), p.coeffs)
    if isinstance(p, MonoPrime):
        return (1, len(p.cover), tuple(sorted(p.cover)))
    if isinstance(p, SuppMin):
        return (1, p.k, ())
    if isinstance(p, SuppTop):
        return (2, 0, ())
    if isinstance(p, TamePrime):
        slot = (0, p.slot, ()) if isinstance(p.slot, int) else (1,) + point_sort_key(p.slot)
        return (3, slot, point_sort_key(p.inner))
    raise KindMismatchError(f"unknown point {p}")


def sorted_points(points) -> list[PrimePoint]:
    return sorted(points, key=point_sort_key)


def point_str(p: PrimePoint) -> str:
    if isinstance(p, (ZGeneric, FpxGeneric, FieldZero)):
        return "(0)"
    if isinstance(p, ZMax):
        return f"({p.p})"
    if isinstance(p, ZmodPrime):
        return f"({p.p})"
    if isinstance(p, FpxMax):
        return f"({gfpoly.poly_str(p.coeffs)})"
    if isinstance(p, MonoPrime):
        if not p.cover:
            return "(0)"
        return "(" + ",".join(f"x{i}" for i in sorted(p.cover)) + ")"
    if isinstance(p, SuppMin):
        return f"P_{p.k}"
    if isinstance(p, SuppTop):
        return "m"
    if isinstance(p, TamePrime):
        slot = p.slot if isinstance(p.slot, int) else point_str(p.slot)
        return f"pi_{slot}^-1{point_str(p.inner)}"
    return str(p)


def validate_point(p: PrimePoint, R: RingExpr) -> None:
    """Check that p denotes a prime of R; raise KindMismatchError otherwise."""
    if isinstance(R, IntegerRing):
        if isinstance(p, ZGeneric):
            return
        if isinstance(p, ZMax) and is_prime(p.p):
            return
    elif isinstance(R, ModRing):
        if isinstance(p, ZmodPrime) and R.n % p.p == 0 and is_prime(p.p):
            return
    elif isinstance(R, (PrimeField, RationalField)):
        if isinstance(p, FieldZero):
            return
    elif isinstance(R, PolyRingOverPrimeField):
        if isinstance(p, FpxGeneric):
            return
        if isinstance(p, FpxMax) and gfpoly.is_irreducible(p.coeffs, R.p):
            if p.coeffs == gfpoly.monic(p.coeffs, R.p):
                return
    elif isinstance(R, (MonomialQuotient, LocalizedAtIrrelevant)):
        inner = R.inner if isinstance(R, LocalizedAtIrrelevant) else R
        if isinstance(p, MonoPrime) and p.cover <= frozenset(range(1, inner.nvars + 1)):
            cover = sum(1 << (i - 1) for i in p.cover)  # bit i-1 is x_i
            if all(g & cover for g in inner.gens):
                return
    elif isinstance(R, SymbolicSupplement):
        if isinstance(p, (SuppTop,)):
            return
        if isinstance(p, SuppMin) and p.k >= 1:
            return
    elif isinstance(R, Product):
        if isinstance(p, TamePrime) and isinstance(p.slot, int):
            if 0 <= p.slot < len(R.factors):
                validate_point(p.inner, R.factors[p.slot])
                return
    raise KindMismatchError(f"{point_str(p)} is not a point of {R}")


def leq_specialization(p: PrimePoint, q: PrimePoint, R: RingExpr) -> bool:
    """Containment of the corresponding prime ideals (p included in q)."""
    validate_point(p, R)
    validate_point(q, R)
    if isinstance(R, IntegerRing):
        if isinstance(p, ZGeneric):
            return True
        return p == q
    if isinstance(R, PolyRingOverPrimeField):
        if isinstance(p, FpxGeneric):
            return True
        return p == q
    if isinstance(R, (ModRing, PrimeField, RationalField)):
        return p == q
    if isinstance(R, (MonomialQuotient, LocalizedAtIrrelevant)):
        return p.cover <= q.cover
    if isinstance(R, SymbolicSupplement):
        if isinstance(q, SuppTop):
            return True
        return p == q
    if isinstance(R, Product):
        if p.slot != q.slot:
            return False
        return leq_specialization(p.inner, q.inner, R.factors[p.slot])
    raise UnsupportedError(f"unknown ring {R}")


# ---------------------------------------------------------------------------
# Element membership in a point's ideal
# ---------------------------------------------------------------------------


def point_contains(p: PrimePoint, r: El, R: RingExpr, limit=USE_ACTIVE) -> bool:
    """Whether the element r lies in the prime ideal named by p."""
    validate_point(p, R)
    r = rings.normalize(r, R)
    if isinstance(R, IntegerRing):
        if isinstance(p, ZGeneric):
            return r.v == 0
        return r.v % p.p == 0
    if isinstance(R, ModRing):
        return r.v % p.p == 0
    if isinstance(R, (PrimeField, RationalField)):
        return rings.is_zero(R, r)
    if isinstance(R, PolyRingOverPrimeField):
        if isinstance(p, FpxGeneric):
            return r.coeffs == ()
        return gfpoly.divides(p.coeffs, r.coeffs, R.p)
    if isinstance(R, (MonomialQuotient, LocalizedAtIrrelevant)):
        return all(rings.mono_support(e) & p.cover for _, e in r.terms)
    if isinstance(R, SymbolicSupplement):
        if rings.constant_term(r) != 0:
            return False
        if isinstance(p, SuppTop):
            return True
        # Reduced terms are single-axis; membership in P_k only excludes axis k.
        return all(rings.mono_support(e) != frozenset({p.k}) for _, e in r.terms)
    if isinstance(R, Product):
        return point_contains(p.inner, r.items[p.slot], R.factors[p.slot], limit)
    raise UnsupportedError(f"unknown ring {R}")


def point_ideal(p: PrimePoint, R: RingExpr) -> rings.IdealRepr:
    """The prime ideal of p as an IdealRepr, where one exists."""
    if isinstance(R, IntegerRing):
        return rings.principal_ideal(R, rings.IntEl(0 if isinstance(p, ZGeneric) else p.p))
    if isinstance(R, ModRing):
        return rings.principal_ideal(R, rings.ModEl(p.p))
    if isinstance(R, (PrimeField, RationalField)):
        return rings.PrincipalIdeal(rings.zero(R))
    if isinstance(R, PolyRingOverPrimeField):
        if isinstance(p, FpxGeneric):
            return rings.PrincipalIdeal(rings.PolyEl(()))
        return rings.principal_ideal(R, rings.PolyEl(p.coeffs))
    if isinstance(R, (MonomialQuotient, LocalizedAtIrrelevant)):
        # The variables of the cover, as masks (bit i-1 is x_i): already minimal.
        return rings.MonomialIdeal(frozenset(1 << (i - 1) for i in p.cover))
    raise UnsupportedError(f"no ideal representation for points of {R}")


def point_ideal_generators(p: PrimePoint, R: RingExpr) -> list[El]:
    """Ring elements generating the prime ideal of p."""
    if isinstance(R, IntegerRing):
        return [rings.IntEl(0 if isinstance(p, ZGeneric) else p.p)]
    if isinstance(R, ModRing):
        return [rings.ModEl(p.p % R.n)]
    if isinstance(R, (PrimeField, RationalField)):
        return [rings.zero(R)]
    if isinstance(R, PolyRingOverPrimeField):
        return [rings.PolyEl(() if isinstance(p, FpxGeneric) else p.coeffs)]
    if isinstance(R, (MonomialQuotient, LocalizedAtIrrelevant)):
        return [rings.var_el(R, i) for i in sorted(p.cover)]
    if isinstance(R, Product):
        gens: list[El] = []
        for j in range(len(R.factors)):
            if j != p.slot:
                # The unit idempotent of every other slot.
                gens.append(
                    rings.TupleEl(
                        tuple(
                            rings.one(f) if i == j else rings.zero(f)
                            for i, f in enumerate(R.factors)
                        )
                    )
                )
        for g in point_ideal_generators(p.inner, R.factors[p.slot]):
            gens.append(
                rings.TupleEl(
                    tuple(
                        g if i == p.slot else rings.zero(f)
                        for i, f in enumerate(R.factors)
                    )
                )
            )
        return gens
    raise UnsupportedError(f"no ideal generators for points of {R}")


# ---------------------------------------------------------------------------
# Spectrum enumeration
# ---------------------------------------------------------------------------


def has_symbolic_spectrum(R: RingExpr) -> bool:
    return isinstance(R, (IntegerRing, PolyRingOverPrimeField, SymbolicSupplement))


def is_enumerable(R: RingExpr) -> bool:
    if isinstance(R, (ModRing, PrimeField, RationalField, LocalizedAtIrrelevant)):
        return True
    if isinstance(R, MonomialQuotient):
        return rings.quotient_dim(R) == 0
    if isinstance(R, Product):
        return all(is_enumerable(f) for f in R.factors)
    return False


def spec_points(R: RingExpr) -> list[PrimePoint]:
    """The full spectrum as a sorted point list; enumerable rings only."""
    if isinstance(R, ModRing):
        return [ZmodPrime(p) for p, _ in R.factorization]
    if isinstance(R, (PrimeField, RationalField)):
        return [FieldZero()]
    if isinstance(R, MonomialQuotient):
        if rings.quotient_dim(R) != 0:
            raise NonEnumerableError(
                "an unlocalized monomial quotient of positive dimension has "
                "non-monomial primes; localize at the irrelevant ideal instead"
            )
        # Dimension zero forces the quotient to be the coefficient field.
        return [MonoPrime(frozenset(range(1, R.nvars + 1)))]
    if isinstance(R, LocalizedAtIrrelevant):
        inner = R.inner
        pts = {MonoPrime(c) for c in rings.minimal_cover_sets(inner)}
        pts.add(MonoPrime(frozenset(range(1, inner.nvars + 1))))
        return sorted_points(pts)
    if isinstance(R, Product):
        pts = []
        for k, f in enumerate(R.factors):
            if not is_enumerable(f):
                raise NonEnumerableError(f"factor {f} has a symbolic spectrum")
            pts.extend(TamePrime(k, q) for q in spec_points(f))
        return sorted_points(pts)
    raise NonEnumerableError(f"{R} has a symbolic spectrum")


# ---------------------------------------------------------------------------
# Subsets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EmptySet:
    ring: RingExpr


@dataclass(frozen=True)
class Explicit:
    ring: RingExpr
    points: frozenset


@dataclass(frozen=True)
class CofiniteClosed:
    """All closed points except `excluded`, plus the generic point iff set.

    Only over Z and GF(p)[x], whose closed points are an infinite family.
    """

    ring: RingExpr
    excluded: frozenset
    with_generic: bool


@dataclass(frozen=True)
class CofiniteMin:
    """All axes P_k except the excluded indices, plus the top point iff set."""

    ring: RingExpr
    excluded: frozenset
    with_top: bool


@dataclass(frozen=True)
class Whole:
    ring: RingExpr


SpecSubset = EmptySet | Explicit | CofiniteClosed | CofiniteMin | Whole


def empty_set(R: RingExpr) -> SpecSubset:
    return EmptySet(R)


def explicit(R: RingExpr, points) -> SpecSubset:
    pts = frozenset(points)
    for p in pts:
        validate_point(p, R)
    if not pts:
        return EmptySet(R)
    return Explicit(R, pts)


def cofinite_closed(R: RingExpr, excluded, with_generic: bool) -> SpecSubset:
    if not isinstance(R, (IntegerRing, PolyRingOverPrimeField)):
        raise UnsupportedSymbolicError(
            "cofinite-closed sets exist only over Z and GF(p)[x]"
        )
    pts = frozenset(excluded)
    for p in pts:
        validate_point(p, R)
        if isinstance(p, (ZGeneric, FpxGeneric)):
            raise KindMismatchError("excluded points must be closed points")
    if not pts and with_generic:
        return Whole(R)
    return CofiniteClosed(R, pts, with_generic)


def cofinite_min(R: RingExpr, excluded, with_top: bool) -> SpecSubset:
    if not isinstance(R, SymbolicSupplement):
        raise UnsupportedSymbolicError("cofinite-min sets exist only over the axes ring")
    ks = frozenset(int(k) for k in excluded)
    if any(k < 1 for k in ks):
        raise KindMismatchError("axis indices start at 1")
    if not ks and with_top:
        return Whole(R)
    return CofiniteMin(R, ks, with_top)


def whole(R: RingExpr) -> SpecSubset:
    if has_symbolic_spectrum(R):
        return Whole(R)
    return explicit(R, spec_points(R))


def enumerate_spec(R: RingExpr) -> SpecSubset:
    """The full spectrum: explicit when enumerable, symbolic Whole otherwise."""
    return whole(R)


def subset_member(p: PrimePoint, E: SpecSubset) -> bool:
    if isinstance(E, EmptySet):
        return False
    if isinstance(E, Explicit):
        return p in E.points
    if isinstance(E, CofiniteClosed):
        if isinstance(p, (ZGeneric, FpxGeneric)):
            return E.with_generic
        validate_point(p, E.ring)
        return p not in E.excluded
    if isinstance(E, CofiniteMin):
        if isinstance(p, SuppTop):
            return E.with_top
        validate_point(p, E.ring)
        return p.k not in E.excluded
    if isinstance(E, Whole):
        validate_point(p, E.ring)
        return True
    raise KindMismatchError(f"unknown subset {E}")


def subset_points(E: SpecSubset) -> list[PrimePoint]:
    """Point list of a finite subset."""
    if isinstance(E, EmptySet):
        return []
    if isinstance(E, Explicit):
        return sorted_points(E.points)
    if isinstance(E, Whole) and not has_symbolic_spectrum(E.ring):
        return spec_points(E.ring)
    raise NonEnumerableError(f"{subset_str(E)} is not a finite set")


def _check_same_ring(A: SpecSubset, B: SpecSubset) -> RingExpr:
    if A.ring != B.ring:
        raise KindMismatchError("subsets live over different rings")
    return A.ring


def subset_union(A: SpecSubset, B: SpecSubset) -> SpecSubset:
    R = _check_same_ring(A, B)
    if isinstance(A, Whole) or isinstance(B, Whole):
        return Whole(R)
    if isinstance(A, EmptySet):
        return B
    if isinstance(B, EmptySet):
        return A
    if isinstance(A, Explicit) and isinstance(B, Explicit):
        return explicit(R, A.points | B.points)
    if isinstance(A, CofiniteClosed) or isinstance(B, CofiniteClosed):
        if isinstance(A, Explicit):
            A, B = B, A
        if isinstance(B, Explicit):
            closed = {p for p in B.points if not isinstance(p, (ZGeneric, FpxGeneric))}
            generic = len(closed) != len(B.points)
            return cofinite_closed(R, A.excluded - closed, A.with_generic or generic)
        return cofinite_closed(
            R, A.excluded & B.excluded, A.with_generic or B.with_generic
        )
    if isinstance(A, CofiniteMin) or isinstance(B, CofiniteMin):
        if isinstance(A, Explicit):
            A, B = B, A
        if isinstance(B, Explicit):
            ks = {p.k for p in B.points if isinstance(p, SuppMin)}
            top = any(isinstance(p, SuppTop) for p in B.points)
            return cofinite_min(R, A.excluded - ks, A.with_top or top)
        return cofinite_min(R, A.excluded & B.excluded, A.with_top or B.with_top)
    raise UnsupportedSymbolicError("no union rule for this pair of representations")


def subset_intersect(A: SpecSubset, B: SpecSubset) -> SpecSubset:
    R = _check_same_ring(A, B)
    if isinstance(A, EmptySet) or isinstance(B, EmptySet):
        return EmptySet(R)
    if isinstance(A, Whole):
        return B
    if isinstance(B, Whole):
        return A
    if isinstance(A, Explicit):
        return explicit(R, {p for p in A.points if subset_member(p, B)})
    if isinstance(B, Explicit):
        return explicit(R, {p for p in B.points if subset_member(p, A)})
    if isinstance(A, CofiniteClosed) and isinstance(B, CofiniteClosed):
        return cofinite_closed(
            R, A.excluded | B.excluded, A.with_generic and B.with_generic
        )
    if isinstance(A, CofiniteMin) and isinstance(B, CofiniteMin):
        return cofinite_min(R, A.excluded | B.excluded, A.with_top and B.with_top)
    raise UnsupportedSymbolicError("no intersection rule for this pair")


def subset_complement(E: SpecSubset) -> SpecSubset:
    R = E.ring
    if isinstance(E, EmptySet):
        return whole(R)
    if isinstance(E, Whole):
        return EmptySet(R)
    if isinstance(E, CofiniteClosed):
        extra = [] if E.with_generic else [_generic_point(R)]
        return explicit(R, set(E.excluded) | set(extra))
    if isinstance(E, CofiniteMin):
        extra = [] if E.with_top else [SuppTop()]
        return explicit(R, {SuppMin(k) for k in E.excluded} | set(extra))
    if isinstance(E, Explicit):
        if not has_symbolic_spectrum(R):
            return explicit(R, set(spec_points(R)) - set(E.points))
        if isinstance(R, (IntegerRing, PolyRingOverPrimeField)):
            closed = {p for p in E.points if not isinstance(p, (ZGeneric, FpxGeneric))}
            generic_in = len(closed) != len(E.points)
            return cofinite_closed(R, closed, not generic_in)
        ks = {p.k for p in E.points if isinstance(p, SuppMin)}
        top_in = any(isinstance(p, SuppTop) for p in E.points)
        return cofinite_min(R, ks, not top_in)
    raise KindMismatchError(f"unknown subset {E}")


def subset_difference(A: SpecSubset, B: SpecSubset) -> SpecSubset:
    return subset_intersect(A, subset_complement(B))


def subset_le(A: SpecSubset, B: SpecSubset) -> bool:
    """Decide A included in B on the canonical representations."""
    R = _check_same_ring(A, B)
    if isinstance(A, EmptySet) or isinstance(B, Whole):
        return True
    if isinstance(A, Explicit):
        return all(subset_member(p, B) for p in A.points)
    if isinstance(A, Whole):
        if isinstance(B, Whole):
            return True
        if not has_symbolic_spectrum(R):
            return all(subset_member(p, B) for p in spec_points(R))
        return False
    if isinstance(A, CofiniteClosed):
        if isinstance(B, CofiniteClosed):
            return B.excluded <= A.excluded and (not A.with_generic or B.with_generic)
        return False
    if isinstance(A, CofiniteMin):
        if isinstance(B, CofiniteMin):
            return B.excluded <= A.excluded and (not A.with_top or B.with_top)
        return False
    raise KindMismatchError(f"unknown subset {A}")


def is_infinite_subset(E: SpecSubset) -> bool:
    if isinstance(E, (CofiniteClosed, CofiniteMin)):
        return True
    if isinstance(E, Whole):
        return has_symbolic_spectrum(E.ring)
    return False


def _generic_point(R: RingExpr) -> PrimePoint:
    if isinstance(R, IntegerRing):
        return ZGeneric()
    if isinstance(R, PolyRingOverPrimeField):
        return FpxGeneric()
    raise KindMismatchError(f"{R} has no distinguished generic point")


def subset_str(E: SpecSubset) -> str:
    if isinstance(E, EmptySet):
        return "{}"
    if isinstance(E, Explicit):
        return "{" + ", ".join(point_str(p) for p in sorted_points(E.points)) + "}"
    if isinstance(E, CofiniteClosed):
        excl = ", ".join(point_str(p) for p in sorted_points(E.excluded)) or "none"
        gen = "with (0)" if E.with_generic else "without (0)"
        return f"all closed points except {excl}, {gen}"
    if isinstance(E, CofiniteMin):
        excl = ", ".join(f"P_{k}" for k in sorted(E.excluded)) or "none"
        top = "with m" if E.with_top else "without m"
        return f"all minimal primes except {excl}, {top}"
    if isinstance(E, Whole):
        return f"Spec({E.ring})"
    return str(E)


# ---------------------------------------------------------------------------
# Vanishing and non-vanishing loci
# ---------------------------------------------------------------------------


def v_locus(r: El, R: RingExpr, limit=USE_ACTIVE) -> SpecSubset:
    """V(r): the primes containing r, as a canonical subset."""
    r = rings.normalize(r, R)
    if isinstance(R, IntegerRing):
        if r.v == 0:
            return Whole(R)
        if abs(r.v) == 1:
            return EmptySet(R)
        return explicit(R, {ZMax(p) for p in prime_factors(r.v, limit)})
    if isinstance(R, PolyRingOverPrimeField):
        if r.coeffs == ():
            return Whole(R)
        if gfpoly.deg(r.coeffs) == 0:
            return EmptySet(R)
        return explicit(R, {FpxMax(f) for f, _ in gfpoly.factor(r.coeffs, R.p)})
    if isinstance(R, SymbolicSupplement):
        if r.terms == ():
            return Whole(R)
        if rings.constant_term(r) != 0:
            return EmptySet(R)
        axes_hit = set()
        for _, e in r.terms:
            axes_hit |= rings.mono_support(e)
        return cofinite_min(R, axes_hit, True)
    if is_enumerable(R):
        return explicit(R, {p for p in spec_points(R) if point_contains(p, r, R)})
    raise NonEnumerableError(f"no locus rule over {R}")


def d_locus(r: El, R: RingExpr, limit=USE_ACTIVE) -> SpecSubset:
    """D(r): the complement of V(r)."""
    return subset_complement(v_locus(r, R, limit))


def sample_points(R: RingExpr, rng, count: int) -> list[PrimePoint]:
    """Random points, usable on both enumerable and symbolic spectra."""
    if not has_symbolic_spectrum(R):
        pts = spec_points(R)
        return [pts[rng.randrange(len(pts))] for _ in range(count)]
    out: list[PrimePoint] = []
    for _ in range(count):
        if isinstance(R, IntegerRing):
            if rng.random() < 0.15:
                out.append(ZGeneric())
            else:
                out.append(ZMax(_random_prime(rng)))
        elif isinstance(R, PolyRingOverPrimeField):
            if rng.random() < 0.15:
                out.append(FpxGeneric())
            else:
                out.append(FpxMax(_random_irreducible(R.p, rng)))
        else:
            if rng.random() < 0.15:
                out.append(SuppTop())
            else:
                out.append(SuppMin(rng.randint(1, 30)))
    return out


_PRIME_POOL = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 53, 97, 101, 257)


def _random_prime(rng) -> int:
    return _PRIME_POOL[rng.randrange(len(_PRIME_POOL))]


def _irreducible_pool(p: int, count: int = 12) -> list[tuple[int, ...]]:
    out = []
    gen = gfpoly.irreducibles(p)
    for _ in range(count):
        out.append(next(gen))
    return out


def _random_irreducible(p: int, rng) -> tuple[int, ...]:
    pool = _irreducible_pool(p)
    return pool[rng.randrange(len(pool))]
