"""Spectrum subsets, and the point functions of the public API.

The points themselves, their order and membership are rules of each ring
family (see rings); the functions here ask the ring.  Spectra come in two
flavors.  Enumerable spectra (Z/n, fields, dimension <= 1 monomial rings,
finite products of these) are finite point lists.  Symbolic spectra (Z,
GF(p)[x], the infinite axes ring) are infinite: each is an infinite
family of points (the closed points of Z and GF(p)[x], the minimal axes
of the axes ring) plus one limit point (the generic point below the
family, the top point above it).  Their subsets are represented exactly
by one of two forms: Explicit, a finite set of points (the empty set is
one with no points), or Cofinite ("all points of the family except a
finite list, with or without the limit point"; the whole space excludes
nothing and holds the limit).  Every membership and inclusion question
on these representations is decidable.

Invariant: every point inside a subset value is a point of its ring.
Points are checked once, where they enter: the builders (explicit,
cofinite_closed, cofinite, cofinite_min) and the functions that take a
point from the caller (subset_member, leq_specialization,
point_contains) validate each one.  The subset algebra (union,
intersection, complement, inclusion) only recombines points that are
already inside subsets, so it goes through the private canonicalizers
_explicit and _cofinite, which check nothing; _cofinite keeps the limit
point out of `excluded`, so each set has exactly one value and == is set
equality.  The subset dataclasses are internal constructors: build
subsets with the builders.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import rings
from .errors import (
    KindMismatchError,
    NonEnumerableError,
    UnsupportedSymbolicError,
)
from .rings import (  # the point types are named from here too
    El,
    FieldZero,
    FpxGeneric,
    FpxMax,
    MonoPrime,
    PrimePoint,
    RingExpr,
    SuppMin,
    SuppTop,
    TamePrime,
    ZGeneric,
    ZmodPrime,
    ZMax,
    point_sort_key,
    point_str,
    sorted_points,
)
from .values import _int

# ---------------------------------------------------------------------------
# Points: the rules live with each ring family in rings
# ---------------------------------------------------------------------------


def validate_point(p: PrimePoint, R: RingExpr) -> None:
    """Check that p denotes a prime of R; raise KindMismatchError otherwise."""
    R.validate_point(p)


def leq_specialization(p: PrimePoint, q: PrimePoint, R: RingExpr) -> bool:
    """Containment of the corresponding prime ideals (p included in q)."""
    R.validate_point(p)
    R.validate_point(q)
    return R._leq(p, q)


def point_contains(p: PrimePoint, r: El, R: RingExpr) -> bool:
    """Whether the element r lies in the prime ideal named by p."""
    R.validate_point(p)
    return R._contains(p, R.normalize(r))


def point_ideal(p: PrimePoint, R: RingExpr) -> rings.IdealRepr:
    """The prime ideal of p as an IdealRepr, where one exists."""
    return R.point_ideal(p)


def spec_points(R: RingExpr) -> list[PrimePoint]:
    """The full spectrum as a sorted point list; enumerable rings only."""
    return R.spec_points()


# ---------------------------------------------------------------------------
# Subsets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Explicit:
    ring: RingExpr
    points: frozenset


@dataclass(frozen=True)
class Cofinite:
    """All points of a symbolic spectrum outside `excluded`, plus its limit
    point iff with_limit.

    The limit point is the generic point of Z and GF(p)[x], below their
    infinite family of closed points, and the top point of the axes ring,
    above its infinite family of minimal primes; `excluded` holds points
    of the family only.
    """

    ring: RingExpr
    excluded: frozenset
    with_limit: bool

    @property
    def limit(self) -> PrimePoint:
        return self.ring.limit

    @property
    def limit_above(self) -> bool:
        """Whether the limit point lies above the family in the order (the
        axes ring), not below it (Z, GF(p)[x])."""
        return self.ring.limit_above

    @property
    def is_whole(self) -> bool:
        return self.with_limit and not self.excluded


SpecSubset = Explicit | Cofinite


# The canonicalizers: points handed to these are already points of R.


def _explicit(R: RingExpr, points) -> SpecSubset:
    return Explicit(R, frozenset(points))


def _cofinite(R: RingExpr, excluded, with_limit: bool) -> SpecSubset:
    return Cofinite(R, frozenset(excluded) - {R.limit}, with_limit)


# The builders: validate, then canonicalize.


def empty_set(R: RingExpr) -> SpecSubset:
    return _explicit(R, ())


def explicit(R: RingExpr, points) -> SpecSubset:
    pts = frozenset(points)
    for p in pts:
        validate_point(p, R)
    return _explicit(R, pts)


def cofinite_closed(R: RingExpr, excluded, with_generic: bool) -> SpecSubset:
    if R.limit is None or R.limit_above:
        raise UnsupportedSymbolicError(
            "cofinite-closed sets exist only over Z and GF(p)[x]"
        )
    pts = frozenset(excluded)
    for p in pts:
        validate_point(p, R)
        if p == R.limit:
            raise KindMismatchError("excluded points must be closed points")
    return _cofinite(R, pts, with_generic)


def cofinite_min(R: RingExpr, excluded, with_top: bool) -> SpecSubset:
    if not R.limit_above:
        raise UnsupportedSymbolicError("cofinite-min sets exist only over the axes ring")
    ks = frozenset(_int(k, "axis") for k in excluded)
    if any(k < 1 for k in ks):
        raise KindMismatchError("axis indices start at 1")
    return _cofinite(R, {SuppMin(k) for k in ks}, with_top)


def cofinite(R: RingExpr, excluded, with_limit: bool) -> SpecSubset:
    """All points of a symbolic spectrum outside `excluded`, plus its limit
    point (the generic point, or the top of the axes ring) iff with_limit;
    a limit point among `excluded` is ignored."""
    if not R.symbolic:
        raise UnsupportedSymbolicError(
            "cofinite sets exist only over Z, GF(p)[x] and the axes ring"
        )
    pts = frozenset(excluded)
    for p in pts:
        validate_point(p, R)
    return _cofinite(R, pts, with_limit)


def whole(R: RingExpr) -> SpecSubset:
    if R.symbolic:
        return _cofinite(R, (), True)
    return _explicit(R, spec_points(R))


def subset_member(p: PrimePoint, E: SpecSubset) -> bool:
    validate_point(p, E.ring)
    return _member(p, E)


def _member(p: PrimePoint, E: SpecSubset) -> bool:
    """Membership of a point of E's ring."""
    if isinstance(E, Explicit):
        return p in E.points
    return E.with_limit if p == E.limit else p not in E.excluded


def subset_points(E: SpecSubset) -> list[PrimePoint]:
    """Point list of a finite subset."""
    if isinstance(E, Explicit):
        return sorted_points(E.points)
    raise NonEnumerableError(f"{subset_str(E)} is not a finite set")


def _check_same_ring(A: SpecSubset, B: SpecSubset) -> RingExpr:
    if A.ring != B.ring:
        raise KindMismatchError("subsets live over different rings")
    return A.ring


def subset_union(A: SpecSubset, B: SpecSubset) -> SpecSubset:
    R = _check_same_ring(A, B)
    if isinstance(A, Explicit) and isinstance(B, Explicit):
        return _explicit(R, A.points | B.points)
    if isinstance(A, Explicit):
        A, B = B, A
    if isinstance(B, Explicit):
        return _cofinite(R, A.excluded - B.points, A.with_limit or A.limit in B.points)
    return _cofinite(R, A.excluded & B.excluded, A.with_limit or B.with_limit)


def subset_intersect(A: SpecSubset, B: SpecSubset) -> SpecSubset:
    R = _check_same_ring(A, B)
    if isinstance(A, Explicit):
        return _explicit(R, {p for p in A.points if _member(p, B)})
    if isinstance(B, Explicit):
        return _explicit(R, {p for p in B.points if _member(p, A)})
    return _cofinite(R, A.excluded | B.excluded, A.with_limit and B.with_limit)


def subset_complement(E: SpecSubset) -> SpecSubset:
    R = E.ring
    if isinstance(E, Cofinite):
        return _explicit(R, E.excluded if E.with_limit else E.excluded | {E.limit})
    if not R.symbolic:
        return _explicit(R, set(spec_points(R)) - E.points)
    return _cofinite(R, E.points, R.limit not in E.points)


def subset_difference(A: SpecSubset, B: SpecSubset) -> SpecSubset:
    return subset_intersect(A, subset_complement(B))


def subset_le(A: SpecSubset, B: SpecSubset) -> bool:
    """Decide A included in B on the canonical representations."""
    _check_same_ring(A, B)
    if isinstance(A, Explicit):
        return all(_member(p, B) for p in A.points)
    if isinstance(B, Cofinite):
        return B.excluded <= A.excluded and (not A.with_limit or B.with_limit)
    return False  # an infinite set inside a finite one


def is_infinite_subset(E: SpecSubset) -> bool:
    return isinstance(E, Cofinite)


def subset_str(E: SpecSubset) -> str:
    if isinstance(E, Explicit):
        return "{" + ", ".join(point_str(p) for p in sorted_points(E.points)) + "}"
    if E.is_whole:
        return f"Spec({E.ring})"
    excl = ", ".join(point_str(p) for p in sorted_points(E.excluded)) or "none"
    family = "minimal primes" if E.limit_above else "closed points"
    side = "with" if E.with_limit else "without"
    return f"all {family} except {excl}, {side} {point_str(E.limit)}"


# ---------------------------------------------------------------------------
# Vanishing and non-vanishing loci
# ---------------------------------------------------------------------------


def v_locus(r: El, R: RingExpr) -> SpecSubset:
    """V(r): the primes containing r, as a canonical subset."""
    points, complement = R.locus(R.normalize(r))
    E = _explicit(R, points)
    return subset_complement(E) if complement else E


def d_locus(r: El, R: RingExpr) -> SpecSubset:
    """D(r): the complement of V(r)."""
    return subset_complement(v_locus(r, R))


def sample_points(R: RingExpr, rng, count: int) -> list[PrimePoint]:
    """Random points, usable on both enumerable and symbolic spectra."""
    return R.sample_points(rng, count)
