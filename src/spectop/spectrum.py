"""Spectrum subsets, and the point functions of the public API.

The points themselves, their order and membership are rules of each ring
family (see rings); the functions here ask the ring.  Spectra come in two
flavors.  Enumerable spectra (Z/n, fields, dimension <= 1 monomial rings,
finite products of these) are finite point lists.  Symbolic spectra (Z,
GF(p)[x], the infinite axes ring) are infinite: each is an infinite
family of points (the closed points of Z and GF(p)[x], the minimal axes
of the axes ring) plus one limit point (the generic point below the
family, the top point above it).  Their subsets are represented exactly
in the finite/cofinite Boolean algebra (Hochster 1969): a SpecSubset is
a finite set of points, or, with its `cofinite` flag set, the complement
of one, the limit counted as an ordinary point.  The empty set has no
points; the whole symbolic spectrum is cofinite with no points.  Every
membership and inclusion question on these representations is
decidable, and the subset algebra below (union, intersection,
complement, inclusion) answers each by a frozenset operation or two.

Invariant: every point inside a subset value is a point of its ring.
Points are checked once, where they enter: the builders (explicit for a
finite set, cofinite for an infinite one) and the functions that take a
point from the caller (subset_member, leq_specialization, point_contains,
point_ideal) validate each one.  The subset algebra (union,
intersection, complement, inclusion) only recombines points that are
already inside subsets, so it goes through the private canonicalizer
_subset, which checks nothing.  The suites and oracles keep the same
rule: each checks every point of a ring's own spectrum once, then
builds its subsets and compares its pairs through _subset, _member and
the ring's _leq.  Points a ring samples are points of it, as the ones
it enumerates are, so the suites' random subsets are built from
sample_points output through _subset, unchecked; the image oracle
contracts the tame primes a map enumerated through the map's unchecked
_contract.  _subset stores a cofinite set over a
ring that is not symbolic as the finite set it is, so each set has
exactly one value and == is set equality.  The SpecSubset constructor is
internal: build subsets with the builders.
"""

from __future__ import annotations

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
from .values import Record

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
    R.validate_point(p)
    return R.point_ideal(p)


def spec_points(R: RingExpr) -> list[PrimePoint]:
    """The full spectrum as a sorted point list; enumerable rings only."""
    return list(R._spectrum_table)


# ---------------------------------------------------------------------------
# Subsets
# ---------------------------------------------------------------------------


class SpecSubset(Record):
    """The points of Spec(ring) in `points`, or, with `cofinite` set, every
    point outside them.  The limit point of a symbolic spectrum (the
    generic point of Z and GF(p)[x], the top of the axes ring) counts as
    an ordinary point, so membership is (p in points) != cofinite.
    """

    __slots__ = ()
    ring: RingExpr
    points: frozenset
    cofinite: bool

    def __new__(cls, ring: RingExpr, points: frozenset, cofinite: bool = False):
        return tuple.__new__(cls, (ring, points, cofinite))

    @property
    def excluded(self) -> frozenset:
        """The family points a cofinite set leaves out."""
        return self.points - {self.ring.limit}

    @property
    def with_limit(self) -> bool:
        """Whether a cofinite set holds the limit point."""
        return self.ring.limit not in self.points


def _subset(R: RingExpr, points, cofinite: bool = False) -> SpecSubset:
    """The canonicalizer: points handed here are already points of R.  A
    cofinite set over a ring that is not symbolic is stored as the finite
    set it is.  The record is built by tuple.__new__ in C, without a call
    of the SpecSubset constructor."""
    if cofinite and not R.symbolic:
        points, cofinite = frozenset(R._spectrum_table).difference(points), False
    return tuple.__new__(SpecSubset, (R, frozenset(points), cofinite))


# The builders: validate, then canonicalize.


def empty_set(R: RingExpr) -> SpecSubset:
    return _subset(R, ())


def explicit(R: RingExpr, points) -> SpecSubset:
    pts = frozenset(points)
    for p in pts:
        validate_point(p, R)
    return _subset(R, pts)


def cofinite(R: RingExpr, excluded, with_limit: bool) -> SpecSubset:
    """All family points of a symbolic spectrum outside `excluded`, plus its
    limit point (the generic point, or the top of the axes ring) iff
    with_limit.  The one builder of an infinite subset."""
    if not R.symbolic:
        raise UnsupportedSymbolicError(
            "cofinite sets exist only over Z, GF(p)[x] and the axes ring"
        )
    pts = frozenset(excluded)
    for p in pts:
        validate_point(p, R)
    if R.limit in pts:
        raise KindMismatchError(f"{point_str(R.limit)} is chosen by the flag, not excluded")
    return _subset(R, pts if with_limit else pts | {R.limit}, True)


def whole(R: RingExpr) -> SpecSubset:
    return _subset(R, (), True)


def subset_member(p: PrimePoint, E: SpecSubset) -> bool:
    validate_point(p, E.ring)
    return _member(p, E)


def _member(p: PrimePoint, E: SpecSubset) -> bool:
    """Membership of a point of E's ring."""
    return (p in E.points) != E.cofinite


def subset_points(E: SpecSubset) -> list[PrimePoint]:
    """Point list of a finite subset."""
    if E.cofinite:
        raise NonEnumerableError(f"{subset_str(E)} is not a finite set")
    return sorted_points(E.points)


def subset_union(A: SpecSubset, B: SpecSubset) -> SpecSubset:
    if not A.cofinite:
        A, B = B, A
    if not A.cofinite:
        return _subset(A.ring, A.points | B.points)
    return _subset(A.ring, A.points & B.points if B.cofinite else A.points - B.points, True)


def subset_intersect(A: SpecSubset, B: SpecSubset) -> SpecSubset:
    if A.cofinite:
        A, B = B, A
    if A.cofinite:
        return _subset(A.ring, A.points | B.points, True)
    return _subset(A.ring, A.points - B.points if B.cofinite else A.points & B.points)


def subset_complement(E: SpecSubset) -> SpecSubset:
    return _subset(E.ring, E.points, not E.cofinite)


def subset_difference(A: SpecSubset, B: SpecSubset) -> SpecSubset:
    return subset_intersect(A, subset_complement(B))


def subset_le(A: SpecSubset, B: SpecSubset) -> bool:
    """Decide A included in B by one frozenset comparison of the canonical
    representations: a finite A lies in a finite B when its points do, and
    in a cofinite B when it misses B's points; an infinite set never lies
    inside a finite one."""
    if A.cofinite:
        return B.cofinite and B.points <= A.points
    return A.points.isdisjoint(B.points) if B.cofinite else A.points <= B.points


def subset_str(E: SpecSubset) -> str:
    if not E.cofinite:
        return "{" + ", ".join(point_str(p) for p in sorted_points(E.points)) + "}"
    R = E.ring
    if not E.points:
        return f"Spec({R})"
    excl = ", ".join(point_str(p) for p in sorted_points(E.excluded)) or "none"
    family = "minimal primes" if R.limit_above else "closed points"
    side = "with" if E.with_limit else "without"
    return f"all {family} except {excl}, {side} {point_str(R.limit)}"


# ---------------------------------------------------------------------------
# Vanishing and non-vanishing loci
# ---------------------------------------------------------------------------


def v_locus(r: El, R: RingExpr) -> SpecSubset:
    """V(r): the primes containing r, as a canonical subset."""
    return _subset(R, *R.locus(R.normalize(r)))


def d_locus(r: El, R: RingExpr) -> SpecSubset:
    """D(r): the complement of V(r)."""
    return subset_complement(v_locus(r, R))


def sample_points(R: RingExpr, rng, count: int) -> list[PrimePoint]:
    """Random points, usable on both enumerable and symbolic spectra."""
    return R.sample_points(rng, count)
