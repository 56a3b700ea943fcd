"""Ring map kinds, contraction of primes, and lying over.

Maps are symbolic: a quotient map R -> R/p, the canonical map into a
product of quotients or localizations indexed by a subset of Spec(R), a
diagonal Z/n -> prod Z/d_i, or a residue map R -> k(p).  Each map class
owns its kind's rules.  Primes of the quotient and localization factors
are represented upstairs through the order correspondences
Spec(R/p) = {q >= p} and Spec(R_p) = {q <= p}, so contraction never
builds the factor rings.

Lying over a minimal prime is found by enumerative search on enumerable
targets and by each kind's rule on symbolic ones; the tensor-product
pushout that proves existence in general is not modeled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import rings
from . import spectrum as sp
from .errors import (
    KindMismatchError,
    LyingOverNotFoundError,
    NonEnumerableError,
    WildPrimeError,
)
from .primes import DEFAULT_LIMIT
from .rings import ResidueField, RingExpr  # ResidueField is named from here too
from .spectrum import (
    Cofinite,
    Explicit,
    FieldZero,
    PrimePoint,
    SpecSubset,
    TamePrime,
    ZmodPrime,
)

# ---------------------------------------------------------------------------
# Map kinds
# ---------------------------------------------------------------------------


class RingMapSpec:
    """A ring map: the rules every kind shares, and the refusal of each
    rule some kind lacks.

    Every kind has `source`, `__str__`, `contract(q)`, `tame_points()` and
    `is_injective()`.  Kinds over the same fields share a dataclass base;
    its equality compares the class too, so R -> R/p and R -> k(p) differ.
    """

    @property
    def source(self) -> RingExpr:
        return self.ring

    def symbolic_lying_over(self, p: PrimePoint) -> PrimePoint:
        """A tame prime over the minimal prime p, for an injective map whose
        tame primes cannot be enumerated."""
        raise NonEnumerableError(f"no symbolic lying-over rule for {self}")


@dataclass(frozen=True)
class _PrimeMap(RingMapSpec):
    """R -> R/p and R -> k(p): both kernels are p."""

    ring: RingExpr
    prime: PrimePoint

    def is_injective(self) -> bool:
        # R -> k(p) factors through R/p, and Frac is injective on domains.
        sp.validate_point(self.prime, self.ring)
        return self.ring.point_is_zero(self.prime)


class QuotientMap(_PrimeMap):
    def __str__(self) -> str:
        return f"{self.ring} -> {self.ring}/{sp.point_str(self.prime)}"

    def contract(self, q: PrimePoint) -> PrimePoint:
        return _factor_contract(self.ring, self.prime, q, up=True)

    def tame_points(self) -> list[PrimePoint]:
        R = self.ring
        sp.validate_point(self.prime, R)
        return [q for q in sp.spec_points(R) if R._leq(self.prime, q)]

    def symbolic_lying_over(self, p: PrimePoint) -> PrimePoint:
        # Injective quotient maps have a zero kernel, so the map is an
        # isomorphism onto the quotient: lift p to itself.
        return p


class ResidueMap(_PrimeMap):
    def __str__(self) -> str:
        return f"{self.ring} -> k({sp.point_str(self.prime)})"

    def contract(self, q: PrimePoint) -> PrimePoint:
        if isinstance(q, FieldZero):
            return self.prime
        raise WildPrimeError("residue fields have a single point, (0)")

    def tame_points(self) -> list[PrimePoint]:
        return [FieldZero()]


@dataclass(frozen=True)
class _ProductMap(RingMapSpec):
    """R -> prod R/p (up) or prod R_p (down) over the members p of E.

    The tame prime (slot, q) is the prime q of the slot's factor, written
    upstairs: above the slot's member for R/p, below it for R_p.
    """

    ring: RingExpr
    subset: SpecSubset

    def __str__(self) -> str:
        factor = "R/p" if self.up else "R_p"
        return f"{self.ring} -> prod {factor} over {sp.subset_str(self.subset)}"

    def contract(self, q: PrimePoint) -> PrimePoint:
        if not isinstance(q, TamePrime):
            raise WildPrimeError(f"{sp.point_str(q)} is not tame")
        base = _resolve_slot(self.subset, q.slot)
        return _factor_contract(self.ring, base, q.inner, self.up)

    def tame_points(self) -> list[PrimePoint]:
        R = self.ring
        pts = sp.spec_points(R)
        return [
            TamePrime(slot, q)
            for slot, base in enumerate(sp.subset_points(self.subset))
            for q in pts
            if R._leq(*_ordered(base, q, self.up))
        ]

    def symbolic_lying_over(self, p: PrimePoint) -> PrimePoint:
        E = self.subset
        if sp.subset_member(p, E):
            slot = p
        elif self.up:
            raise NonEnumerableError(
                "only wild primes of the quotient product lie over this point; "
                "wild primes are not materialized"
            )
        else:
            slot = _least_slot(E, p)
        q = TamePrime(slot, p)
        assert self.contract(q) == p
        return q


class CanonicalIntoQuotientProduct(_ProductMap):
    up = True  # Spec(R/p) = {q >= p}

    def is_injective(self) -> bool:
        """Whether the intersection of the members of E vanishes."""
        R, E = self.ring, self.subset
        if isinstance(E, Cofinite):
            # Below the limit: a nonzero element has finitely many prime
            # divisors.  Above it: excluding axis k leaves x_k inside every
            # remaining minimal prime.
            return not E.limit_above or not E.excluded
        if any(R.point_is_zero(p) for p in E.points):
            return True
        if R.symbolic:
            return False
        return _finite_meet_zero(R, list(E.points))


class CanonicalIntoLocalProduct(_ProductMap):
    up = False  # Spec(R_p) = {q <= p}

    def is_injective(self) -> bool:
        R, E = self.ring, self.subset
        if E == sp.empty_set(R):
            return False  # the map into the zero ring
        if R.domain:
            return True  # localizations of a domain
        if R.limit_above:
            # R_m is R itself, and at a minimal prime of a reduced ring the
            # kernel is the prime: only all the minimal primes together meet in 0.
            return (
                sp.subset_member(R.limit, E)
                or CanonicalIntoQuotientProduct(R, E).is_injective()
            )
        # Localizing at a tame prime keeps only its slot's factor.
        return all(
            inner and (f.domain or f.local_kernel_zero(inner))
            for f, inner in R.slots(sp.subset_points(E))
        )


@dataclass(frozen=True)
class DiagonalIntoModProduct(RingMapSpec):
    n: int
    divisors: tuple[int, ...]
    limit: int | None = field(default=DEFAULT_LIMIT, compare=False)  # zmod's bound on n

    @property
    def source(self) -> RingExpr:
        # Built when read, not when the map is, so that any map document
        # can be written and read back.
        return rings.zmod(self.n, self.limit)

    def __str__(self) -> str:
        return f"Z/{self.n} -> " + " x ".join(f"Z/{d}" for d in self.divisors)

    def _check_divisors(self) -> None:
        if any(d < 1 or self.n % d != 0 for d in self.divisors):
            raise KindMismatchError("divisors must be positive and divide n")

    def contract(self, q: PrimePoint) -> PrimePoint:
        self._check_divisors()
        if not isinstance(q, TamePrime) or not isinstance(q.slot, int):
            raise WildPrimeError(f"{sp.point_str(q)} is not tame")
        if not 0 <= q.slot < len(self.divisors):
            raise WildPrimeError(f"slot {q.slot} out of range")
        d = self.divisors[q.slot]
        inner = q.inner
        if not isinstance(inner, ZmodPrime) or d % inner.p != 0:
            raise KindMismatchError(f"{sp.point_str(inner)} is not a prime of Z/{d}")
        return ZmodPrime(inner.p)

    def tame_points(self) -> list[PrimePoint]:
        self._check_divisors()
        # Each d divides n, so the primes of d are the primes of n dividing d.
        primes = [p for p, _ in self.source.factorization]
        return [
            TamePrime(slot, ZmodPrime(p))
            for slot, d in enumerate(self.divisors)
            for p in primes
            if d % p == 0
        ]

    def is_injective(self) -> bool:
        self._check_divisors()
        return math.lcm(*self.divisors) == self.n if self.divisors else False


def _ordered(base: PrimePoint, q: PrimePoint, up: bool) -> tuple[PrimePoint, PrimePoint]:
    """(smaller, larger) for a prime q of R/base (up) or R_base (down)."""
    return (base, q) if up else (q, base)


def _factor_contract(R: RingExpr, base: PrimePoint, q: PrimePoint, up: bool) -> PrimePoint:
    """The preimage in R of the prime q of R/base (up) or R_base (down)."""
    if up and isinstance(q, FieldZero):
        # The zero ideal of R/p pulls back to the kernel.
        return base
    if sp.leq_specialization(*_ordered(base, q, up), R):
        return q
    raise WildPrimeError(
        f"{sp.point_str(q)} is not a prime of the factor at {sp.point_str(base)}"
    )


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


def _least_slot(E: SpecSubset, p: PrimePoint) -> PrimePoint:
    """A member of E whose localization keeps p, a minimal prime outside E.

    A member keeps p when it lies above p.  Of a finite E the least such
    member is taken; one exists when the map is injective.  Of a cofinite
    E: over Z and GF(p)[x], p outside E is the generic point, so E holds
    closed points only, and the least of them is taken.  On the axes ring
    the map is injective only when E holds the top point or every axis,
    and the top point, above every axis, is taken.
    """
    if isinstance(E, Explicit):
        return next(q for q in sp.subset_points(E) if E.ring._leq(p, q))
    if E.with_limit:
        return E.limit
    return next(q for q in E.ring.closed_points() if q not in E.excluded)


# ---------------------------------------------------------------------------
# The rules as functions
# ---------------------------------------------------------------------------


def contract(m: RingMapSpec, q: PrimePoint) -> PrimePoint:
    """The preimage of a (tame) prime of the target."""
    return m.contract(q)


def tame_points(m: RingMapSpec) -> list[PrimePoint]:
    """All tame primes of the target, for enumerable targets."""
    return m.tame_points()


def is_injective(m: RingMapSpec) -> bool:
    """Whether the described map has zero kernel."""
    return m.is_injective()


def laying_over(m: RingMapSpec, p: PrimePoint) -> PrimePoint:
    """Some tame prime of the target contracting to the minimal prime p.

    Deterministic: the least candidate in the canonical point order.
    Raises only on misuse (non-injective map, non-minimal p) or when the
    sole witnesses would be wild primes, which are never materialized.
    """
    src = m.source
    sp.validate_point(p, src)
    if not src.is_minimal_prime(p):
        raise LyingOverNotFoundError(f"{sp.point_str(p)} is not a minimal prime")
    if not is_injective(m):
        raise LyingOverNotFoundError("the map is not injective")
    try:
        candidates = tame_points(m)
    except NonEnumerableError:
        return m.symbolic_lying_over(p)
    for q in sorted(candidates, key=sp.point_sort_key):
        try:
            if contract(m, q) == p:
                return q
        except WildPrimeError:
            continue
    raise LyingOverNotFoundError("no tame prime lies over the given point")


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
    the argument below.
    """
    if R != E.ring:
        raise KindMismatchError("subset does not live over the given ring")
    if isinstance(E, Explicit):
        pts = {contract(ResidueMap(R, p), FieldZero()) for p in E.points}
        return sp._explicit(R, pts)
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
