"""Ring map kinds, contraction of primes, and lying over.

Maps are symbolic: a quotient map R -> R/p, the canonical map into a
product of quotients or localizations indexed by a subset of Spec(R), a
diagonal Z/n -> prod Z/d_i, or a residue map R -> k(p).  Each map class
owns its kind's rules.  A map checks its own fields once, when it is
built: the prime of a quotient or residue map is a point of its ring,
the divisors of a diagonal map are positive and divide n, and the index
set of a product map was checked by its subset builder.  The rules then
check only the points they are given.  Primes of the quotient and
localization factors are represented upstairs through the order
correspondences Spec(R/p) = {q >= p} and Spec(R_p) = {q <= p}, so
contraction never builds the factor rings.

Injectivity of the canonical maps is a closure fact, decided by topology
for every ring kind.  The kernel of R -> prod_{p in E} R/p is the meet of
E, a radical ideal containing the nilradical, and V(meet E) is the
Zariski closure of E: the map is injective iff R is reduced and E is
Zariski dense.  R -> R/p and R -> k(p) have kernel p, the case E = {p}.
In R_p, r/1 = 0 exactly when r lies in every minimal prime below p, so
R -> prod_{p in E} R_p is injective iff the down closure of E is Zariski
dense; that is exact on reduced rings and on zero-dimensional ones, Z/n
and products with Z/n, which covers every ring the engine builds.

Lying over a minimal prime is found by enumerative search when the
source is enumerable and by each kind's rule otherwise; the
tensor-product pushout that proves existence in general is not modeled.
"""

from __future__ import annotations

import math
from functools import cached_property

from . import rings
from . import spectrum as sp
from . import topology as top
from .errors import (
    BadArityError,
    KindMismatchError,
    LyingOverNotFoundError,
    NonEnumerableError,
    WildPrimeError,
)
from .primes import DEFAULT_LIMIT
from .rings import Record, ResidueField, RingExpr  # ResidueField is named from here too
from .spectrum import (
    FieldZero,
    PrimePoint,
    SpecSubset,
    TamePrime,
    ZmodPrime,
)

# ---------------------------------------------------------------------------
# Map kinds
# ---------------------------------------------------------------------------


class RingMapSpec(Record):
    """A ring map: the rules every kind shares, and the refusal of each
    rule some kind lacks.

    Every kind has `source`, `__str__`, `contract(q)`, `tame_points()` and
    `is_injective()`.  contract checks q, then hands it to `_contract(q)`,
    which does the contraction alone: the tame primes the map enumerates
    itself go straight there.  Kinds over the same fields share a Record
    base; its equality compares the class too, so R -> R/p and R -> k(p)
    differ.
    """

    @property
    def source(self) -> RingExpr:
        return self.ring

    def contract(self, q: PrimePoint) -> PrimePoint:
        # A kind whose _contract refuses every other point checks nothing.
        return self._contract(q)

    def symbolic_lying_over(self, p: PrimePoint) -> PrimePoint:
        """A tame prime over the minimal prime p, for an injective map whose
        tame primes cannot be enumerated."""
        raise NonEnumerableError(f"no symbolic lying-over rule for {self}")


class _PrimeMap(RingMapSpec):
    """R -> R/p and R -> k(p): both kernels are p."""

    ring: RingExpr
    prime: PrimePoint

    def __new__(cls, ring: RingExpr, prime: PrimePoint):
        ring.validate_point(prime)
        return tuple.__new__(cls, (ring, prime))

    def is_injective(self) -> bool:
        # R -> k(p) factors through R/p, and Frac is injective on domains.
        return _meet_is_zero(sp.explicit(self.ring, {self.prime}))


class QuotientMap(_PrimeMap):
    def __str__(self) -> str:
        return f"{self.ring} -> {self.ring}/{sp.point_str(self.prime)}"

    def contract(self, q: PrimePoint) -> PrimePoint:
        _check_factor_point(self.ring, q, up=True)
        return self._contract(q)

    def _contract(self, q: PrimePoint) -> PrimePoint:
        return _factor_contract(self.ring, self.prime, q, up=True)

    def tame_points(self) -> list[PrimePoint]:
        R = self.ring
        above = R.reach(frozenset((self.prime,)), True)
        return [q for q in sp.spec_points(R) if q in above]

    def symbolic_lying_over(self, p: PrimePoint) -> PrimePoint:
        # Injective quotient maps have a zero kernel, so the map is an
        # isomorphism onto the quotient: lift p to itself.
        return p


class ResidueMap(_PrimeMap):
    def __str__(self) -> str:
        return f"{self.ring} -> k({sp.point_str(self.prime)})"

    def _contract(self, q: PrimePoint) -> PrimePoint:
        if isinstance(q, FieldZero):
            return self.prime
        raise WildPrimeError("residue fields have a single point, (0)")

    def tame_points(self) -> list[PrimePoint]:
        return [FieldZero()]

    def symbolic_lying_over(self, p: PrimePoint) -> PrimePoint:
        # Injective, so the kernel, the prime, is zero: it is p itself.
        return FieldZero()


class _ProductMap(RingMapSpec):
    """R -> prod R/p (up) or prod R_p (down) over the members p of E.

    The tame prime (slot, q) is the prime q of the slot's factor, written
    upstairs: above the slot's member for R/p, below it for R_p.
    """

    subset: SpecSubset

    @property
    def ring(self) -> RingExpr:
        return self.subset.ring

    def __str__(self) -> str:
        factor = "R/p" if self.up else "R_p"
        return f"{self.ring} -> prod {factor} over {sp.subset_str(self.subset)}"

    @cached_property
    def _members(self) -> tuple[PrimePoint, ...]:
        """The members of a finite E, sorted once per map: slot k is the k-th."""
        return tuple(sp.subset_points(self.subset))

    def contract(self, q: PrimePoint) -> PrimePoint:
        if not isinstance(q, TamePrime):
            raise WildPrimeError(f"{sp.point_str(q)} is not tame")
        slot = q.slot
        if type(slot) is int:
            if not 0 <= slot < len(self._members):
                raise WildPrimeError(f"slot {slot} out of range for {sp.subset_str(self.subset)}")
        elif not sp.subset_member(slot, self.subset):
            raise WildPrimeError(f"{sp.point_str(slot)} is not a member of the index set")
        _check_factor_point(self.ring, q.inner, self.up)
        return self._contract(q)

    def _contract(self, q: PrimePoint) -> PrimePoint:
        # The slot names the base point of E: the k-th member, or itself.
        base = self._members[q.slot] if type(q.slot) is int else q.slot
        return _factor_contract(self.ring, base, q.inner, self.up)

    def tame_points(self) -> list[PrimePoint]:
        R = self.ring
        pts = sp.spec_points(R)
        out = []
        for slot, base in enumerate(self._members):
            factor = R.reach(frozenset((base,)), self.up)  # Spec(R/base) or Spec(R_base)
            out += [TamePrime(slot, q) for q in pts if q in factor]
        return out

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
        return _meet_is_zero(self.subset)


class CanonicalIntoLocalProduct(_ProductMap):
    up = False  # Spec(R_p) = {q <= p}

    def is_injective(self) -> bool:
        # The kernel is the meet of the minimal primes below E.
        return top.is_dense(top.order_closure(self.subset, up=False), top.ZARISKI)


class DiagonalIntoModProduct(RingMapSpec):
    """Z/n -> prod Z/d_i; the divisors are checked when the map is built.
    limit, zmod's bound on n, is no field: equality and the hash skip it."""

    n: int
    divisors: tuple[int, ...]

    def __new__(cls, n: int, divisors: tuple[int, ...], limit: int | None = DEFAULT_LIMIT):
        if type(n) is not int or n < 2:  # as rings.zmod, without factoring n
            raise BadArityError("ModRing needs n >= 2")
        if any(d < 1 or n % d != 0 for d in divisors):
            raise KindMismatchError("divisors must be positive and divide n")
        self = tuple.__new__(cls, (n, divisors))
        self.__dict__["limit"] = limit
        return self

    @cached_property
    def source(self) -> RingExpr:
        # Built on first read, not when the map is, so that any map document
        # can be written and read back; n is factored once per map.
        return rings.zmod(self.n, self.limit)

    def __str__(self) -> str:
        return f"Z/{self.n} -> " + " x ".join(f"Z/{d}" for d in self.divisors)

    def contract(self, q: PrimePoint) -> PrimePoint:
        if not isinstance(q, TamePrime) or type(q.slot) is not int:
            raise WildPrimeError(f"{sp.point_str(q)} is not tame")
        if not 0 <= q.slot < len(self.divisors):
            raise WildPrimeError(f"slot {q.slot} out of range")
        if not self.source.has_point(q.inner):
            raise self._not_in_slot(q)
        return self._contract(q)

    def _contract(self, q: PrimePoint) -> PrimePoint:
        # The primes of Z/d are the primes of n that divide d.
        if self.divisors[q.slot] % q.inner.p != 0:
            raise self._not_in_slot(q)
        return q.inner

    def _not_in_slot(self, q: TamePrime) -> KindMismatchError:
        return KindMismatchError(
            f"{sp.point_str(q.inner)} is not a prime of Z/{self.divisors[q.slot]}"
        )

    def tame_points(self) -> list[PrimePoint]:
        # Each d divides n, so the primes of d are the primes of n dividing d.
        primes = [p for p, _ in self.source.factorization]
        return [
            TamePrime(slot, ZmodPrime(p))
            for slot, d in enumerate(self.divisors)
            for p in primes
            if d % p == 0
        ]

    def is_injective(self) -> bool:
        return math.lcm(*self.divisors) == self.n if self.divisors else False


def _ordered(base: PrimePoint, q: PrimePoint, up: bool) -> tuple[PrimePoint, PrimePoint]:
    """(smaller, larger) for a prime q of R/base (up) or R_base (down)."""
    return (base, q) if up else (q, base)


def _check_factor_point(R: RingExpr, q: PrimePoint, up: bool) -> None:
    """Check a prime q of a factor R/p (up) or R_p (down), written upstairs:
    a point of R, or the zero ideal (0) of R/p."""
    if not (up and isinstance(q, FieldZero)):
        R.validate_point(q)


def _factor_contract(R: RingExpr, base: PrimePoint, q: PrimePoint, up: bool) -> PrimePoint:
    """The preimage in R of the prime q of R/base (up) or R_base (down).

    base is a point of R already: the map's prime, checked when the map
    was built, or a member of E, checked when E was or by contract.  q was
    checked by contract, or is a tame prime the map enumerated itself.
    """
    if up and isinstance(q, FieldZero):
        # The zero ideal of R/p pulls back to the kernel.
        return base
    if R._leq(*_ordered(base, q, up)):
        return q
    raise WildPrimeError(
        f"{sp.point_str(q)} is not a prime of the factor at {sp.point_str(base)}"
    )


def _meet_is_zero(E: SpecSubset) -> bool:
    """Whether the members of E meet in 0: the meet is radical and holds the
    nilradical, and its vanishing locus is the Zariski closure of E."""
    return E.ring.is_reduced() and top.is_dense(E, top.ZARISKI)


def _least_slot(E: SpecSubset, p: PrimePoint) -> PrimePoint:
    """A member of E whose localization keeps p, a minimal prime outside E.

    A member keeps p when it lies above p.  Of a finite E the least such
    member is taken; one exists when the map is injective.  Of a cofinite
    E: over Z and GF(p)[x], p outside E is the generic point, so E holds
    closed points only, and the least of them is taken.  On the axes ring
    the map is injective only when E holds the top point or every axis,
    and the top point, above every axis, is taken.
    """
    R = E.ring
    if not E.cofinite:
        return next(q for q in sp.subset_points(E) if R._leq(p, q))
    if E.with_limit:
        return R.limit
    return next(q for q in R.closed_points() if q not in E.points)


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
    if not src.is_enumerable():
        return m.symbolic_lying_over(p)
    # The map's own tame primes need no check: each goes to _contract.
    for q in sorted(tame_points(m), key=sp.point_sort_key):
        if m._contract(q) == p:
            return q
    raise LyingOverNotFoundError("no tame prime lies over the given point")


# ---------------------------------------------------------------------------
# Residue fields and the image through a product of residue fields
# ---------------------------------------------------------------------------


def residue_field(R: RingExpr, p: PrimePoint) -> ResidueField:
    sp.validate_point(p, R)
    return R.residue_field(p)


def residue_product_image(E: SpecSubset) -> SpecSubset:
    """Image of Spec(prod k(p)) -> Spec(R) for the canonical map.

    Independent of the closure rules: finite sets go through residue-map
    contraction, and an infinite set gives itself plus its limit point, by
    the argument below.
    """
    R = E.ring
    if not E.cofinite:
        pts = {contract(ResidueMap(R, p), FieldZero()) for p in E.points}
        return sp._subset(R, pts)
    # The image is E plus the limit point.  Below the family (Z,
    # GF(p)[x]): an excluded q's generator is a unit in every k(p), p in
    # E, yet lies in q, so no prime of the product contracts onto q; the
    # generic point lies over the minimal prime along the canonical map,
    # which is injective: the locus rule puts a nonzero element in only
    # finitely many closed points, so never in every member.  Above it
    # (the axes ring): x_k is zero in every k(p) yet misses P_k; elements
    # of the maximal ideal vanish at cofinitely many axes, hence land in
    # the direct-sum ideal, and any prime above that contracts onto the
    # maximal ideal.
    if R.limit_above:
        for q in E.excluded:
            x_k = rings.var_el(R, q.k)
            if not sp.subset_le(E, sp.v_locus(x_k, R)) or R._contains(q, x_k):
                raise AssertionError("exclusion witnesses must verify")
    elif R.locus(R.prime_element)[1]:
        raise AssertionError("a nonzero element must lie in finitely many family points")
    return sp._subset(R, E.excluded, True)
