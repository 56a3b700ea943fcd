"""The coordinate-axes local rings and their verification toolkit.

build_supplement(K, n) constructs K[x_1..x_n]/(x_i x_k : i != k)
localized at (x_1..x_n): the local ring at the origin of n coordinate
axes.  Its minimal primes are the ideals I_k = (x_i : i != k), one per
axis, the defining ideal is their intersection, the ring is reduced of
Krull dimension one, and every prime containing an intersection of
minimal primes contains one of them (infinite prime absorbance).  All
four facts are checked here at desk scale against brute-force oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from . import covers, rings
from . import spectrum as sp
from .errors import (
    BadArityError,
    SpectrumTooLargeError,
    TooManyVarsError,
)
from .rings import (
    LocalizedAtIrrelevant,
    MonomialIdeal,
    PrimeField,
    RationalField,
    RingExpr,
)
from .spectrum import MonoPrime, PrimePoint

SPECTRUM_BOUND = 20


def supplement_gens(n: int) -> frozenset[tuple[int, ...]]:
    """Exponent vectors of all products x_i x_k with i < k <= n."""
    gens = set()
    for i, k in combinations(range(1, n + 1), 2):
        exp = [0] * k
        exp[i - 1] = 1
        exp[k - 1] = 1
        gens.add(tuple(exp))
    return frozenset(gens)


def build_supplement(field: PrimeField | RationalField, n: int) -> LocalizedAtIrrelevant:
    """The n-axes local ring; n = 1 degenerates to K[x]_(x)."""
    if n < 1:
        raise BadArityError("the axes construction needs n >= 1")
    inner = rings.monomial_quotient(field, n, supplement_gens(n))
    return rings.localized(inner)


def supplement_is_degenerate(n: int) -> bool:
    """n = 1 gives the zero ideal, a valuation-like ring the statements skip."""
    return n == 1


def minimal_primes_monomial(
    ideal, nvars: int, check: bool = True
) -> list[MonoPrime]:
    """Minimal primes of a monomial ideal, as minimal vertex covers.

    The ideal is a MonomialIdeal or an iterable of square-free exponent
    tuples.  With check=True (the default) the result is compared against
    the 2^nvars subset-scan oracle, which caps nvars; pass check=False to
    skip the oracle.
    """
    if not isinstance(ideal, MonomialIdeal):
        ideal = rings.monomial_ideal(ideal)
    edges = [rings.mask_support(g) for g in ideal.gens]
    fast = covers.minimal_covers(edges, nvars)
    if check:
        if nvars > covers.ORACLE_VAR_BOUND:
            raise TooManyVarsError(
                f"{nvars} variables exceeds the oracle bound; pass check=False"
            )
        oracle = covers.brute_force_minimal_covers(edges, nvars)
        if fast != oracle:
            raise AssertionError(
                f"cover enumeration disagrees with the subset oracle on {edges}"
            )
    return [MonoPrime(c) for c in fast]


def verify_intersection(n: int, field: PrimeField | RationalField) -> bool:
    """Whether (x_i x_k : i != k) equals the intersection of the I_k."""
    if n < 1:
        raise BadArityError("need n >= 1")
    if n > 12:
        raise TooManyVarsError("intersection fold is capped at n = 12")
    ambient = rings.monomial_quotient(field, n, frozenset())
    axis_ideals = []
    for k in range(1, n + 1):
        exps = {(0,) * (i - 1) + (1,) for i in range(1, n + 1) if i != k}
        axis_ideals.append(rings.monomial_ideal(exps))
    meet = rings.ideal_intersect_all(axis_ideals, ambient)
    return meet == rings.monomial_ideal(supplement_gens(n))


def krull_dim(R: RingExpr) -> int:
    """Longest chain of primes: enumerated when possible, else by formula."""
    if not R.is_enumerable():
        return R.krull_dim()
    memo: dict[PrimePoint, int] = {}

    def depth(p: PrimePoint) -> int:
        if p not in memo:
            below = R.down_points(p) - {p}
            memo[p] = 1 + max(depth(q) for q in below) if below else 0
        return memo[p]

    return max((depth(p) for p in sp.spec_points(R)), default=0)


def is_reduced(R: RingExpr) -> bool:
    """Whether the nilradical vanishes."""
    return R.is_reduced()


# ---------------------------------------------------------------------------
# Prime absorbance (P.Z.) and prime avoidance (C.P.)
# ---------------------------------------------------------------------------


def _family_intersection_contained(
    family: list[PrimePoint], q: PrimePoint, R: RingExpr
) -> bool:
    """Whether the intersection of the family's ideals sits inside q's ideal."""
    return R.meet_inside(family, q)


def _validated(points, R: RingExpr) -> list[PrimePoint]:
    # The caller's points, checked once: the loops below compare them
    # with R._leq and R._contains.
    pts = list(points)
    for p in pts:
        sp.validate_point(p, R)
    return pts


def absorbance_holds(points: list[PrimePoint], R: RingExpr) -> bool:
    """Infinite prime absorbance over an explicit family of primes.

    For every nonempty subfamily F and every prime q in the list, if the
    intersection of F is contained in q then some member of F is.  Tame
    primes of a product meet slot by slot, so over a product the statement
    holds exactly when it holds in every factor.
    """
    points = _validated(points, R)
    return all(_absorbance_walk(pts, f) for f, pts in R.slots(points))


def _absorbance_walk(pts: list[PrimePoint], R: RingExpr) -> bool:
    """The subset walk shares intersection prefixes, so each node costs one
    ideal intersection."""
    n = len(pts)
    ideals = [sp.point_ideal(p, R) for p in pts]
    below = [
        sum(1 << i for i in range(n) if R._leq(pts[i], pts[j]))
        for j in range(n)
    ]

    def walk(i: int, mask: int, meet) -> bool:
        if i == n:
            if mask == 0:
                return True
            # When a member of the family lies in q_j the implication
            # holds, so only the other q_j need the containment test.
            for j in range(n):
                if not (below[j] & mask) and rings.ideal_contains(ideals[j], meet, R):
                    return False
            return True
        if not walk(i + 1, mask, meet):
            return False
        nxt = ideals[i] if meet is None else rings.ideal_intersect(meet, ideals[i], R)
        return walk(i + 1, mask | (1 << i), nxt)

    return walk(0, 0, None)


def _degree_le2_members(q: PrimePoint, R: RingExpr):
    """Monomials of total degree <= 2 lying in q, for the union test."""
    variables = R.monomial_variables()
    out = []
    exps = [(0,) * (i - 1) + (1,) for i in variables]
    exps += [(0,) * (i - 1) + (2,) for i in variables]
    for i, k in combinations(variables, 2):
        e = [0] * k
        e[i - 1] = 1
        e[k - 1] = 1
        exps.append(tuple(e))
    for e in exps:
        el = rings.mpoly_el(R, {e: 1})
        if rings.is_zero(R, el):
            continue
        if R._contains(q, el):
            out.append(el)
    return out


def avoidance_holds(points: list[PrimePoint], R: RingExpr) -> bool:
    """Prime-family avoidance over an explicit family, on a decidable fragment.

    "q is inside the union of the family" is tested on the generators of
    q plus, on monomial rings, every monomial of degree <= 2 inside q.
    This overapproximates union membership (sums of generators are not
    sampled), so avoidance verdicts are conservative; the fragment is
    exact on chains and on Z/n.  Membership of every sample element in
    every listed prime is computed once; the subset sweep is then pure
    bitmask work.
    """
    pts = _validated(points, R)
    n = len(pts)
    sample_masks: list[list[int]] = []
    for q in pts:
        samples = R.point_ideal_generators(q) + _degree_le2_members(q, R)
        masks = []
        for el in samples:
            if rings.is_zero(R, el):
                continue
            masks.append(
                sum(1 << i for i in range(n) if R._contains(pts[i], el))
            )
        sample_masks.append(masks)
    above = [
        sum(1 << i for i in range(n) if R._leq(pts[j], pts[i]))
        for j in range(n)
    ]
    for family in range(1, 1 << n):
        for j in range(n):
            if not (above[j] & family) and all(mask & family for mask in sample_masks[j]):
                return False
    return True


def _bounded_spec(R: RingExpr) -> list[PrimePoint]:
    pts = sp.spec_points(R)
    if len(pts) > SPECTRUM_BOUND:
        raise SpectrumTooLargeError(f"|Spec| = {len(pts)} exceeds {SPECTRUM_BOUND}")
    return pts


def pz_check(R: RingExpr) -> bool:
    """Infinite prime absorbance over the whole (enumerated) spectrum."""
    return absorbance_holds(_bounded_spec(R), R)


def cp_check(R: RingExpr) -> bool:
    """Prime avoidance over the whole (enumerated) spectrum, conservative."""
    return avoidance_holds(_bounded_spec(R), R)


# ---------------------------------------------------------------------------
# Full report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SupplementReport:
    """All four axes-ring statements checked for one (field, n)."""

    n: int
    field: str
    degenerate: bool
    intersection_ok: bool
    minimal_primes: tuple[MonoPrime, ...]
    dim: int
    reduced: bool
    pz_ok: bool

    @property
    def all_ok(self) -> bool:
        expected = tuple(
            MonoPrime(frozenset(range(1, self.n + 1)) - {k})
            for k in range(1, self.n + 1)
        )
        mins_match = set(self.minimal_primes) == set(expected) or self.degenerate
        return (
            self.intersection_ok
            and mins_match
            and self.dim == 1
            and self.reduced
            and self.pz_ok
        )


def supplement_report(
    field: PrimeField | RationalField, n: int, check: bool = True
) -> SupplementReport:
    ring = build_supplement(field, n)
    mins = minimal_primes_monomial(MonomialIdeal(ring.inner.gens), n, check=check)
    return SupplementReport(
        n=n,
        field=str(field),
        degenerate=supplement_is_degenerate(n),
        intersection_ok=verify_intersection(n, field),
        minimal_primes=tuple(mins),
        dim=krull_dim(ring),
        reduced=is_reduced(ring),
        pz_ok=pz_check(ring),
    )
