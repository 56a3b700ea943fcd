"""The coordinate-axes local rings and their verification toolkit.

build_supplement(K, n) constructs K[x_1..x_n]/(x_i x_k : i != k)
localized at (x_1..x_n): the local ring at the origin of n coordinate
axes.  Its minimal primes are the ideals I_k = (x_i : i != k), one per
axis, the defining ideal is their intersection, and the ring is reduced
of Krull dimension one.  These facts are checked here for n up to
AXES_N_BOUND, and against brute-force oracles at desk scale.

Prime absorbance (a prime that contains the intersection of a family of
primes contains a member) and prime avoidance (a prime inside the union
of a family lies inside a member) are decided for any subset of a
spectrum by comparing its closures.  Both hold for every finite family.
On the infinite axes ring absorbance holds for every set of axes, and
avoidance fails for every infinite set of axes without m.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from . import covers, rings
from . import spectrum as sp
from . import topology as top
from .errors import BadArityError, KindMismatchError, TooManyVarsError
from .rings import (
    LocalizedAtIrrelevant,
    MonomialIdeal,
    PrimeField,
    RationalField,
    RingExpr,
)
from .spectrum import MonoPrime, Record, SpecSubset

# The largest n of an axes ring.  A first report takes 0.03 s at n = 64
# and 0.2 s at n = 128 (check=False, a 2-vCPU Intel Xeon VM, Python 3.11);
# the balanced intersection fold is 0.07 s of the latter, and alone takes
# 0.5 s at n = 256.  Raising the bound would change which inputs are accepted.
AXES_N_BOUND = 128


def _check_axes_n(n: int) -> None:
    if n < 1:
        raise BadArityError("the axes construction needs n >= 1")
    if n > AXES_N_BOUND:
        raise TooManyVarsError(f"n = {n} exceeds the axes-ring bound {AXES_N_BOUND}")


def _pair_masks(n: int) -> frozenset[int]:
    """The products x_i x_k with i < k <= n, as masks."""
    return frozenset(1 << i | 1 << k for i, k in combinations(range(n), 2))


def build_supplement(field: PrimeField | RationalField, n: int) -> LocalizedAtIrrelevant:
    """The n-axes local ring; n = 1 degenerates to K[x]_(x)."""
    _check_axes_n(n)
    return rings.localized(rings.mask_quotient(field, n, _pair_masks(n)))


def supplement_is_degenerate(n: int) -> bool:
    """n = 1 gives the zero ideal, a valuation-like ring the statements skip."""
    return n == 1


def minimal_primes_monomial(
    ideal, nvars: int, check: bool = True
) -> list[MonoPrime]:
    """Minimal primes of a monomial ideal, as minimal vertex covers.

    The ideal is a MonomialIdeal or an iterable of square-free exponent
    tuples, in the variables x_1..x_nvars; the unit ideal has no primes
    and is refused.  With check=True (the default) the result is compared
    against covers.brute_force_minimal_covers, which decides all 2^nvars
    vertex sets at once as the bits of one int and so caps nvars at
    covers.ORACLE_VAR_BOUND; pass check=False to skip the oracle.
    """
    if not isinstance(ideal, MonomialIdeal):
        ideal = rings.monomial_ideal(ideal)
    if 0 in ideal.gens:
        raise KindMismatchError("the unit ideal has no minimal primes")
    if any(g.bit_length() > nvars for g in ideal.gens):
        raise KindMismatchError(f"a generator uses more than {nvars} variables")
    if check and nvars > covers.ORACLE_VAR_BOUND:
        raise TooManyVarsError(
            f"{nvars} variables exceeds the oracle bound; pass check=False (--no-oracle)"
        )
    if check and not _covers_match_oracle(ideal.gens, nvars):
        raise AssertionError(
            f"cover enumeration disagrees with the subset oracle on {sorted(ideal.gens)}"
        )
    return [MonoPrime(rings.mask_support(c)) for c in rings.minimal_cover_masks(ideal.gens)]


# The oracle's verdict depends on the masks alone, so the axes rings over
# different fields share one 2^nvars scan; sized as the cover memo it checks.
@lru_cache(maxsize=rings._RING_MEMO_SIZE)
def _covers_match_oracle(gens: frozenset[int], nvars: int) -> bool:
    return list(rings.minimal_cover_masks(gens)) == covers.brute_force_minimal_covers(gens, nvars)


@lru_cache(maxsize=AXES_N_BOUND)
def verify_intersection(n: int) -> bool:
    """Whether (x_i x_k : i != k) equals the intersection of the axis
    ideals I_k = (x_i : i != k), for 1 <= n <= AXES_N_BOUND.

    The identity is one of masks, the same over every field, so it is
    decided once per n; the ring over Q only fills ideal_intersect_all's
    signature.  The ideals are met pairwise in rounds as a balanced
    tree: after round r each meet covers a block B of up to 2^r
    consecutive axes and is (x_i : i not in B) plus the pairs x_i x_k
    with i, k in B, so every mask in the fold has at most two bits, and
    no meet but the last holds all n(n-1)/2 pairs.
    """
    _check_axes_n(n)
    ambient = rings.mask_quotient(rings.QQ, n, ())
    variables = [1 << i for i in range(n)]
    axis_ideals = [MonomialIdeal(frozenset(variables) - {v}) for v in variables]
    meet = rings.ideal_intersect_all(axis_ideals, ambient)
    return meet == MonomialIdeal(_pair_masks(n))


def krull_dim(R: RingExpr) -> int:
    """Longest chain of primes; each ring family states it by formula."""
    return R.krull_dim()


def is_reduced(R: RingExpr) -> bool:
    """Whether the nilradical vanishes."""
    return R.is_reduced()


# ---------------------------------------------------------------------------
# Prime absorbance (P.Z.) and prime avoidance (C.P.)
# ---------------------------------------------------------------------------


def absorbance_holds(E: SpecSubset) -> bool:
    """Prime absorbance on E: every prime that contains the intersection
    of the members of E contains one of them.

    The primes that contain the intersection form V(∩E), the Zariski
    closure of E, and the primes that contain a member form the up
    closure of E, so the statement reads "the Zariski closure of E lies
    in the up closure of E".  A finite E holds by prime avoidance.  Over
    Z and GF(p)[x] an infinite set of closed points meets in (0), since a
    nonzero element has finitely many prime factors; (0) lies above no
    closed point, so E holds exactly when it holds (0).  On the axes ring
    the Zariski closure of an infinite set of axes adds only m, which
    lies above every axis, so E holds.
    """
    if not E.cofinite:
        return True
    return sp.subset_le(top.zariski_closure(E), top.order_closure(E, up=True))


def avoidance_holds(E: SpecSubset) -> bool:
    """Prime avoidance on E, the compact packing of Reis and Viswanathan
    (1970): every prime inside the union of the members of E lies inside
    one of them.

    A finite E holds by prime avoidance.  An infinite E holds exactly
    when its flat closure lies in its down closure.  Over Z and GF(p)[x]
    a nonzero prime (π) inside the union has π in a member, which is then
    (π) itself, and (0) lies in every member, so E holds; the flat
    closure adds only (0), which lies below every closed point.  On the
    axes ring each element of m involves finitely many x_i, so it lies in
    P_k for every k outside them: m, and with it every prime, lies inside
    the union of an infinite set of axes P_k, while m lies inside no P_k.
    So E holds exactly when it holds m, and the flat closure of E is the
    whole spectrum.
    """
    if not E.cofinite:
        return True
    return sp.subset_le(top.flat_closure(E), top.order_closure(E, up=False))


# ---------------------------------------------------------------------------
# Full report
# ---------------------------------------------------------------------------


class SupplementReport(Record):
    """All four axes-ring statements checked for one (field, n)."""

    __slots__ = ()
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
        axes = frozenset(range(1, self.n + 1))
        mins_match = set(self.minimal_primes) == {MonoPrime(axes - {k}) for k in axes}
        return (
            self.intersection_ok
            and (mins_match or self.degenerate)
            and self.dim == 1
            and self.reduced
            and self.pz_ok
        )


def supplement_report(
    field: PrimeField | RationalField, n: int, check: bool = True
) -> SupplementReport:
    # build_supplement checks n against AXES_N_BOUND before the ring is
    # built; with check=True the cover oracle's bound of 20 variables is
    # checked before any cover search.  The minimal primes and the
    # dimension that krull_dim reads share one cover search, and all
    # fields share the intersection identity and the oracle's verdict.
    ring = build_supplement(field, n)
    mins = minimal_primes_monomial(MonomialIdeal(ring.gens), n, check=check)
    return SupplementReport(
        n, str(field), supplement_is_degenerate(n), verify_intersection(n),
        tuple(mins), krull_dim(ring), is_reduced(ring), absorbance_holds(sp.whole(ring)),
    )
