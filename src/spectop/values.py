"""The values the engine computes with: prime points, ring elements and
ideals, in canonical form, with their printing.

What a value means in a given ring, and the arithmetic on it, is a rule
of that ring's family (rings); the element and ideal functions here ask
the ring.  rings re-exports every name, so rings.normalize, rings.IntEl
and the like are the public spelling.  All values are immutable.

Every monomial generator and prime is square-free, so a generator is an
int bitmask of its support: bit i-1 stands for x_i, divisibility is
g & ~m == 0 and lcm is u | v.  Exponent tuples stay wherever monomials
meet the outside world (elements, the constructors, printing, JSON);
exp_to_mask, mask_to_exp and mask_support convert.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import TYPE_CHECKING

from . import gfpoly
from .errors import KindMismatchError

if TYPE_CHECKING:
    from .rings import RingExpr


def _int(v, what: str) -> int:
    """An integer field or index: an int, an integral number or a decimal
    string; never a boolean."""
    if type(v) is int:
        return v
    number = isinstance(v, (int, str)) or isinstance(v, float) and v.is_integer()
    if number and not isinstance(v, bool):
        try:
            return int(v)
        except ValueError:
            pass
    raise KindMismatchError(f"{what} must be an integer, got {v!r}")


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


# ---------------------------------------------------------------------------
# Elements and ideals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntEl:
    v: int


@dataclass(frozen=True)
class RatEl:
    v: Fraction


@dataclass(frozen=True)
class ModEl:
    v: int


@dataclass(frozen=True)
class PolyEl:
    coeffs: tuple[int, ...]


@dataclass(frozen=True)
class MPolyEl:
    """Sparse terms ((coeff, exponent tuple), ...) sorted by exponent."""

    terms: tuple[tuple[object, tuple[int, ...]], ...]


@dataclass(frozen=True)
class TupleEl:
    items: tuple["El", ...]


El = IntEl | RatEl | ModEl | PolyEl | MPolyEl | TupleEl


@dataclass(frozen=True)
class PrincipalIdeal:
    gen: El


@dataclass(frozen=True)
class MonomialIdeal:
    """Square-free monomial ideal by its minimal generators, as masks.

    Inside a monomial quotient this represents the image ideal; the zero
    ideal of the quotient is the defining ideal itself.
    """

    gens: frozenset[int]


IdealRepr = PrincipalIdeal | MonomialIdeal


@dataclass(frozen=True)
class ResidueField:
    """A residue field k(p): printable label plus a concrete ring when one exists."""

    label: str
    ring: RingExpr | None


# ---------------------------------------------------------------------------
# Exponent tuples and monomial masks
# ---------------------------------------------------------------------------


def _canonical_exp(exp) -> tuple[int, ...]:
    exp = tuple(_int(e, "exponent") for e in exp)
    while exp and exp[-1] == 0:
        exp = exp[:-1]
    if any(e < 0 for e in exp):
        raise KindMismatchError("negative exponent")
    return exp


def exp_to_mask(exp) -> int:
    """Bitmask of the support of an exponent tuple; for a square-free
    monomial this is the monomial itself."""
    mask = 0
    for i, e in enumerate(exp):
        if e:
            mask |= 1 << i
    return mask


def mask_to_exp(mask: int) -> tuple[int, ...]:
    """The canonical exponent tuple (no trailing zeros) of a mask."""
    return tuple(mask >> i & 1 for i in range(mask.bit_length()))


def mask_support(mask: int) -> frozenset[int]:
    """Variable indices of a mask, 1-based."""
    return frozenset(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def _generator_mask(g) -> int:
    """Mask of a generator given as an exponent tuple; square-free only."""
    exp = tuple(_int(e, "exponent") for e in g)
    if any(e not in (0, 1) for e in exp):
        raise KindMismatchError("only square-free monomial generators are admitted")
    return exp_to_mask(exp)


def _minimal_masks(masks) -> frozenset[int]:
    """The masks no other mask divides.  A proper divisor is a proper
    subset of the bits, hence a smaller int, so one pass in increasing
    order against the masks kept so far suffices."""
    kept: list[int] = []
    for m in sorted(masks):
        if all(k & ~m for k in kept):
            kept.append(m)
    return frozenset(kept)


def _mask_in(gens: frozenset[int], m: int) -> bool:
    """Whether some generator divides the monomial m."""
    return any(g & ~m == 0 for g in gens)


def mono_support(m: tuple[int, ...]) -> frozenset[int]:
    """Variable indices, 1-based."""
    return frozenset(i + 1 for i, e in enumerate(m) if e)


def mono_str(m: tuple[int, ...]) -> str:
    if not m:
        return "1"
    return "*".join(
        f"x{i + 1}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(m) if e
    )


# ---------------------------------------------------------------------------
# Element arithmetic, by the ring's rules
# ---------------------------------------------------------------------------


def normalize(e: El, R: RingExpr) -> El:
    """Canonical form of e as an element of R.

    Idempotent; two elements are equal in R exactly when their canonical
    forms are identical.
    """
    return R.normalize(e)


def zero(R: RingExpr) -> El:
    return R.from_int(0)


def one(R: RingExpr) -> El:
    return R.from_int(1)


def var_el(R: RingExpr, i: int, e: int = 1, coeff=1) -> El:
    """The monomial coeff * x_i^e in a multivariate ring (i is 1-based)."""
    exp = (0,) * (i - 1) + (e,)
    return R.reduce_terms([(coeff, exp)])


def mpoly_el(R: RingExpr, term_map: dict) -> El:
    """Element from {exponent tuple: coefficient}."""
    return R.reduce_terms([(c, e) for e, c in term_map.items()])


def add(R: RingExpr, a: El, b: El) -> El:
    return R.add(R.normalize(a), R.normalize(b))


def neg(R: RingExpr, a: El) -> El:
    return mul(R, R.from_int(-1), a)


def sub(R: RingExpr, a: El, b: El) -> El:
    return add(R, a, neg(R, b))


def mul(R: RingExpr, a: El, b: El) -> El:
    return R.mul(R.normalize(a), R.normalize(b))


def power(R: RingExpr, a: El, k: int) -> El:
    if k < 0:
        raise KindMismatchError("negative powers are not supported")
    result = one(R)
    base = a
    while k:
        if k & 1:
            result = mul(R, result, base)
        base = mul(R, base, base)
        k >>= 1
    return result


def is_zero(R: RingExpr, a: El) -> bool:
    return normalize(a, R) == zero(R)


def constant_term(a: MPolyEl):
    for c, e in a.terms:
        if e == ():
            return c
    return 0


def is_unit(r: El, R: RingExpr) -> bool:
    """Whether r is invertible in R."""
    return R.is_unit(R.normalize(r))


def is_nilpotent(r: El, R: RingExpr) -> bool:
    return R.is_nilpotent(R.normalize(r))


def is_regular(r: El, R: RingExpr) -> bool:
    """Whether r is a non zero-divisor."""
    return R.is_regular(R.normalize(r))


# ---------------------------------------------------------------------------
# Ideals
# ---------------------------------------------------------------------------


def principal_ideal(R: RingExpr, gen: El) -> PrincipalIdeal:
    return R.principal_ideal(normalize(gen, R))


def monomial_ideal(gens) -> MonomialIdeal:
    """The ideal generated by square-free exponent tuples."""
    return MonomialIdeal(_minimal_masks({_generator_mask(g) for g in gens}))


def ideal_member(I: IdealRepr, r: El, R: RingExpr) -> bool:
    r = normalize(r, R)
    if isinstance(I, PrincipalIdeal):
        return R.principal_member(I.gen, r)
    if isinstance(I, MonomialIdeal):
        return R.monomial_member(I.gens, r)
    raise KindMismatchError(f"unknown ideal {I}")


def ideal_intersect(I: IdealRepr, J: IdealRepr, R: RingExpr) -> IdealRepr:
    """Intersection; folds associatively to finite intersections.

    Monomial ideals meet in the lcms u | v of their generators.  A
    generator of one side that lies in the other divides every lcm it
    takes part in, so it is kept as it is and only the remaining pairs
    are formed; the minimal generating set is the same.
    """
    if isinstance(I, MonomialIdeal) and isinstance(J, MonomialIdeal):
        I_in = {u for u in I.gens if _mask_in(J.gens, u)}
        J_in = {v for v in J.gens if _mask_in(I.gens, v)}
        lcms = {u | v for u in I.gens - I_in for v in J.gens - J_in}
        return MonomialIdeal(_minimal_masks(I_in | J_in | lcms))
    if isinstance(I, PrincipalIdeal) and isinstance(J, PrincipalIdeal):
        return R.principal_intersect(I.gen, J.gen)
    raise KindMismatchError("ideal kinds do not match")


def ideal_intersect_all(ideals, R: RingExpr) -> IdealRepr:
    ideals = list(ideals)
    acc = ideals[0]
    for nxt in ideals[1:]:
        acc = ideal_intersect(acc, nxt, R)
    return acc


def ideal_is_zero(I: IdealRepr, R: RingExpr) -> bool:
    """Whether I is the zero ideal of R (for quotients: contained in the defining ideal)."""
    if isinstance(I, PrincipalIdeal):
        return is_zero(R, I.gen)
    return R.monomial_ideal_is_zero(I.gens)


def ideal_contains(I: IdealRepr, J: IdealRepr, R: RingExpr) -> bool:
    """I >= J, decided on generators."""
    if isinstance(I, MonomialIdeal) and isinstance(J, MonomialIdeal):
        return all(_mask_in(I.gens, m) for m in J.gens)
    if isinstance(I, PrincipalIdeal) and isinstance(J, PrincipalIdeal):
        return ideal_member(I, J.gen, R)
    raise KindMismatchError("ideal kinds do not match")


def nilradical(R: RingExpr) -> IdealRepr:
    """The ideal of nilpotents, for the kinds whose spectra need it."""
    return R.nilradical()


# ---------------------------------------------------------------------------
# Element sampling and display
# ---------------------------------------------------------------------------


def sample_elements(R: RingExpr, rng: Random, count: int) -> list[El]:
    """Deterministic pseudo-random canonical elements, for property checks."""
    return [R.sample_element(rng) for _ in range(count)]


def el_str(e: El, R: RingExpr) -> str:
    if isinstance(e, IntEl):
        return str(e.v)
    if isinstance(e, RatEl):
        return str(e.v)
    if isinstance(e, ModEl):
        return str(e.v)
    if isinstance(e, PolyEl):
        return gfpoly.poly_str(e.coeffs)
    if isinstance(e, MPolyEl):
        if not e.terms:
            return "0"
        parts = []
        for c, exp in e.terms:
            if exp == ():
                parts.append(str(c))
            elif c == 1:
                parts.append(mono_str(exp))
            else:
                parts.append(f"{c}*{mono_str(exp)}")
        return " + ".join(parts)
    if isinstance(e, TupleEl):
        inner = ", ".join(el_str(x, f) for x, f in zip(e.items, R.factors))
        return f"({inner})"
    return str(e)
