"""Ring expressions, exact elements, and ideal arithmetic.

The ring AST covers the concrete rings the closure engine works over:
the integers, residue rings Z/n, prime fields, GF(p)[x], the rationals,
quotients of polynomial rings by square-free monomial ideals (optionally
localized at the irrelevant maximal ideal), finite products, and a
symbolic ring with countably many coordinate axes.  All values are
immutable and all operations are pure functions, so everything here is
safe for concurrent read-only use.

Elements are stored in canonical form: residues in [0, n), polynomials
with no trailing zeros, multivariate terms sorted with every monomial
that lies in the defining ideal deleted.  Arithmetic equality coincides
with structural equality of canonical forms.

Every monomial generator and prime here is square-free, so inside this
module a generator is an int bitmask of its support: bit i-1 stands for
x_i, divisibility is g & ~m == 0 and lcm is u | v.  Exponent tuples stay
wherever monomials meet the outside world (elements, the constructors,
printing, JSON); exp_to_mask, mask_to_exp and mask_support convert.
"""

from __future__ import annotations

import math

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from random import Random

from . import covers, gfpoly
from .errors import (
    BadArityError,
    KindMismatchError,
    UnsupportedError,
)
from .primes import factorint, is_prime, radical

# ---------------------------------------------------------------------------
# Ring AST
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntegerRing:
    def __str__(self) -> str:
        return "Z"


@dataclass(frozen=True)
class RationalField:
    def __str__(self) -> str:
        return "Q"


@dataclass(frozen=True)
class ModRing:
    """Z/n with the factorization of n cached at construction."""

    n: int
    factorization: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n < 2:
            raise BadArityError("ModRing needs n >= 2")
        prod = 1
        for p, e in self.factorization:
            if not is_prime(p) or e < 1:
                raise KindMismatchError(f"bad factorization entry {(p, e)}")
            prod *= p**e
        if prod != self.n:
            raise KindMismatchError(f"factorization inconsistent with n={self.n}")

    def __str__(self) -> str:
        return f"Z/{self.n}"


@dataclass(frozen=True)
class PrimeField:
    p: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise BadArityError(f"{self.p} is not prime")

    def __str__(self) -> str:
        return f"F_{self.p}"


@dataclass(frozen=True)
class PolyRingOverPrimeField:
    """Univariate GF(p)[x]."""

    p: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise BadArityError(f"{self.p} is not prime")

    def __str__(self) -> str:
        return f"F_{self.p}[x]"


@dataclass(frozen=True)
class MonomialQuotient:
    """K[x_1..x_nvars] / (square-free monomials), K a prime field or Q."""

    field: PrimeField | RationalField
    nvars: int
    gens: frozenset[int]

    def __str__(self) -> str:
        exps = sorted(mask_to_exp(g) for g in self.gens)
        gens = ",".join(mono_str(e) for e in exps) or "0"
        return f"{self.field}[x1..x{self.nvars}]/({gens})"


@dataclass(frozen=True)
class LocalizedAtIrrelevant:
    """A monomial quotient localized at (x_1, ..., x_n).

    Only quotients of Krull dimension <= 1 are admitted, which makes the
    whole spectrum enumerable as monomial primes.  Elements are images
    a/1 of quotient elements; that map is injective here because every
    minimal prime sits inside the irrelevant ideal.
    """

    inner: MonomialQuotient

    def __str__(self) -> str:
        return f"({self.inner})_m"


@dataclass(frozen=True)
class Product:
    """Finite direct product; factors are flattened and non-symbolic."""

    factors: tuple["RingExpr", ...]

    def __str__(self) -> str:
        return " x ".join(str(f) for f in self.factors)


@dataclass(frozen=True)
class SymbolicSupplement:
    """K[x_i : i >= 1]/(x_i x_k : i != k) localized at (x_1, x_2, ...).

    The local ring at the origin of countably many coordinate axes,
    represented purely symbolically.  It is reduced, local of dimension
    one, and has one minimal prime per axis.
    """

    field: PrimeField | RationalField

    def __str__(self) -> str:
        return f"Axes({self.field})"


RingExpr = (
    IntegerRing
    | RationalField
    | ModRing
    | PrimeField
    | PolyRingOverPrimeField
    | MonomialQuotient
    | LocalizedAtIrrelevant
    | Product
    | SymbolicSupplement
)

ZZ = IntegerRing()
QQ = RationalField()


def zmod(n: int) -> ModRing:
    return ModRing(n, factorint(n))


def prime_field(p: int) -> PrimeField:
    return PrimeField(p)


def poly_ring(p: int) -> PolyRingOverPrimeField:
    return PolyRingOverPrimeField(p)


def _canonical_exp(exp) -> tuple[int, ...]:
    exp = tuple(int(e) for e in exp)
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
    exp = tuple(int(e) for e in g)
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


def monomial_quotient(
    field: PrimeField | RationalField, nvars: int, gens
) -> MonomialQuotient:
    if nvars < 1:
        raise BadArityError("need nvars >= 1")
    if not isinstance(field, (PrimeField, RationalField)):
        raise KindMismatchError("coefficient field must be a prime field or Q")
    masks = set()
    for g in gens:
        m = _generator_mask(g)
        if not m:
            raise KindMismatchError("constant generator would give the unit ideal")
        if m.bit_length() > nvars:
            raise KindMismatchError("generator uses more variables than nvars")
        masks.add(m)
    return MonomialQuotient(field, nvars, _minimal_masks(masks))


def _dim_at_most_one(R: MonomialQuotient) -> bool:
    """dim <= 1 without enumerating covers: no two-variable set may be
    free of generators (the dimension is the largest generator-free set)."""
    for i in range(R.nvars):
        for j in range(i + 1, R.nvars):
            if not _mask_in(R.gens, 1 << i | 1 << j):
                return False
    return True


def localized(inner: MonomialQuotient) -> LocalizedAtIrrelevant:
    if not _dim_at_most_one(inner):
        raise UnsupportedError(
            "localization is only supported for quotients of dimension <= 1"
        )
    return LocalizedAtIrrelevant(inner)


def product(*factors: RingExpr) -> Product:
    flat: list[RingExpr] = []
    for f in factors:
        if isinstance(f, Product):
            flat.extend(f.factors)
        else:
            flat.append(f)
    if not flat:
        raise BadArityError("a product needs at least one factor")
    if any(isinstance(f, SymbolicSupplement) for f in flat):
        raise UnsupportedError("symbolic axes rings cannot be product factors")
    return Product(tuple(flat))


def symbolic_supplement(field: PrimeField | RationalField) -> SymbolicSupplement:
    if not isinstance(field, (PrimeField, RationalField)):
        raise KindMismatchError("coefficient field must be a prime field or Q")
    return SymbolicSupplement(field)


def mono_support(m: tuple[int, ...]) -> frozenset[int]:
    """Variable indices, 1-based."""
    return frozenset(i + 1 for i, e in enumerate(m) if e)


def mono_str(m: tuple[int, ...]) -> str:
    if not m:
        return "1"
    return "*".join(
        f"x{i + 1}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(m) if e
    )


@lru_cache(maxsize=None)
def quotient_dim(R: MonomialQuotient) -> int:
    """Krull dimension of T/I: nvars minus the minimum vertex cover size."""
    edges = [mask_support(g) for g in R.gens]
    return R.nvars - covers.min_cover_size(edges, R.nvars)


@lru_cache(maxsize=None)
def minimal_cover_sets(R: MonomialQuotient) -> tuple[frozenset[int], ...]:
    edges = [mask_support(g) for g in R.gens]
    return tuple(covers.minimal_covers(edges, R.nvars))


def coefficient_field(R: RingExpr) -> PrimeField | RationalField:
    if isinstance(R, (MonomialQuotient, SymbolicSupplement)):
        return R.field
    if isinstance(R, LocalizedAtIrrelevant):
        return R.inner.field
    raise KindMismatchError(f"{R} has no coefficient field")


# ---------------------------------------------------------------------------
# Elements
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


def _coeff_norm(field: PrimeField | RationalField, c):
    if isinstance(field, PrimeField):
        if isinstance(c, Fraction):
            if c.denominator % field.p == 0:
                raise KindMismatchError("denominator not invertible mod p")
            return c.numerator * pow(c.denominator, -1, field.p) % field.p
        return int(c) % field.p
    return Fraction(c)


def _coeff_add(field, a, b):
    return _coeff_norm(field, (a + b) % field.p if isinstance(field, PrimeField) else a + b)


def _coeff_mul(field, a, b):
    return _coeff_norm(field, (a * b) % field.p if isinstance(field, PrimeField) else a * b)


def _term_killed(R: RingExpr, exp: tuple[int, ...]) -> bool:
    """Whether the monomial lies in the defining ideal and must be deleted."""
    if isinstance(R, LocalizedAtIrrelevant):
        return _term_killed(R.inner, exp)
    if isinstance(R, MonomialQuotient):
        return _mask_in(R.gens, exp_to_mask(exp))
    if isinstance(R, SymbolicSupplement):
        return len(mono_support(exp)) >= 2
    return False


def _mpoly_norm(R: RingExpr, terms) -> MPolyEl:
    field = coefficient_field(R)
    if isinstance(R, (MonomialQuotient, LocalizedAtIrrelevant)):
        nvars = R.nvars if isinstance(R, MonomialQuotient) else R.inner.nvars
    else:
        nvars = None
    acc: dict[tuple[int, ...], object] = {}
    for c, exp in terms:
        exp = _canonical_exp(exp)
        if nvars is not None and len(exp) > nvars:
            raise KindMismatchError("monomial uses more variables than the ring has")
        c = _coeff_norm(field, c)
        if exp in acc:
            acc[exp] = _coeff_add(field, acc[exp], c)
        else:
            acc[exp] = c
    cleaned = [
        (c, e)
        for e, c in acc.items()
        if c != 0 and not _term_killed(R, e)
    ]
    return MPolyEl(tuple(sorted(cleaned, key=lambda t: t[1])))


def normalize(e: El, R: RingExpr) -> El:
    """Canonical form of e as an element of R.

    Idempotent; two elements are equal in R exactly when their canonical
    forms are identical.
    """
    if isinstance(R, IntegerRing):
        if not isinstance(e, IntEl):
            raise KindMismatchError(f"expected an integer element, got {e}")
        return IntEl(int(e.v))
    if isinstance(R, RationalField):
        if not isinstance(e, RatEl):
            raise KindMismatchError(f"expected a rational element, got {e}")
        return RatEl(Fraction(e.v))
    if isinstance(R, (ModRing, PrimeField)):
        if not isinstance(e, ModEl):
            raise KindMismatchError(f"expected a residue element, got {e}")
        n = R.n if isinstance(R, ModRing) else R.p
        return ModEl(e.v % n)
    if isinstance(R, PolyRingOverPrimeField):
        if not isinstance(e, PolyEl):
            raise KindMismatchError(f"expected a polynomial element, got {e}")
        return PolyEl(gfpoly.trim(e.coeffs, R.p))
    if isinstance(R, (MonomialQuotient, LocalizedAtIrrelevant, SymbolicSupplement)):
        if not isinstance(e, MPolyEl):
            raise KindMismatchError(f"expected a multivariate element, got {e}")
        return _mpoly_norm(R, ((c, exp) for c, exp in e.terms))
    if isinstance(R, Product):
        if not isinstance(e, TupleEl) or len(e.items) != len(R.factors):
            raise KindMismatchError("tuple arity does not match the product")
        return TupleEl(tuple(normalize(x, f) for x, f in zip(e.items, R.factors)))
    raise UnsupportedError(f"unknown ring {R}")


def zero(R: RingExpr) -> El:
    return from_int(R, 0)


def one(R: RingExpr) -> El:
    return from_int(R, 1)


def from_int(R: RingExpr, k: int) -> El:
    """Image of the integer k in R."""
    if isinstance(R, IntegerRing):
        return IntEl(k)
    if isinstance(R, RationalField):
        return RatEl(Fraction(k))
    if isinstance(R, ModRing):
        return ModEl(k % R.n)
    if isinstance(R, PrimeField):
        return ModEl(k % R.p)
    if isinstance(R, PolyRingOverPrimeField):
        return PolyEl(gfpoly.trim((k,), R.p))
    if isinstance(R, (MonomialQuotient, LocalizedAtIrrelevant, SymbolicSupplement)):
        return _mpoly_norm(R, [(k, ())])
    if isinstance(R, Product):
        return TupleEl(tuple(from_int(f, k) for f in R.factors))
    raise UnsupportedError(f"unknown ring {R}")


def var_el(R: RingExpr, i: int, e: int = 1, coeff=1) -> El:
    """The monomial coeff * x_i^e in a multivariate ring (i is 1-based)."""
    exp = (0,) * (i - 1) + (e,)
    return _mpoly_norm(R, [(coeff, exp)])


def mpoly_el(R: RingExpr, term_map: dict) -> El:
    """Element from {exponent tuple: coefficient}."""
    return _mpoly_norm(R, [(c, e) for e, c in term_map.items()])


def add(R: RingExpr, a: El, b: El) -> El:
    if isinstance(R, IntegerRing):
        return IntEl(a.v + b.v)
    if isinstance(R, RationalField):
        return RatEl(a.v + b.v)
    if isinstance(R, ModRing):
        return ModEl((a.v + b.v) % R.n)
    if isinstance(R, PrimeField):
        return ModEl((a.v + b.v) % R.p)
    if isinstance(R, PolyRingOverPrimeField):
        return PolyEl(gfpoly.add(a.coeffs, b.coeffs, R.p))
    if isinstance(R, (MonomialQuotient, LocalizedAtIrrelevant, SymbolicSupplement)):
        return _mpoly_norm(R, list(a.terms) + list(b.terms))
    if isinstance(R, Product):
        return TupleEl(tuple(add(f, x, y) for f, x, y in zip(R.factors, a.items, b.items)))
    raise UnsupportedError(f"unknown ring {R}")


def neg(R: RingExpr, a: El) -> El:
    return mul(R, from_int(R, -1), a)


def sub(R: RingExpr, a: El, b: El) -> El:
    return add(R, a, neg(R, b))


def mul(R: RingExpr, a: El, b: El) -> El:
    if isinstance(R, IntegerRing):
        return IntEl(a.v * b.v)
    if isinstance(R, RationalField):
        return RatEl(a.v * b.v)
    if isinstance(R, ModRing):
        return ModEl((a.v * b.v) % R.n)
    if isinstance(R, PrimeField):
        return ModEl((a.v * b.v) % R.p)
    if isinstance(R, PolyRingOverPrimeField):
        return PolyEl(gfpoly.mul(a.coeffs, b.coeffs, R.p))
    if isinstance(R, (MonomialQuotient, LocalizedAtIrrelevant, SymbolicSupplement)):
        field = coefficient_field(R)
        prods = []
        for ca, ea in a.terms:
            for cb, eb in b.terms:
                n = max(len(ea), len(eb))
                ea_p = ea + (0,) * (n - len(ea))
                eb_p = eb + (0,) * (n - len(eb))
                prods.append((_coeff_mul(field, ca, cb), tuple(x + y for x, y in zip(ea_p, eb_p))))
        return _mpoly_norm(R, prods)
    if isinstance(R, Product):
        return TupleEl(tuple(mul(f, x, y) for f, x, y in zip(R.factors, a.items, b.items)))
    raise UnsupportedError(f"unknown ring {R}")


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


# ---------------------------------------------------------------------------
# Unit / nilpotent / regular predicates
# ---------------------------------------------------------------------------


def is_unit(r: El, R: RingExpr) -> bool:
    """Whether r is invertible in R.

    For an unlocalized monomial quotient the rule (nonzero constant term
    and every other monomial inside every minimal prime) is exact only in
    dimension <= 1, so higher-dimensional quotients are rejected.
    """
    r = normalize(r, R)
    if isinstance(R, IntegerRing):
        return r.v in (1, -1)
    if isinstance(R, RationalField):
        return r.v != 0
    if isinstance(R, ModRing):
        return math.gcd(r.v, R.n) == 1
    if isinstance(R, PrimeField):
        return r.v != 0
    if isinstance(R, PolyRingOverPrimeField):
        return gfpoly.deg(r.coeffs) == 0
    if isinstance(R, MonomialQuotient):
        if quotient_dim(R) > 1:
            raise UnsupportedError("unit test is exact only in dimension <= 1")
        if constant_term(r) == 0:
            return False
        mins = minimal_cover_sets(R)
        return all(
            e == () or all(mono_support(e) & c for c in mins) for _, e in r.terms
        )
    if isinstance(R, (LocalizedAtIrrelevant, SymbolicSupplement)):
        # Local ring: units are exactly the elements outside the maximal ideal.
        return constant_term(r) != 0
    if isinstance(R, Product):
        return all(is_unit(x, f) for x, f in zip(r.items, R.factors))
    raise UnsupportedError(f"unknown ring {R}")


def is_nilpotent(r: El, R: RingExpr) -> bool:
    r = normalize(r, R)
    if isinstance(R, (IntegerRing, RationalField, PrimeField, PolyRingOverPrimeField)):
        return r == zero(R)
    if isinstance(R, ModRing):
        return all(r.v % p == 0 for p, _ in R.factorization)
    if isinstance(R, (MonomialQuotient, LocalizedAtIrrelevant, SymbolicSupplement)):
        # Square-free defining ideal: the ring is reduced, and reduction
        # already deleted every monomial of the ideal.
        return r.terms == ()
    if isinstance(R, Product):
        return all(is_nilpotent(x, f) for x, f in zip(r.items, R.factors))
    raise UnsupportedError(f"unknown ring {R}")


def is_regular(r: El, R: RingExpr) -> bool:
    """Whether r is a non zero-divisor."""
    r = normalize(r, R)
    if isinstance(R, IntegerRing):
        return r.v != 0
    if isinstance(R, RationalField):
        return r.v != 0
    if isinstance(R, ModRing):
        # p | r for some prime power p^e of n would kill n/p^e * ... ; the
        # regular elements of a finite ring are its units.
        return math.gcd(r.v, R.n) == 1
    if isinstance(R, PrimeField):
        return r.v != 0
    if isinstance(R, PolyRingOverPrimeField):
        return r.coeffs != ()
    if isinstance(R, Product):
        return all(is_regular(x, f) for x, f in zip(r.items, R.factors))
    raise UnsupportedError("is_regular is not defined for monomial kinds")


# ---------------------------------------------------------------------------
# Ideals
# ---------------------------------------------------------------------------


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


def principal_ideal(R: RingExpr, gen: El) -> PrincipalIdeal:
    gen = normalize(gen, R)
    if isinstance(R, IntegerRing):
        return PrincipalIdeal(IntEl(abs(gen.v)))
    if isinstance(R, ModRing):
        return PrincipalIdeal(ModEl(math.gcd(gen.v, R.n) % R.n))
    if isinstance(R, (PrimeField, RationalField)):
        return PrincipalIdeal(one(R) if not is_zero(R, gen) else zero(R))
    if isinstance(R, PolyRingOverPrimeField):
        return PrincipalIdeal(PolyEl(gfpoly.monic(gen.coeffs, R.p)))
    raise UnsupportedError("principal ideals live over Z, Z/n, fields and GF(p)[x]")


def monomial_ideal(gens) -> MonomialIdeal:
    """The ideal generated by square-free exponent tuples."""
    return MonomialIdeal(_minimal_masks({_generator_mask(g) for g in gens}))


def _mask_in(gens: frozenset[int], m: int) -> bool:
    """Whether some generator divides the monomial m."""
    return any(g & ~m == 0 for g in gens)


def ideal_member(I: IdealRepr, r: El, R: RingExpr) -> bool:
    r = normalize(r, R)
    if isinstance(I, PrincipalIdeal):
        g = I.gen
        if isinstance(R, IntegerRing):
            return r.v == 0 if g.v == 0 else r.v % g.v == 0
        if isinstance(R, ModRing):
            return r.v == 0 if g.v == 0 else r.v % g.v == 0
        if isinstance(R, (PrimeField, RationalField)):
            return True if not is_zero(R, g) else is_zero(R, r)
        if isinstance(R, PolyRingOverPrimeField):
            if g.coeffs == ():
                return r.coeffs == ()
            return gfpoly.divides(g.coeffs, r.coeffs, R.p)
        raise KindMismatchError(f"principal ideal incompatible with {R}")
    if isinstance(I, MonomialIdeal):
        if not isinstance(R, (MonomialQuotient, LocalizedAtIrrelevant, SymbolicSupplement)):
            raise KindMismatchError(f"monomial ideal incompatible with {R}")
        return all(_mask_in(I.gens, exp_to_mask(e)) for _, e in r.terms)
    raise KindMismatchError(f"unknown ideal {I}")


def ideal_intersect(I: IdealRepr, J: IdealRepr, R: RingExpr) -> IdealRepr:
    """Intersection; folds associatively to finite intersections."""
    if isinstance(I, MonomialIdeal) and isinstance(J, MonomialIdeal):
        return MonomialIdeal(_minimal_masks({u | v for u in I.gens for v in J.gens}))
    if isinstance(I, PrincipalIdeal) and isinstance(J, PrincipalIdeal):
        a, b = I.gen, J.gen
        if isinstance(R, IntegerRing):
            return principal_ideal(R, IntEl(abs(a.v * b.v) // math.gcd(a.v, b.v) if a.v and b.v else 0))
        if isinstance(R, ModRing):
            if a.v == 0 or b.v == 0:
                return PrincipalIdeal(ModEl(0))
            return principal_ideal(R, ModEl(a.v * b.v // math.gcd(a.v, b.v)))
        if isinstance(R, PolyRingOverPrimeField):
            if a.coeffs == () or b.coeffs == ():
                return PrincipalIdeal(PolyEl(()))
            g = gfpoly.gcd(a.coeffs, b.coeffs, R.p)
            return principal_ideal(R, PolyEl(gfpoly.divmod_(gfpoly.mul(a.coeffs, b.coeffs, R.p), g, R.p)[0]))
        if isinstance(R, (PrimeField, RationalField)):
            if is_zero(R, a) or is_zero(R, b):
                return PrincipalIdeal(zero(R))
            return PrincipalIdeal(one(R))
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
    if isinstance(R, (MonomialQuotient, LocalizedAtIrrelevant)):
        inner = R.inner if isinstance(R, LocalizedAtIrrelevant) else R
        return all(_mask_in(inner.gens, m) for m in I.gens)
    return not I.gens


def ideal_contains(I: IdealRepr, J: IdealRepr, R: RingExpr) -> bool:
    """I >= J, decided on generators."""
    if isinstance(I, MonomialIdeal) and isinstance(J, MonomialIdeal):
        return all(_mask_in(I.gens, m) for m in J.gens)
    if isinstance(I, PrincipalIdeal) and isinstance(J, PrincipalIdeal):
        return ideal_member(I, J.gen, R)
    raise KindMismatchError("ideal kinds do not match")


def nilradical(R: RingExpr) -> IdealRepr:
    """The ideal of nilpotents, for the kinds whose spectra need it."""
    if isinstance(R, ModRing):
        return PrincipalIdeal(ModEl(radical(R.n) % R.n))
    if isinstance(R, IntegerRing):
        return PrincipalIdeal(IntEl(0))
    if isinstance(R, (PrimeField, RationalField)):
        return PrincipalIdeal(zero(R))
    if isinstance(R, PolyRingOverPrimeField):
        return PrincipalIdeal(PolyEl(()))
    if isinstance(R, MonomialQuotient):
        # Square-free generators: the intersection of the minimal monomial
        # primes is the defining ideal itself, i.e. zero in the quotient.
        return MonomialIdeal(R.gens)
    raise UnsupportedError(
        "nilradical is unsupported here; products go through the product-law check"
    )


# ---------------------------------------------------------------------------
# Element sampling and display
# ---------------------------------------------------------------------------


def sample_elements(R: RingExpr, rng: Random, count: int) -> list[El]:
    """Deterministic pseudo-random canonical elements, for property checks."""
    out = []
    for _ in range(count):
        out.append(_sample_one(R, rng))
    return out


def _sample_one(R: RingExpr, rng: Random) -> El:
    if isinstance(R, IntegerRing):
        return IntEl(rng.randint(-60, 60))
    if isinstance(R, RationalField):
        return RatEl(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
    if isinstance(R, ModRing):
        return ModEl(rng.randrange(R.n))
    if isinstance(R, PrimeField):
        return ModEl(rng.randrange(R.p))
    if isinstance(R, PolyRingOverPrimeField):
        return PolyEl(gfpoly.trim([rng.randrange(R.p) for _ in range(rng.randint(0, 4))], R.p))
    if isinstance(R, (MonomialQuotient, LocalizedAtIrrelevant, SymbolicSupplement)):
        nvars = 6 if isinstance(R, SymbolicSupplement) else (
            R.nvars if isinstance(R, MonomialQuotient) else R.inner.nvars
        )
        field = coefficient_field(R)
        terms = []
        for _ in range(rng.randint(0, 3)):
            exp = [0] * rng.randint(1, nvars)
            exp[-1] = rng.randint(1, 2)
            if rng.random() < 0.3 and len(exp) > 1:
                exp[rng.randrange(len(exp) - 1)] = 1
            c = rng.randint(1, field.p - 1) if isinstance(field, PrimeField) else rng.randint(-3, 3)
            terms.append((c, tuple(exp)))
        if rng.random() < 0.5:
            terms.append((rng.randint(0, 3), ()))
        return _mpoly_norm(R, terms)
    if isinstance(R, Product):
        return TupleEl(tuple(_sample_one(f, rng) for f in R.factors))
    raise UnsupportedError(f"unknown ring {R}")


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
