"""Ring families: each ring class owns its family's rules.

The ring AST covers the concrete rings the closure engine works over:
the integers, residue rings Z/n, prime fields, GF(p)[x], the rationals,
quotients of polynomial rings by square-free monomial ideals (optionally
localized at the irrelevant maximal ideal), finite products, and a
symbolic ring with countably many coordinate axes.  Each ring class owns
its family's rules: element arithmetic, which points its spectrum has and
how they are ordered, membership, and the family facts the closure,
image and lying-over operators ask for.  Families that share rules share
a base class, and a rule a family lacks raises from RingExpr.  All values
are immutable and all operations are pure functions, so everything here
is safe for concurrent read-only use.

Elements are stored in canonical form: residues in [0, n), polynomials
with no trailing zeros, multivariate terms sorted with every monomial
that lies in the defining ideal deleted.  Arithmetic equality coincides
with structural equality of canonical forms.  The values themselves
(points, elements, ideals) and the element and ideal functions that
dispatch to these rules are in values; every name there is re-exported
here, which is where callers find them.
"""

from __future__ import annotations

import math

from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations, compress, islice
from random import Random

from . import covers, gfpoly
from .errors import (
    BadArityError,
    KindMismatchError,
    NonEnumerableError,
    UnsupportedError,
)
from .primes import DEFAULT_LIMIT, factorint, is_proven_prime, next_prime, prime_factors
from .values import (  # the values and their functions are named from here too
    El,
    FieldZero,
    FpxGeneric,
    FpxMax,
    IdealRepr,
    IntEl,
    ModEl,
    MonoPrime,
    MonomialIdeal,
    MPolyEl,
    PolyEl,
    PrimePoint,
    PrincipalIdeal,
    RatEl,
    Record,
    ResidueField,
    SuppMin,
    SuppTop,
    TamePrime,
    TupleEl,
    ZGeneric,
    ZmodPrime,
    ZMax,
    _canonical_exp,
    _generator_mask,
    _int,
    _mask_in,
    _minimal_masks,
    constant_term,
    el_str,
    exp_to_mask,
    ideal_contains,
    ideal_intersect,
    ideal_intersect_all,
    ideal_is_zero,
    ideal_member,
    is_nilpotent,
    is_unit,
    is_zero,
    mask_support,
    mask_to_exp,
    mono_str,
    mono_support,
    monomial_ideal,
    normalize,
    one,
    point_sort_key,
    point_str,
    principal_ideal,
    sample_elements,
    sorted_points,
    var_el,
    zero,
)

# Rationales of the every-infinite-subset-is-dense verdicts.
FACTORIZATION_FINITE = "FactorizationFinite"
FINITE_SPECTRUM = "FiniteSpectrum"
FINITE_SUPPORT = "FiniteSupport"
COUNTEREXAMPLE = "CounterexampleElement"

# ---------------------------------------------------------------------------
# Ring families
# ---------------------------------------------------------------------------


class RingExpr(Record):
    """A concrete ring: the rules every family shares, and the refusal of
    each rule some family lacks.

    Element arguments of the rule methods are already in canonical form;
    the module-level functions normalize first.  Point arguments are
    points of this ring: the spectrum functions that take a point from the
    caller validate it first, and loops over the ring's own points call
    _leq and _contains directly.  The order is read through reach alone,
    for a one-point set as for any other, and each family gives its Krull
    dimension (krull_dim) by formula.  A ring is a Record of its fields.
    """

    # Infinite spectrum: subsets are given by representation rules.
    symbolic = False
    # The limit point of a symbolic spectrum (see _Symbolic), and its side
    # of the order: above the infinite family (the maximal ideal of the
    # axes ring), or below it (the generic point of Z and GF(p)[x]).
    limit = None
    limit_above = False

    # -- elements ----------------------------------------------------------

    def reduce_terms(self, terms) -> MPolyEl:
        raise KindMismatchError(f"{self} has no coefficient field")

    def power(self, a: El, k: int) -> El:
        """a^k by square-and-multiply over mul; a negative k is refused."""
        if k < 0:
            raise KindMismatchError("negative powers are not supported")
        result = self.from_int(1)
        while k:
            if k & 1:
                result = self.mul(result, a)
            k >>= 1
            if k:
                a = self.mul(a, a)
        return result

    def is_nilpotent(self, r: El) -> bool:
        # Every family but Z/n and products is reduced.
        return r == self.from_int(0)

    def is_reduced(self) -> bool:
        return True

    def principal_ideal(self, gen: El) -> PrincipalIdeal:
        raise UnsupportedError("principal ideals live over Z, Z/n, fields and GF(p)[x]")

    def principal_member(self, g: El, r: El) -> bool:
        raise KindMismatchError(f"principal ideal incompatible with {self}")

    def principal_intersect(self, a: El, b: El) -> PrincipalIdeal:
        raise KindMismatchError("ideal kinds do not match")

    def monomial_member(self, gens: frozenset[int], r: El) -> bool:
        raise KindMismatchError(f"monomial ideal incompatible with {self}")

    def monomial_ideal_is_zero(self, gens: frozenset[int]) -> bool:
        raise KindMismatchError(f"monomial ideal incompatible with {self}")

    # -- points ------------------------------------------------------------

    def validate_point(self, p: PrimePoint) -> None:
        """Check that p denotes a prime of this ring; raise KindMismatchError otherwise."""
        if not self.has_point(p):
            raise KindMismatchError(f"{point_str(p)} is not a point of {self}")

    def point_ideal(self, p: PrimePoint) -> IdealRepr:
        raise UnsupportedError(f"no ideal representation for points of {self}")

    def is_enumerable(self) -> bool:
        return False

    def _enumerate(self) -> list[PrimePoint]:
        """Every point, in any order; enumerable rings only.  Read through
        _spectrum_table, never directly."""
        raise NonEnumerableError(f"{self} has a symbolic spectrum")

    @cached_property
    def _spectrum_table(self) -> tuple[PrimePoint, ...]:
        """The sorted spectrum, enumerated on first read and kept on the
        instance's __dict__, as is the order table: a ring compares and
        hashes on its fields only.  A ring that cannot be enumerated
        raises on every read, since cached_property keeps no exception."""
        return tuple(sorted_points(self._enumerate()))

    @cached_property
    def _order_table(self) -> tuple[dict[PrimePoint, frozenset], ...]:
        """Two maps from each point: to the frozenset of the points above
        it, and to that of the points below it; _leq is asked once per pair."""
        pts = self._spectrum_table
        rows = [[self._leq(p, q) for q in pts] for p in pts]  # row p: p <= q
        return (
            {p: frozenset(compress(pts, row)) for p, row in zip(pts, rows)},
            {p: frozenset(compress(pts, col)) for p, col in zip(pts, zip(*rows))},
        )

    def sample_points(self, rng, count: int) -> list[PrimePoint]:
        pts = self._spectrum_table
        return [pts[rng.randrange(len(pts))] for _ in range(count)]

    def reach(self, points: frozenset, up: bool, cofinite: bool = False) -> frozenset | None:
        """The points above some point of the set (points, cofinite) (up), or
        below one, as the points of a set with the same flag; None when that
        is every point.  Each family states its order here, once, for a
        whole set; this base unions the rows of the ring's order table.  It
        and _ZeroDimensional ignore the flag: _subset stores no set of an
        enumerable spectrum as cofinite."""
        ups, downs = self._order_table
        return frozenset().union(*map((ups if up else downs).__getitem__, points))

    def locus(self, r: El) -> tuple[set[PrimePoint], bool]:
        """(points, complement): V(r) is the finite set `points`, or its
        complement when `complement` is set."""
        if not self.is_enumerable():
            raise NonEnumerableError(f"no locus rule over {self}")
        return {p for p in self._spectrum_table if self._contains(p, r)}, False

    def is_minimal_prime(self, p: PrimePoint) -> bool:
        return self.reach(frozenset((p,)), False) == {p}

    def density_rule(self, zariski: bool) -> tuple[bool, El | None, str]:
        """(holds, witness, rationale) for "every infinite subset is dense"
        in the Zariski (else the flat) topology."""
        if not self.is_enumerable():
            raise UnsupportedError(f"no density criterion for {self}")
        # No infinite subsets exist at all.
        return True, None, FINITE_SPECTRUM


def _int_divides(g: int, r: int) -> bool:
    return r == 0 if g == 0 else r % g == 0


class _Residue(RingExpr):
    """Residue arithmetic modulo n: Z/n, and F_p as Z/p."""

    def normalize(self, e: El) -> El:
        if not isinstance(e, ModEl):
            raise KindMismatchError(f"expected a residue element, got {e}")
        return ModEl(_int(e.v, "residue") % self.modulus)

    def from_int(self, k: int) -> El:
        return ModEl(k % self.modulus)

    def mul(self, a: El, b: El) -> El:
        return ModEl((a.v * b.v) % self.modulus)

    def power(self, a: El, k: int) -> El:
        if k < 0:  # pow would invert a
            raise KindMismatchError("negative powers are not supported")
        return ModEl(pow(a.v, k, self.modulus))

    def sample_element(self, rng: Random) -> El:
        return ModEl(rng.randrange(self.modulus))


class _ZeroDimensional(RingExpr):
    """Z/n and the fields: every prime is both maximal and minimal, so the
    order is equality and no order table is built for them."""

    def _leq(self, p: PrimePoint, q: PrimePoint) -> bool:
        return p == q

    def reach(self, points: frozenset, up: bool, cofinite: bool = False) -> frozenset | None:
        return points

    def krull_dim(self) -> int:
        return 0


class _Field(_ZeroDimensional):
    """Q and F_p: one point, (0), and every nonzero element a unit."""

    def is_unit(self, r: El) -> bool:
        return r != self.from_int(0)

    def principal_ideal(self, gen: El) -> PrincipalIdeal:
        return PrincipalIdeal(self.from_int(0 if is_zero(self, gen) else 1))

    def principal_member(self, g: El, r: El) -> bool:
        return not is_zero(self, g) or is_zero(self, r)

    def principal_intersect(self, a: El, b: El) -> PrincipalIdeal:
        return PrincipalIdeal(self.from_int(0 if is_zero(self, a) or is_zero(self, b) else 1))

    def has_point(self, p: PrimePoint) -> bool:
        return isinstance(p, FieldZero)

    def _contains(self, p: PrimePoint, r: El) -> bool:
        return is_zero(self, r)

    def point_ideal(self, p: PrimePoint) -> IdealRepr:
        return PrincipalIdeal(self.from_int(0))

    def is_enumerable(self) -> bool:
        return True

    def _enumerate(self) -> list[PrimePoint]:
        return [FieldZero()]

    def residue_field(self, p: PrimePoint) -> ResidueField:
        return ResidueField(str(self), self)


class _Symbolic(RingExpr):
    """An infinite family of pairwise incomparable points plus one limit
    point, above every family point when limit_above is set and below every
    one otherwise.  The two sides mirror each other (the flat topology is
    the Zariski topology of the reversed order, Hochster 1969), so the
    order, sampling, locus shape and dimension are stated once here; reach
    states the order for finite and cofinite sets alike.  A family gives
    limit and limit_above, has_point, membership, residue fields,
    density_rule, _random_family_point(rng) and _family_locus(r): for r
    neither zero nor a unit, the finite set of family points that V(r)
    holds, or misses when the limit is above."""

    symbolic = True

    def _leq(self, p: PrimePoint, q: PrimePoint) -> bool:
        return p == q or (q if self.limit_above else p) == self.limit

    def reach(self, points: frozenset, up: bool, cofinite: bool = False) -> frozenset | None:
        """Family points reach only themselves and, toward the limit's side,
        the limit.  So away from that side a set that holds the limit
        reaches every point (None), and toward it a nonempty set gains the
        limit."""
        holds = (self.limit in points) != cofinite
        if up != self.limit_above:
            return None if holds else points
        return points if holds or not (points or cofinite) else points ^ {self.limit}

    def sample_points(self, rng, count: int) -> list[PrimePoint]:
        return [
            self.limit if rng.random() < 0.15 else self._random_family_point(rng)
            for _ in range(count)
        ]

    def locus(self, r: El) -> tuple[set[PrimePoint], bool]:
        if r == self.from_int(0):
            return set(), True
        if self.is_unit(r):
            return set(), False
        return self._family_locus(r), self.limit_above

    def krull_dim(self) -> int:
        return 1


class _Dedekind(_Symbolic):
    """Z and GF(p)[x]: a generic point under infinitely many closed points,
    which factoring finds.  Every point is a principal prime: a family
    gives its generator, 0 at the generic point."""

    def _contains(self, p: PrimePoint, r: El) -> bool:
        return self.principal_member(self._generator(p), r)

    def point_ideal(self, p: PrimePoint) -> IdealRepr:
        return principal_ideal(self, self._generator(p))

    def density_rule(self, zariski: bool) -> tuple[bool, El | None, str]:
        if zariski:
            # Factoring a nonzero element leaves a finite vanishing locus.
            return True, None, FACTORIZATION_FINITE
        return False, self.prime_element, COUNTEREXAMPLE


class IntegerRing(_Dedekind):
    limit = ZGeneric()
    prime_element = IntEl(2)

    def __str__(self) -> str:
        return "Z"

    def normalize(self, e: El) -> El:
        if not isinstance(e, IntEl):
            raise KindMismatchError(f"expected an integer element, got {e}")
        return IntEl(_int(e.v, "integer element"))

    def from_int(self, k: int) -> El:
        return IntEl(k)

    def mul(self, a: El, b: El) -> El:
        return IntEl(a.v * b.v)

    def is_unit(self, r: El) -> bool:
        return r.v in (1, -1)

    def principal_ideal(self, gen: El) -> PrincipalIdeal:
        return PrincipalIdeal(IntEl(abs(gen.v)))

    def principal_member(self, g: El, r: El) -> bool:
        return _int_divides(g.v, r.v)

    def principal_intersect(self, a: El, b: El) -> PrincipalIdeal:
        return principal_ideal(self, IntEl(math.lcm(a.v, b.v)))

    def sample_element(self, rng: Random) -> El:
        return IntEl(rng.randint(-60, 60))

    def has_point(self, p: PrimePoint) -> bool:
        return isinstance(p, ZGeneric) or (
            isinstance(p, ZMax) and type(p.p) is int and is_proven_prime(p.p)
        )

    def _generator(self, p: PrimePoint) -> El:
        return IntEl(0 if p == self.limit else p.p)

    def closed_points(self):
        """The closed points in canonical order."""
        q = 2
        while True:
            yield ZMax(q)
            q = next_prime(q)

    def _random_family_point(self, rng) -> PrimePoint:
        return ZMax(_PRIME_POOL[rng.randrange(len(_PRIME_POOL))])

    def _family_locus(self, r: El) -> set[PrimePoint]:
        return {ZMax(q) for q in prime_factors(r.v)}

    def residue_field(self, p: PrimePoint) -> ResidueField:
        if p == self.limit:
            return ResidueField("Q", QQ)
        return ResidueField(f"F_{p.p}", PrimeField(p.p))


class RationalField(_Field):
    def __str__(self) -> str:
        return "Q"

    def normalize(self, e: El) -> El:
        if not isinstance(e, RatEl):
            raise KindMismatchError(f"expected a rational element, got {e}")
        return RatEl(_coeff_norm(self, e.v))

    def from_int(self, k: int) -> El:
        return RatEl(Fraction(k))

    def mul(self, a: El, b: El) -> El:
        return RatEl(a.v * b.v)

    def sample_element(self, rng: Random) -> El:
        return RatEl(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))


class ModRing(_Residue, _ZeroDimensional):
    """Z/n with the factorization of n cached at construction.

    The constructor is internal: build Z/n with zmod, whose factors are
    the primes factorint certified.  They are not tested again here;
    only the exponents and their product are checked."""

    n: int
    factorization: tuple[tuple[int, int], ...]

    def __new__(cls, n: int, factorization: tuple[tuple[int, int], ...]):
        if n < 2:
            raise BadArityError("ModRing needs n >= 2")
        prod = 1
        for p, e in factorization:
            if e < 1:
                raise KindMismatchError(f"bad factorization entry {(p, e)}")
            prod *= p**e
        if prod != n:
            raise KindMismatchError(f"factorization inconsistent with n={n}")
        return tuple.__new__(cls, (n, factorization))

    def __str__(self) -> str:
        return f"Z/{self.n}"

    @property
    def modulus(self) -> int:
        return self.n

    def is_unit(self, r: El) -> bool:
        return math.gcd(r.v, self.n) == 1

    def is_nilpotent(self, r: El) -> bool:
        # Nilpotent iff every prime of n divides r, that is, the radical does.
        return r.v % self._radical == 0

    def is_reduced(self) -> bool:
        return all(e == 1 for _, e in self.factorization)

    def principal_ideal(self, gen: El) -> PrincipalIdeal:
        return PrincipalIdeal(ModEl(math.gcd(gen.v, self.n) % self.n))

    def principal_member(self, g: El, r: El) -> bool:
        return _int_divides(g.v, r.v)

    def principal_intersect(self, a: El, b: El) -> PrincipalIdeal:
        return principal_ideal(self, ModEl(math.lcm(a.v, b.v)))

    @cached_property
    def _radical(self) -> int:
        """The product of the primes dividing n."""
        return math.prod(p for p, _ in self.factorization)

    @cached_property
    def _primes(self) -> frozenset[int]:
        """The primes dividing n, as factorint certified them in zmod."""
        return frozenset(q for q, _ in self.factorization)

    def has_point(self, p: PrimePoint) -> bool:
        return isinstance(p, ZmodPrime) and type(p.p) is int and p.p in self._primes

    def _contains(self, p: PrimePoint, r: El) -> bool:
        return r.v % p.p == 0

    def point_ideal(self, p: PrimePoint) -> IdealRepr:
        return principal_ideal(self, ModEl(p.p))

    def is_enumerable(self) -> bool:
        return True

    def _enumerate(self) -> list[PrimePoint]:
        return [ZmodPrime(p) for p, _ in self.factorization]

    def residue_field(self, p: PrimePoint) -> ResidueField:
        return ResidueField(f"F_{p.p}", PrimeField(p.p))


class PrimeField(_Residue, _Field):
    p: int

    def __new__(cls, p: int):
        if not is_proven_prime(p):
            raise BadArityError(f"{p} is not prime")
        return tuple.__new__(cls, (p,))

    def __str__(self) -> str:
        return f"F_{self.p}"

    @property
    def modulus(self) -> int:
        return self.p


class PolyRingOverPrimeField(_Dedekind):
    """Univariate GF(p)[x]."""

    p: int

    limit = FpxGeneric()
    prime_element = PolyEl((0, 1))

    def __new__(cls, p: int):
        if not is_proven_prime(p):
            raise BadArityError(f"{p} is not prime")
        return tuple.__new__(cls, (p,))

    def __str__(self) -> str:
        return f"F_{self.p}[x]"

    def normalize(self, e: El) -> El:
        if not isinstance(e, PolyEl):
            raise KindMismatchError(f"expected a polynomial element, got {e}")
        return PolyEl(gfpoly.trim([_int(c, "coefficient") for c in e.coeffs], self.p))

    def from_int(self, k: int) -> El:
        return PolyEl(gfpoly.trim((k,), self.p))

    def mul(self, a: El, b: El) -> El:
        return PolyEl(gfpoly.mul(a.coeffs, b.coeffs, self.p))

    def is_unit(self, r: El) -> bool:
        return gfpoly.deg(r.coeffs) == 0

    def principal_ideal(self, gen: El) -> PrincipalIdeal:
        return PrincipalIdeal(PolyEl(gfpoly.monic(gen.coeffs, self.p)))

    def principal_member(self, g: El, r: El) -> bool:
        if g.coeffs == ():
            return r.coeffs == ()
        return gfpoly.divides(g.coeffs, r.coeffs, self.p)

    def principal_intersect(self, a: El, b: El) -> PrincipalIdeal:
        if a.coeffs == () or b.coeffs == ():
            return PrincipalIdeal(PolyEl(()))
        g = gfpoly.gcd(a.coeffs, b.coeffs, self.p)
        lcm = gfpoly.divmod_(gfpoly.mul(a.coeffs, b.coeffs, self.p), g, self.p)[0]
        return principal_ideal(self, PolyEl(lcm))

    def sample_element(self, rng: Random) -> El:
        return PolyEl(
            gfpoly.trim([rng.randrange(self.p) for _ in range(rng.randint(0, 4))], self.p)
        )

    def has_point(self, p: PrimePoint) -> bool:
        if isinstance(p, FpxGeneric):
            return True
        # Non-int, unreduced, untrimmed or non-monic coefficients name no
        # point; irreducibility is only tested on a canonical polynomial.
        return (
            isinstance(p, FpxMax)
            and all(type(c) is int for c in p.coeffs)
            and p.coeffs == gfpoly.trim(p.coeffs, self.p)
            and p.coeffs[-1:] == (1,)
            and gfpoly.is_irreducible(p.coeffs, self.p)
        )

    def _generator(self, p: PrimePoint) -> El:
        return PolyEl(() if p == self.limit else p.coeffs)

    def closed_points(self):
        """The closed points in canonical order."""
        for f in gfpoly.irreducibles(self.p):
            yield FpxMax(f)

    def _random_family_point(self, rng) -> PrimePoint:
        return FpxMax(_random_irreducible(self.p, rng))

    def _family_locus(self, r: El) -> set[PrimePoint]:
        return {FpxMax(f) for f, _ in gfpoly.factor(r.coeffs, self.p)}

    def residue_field(self, p: PrimePoint) -> ResidueField:
        if p == self.limit:
            return ResidueField(f"F_{self.p}(x)", None)
        d = gfpoly.deg(p.coeffs)
        if d == 1:
            return ResidueField(f"F_{self.p}", PrimeField(self.p))
        return ResidueField(f"GF({self.p}^{d})", None)


def _is_power_of(k: int, p: int) -> bool:
    """Whether k = p^j for some j >= 0."""
    while k > 1 and k % p == 0:
        k //= p
    return k == 1


def _coeff_norm(field: PrimeField | RationalField, c):
    """c in the field: an int or a Fraction, or a finite float read as the
    Fraction it equals (as jsonio reads one); a bool is refused."""
    if type(c) is not int and not isinstance(c, Fraction):
        c = Fraction(c) if isinstance(c, float) and math.isfinite(c) else _int(c, "coefficient")
    if isinstance(field, RationalField):
        return Fraction(c)
    if type(c) is int:
        return c % field.p
    if c.denominator % field.p == 0:
        raise KindMismatchError("denominator not invertible mod p")
    return c.numerator * pow(c.denominator, -1, field.p) % field.p


class _Monomial(RingExpr):
    """The three monomial kinds: K[x_1, x_2, ...] modulo square-free
    monomials, elements kept as sparse terms with every monomial of the
    defining ideal deleted.  Square-free generators make them reduced.
    Subclasses give field, nvars (None: unbounded) and _kills_mask."""

    def reduce_terms(self, terms) -> MPolyEl:
        field, nvars, kills = self.field, self.nvars, self._kills_mask
        acc: dict[tuple[int, ...], object] = {}
        for c, exp in terms:
            exp = _canonical_exp(exp)
            if nvars is not None and len(exp) > nvars:
                raise KindMismatchError("monomial uses more variables than the ring has")
            c = _coeff_norm(field, c)
            if not kills(exp_to_mask(exp)):
                acc[exp] = acc.get(exp, 0) + c
        return self._element(acc)

    def _element(self, acc: dict[tuple[int, ...], object]) -> MPolyEl:
        """The element with the coefficient sums acc {exponent: sum}, none of
        whose monomials lies in the defining ideal: residues mod p, or
        fractions over Q."""
        if isinstance(self.field, PrimeField):
            p = self.field.p
            terms = [(c % p, exp) for exp, c in acc.items() if c % p]
        else:
            terms = [(Fraction(c), exp) for exp, c in acc.items() if c]
        return MPolyEl(tuple(sorted(terms, key=lambda t: t[1])))

    def normalize(self, e: El) -> El:
        if not isinstance(e, MPolyEl):
            raise KindMismatchError(f"expected a multivariate element, got {e}")
        return self.reduce_terms(e.terms)

    def from_int(self, k: int) -> El:
        return self.reduce_terms([(k, ())])

    def is_nilpotent(self, r: El) -> bool:
        # Reduced, so only zero is nilpotent, and canonical zero has no terms.
        return not r.terms

    def mul(self, a: El, b: El) -> El:
        # The support of a product monomial is the union of its factors'
        # supports, so a product the ring kills is dropped before its
        # exponent is built.  Reduced operands have canonical exponents (no
        # trailing zeros), so each sum, padded with the longer exponent's
        # tail, is canonical too.
        kills = self._kills_mask
        right = [(cb, eb, exp_to_mask(eb)) for cb, eb in b.terms]
        acc: dict[tuple[int, ...], object] = {}
        for ca, ea in a.terms:
            ma = exp_to_mask(ea)
            for cb, eb, mb in right:
                if kills(ma | mb):
                    continue
                short, long = (ea, eb) if len(ea) <= len(eb) else (eb, ea)
                exp = tuple(x + y for x, y in zip(short, long)) + long[len(short):]
                acc[exp] = acc.get(exp, 0) + ca * cb
        return self._element(acc)

    def power(self, a: El, k: int) -> El:
        # Over F_p the Frobenius a -> a^p is a ring map fixing F_p, so for
        # k = p^j the power is the sum of the terms' powers, each with its
        # coefficient.  A power keeps its monomial's support, so no term
        # is killed, no two merge, and scaled exponents keep their order.
        if isinstance(self.field, PrimeField) and _is_power_of(k, self.field.p):
            return MPolyEl(tuple((c, tuple(e * k for e in exp)) for c, exp in a.terms))
        return super().power(a, k)

    def is_unit(self, r: El) -> bool:
        # Local ring: units are exactly the elements outside the maximal ideal.
        return constant_term(r) != 0

    def monomial_member(self, gens: frozenset[int], r: El) -> bool:
        return all(_mask_in(gens, exp_to_mask(e)) for _, e in r.terms)

    def monomial_ideal_is_zero(self, gens: frozenset[int]) -> bool:
        return all(self._kills_mask(g) for g in gens)

    def sample_element(self, rng: Random) -> El:
        """Up to three terms x_k or x_k^2, each at times with one lower
        variable, then at times a constant; built canonical as drawn.  An
        exponent ends in a nonzero entry within nvars and a coefficient is
        drawn in range, so no term needs reduce_terms' checks: a monomial
        the ring kills (by the mask of its drawn positions) is dropped,
        equal exponents are summed, and 1 lies in no proper ideal."""
        nvars = self.nvars or 6  # the axes ring: sample from its first six axes
        kills = self._kills_mask
        p = self.field.p if isinstance(self.field, PrimeField) else None
        acc: dict[tuple[int, ...], object] = {}
        for _ in range(rng.randint(0, 3)):
            k = rng.randint(1, nvars)
            exp = [0] * k
            exp[-1] = rng.randint(1, 2)
            mask = 1 << (k - 1)
            if rng.random() < 0.3 and k > 1:
                i = rng.randrange(k - 1)
                exp[i] = 1
                mask |= 1 << i
            c = rng.randint(1, p - 1) if p else rng.randint(-3, 3)
            if not kills(mask):
                exp = tuple(exp)
                acc[exp] = acc.get(exp, 0) + c
        if rng.random() < 0.5:
            acc[()] = rng.randint(0, 3)
        return self._element(acc)


class _Quotient(_Monomial):
    """K[x_1..x_nvars] modulo square-free monomials, K a prime field or Q,
    localized or not; gens are the minimal generator masks.  Its monomial
    primes are (x_i : i in cover), one per vertex cover of the generators.
    Every minimal prime lies in the irrelevant ideal, so localizing there
    keeps the longest chain: both kinds have dimension quotient_dim."""

    field: PrimeField | RationalField
    nvars: int
    gens: frozenset[int]

    def _kills_mask(self, m: int) -> bool:
        """Whether a monomial with support mask m lies in the defining ideal."""
        return _mask_in(self.gens, m)

    def monomial_variables(self) -> range:
        return range(1, self.nvars + 1)

    def has_point(self, p: PrimePoint) -> bool:
        if not isinstance(p, MonoPrime):
            return False
        nvars, cover = self.nvars, 0  # bit i-1 of cover is x_i
        for i in p.cover:
            if type(i) is not int or not 0 < i <= nvars:
                return False
            cover |= 1 << (i - 1)
        return all(g & cover for g in self.gens)

    def _leq(self, p: PrimePoint, q: PrimePoint) -> bool:
        return p.cover <= q.cover

    def _contains(self, p: PrimePoint, r: El) -> bool:
        return all(mono_support(e) & p.cover for _, e in r.terms)

    def point_ideal(self, p: PrimePoint) -> IdealRepr:
        # The variables of the cover, as masks (bit i-1 is x_i): already minimal.
        return MonomialIdeal(frozenset(1 << (i - 1) for i in p.cover))

    def residue_field(self, p: PrimePoint) -> ResidueField:
        free = sorted(set(self.monomial_variables()) - set(p.cover))
        if not free:
            return ResidueField(str(self.field), self.field)
        vars_str = ",".join(f"x{i}" for i in free)
        return ResidueField(f"{self.field}({vars_str})", None)

    def krull_dim(self) -> int:
        return quotient_dim(self)


class MonomialQuotient(_Quotient):
    """The quotient, unlocalized; build it with monomial_quotient."""

    def __str__(self) -> str:
        exps = sorted(mask_to_exp(g) for g in self.gens)
        gens = ",".join(mono_str(e) for e in exps) or "0"
        return f"{self.field}[x1..x{self.nvars}]/({gens})"

    def is_unit(self, r: El) -> bool:
        """Nonzero constant term and every other monomial inside every
        minimal prime; exact only in dimension <= 1, so higher-dimensional
        quotients are rejected."""
        if quotient_dim(self) > 1:
            raise UnsupportedError("unit test is exact only in dimension <= 1")
        if constant_term(r) == 0:
            return False
        mins = minimal_cover_masks(self.gens)
        return all(
            e == () or all(exp_to_mask(e) & c for c in mins) for _, e in r.terms
        )

    def is_enumerable(self) -> bool:
        return quotient_dim(self) == 0

    def _enumerate(self) -> list[PrimePoint]:
        if quotient_dim(self) != 0:
            raise NonEnumerableError(
                "an unlocalized monomial quotient of positive dimension has "
                "non-monomial primes; localize at the irrelevant ideal instead"
            )
        # Dimension zero forces the quotient to be the coefficient field.
        return [MonoPrime(frozenset(self.monomial_variables()))]


class LocalizedAtIrrelevant(_Quotient):
    """A monomial quotient localized at (x_1, ..., x_n), with the quotient's
    own fields; build it with localized.

    Only quotients of Krull dimension <= 1 are admitted, which makes the
    whole spectrum enumerable as monomial primes.  Elements are images
    a/1 of quotient elements; that map is injective here because every
    minimal prime sits inside the irrelevant ideal.
    """

    def __str__(self) -> str:
        return f"({self.inner})_m"

    @property
    def inner(self) -> MonomialQuotient:
        """The quotient before localizing: the ring's wire form names it."""
        return MonomialQuotient(self.field, self.nvars, self.gens)

    def is_enumerable(self) -> bool:
        return True

    def _enumerate(self) -> list[PrimePoint]:
        pts = {MonoPrime(mask_support(c)) for c in minimal_cover_masks(self.gens)}
        pts.add(MonoPrime(frozenset(self.monomial_variables())))
        return list(pts)


class SymbolicSupplement(_Symbolic, _Monomial):
    """K[x_i : i >= 1]/(x_i x_k : i != k) localized at (x_1, x_2, ...).

    The local ring at the origin of countably many coordinate axes,
    represented purely symbolically.  It is reduced, local of dimension
    one, and has one minimal prime per axis.
    """

    field: PrimeField | RationalField

    limit = SuppTop()
    limit_above = True
    nvars = None

    def __str__(self) -> str:
        return f"Axes({self.field})"

    def _kills_mask(self, m: int) -> bool:
        # x_i x_k = 0 for i != k: a monomial vanishes exactly when it
        # touches two or more axes, that is, its mask has two or more bits.
        return m & (m - 1) != 0

    def has_point(self, p: PrimePoint) -> bool:
        return isinstance(p, SuppTop) or isinstance(p, SuppMin) and type(p.k) is int and p.k >= 1

    def _contains(self, p: PrimePoint, r: El) -> bool:
        if constant_term(r) != 0:
            return False
        if p == self.limit:
            return True
        # Reduced terms are single-axis; membership in P_k only excludes axis k.
        return all(mono_support(e) != frozenset({p.k}) for _, e in r.terms)

    def _random_family_point(self, rng) -> PrimePoint:
        return SuppMin(rng.randint(1, 30))

    def _family_locus(self, r: El) -> set[PrimePoint]:
        # A nonunit misses exactly the axes its terms touch.
        return {SuppMin(k) for _, e in r.terms for k in mono_support(e)}

    def density_rule(self, zariski: bool) -> tuple[bool, El | None, str]:
        if not zariski:
            # A nonunit is supported on finitely many axes, so its
            # non-vanishing locus is finite.
            return True, None, FINITE_SUPPORT
        return False, var_el(self, 1), COUNTEREXAMPLE

    def residue_field(self, p: PrimePoint) -> ResidueField:
        if p == self.limit:
            return ResidueField(str(self.field), self.field)
        return ResidueField(f"{self.field}(x{p.k})", None)


class Product(RingExpr):
    """Finite direct product; factors are flattened, and any ring but the
    symbolic axes ring may be one.  A factor with a symbolic spectrum, such
    as Z or GF(p)[x], is accepted, but listing the spectrum then refuses.

    Its primes are the tame primes: one factor's prime, pulled back along
    that factor's projection."""

    factors: tuple[RingExpr, ...]

    def __str__(self) -> str:
        return " x ".join(str(f) for f in self.factors)

    def normalize(self, e: El) -> El:
        if not isinstance(e, TupleEl) or len(e.items) != len(self.factors):
            raise KindMismatchError("tuple arity does not match the product")
        return TupleEl(tuple(f.normalize(x) for x, f in zip(e.items, self.factors)))

    def from_int(self, k: int) -> El:
        return TupleEl(tuple(f.from_int(k) for f in self.factors))

    def mul(self, a: El, b: El) -> El:
        return TupleEl(tuple(f.mul(x, y) for f, x, y in zip(self.factors, a.items, b.items)))

    # The nilradical law check calls power, is_nilpotent and sample_element
    # once per sampled element; over a product's few factors a list
    # comprehension costs less than a generator.

    def power(self, a: El, k: int) -> El:
        return TupleEl(tuple([f.power(x, k) for f, x in zip(self.factors, a.items)]))

    def is_unit(self, r: El) -> bool:
        return all(f.is_unit(x) for x, f in zip(r.items, self.factors))

    def is_nilpotent(self, r: El) -> bool:
        return all([f.is_nilpotent(x) for x, f in zip(r.items, self.factors)])

    def is_reduced(self) -> bool:
        return all(f.is_reduced() for f in self.factors)

    def sample_element(self, rng: Random) -> El:
        return TupleEl(tuple([f.sample_element(rng) for f in self.factors]))

    def has_point(self, p: PrimePoint) -> bool:
        return (
            isinstance(p, TamePrime)
            and type(p.slot) is int
            and 0 <= p.slot < len(self.factors)
            and self.factors[p.slot].has_point(p.inner)
        )

    # has_point has checked the inner point against its factor.

    def _leq(self, p: PrimePoint, q: PrimePoint) -> bool:
        return p.slot == q.slot and self.factors[p.slot]._leq(p.inner, q.inner)

    def _contains(self, p: PrimePoint, r: El) -> bool:
        return self.factors[p.slot]._contains(p.inner, r.items[p.slot])

    def is_enumerable(self) -> bool:
        return all(f.is_enumerable() for f in self.factors)

    def _enumerate(self) -> list[PrimePoint]:
        pts = []
        for k, f in enumerate(self.factors):
            if not f.is_enumerable():
                raise NonEnumerableError(f"factor {f} has a symbolic spectrum")
            pts.extend(TamePrime(k, q) for q in f._spectrum_table)
        return pts

    def residue_field(self, p: PrimePoint) -> ResidueField:
        return self.factors[p.slot].residue_field(p.inner)

    def krull_dim(self) -> int:
        # The spectrum is the disjoint union of the factors' spectra.
        return max(f.krull_dim() for f in self.factors)


ZZ = IntegerRing()
QQ = RationalField()


def zmod(n: int, limit: int | None = DEFAULT_LIMIT) -> ModRing:
    """Z/n; an n above limit is refused, and None lifts the bound."""
    if n < 2:
        raise BadArityError("ModRing needs n >= 2")
    return ModRing(n, _factorization(n, limit))


def prime_field(p: int) -> PrimeField:
    return PrimeField(p)


def poly_ring(p: int) -> PolyRingOverPrimeField:
    return PolyRingOverPrimeField(p)


def monomial_quotient(field: PrimeField | RationalField, nvars: int, gens) -> MonomialQuotient:
    """K[x_1..x_nvars] modulo square-free exponent tuples."""
    return mask_quotient(field, nvars, map(_generator_mask, gens))


def mask_quotient(field: PrimeField | RationalField, nvars: int, gens) -> MonomialQuotient:
    """K[x_1..x_nvars] modulo the monomials of the masks gens."""
    if nvars < 1:
        raise BadArityError("need nvars >= 1")
    if not isinstance(field, (PrimeField, RationalField)):
        raise KindMismatchError("coefficient field must be a prime field or Q")
    masks = set()
    for m in gens:
        if not m:
            raise KindMismatchError("constant generator would give the unit ideal")
        if m.bit_length() > nvars:
            raise KindMismatchError("generator uses more variables than nvars")
        masks.add(m)
    return MonomialQuotient(field, nvars, _minimal_masks(masks))


def _dim_at_most_one(R: MonomialQuotient) -> bool:
    """dim <= 1 without enumerating covers: no two-variable set may be
    free of generators (the dimension is the largest generator-free set).
    A pair {i, j} is free iff none of x_i, x_j, x_i x_j is a generator, so
    each pair of the variables that are not generators themselves needs
    its own generator x_i x_j.  With more such pairs than generators the
    answer is no before any pair is walked, which bounds the walk by the
    number of generators, whatever nvars is."""
    gens = R.gens
    free = R.nvars - sum(g.bit_count() == 1 for g in gens)
    if free * (free - 1) // 2 > len(gens):
        return False
    bits = [1 << i for i in range(R.nvars) if (1 << i) not in gens]
    return all((u | v) in gens for u, v in combinations(bits, 2))


def localized(inner: MonomialQuotient) -> LocalizedAtIrrelevant:
    if not isinstance(inner, MonomialQuotient):
        raise KindMismatchError("only a monomial quotient can be localized")
    if not _dim_at_most_one(inner):
        raise UnsupportedError(
            "localization is only supported for quotients of dimension <= 1"
        )
    return LocalizedAtIrrelevant(inner.field, inner.nvars, inner.gens)


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


# The memos of minimal covers, keyed on a monomial ideal's masks, and of
# factorizations, keyed on (n, limit).  Sized for one `verify all` run,
# which meets 8 distinct monomial ideals (7 of them the supplement suite's,
# each shared by its three fields) and about 150 moduli, so no cover search
# or factorization runs twice there, while a long-lived process stays
# bounded.
_RING_MEMO_SIZE = 256


# Typed, so an n that equals an int without being one is not answered
# from the int's entry.  A modulus built twice, as a ring and as a map's
# source, is factored once.
@lru_cache(maxsize=_RING_MEMO_SIZE, typed=True)
def _factorization(n: int, limit: int | None) -> tuple[tuple[int, int], ...]:
    return factorint(n, limit)


def quotient_dim(R: _Quotient) -> int:
    """Krull dimension of T/I: nvars minus the minimum vertex cover size."""
    return R.nvars - min(c.bit_count() for c in minimal_cover_masks(R.gens))


@lru_cache(maxsize=_RING_MEMO_SIZE)
def minimal_cover_masks(gens: frozenset[int]) -> tuple[int, ...]:
    """The minimal vertex covers of the generator masks, searched once per
    ideal: the minimal primes and the spectrum of the ring both read them."""
    return tuple(covers.minimal_covers(gens))


_PRIME_POOL = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 53, 97, 101, 257)


# The pool depends on p only; one entry per prime of _PRIME_POOL is room
# for every GF(p)[x] a run samples from.
@lru_cache(maxsize=len(_PRIME_POOL))
def _irreducible_pool(p: int) -> tuple[tuple[int, ...], ...]:
    """The first 12 monic irreducibles over GF(p), in canonical order."""
    return tuple(islice(gfpoly.irreducibles(p), 12))


def _random_irreducible(p: int, rng) -> tuple[int, ...]:
    pool = _irreducible_pool(p)
    return pool[rng.randrange(len(pool))]
