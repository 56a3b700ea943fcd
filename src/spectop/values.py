"""The values the engine computes with: prime points, ring elements and
ideals, in canonical form, with their printing.

What a value means in a given ring, and the arithmetic on it, is a rule
of that ring's family (rings); the element and ideal functions here ask
the ring.  rings re-exports every name, so rings.normalize, rings.IntEl
and the like are the public spelling.

Every value is a Record (below), an immutable tuple of exactly its
fields, so the frozensets of points that the subset operators build hash
them in C.

Every monomial generator and prime is square-free, so a generator is an
int bitmask of its support: bit i-1 stands for x_i, divisibility is
g & ~m == 0 and lcm is u | v.  Exponent tuples stay wherever monomials
meet the outside world (elements, the constructors, printing, JSON);
exp_to_mask, mask_to_exp and mask_support convert.
"""

from __future__ import annotations

from collections import _tuplegetter
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
# Records
# ---------------------------------------------------------------------------

_tuple_new = tuple.__new__
# The constructor of a record with 0, 1 or 2 fields.
_NEW = (
    lambda cls: _tuple_new(cls, ()),
    lambda cls, a: _tuple_new(cls, (a,)),
    lambda cls, a, b: _tuple_new(cls, (a, b)),
)


def _new(size: int):
    """The constructor of a record with `size` fields, given positionally."""
    def new(cls, *fields):
        if len(fields) != size:
            raise TypeError(f"{cls.__name__}() takes {size} fields, got {len(fields)}")
        return _tuple_new(cls, fields)
    return _NEW[size] if size < len(_NEW) else new


class Record(tuple):
    """An immutable value whose fields are the annotations of its class
    body, in order; a subclass that declares none keeps its parent's.
    Equality asks for the same class and equal fields, the hash is the
    plain tuple's, and the repr reads Name(field=value).  Records have no
    order, are always true and refuse assignment; their length and
    iteration are not part of the API.  A subclass sets __slots__ = (),
    unless its family keeps cached_property tables in a __dict__.

    A field is read by namedtuple's field reader, written in C, which
    skips the call a property(itemgetter(i)) makes on every read: the nine
    symbolic suites read subset and point fields about 126,000 times."""

    __slots__ = ()
    _fields = ()
    __hash__ = tuple.__hash__
    __new__ = _NEW[0]

    def __init_subclass__(cls):
        fields = cls.__dict__.get("__annotations__")
        if not fields:
            return
        cls._fields = tuple(fields)
        for i, name in enumerate(cls._fields):
            setattr(cls, name, _tuplegetter(i, None))
        if "__new__" not in cls.__dict__:
            cls.__new__ = staticmethod(_new(len(cls._fields)))

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return type(other) is not type(self) or tuple.__ne__(self, other)

    def __lt__(self, other):
        return NotImplemented

    __le__ = __gt__ = __ge__ = __lt__

    def __bool__(self):
        return True

    def __repr__(self):
        fields = ", ".join(f"{k}={v!r}" for k, v in zip(self._fields, self))
        return f"{type(self).__qualname__}({fields})"

    def __getnewargs__(self):
        return tuple(self)


# ---------------------------------------------------------------------------
# Points
# ---------------------------------------------------------------------------


class ZGeneric(Record):
    """(0) in Spec(Z)."""

    __slots__ = ()


class ZMax(Record):
    """pZ for a prime p."""

    __slots__ = ()
    p: int


class ZmodPrime(Record):
    """(p) in Z/n for a prime p dividing n."""

    __slots__ = ()
    p: int


class FpxGeneric(Record):
    """(0) in GF(p)[x]."""

    __slots__ = ()


class FpxMax(Record):
    """(f) for a monic irreducible f over GF(p)."""

    __slots__ = ()
    coeffs: tuple[int, ...]


class FieldZero(Record):
    """The sole point (0) of a field."""

    __slots__ = ()


class MonoPrime(Record):
    """(x_i : i in cover); cover is a vertex cover of the generator supports."""

    __slots__ = ()
    cover: frozenset[int]


class SuppMin(Record):
    """The minimal prime (x_i : i != k) of the axes ring, k >= 1."""

    __slots__ = ()
    k: int


class SuppTop(Record):
    """The maximal ideal (x_1, x_2, ...) of the axes ring."""

    __slots__ = ()


class TamePrime(Record):
    """The preimage of a factor prime under a projection.

    slot is the factor index for a concrete product ring, or the base
    point of E for the target of a canonical map into a product indexed
    by E.
    """

    __slots__ = ()
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


# The canonical point order, one key rule per point class: generic points
# first, then the family points by size, then the axes ring's top, then
# tame primes by slot and inner point.
_SORT_KEYS = {
    **dict.fromkeys((ZGeneric, FpxGeneric, FieldZero), lambda p: (0, 0, ())),
    **dict.fromkeys((ZMax, ZmodPrime), lambda p: (1, p.p, ())),
    FpxMax: lambda p: (1, len(p.coeffs), p.coeffs),
    MonoPrime: lambda p: (1, len(p.cover), tuple(sorted(p.cover))),
    SuppMin: lambda p: (1, p.k, ()),
    SuppTop: lambda p: (2, 0, ()),
    TamePrime: lambda p: (
        3,
        (0, p.slot, ()) if isinstance(p.slot, int) else (1,) + point_sort_key(p.slot),
        point_sort_key(p.inner),
    ),
}


def point_sort_key(p: PrimePoint):
    key = _SORT_KEYS.get(type(p))
    if key is None:
        raise KindMismatchError(f"unknown point {p}")
    return key(p)


def sorted_points(points) -> list[PrimePoint]:
    return sorted(points, key=point_sort_key)


def point_str(p: PrimePoint) -> str:
    if isinstance(p, (ZGeneric, FpxGeneric, FieldZero)):
        return "(0)"
    if isinstance(p, (ZMax, ZmodPrime)):
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


class IntEl(Record):
    __slots__ = ()
    v: int


class RatEl(Record):
    __slots__ = ()
    v: Fraction


class ModEl(Record):
    __slots__ = ()
    v: int


class PolyEl(Record):
    __slots__ = ()
    coeffs: tuple[int, ...]


class MPolyEl(Record):
    """Sparse terms ((coeff, exponent tuple), ...) sorted by exponent."""

    __slots__ = ()
    terms: tuple[tuple[object, tuple[int, ...]], ...]


class TupleEl(Record):
    __slots__ = ()
    items: tuple["El", ...]


El = IntEl | RatEl | ModEl | PolyEl | MPolyEl | TupleEl


class PrincipalIdeal(Record):
    __slots__ = ()
    gen: El


class MonomialIdeal(Record):
    """Square-free monomial ideal by its minimal generators, as masks.

    Inside a monomial quotient this represents the image ideal; the zero
    ideal of the quotient is the defining ideal itself.
    """

    __slots__ = ()
    gens: frozenset[int]


IdealRepr = PrincipalIdeal | MonomialIdeal


class ResidueField(Record):
    """A residue field k(p): printable label plus a concrete ring when one exists."""

    __slots__ = ()
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
    """The masks no other mask divides, that is, with no proper submask
    in the set.  Each mask walks its own proper submasks when it has
    fewer of them than the set has masks (the axes fold's masks have at
    most two bits), and scans the set otherwise."""
    masks = set(masks)
    size = len(masks)
    kept = []
    for m in masks:
        if size >> m.bit_count():
            s = m
            while s:
                s = (s - 1) & m
                if s in masks:
                    break
            else:
                kept.append(m)
        elif all(k & ~m or k == m for k in masks):
            kept.append(m)
    return frozenset(kept)


def _mask_in(gens: frozenset[int], m: int) -> bool:
    """Whether some generator divides the monomial m: a walk over the
    submasks of m when they are fewer than the generators, else a scan."""
    if len(gens) >> m.bit_count():
        s = m
        while s not in gens:
            if not s:
                return False
            s = (s - 1) & m
        return True
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


def var_el(R: RingExpr, i: int) -> El:
    """The variable x_i of a multivariate ring (i is 1-based)."""
    if i < 1:
        raise KindMismatchError(f"variable indices start at 1, got {i}")
    exp = (0,) * (i - 1) + (1,)
    return R.reduce_terms([(1, exp)])


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
    """Intersection of a nonempty family, met pairwise in rounds as a
    balanced tree.  Meeting is associative and commutative, and each kind
    has one canonical generating set, so the result is the left fold's;
    but no meet grows to hold the whole family's generators until the
    last round."""
    ideals = list(ideals)
    while len(ideals) > 1:
        paired = [ideal_intersect(I, J, R) for I, J in zip(ideals[::2], ideals[1::2])]
        ideals = paired + ideals[len(paired) * 2:]
    return ideals[0]


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


# ---------------------------------------------------------------------------
# Element sampling and display
# ---------------------------------------------------------------------------


def sample_elements(R: RingExpr, rng: Random, count: int) -> list[El]:
    """Deterministic pseudo-random canonical elements, for property checks."""
    return [R.sample_element(rng) for _ in range(count)]


def el_str(e: El, R: RingExpr) -> str:
    if isinstance(e, (IntEl, RatEl, ModEl)):
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
