"""JSON encoding and decoding of rings, elements, points, subsets, maps.

The wire format mirrors the type tags.  Integers and multivariate
coefficients travel as strings so arbitrary precision survives JSON;
plain numbers are accepted on input.  Subsets are serialized without
their ring, which the surrounding document or CLI flag supplies.

One table row per value class declares its tag, its fields in wire order
with a codec each, and the validating builder the decoded fields go to;
encoding and decoding both read the row, through the plans each table
compiles from its rows once, when it is built.
"""

from __future__ import annotations

import json
from fractions import Fraction
from operator import attrgetter
from typing import Callable

from . import maps, products, rings, topology
from . import spectrum as sp
from .errors import KindMismatchError, SpectopError, UnsupportedSymbolicError
from .primes import DEFAULT_LIMIT
from .values import Record, _int


# json.dumps builds an encoder on every call that passes it options; this
# one is built once and writes the same text.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def dumps_canonical(obj) -> str:
    return _CANONICAL.encode(obj)


# Shape checks for decoded input: a field of the wrong JSON type is refused
# with a SpectopError, never left to fail deep inside a constructor.


def _bool(v, what: str) -> bool:
    if not isinstance(v, bool):
        raise KindMismatchError(f"{what} must be true or false, got {v!r}")
    return v


def _fraction(v) -> Fraction:
    try:
        return Fraction(str(v))
    except (ValueError, ZeroDivisionError) as exc:
        raise KindMismatchError(f"bad rational {v!r}") from exc


def _list(v, what: str) -> list:
    if not isinstance(v, list):
        raise KindMismatchError(f"{what} must be a list, got {v!r}")
    return v


def _obj(v, what: str) -> dict:
    if not isinstance(v, dict):
        raise KindMismatchError(f"{what} must be an object, got {v!r}")
    return v


def _coeff(c):
    """A multivariate coefficient: an "a/b" string is read as a Fraction,
    and every other value is left to the ring's coefficient reader
    (rings._coeff_norm), which takes integers, integral strings and finite
    floats."""
    return _fraction(c) if isinstance(c, str) and "/" in c else c


# ---------------------------------------------------------------------------
# The wire table
# ---------------------------------------------------------------------------


class _Codec(Record):
    """One field's wire form.  enc(value, R) gives its JSON and
    dec(JSON, key, R, limit) the value, refusing malformed input; R is the
    ring in scope (see _Table.decode), key names the field in refusals, and
    limit is the factorization bound of every Z/n the value holds."""

    __slots__ = ()
    enc: Callable
    dec: Callable


_REQUIRED = object()


class _Field(Record):
    __slots__ = ()
    key: str
    codec: _Codec
    attr: str | None  # the attribute it carries, when not `key`
    default: object  # the value of a missing key

    def __new__(cls, key, codec, attr=None, default=_REQUIRED):
        return tuple.__new__(cls, (key, codec, attr, default))


class _Row(Record):
    __slots__ = ()
    cls: type
    tag: str
    fields: tuple[_Field, ...]
    build: Callable
    when: Callable | None  # for a class with several wire forms, which one a value takes


def _row(cls, tag, *fields, build=None, when=None) -> _Row:
    return _Row(cls, tag, tuple(_Field(*f) for f in fields), build or cls, when)


class _Table:
    """The rows of one family of values, told apart by the tag under `key`.

    The rows are compiled once into plans.  by_class maps a class to its
    (when, tag, plan) in row order, a plan holding (key, enc, getter) per
    field; by_tag maps a tag to its ((key, dec, default, is_ring) per
    field, build)."""

    def __init__(self, key: str, what: str, *rows: _Row):
        self.key, self.what, self.rows = key, what, rows
        self.by_class: dict[type, list[tuple]] = {}
        for r in rows:
            plan = tuple((f.key, f.codec.enc, attrgetter(f.attr or f.key)) for f in r.fields)
            self.by_class.setdefault(r.cls, []).append((r.when, r.tag, plan))
        self.by_tag = {
            r.tag: (
                tuple((f.key, f.codec.dec, f.default, f.codec is _RING) for f in r.fields),
                r.build,
            )
            for r in rows
        }

    def encode(self, x, R=None) -> dict:
        """The document of x; R is the ring x lives over, or x itself.  A
        class's last row has no `when`, so some row always matches."""
        rows = self.by_class.get(type(x))
        if rows is None:
            raise KindMismatchError(f"unknown {self.what} {x}")
        for when, tag, plan in rows:
            if when is None or when(x):
                break
        doc = {self.key: tag}
        for key, enc, get in plan:
            doc[key] = enc(get(x), R)
        return doc

    def decode(self, obj, R=None, limit=DEFAULT_LIMIT):
        """The value obj denotes.  Element and subset builders take R, the
        ring the value lives over, first; fields after a ring field are
        read over that ring.  limit bounds the n of every Z/n built."""
        tag = _obj(obj, self.what).get(self.key)
        compiled = self.by_tag.get(tag) if isinstance(tag, str) else None
        if compiled is None:
            raise KindMismatchError(f"unknown {self.what} {self.key} {tag!r}")
        fields, build = compiled
        args = [] if R is None else [R]
        for key, dec, default, is_ring in fields:
            raw = obj.get(key, default)
            if raw is _REQUIRED:
                raise KindMismatchError(f"{self.what} {tag!r} needs the key {key!r}")
            args.append(dec(raw, key, R, limit))
            if is_ring:
                R = args[-1]
        return build(*args)

    def read(self, obj, R=None, limit=DEFAULT_LIMIT):
        """decode, with a document nested past the interpreter's recursion
        limit refused as input instead of escaping as a RecursionError."""
        try:
            return self.decode(obj, R, limit)
        except RecursionError as exc:
            raise SpectopError("JSON value nested too deeply") from exc


def _as_is(v, R):
    return v


def _seq(item: _Codec, what: str, into=tuple, order=list) -> _Codec:
    """A JSON list of items, each called `what` in refusals; decoded into
    `into`, encoded in the order `order` gives."""
    enc, dec = item
    return _Codec(
        lambda v, R: [enc(x, R) for x in order(v)],
        lambda v, key, R, limit: into([dec(x, what, R, limit) for x in _list(v, key)]),
    )


def _padded_exponents(gens, R) -> list:
    return sorted(
        list(rings.mask_to_exp(g)) + [0] * (R.nvars - g.bit_length()) for g in gens
    )


def _term(v, key: str, R, limit):
    t = _obj(v, key)
    return _coeff(t["c"]), _EXPONENTS.dec(t["e"], "e", R, limit)


def _tuple_items(v, key: str, R, limit):
    if not isinstance(R, rings.Product) or len(_list(v, key)) != len(R.factors):
        raise KindMismatchError("tuple element needs a matching product ring")
    return tuple(element_from_json(x, f) for x, f in zip(v, R.factors))


def _cofinite_on(above: bool, refusal: str):
    """sp.cofinite, for a wire form that names the side of the ring's limit."""
    def build(R, excluded, with_limit):
        if R.limit_above != above:
            raise UnsupportedSymbolicError(refusal)
        return sp.cofinite(R, excluded, with_limit)
    return build


def _int_element(R, v: int):
    # An "int" is a constant of Z, Q or a monomial kind; other rings refuse it.
    monomial = (rings.MonomialQuotient, rings.LocalizedAtIrrelevant, rings.SymbolicSupplement)
    if isinstance(R, (rings.RationalField, *monomial)):
        return R.from_int(v)
    return rings.normalize(rings.IntEl(v), R)


def _normalized(cls):
    return lambda R, *fields: rings.normalize(cls(*fields), R)


def _of_subset(cls):
    # A product map's ring is its set's: the set was decoded over the ring field.
    return lambda R, E: cls(E)


_INT = _Codec(_as_is, lambda v, key, R, limit: _int(v, key))
_DECIMAL = _Codec(lambda v, R: str(v), _INT.dec)
_EXPONENTS = _seq(_INT, "exponent")
_RAT = _Codec(lambda v, R: str(v), lambda v, key, R, limit: _fraction(v))
_FLAG = _Codec(_as_is, lambda v, key, R, limit: _bool(v, key))
_RING = _Codec(lambda v, R: ring_to_json(v), lambda v, key, R, limit: ring_from_json(v, limit))
# The n of a Z/n, read as the ring, so an n above limit is refused as it is read.
_ZMOD = _Codec(_as_is, lambda v, key, R, limit: rings.zmod(_int(v, key), limit))
_POINT = _Codec(lambda v, R: point_to_json(v), lambda v, key, R, limit: point_from_json(v))
_POINTS = _seq(_POINT, "point", frozenset, sp.sorted_points)
# A factor index, or the base point of the set of a canonical map.
_SLOT = _Codec(
    lambda v, R: v if isinstance(v, int) else point_to_json(v),
    lambda v, key, R, limit: _int(v, key) if isinstance(v, int) else point_from_json(v),
)
_TERM = _Codec(lambda t, R: {"c": str(t[0]), "e": list(t[1])}, _term)
# An excluded minimal prime of the axes ring, by its axis.
_AXIS = _Codec(lambda p, R: p.k, lambda v, key, R, limit: sp.SuppMin(_int(v, key)))

_RING_ROWS = _Table(
    "kind", "ring",
    _row(rings.IntegerRing, "Z", build=lambda: rings.ZZ),
    _row(rings.RationalField, "Q", build=lambda: rings.QQ),
    _row(rings.ModRing, "Zmod", ("n", _ZMOD), build=lambda ring: ring),
    _row(rings.PrimeField, "Fp", ("p", _INT), build=rings.prime_field),
    _row(rings.PolyRingOverPrimeField, "FpPoly", ("p", _INT), build=rings.poly_ring),
    _row(
        rings.MonomialQuotient, "MonomialQuotient",
        ("field", _RING),
        ("nvars", _INT),
        ("gens", _Codec(_padded_exponents, _seq(_EXPONENTS, "generator").dec)),
        build=rings.monomial_quotient,
    ),
    _row(rings.LocalizedAtIrrelevant, "LocalizedAtIrrelevant", ("inner", _RING),
         build=rings.localized),
    _row(rings.Product, "Product", ("factors", _seq(_RING, "factor")),
         build=lambda factors: rings.product(*factors)),
    _row(rings.SymbolicSupplement, "SymbolicSupplement", ("field", _RING),
         build=rings.symbolic_supplement),
)

_ELEMENT_ROWS = _Table(
    "kind", "element",
    _row(rings.IntEl, "int", ("v", _DECIMAL), build=_int_element),
    _row(rings.RatEl, "rat", ("v", _RAT), build=_normalized(rings.RatEl)),
    _row(rings.ModEl, "mod", ("v", _INT), build=_normalized(rings.ModEl)),
    _row(rings.PolyEl, "poly", ("coeffs", _seq(_INT, "coefficient")),
         build=_normalized(rings.PolyEl)),
    _row(rings.MPolyEl, "mpoly", ("terms", _seq(_TERM, "term")),
         build=_normalized(rings.MPolyEl)),
    _row(
        rings.TupleEl, "tuple",
        ("items", _Codec(
            lambda items, R: [element_to_json(x, f) for x, f in zip(items, R.factors)],
            _tuple_items,
        )),
        build=lambda R, items: rings.TupleEl(items),
    ),
)

_POINT_ROWS = _Table(
    "type", "point",
    _row(sp.ZGeneric, "zGeneric"),
    _row(sp.ZMax, "zMax", ("p", _INT)),
    _row(sp.ZmodPrime, "zmodPrime", ("p", _INT)),
    _row(sp.FpxGeneric, "fpxGeneric"),
    _row(sp.FpxMax, "fpxMax", ("coeffs", _seq(_INT, "coefficient"))),
    _row(sp.FieldZero, "fieldZero"),
    _row(sp.MonoPrime, "monoPrime", ("cover", _seq(_INT, "variable", frozenset, sorted))),
    _row(sp.SuppMin, "suppMin", ("k", _INT)),
    _row(sp.SuppTop, "suppTop"),
    _row(sp.TamePrime, "tamePrime", ("slot", _SLOT), ("inner", _POINT)),
)

_SUBSET_ROWS = _Table(
    "type", "subset",
    _row(sp.SpecSubset, "empty", build=sp.empty_set,
         when=lambda E: not (E.cofinite or E.points)),
    _row(sp.SpecSubset, "explicit", ("points", _POINTS), build=sp.explicit,
         when=lambda E: not E.cofinite),
    _row(sp.SpecSubset, "whole", build=sp.whole, when=lambda E: not E.points),
    _row(
        sp.SpecSubset, "cofiniteMin",
        ("excluded", _seq(_AXIS, "axis", frozenset, sp.sorted_points)),
        ("withTop", _FLAG, "with_limit", False),
        build=_cofinite_on(True, "cofinite-min sets exist only over the axes ring"),
        when=lambda E: E.ring.limit_above,
    ),
    _row(
        sp.SpecSubset, "cofiniteClosed",
        ("excluded", _POINTS),
        ("withGeneric", _FLAG, "with_limit", False),
        build=_cofinite_on(False, "cofinite-closed sets exist only over Z and GF(p)[x]"),
    ),
)

_SUBSET = _Codec(lambda v, R: subset_to_json(v), lambda v, key, R, limit: subset_from_json(v, R))

_MAP_ROWS = _Table(
    "type", "map",
    _row(maps.QuotientMap, "quotientMap", ("ring", _RING), ("prime", _POINT)),
    _row(maps.CanonicalIntoQuotientProduct, "canonicalIntoQuotientProduct",
         ("ring", _RING), ("set", _SUBSET, "subset"),
         build=_of_subset(maps.CanonicalIntoQuotientProduct)),
    _row(maps.CanonicalIntoLocalProduct, "canonicalIntoLocalProduct",
         ("ring", _RING), ("set", _SUBSET, "subset"),
         build=_of_subset(maps.CanonicalIntoLocalProduct)),
    _row(maps.DiagonalIntoModProduct, "diagonalIntoModProduct",
         ("n", _ZMOD, "ring.n"), ("divisors", _seq(_INT, "divisor"))),
    _row(maps.ResidueMap, "residueMap", ("ring", _RING), ("prime", _POINT)),
)


def ring_to_json(R: rings.RingExpr) -> dict:
    return _RING_ROWS.encode(R, R)


def ring_from_json(obj: dict, limit: int | None = DEFAULT_LIMIT) -> rings.RingExpr:
    """The ring obj denotes, refusing a Z/n with n above limit (None: no bound)."""
    return _RING_ROWS.read(obj, limit=limit)


def element_to_json(e: rings.El, R: rings.RingExpr) -> dict:
    return _ELEMENT_ROWS.encode(e, R)


def element_from_json(obj: dict, R: rings.RingExpr) -> rings.El:
    return _ELEMENT_ROWS.read(obj, R)


def point_to_json(p: sp.PrimePoint) -> dict:
    return _POINT_ROWS.encode(p)


def point_from_json(obj: dict) -> sp.PrimePoint:
    return _POINT_ROWS.read(obj)


def subset_to_json(E: sp.SpecSubset) -> dict:
    return _SUBSET_ROWS.encode(E)


def subset_from_json(obj: dict, R: rings.RingExpr) -> sp.SpecSubset:
    return _SUBSET_ROWS.read(obj, R)


def map_to_json(m: maps.RingMapSpec) -> dict:
    return _MAP_ROWS.encode(m)


def map_from_json(obj: dict, limit: int | None = DEFAULT_LIMIT) -> maps.RingMapSpec:
    """The map obj denotes, refusing a ring or source Z/n with n above limit."""
    return _MAP_ROWS.read(obj, limit=limit)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def image_report_to_json(rep: products.ImageReport) -> dict:
    return {
        "image": subset_to_json(rep.image),
        "closure": subset_to_json(rep.closure),
        "topology": rep.topology,
        "strict": rep.strict,
        "witness": point_to_json(rep.witness) if rep.witness is not None else None,
    }


def density_certificate_to_json(cert: topology.DensityCertificate, R: rings.RingExpr) -> dict:
    return {
        "holds": cert.holds,
        "mode": cert.mode,
        "witness": element_to_json(cert.witness, R) if cert.witness is not None else None,
        "rationale": cert.rationale,
    }


def supplement_report_to_json(rep) -> dict:
    return {
        "n": rep.n,
        "field": rep.field,
        "degenerate": rep.degenerate,
        "intersectionOk": rep.intersection_ok,
        "minimalPrimes": [point_to_json(p) for p in rep.minimal_primes],
        "dim": rep.dim,
        "reduced": rep.reduced,
        "pzOk": rep.pz_ok,
        "allOk": rep.all_ok,
    }
