"""JSON encoding and decoding of rings, elements, points, subsets, maps.

The wire format mirrors the type tags.  Integers and multivariate
coefficients travel as strings so arbitrary precision survives JSON;
plain numbers are accepted on input.  Subsets are serialized without
their ring, which the surrounding document or CLI flag supplies.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from . import maps, products, rings, topology
from . import spectrum as sp
from .errors import KindMismatchError
from .rings import (
    El,
    IntegerRing,
    IntEl,
    LocalizedAtIrrelevant,
    ModEl,
    ModRing,
    MonomialQuotient,
    MPolyEl,
    PolyEl,
    PolyRingOverPrimeField,
    PrimeField,
    Product,
    RatEl,
    RationalField,
    RingExpr,
    SymbolicSupplement,
    TupleEl,
)
from .spectrum import (
    Cofinite,
    EmptySet,
    Explicit,
    FieldZero,
    FpxGeneric,
    FpxMax,
    MonoPrime,
    PrimePoint,
    SpecSubset,
    SuppMin,
    SuppTop,
    TamePrime,
    Whole,
    ZGeneric,
    ZmodPrime,
    ZMax,
)
from .values import _int


def dumps_canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


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


# ---------------------------------------------------------------------------
# Rings
# ---------------------------------------------------------------------------


def ring_to_json(R: RingExpr) -> dict:
    if isinstance(R, IntegerRing):
        return {"kind": "Z"}
    if isinstance(R, RationalField):
        return {"kind": "Q"}
    if isinstance(R, ModRing):
        return {"kind": "Zmod", "n": R.n}
    if isinstance(R, PrimeField):
        return {"kind": "Fp", "p": R.p}
    if isinstance(R, PolyRingOverPrimeField):
        return {"kind": "FpPoly", "p": R.p}
    if isinstance(R, MonomialQuotient):
        gens = sorted(
            list(rings.mask_to_exp(g)) + [0] * (R.nvars - g.bit_length()) for g in R.gens
        )
        return {
            "kind": "MonomialQuotient",
            "field": ring_to_json(R.field),
            "nvars": R.nvars,
            "gens": gens,
        }
    if isinstance(R, LocalizedAtIrrelevant):
        return {"kind": "LocalizedAtIrrelevant", "inner": ring_to_json(R.inner)}
    if isinstance(R, Product):
        return {"kind": "Product", "factors": [ring_to_json(f) for f in R.factors]}
    if isinstance(R, SymbolicSupplement):
        return {"kind": "SymbolicSupplement", "field": ring_to_json(R.field)}
    raise KindMismatchError(f"unknown ring {R}")


def ring_from_json(obj: dict) -> RingExpr:
    kind = _obj(obj, "ring").get("kind")
    if kind == "Z":
        return rings.ZZ
    if kind == "Q":
        return rings.QQ
    if kind == "Zmod":
        return rings.zmod(_int(obj["n"], "n"))
    if kind == "Fp":
        return rings.prime_field(_int(obj["p"], "p"))
    if kind == "FpPoly":
        return rings.poly_ring(_int(obj["p"], "p"))
    if kind == "MonomialQuotient":
        field = ring_from_json(obj["field"])
        gens = [
            tuple(_int(e, "exponent") for e in _list(g, "generator"))
            for g in _list(obj["gens"], "gens")
        ]
        return rings.monomial_quotient(field, _int(obj["nvars"], "nvars"), gens)
    if kind == "LocalizedAtIrrelevant":
        return rings.localized(ring_from_json(obj["inner"]))
    if kind == "Product":
        return rings.product(*(ring_from_json(f) for f in _list(obj["factors"], "factors")))
    if kind == "SymbolicSupplement":
        return rings.symbolic_supplement(ring_from_json(obj["field"]))
    raise KindMismatchError(f"unknown ring kind {kind!r}")


# ---------------------------------------------------------------------------
# Elements
# ---------------------------------------------------------------------------


def element_to_json(e: El, R: RingExpr) -> dict:
    if isinstance(e, IntEl):
        return {"kind": "int", "v": str(e.v)}
    if isinstance(e, RatEl):
        return {"kind": "rat", "v": str(e.v)}
    if isinstance(e, ModEl):
        return {"kind": "mod", "v": e.v}
    if isinstance(e, PolyEl):
        return {"kind": "poly", "coeffs": list(e.coeffs)}
    if isinstance(e, MPolyEl):
        return {
            "kind": "mpoly",
            "terms": [{"c": str(c), "e": list(exp)} for c, exp in e.terms],
        }
    if isinstance(e, TupleEl):
        return {
            "kind": "tuple",
            "items": [element_to_json(x, f) for x, f in zip(e.items, R.factors)],
        }
    raise KindMismatchError(f"unknown element {e}")


def _parse_coeff(c):
    if isinstance(c, str) and "/" in c:
        return _fraction(c)
    if isinstance(c, float) and math.isfinite(c):
        return c
    return _int(c, "coefficient")


def element_from_json(obj: dict, R: RingExpr) -> El:
    kind = _obj(obj, "element").get("kind")
    if kind == "int":
        v = _int(obj["v"], "v")
        if isinstance(R, RationalField):
            return rings.normalize(RatEl(Fraction(v)), R)
        if isinstance(R, (MonomialQuotient, LocalizedAtIrrelevant, SymbolicSupplement)):
            return R.from_int(v)
        return rings.normalize(IntEl(v), R)
    if kind == "rat":
        return rings.normalize(RatEl(_fraction(obj["v"])), R)
    if kind == "mod":
        return rings.normalize(ModEl(_int(obj["v"], "v")), R)
    if kind == "poly":
        coeffs = tuple(_int(c, "coefficient") for c in _list(obj["coeffs"], "coeffs"))
        return rings.normalize(PolyEl(coeffs), R)
    if kind == "mpoly":
        terms = []
        for t in _list(obj["terms"], "terms"):
            exp = tuple(_int(x, "exponent") for x in _list(_obj(t, "term")["e"], "e"))
            terms.append((_parse_coeff(t["c"]), exp))
        return rings.normalize(MPolyEl(tuple(terms)), R)
    if kind == "tuple":
        if not isinstance(R, Product) or len(_list(obj["items"], "items")) != len(R.factors):
            raise KindMismatchError("tuple element needs a matching product ring")
        return TupleEl(
            tuple(element_from_json(x, f) for x, f in zip(obj["items"], R.factors))
        )
    raise KindMismatchError(f"unknown element kind {kind!r}")


# ---------------------------------------------------------------------------
# Points
# ---------------------------------------------------------------------------


def point_to_json(p: PrimePoint) -> dict:
    if isinstance(p, ZGeneric):
        return {"type": "zGeneric"}
    if isinstance(p, ZMax):
        return {"type": "zMax", "p": p.p}
    if isinstance(p, ZmodPrime):
        return {"type": "zmodPrime", "p": p.p}
    if isinstance(p, FpxGeneric):
        return {"type": "fpxGeneric"}
    if isinstance(p, FpxMax):
        return {"type": "fpxMax", "coeffs": list(p.coeffs)}
    if isinstance(p, FieldZero):
        return {"type": "fieldZero"}
    if isinstance(p, MonoPrime):
        return {"type": "monoPrime", "cover": sorted(p.cover)}
    if isinstance(p, SuppMin):
        return {"type": "suppMin", "k": p.k}
    if isinstance(p, SuppTop):
        return {"type": "suppTop"}
    if isinstance(p, TamePrime):
        slot = p.slot if isinstance(p.slot, int) else point_to_json(p.slot)
        return {"type": "tamePrime", "slot": slot, "inner": point_to_json(p.inner)}
    raise KindMismatchError(f"unknown point {p}")


def point_from_json(obj: dict) -> PrimePoint:
    t = _obj(obj, "point").get("type")
    if t == "zGeneric":
        return ZGeneric()
    if t == "zMax":
        return ZMax(_int(obj["p"], "p"))
    if t == "zmodPrime":
        return ZmodPrime(_int(obj["p"], "p"))
    if t == "fpxGeneric":
        return FpxGeneric()
    if t == "fpxMax":
        return FpxMax(tuple(_int(c, "coefficient") for c in _list(obj["coeffs"], "coeffs")))
    if t == "fieldZero":
        return FieldZero()
    if t == "monoPrime":
        return MonoPrime(frozenset(_int(i, "variable") for i in _list(obj["cover"], "cover")))
    if t == "suppMin":
        return SuppMin(_int(obj["k"], "k"))
    if t == "suppTop":
        return SuppTop()
    if t == "tamePrime":
        slot = obj["slot"]
        slot = _int(slot, "slot") if isinstance(slot, int) else point_from_json(slot)
        return TamePrime(slot, point_from_json(obj["inner"]))
    raise KindMismatchError(f"unknown point type {t!r}")


# ---------------------------------------------------------------------------
# Subsets
# ---------------------------------------------------------------------------


def subset_to_json(E: SpecSubset) -> dict:
    if isinstance(E, EmptySet):
        return {"type": "empty"}
    if isinstance(E, Explicit):
        return {
            "type": "explicit",
            "points": [point_to_json(p) for p in sp.sorted_points(E.points)],
        }
    if isinstance(E, Cofinite) and E.limit_above:
        return {
            "type": "cofiniteMin",
            "excluded": sorted(p.k for p in E.excluded),
            "withTop": E.with_limit,
        }
    if isinstance(E, Cofinite):
        return {
            "type": "cofiniteClosed",
            "excluded": [point_to_json(p) for p in sp.sorted_points(E.excluded)],
            "withGeneric": E.with_limit,
        }
    if isinstance(E, Whole):
        return {"type": "whole"}
    raise KindMismatchError(f"unknown subset {E}")


def subset_from_json(obj: dict, R: RingExpr) -> SpecSubset:
    t = _obj(obj, "subset").get("type")
    if t == "empty":
        return sp.empty_set(R)
    if t == "explicit":
        return sp.explicit(R, {point_from_json(p) for p in _list(obj["points"], "points")})
    if t == "cofiniteClosed":
        return sp.cofinite_closed(
            R,
            {point_from_json(p) for p in _list(obj["excluded"], "excluded")},
            _bool(obj.get("withGeneric", False), "withGeneric"),
        )
    if t == "cofiniteMin":
        return sp.cofinite_min(
            R,
            {_int(k, "axis") for k in _list(obj["excluded"], "excluded")},
            _bool(obj.get("withTop", False), "withTop"),
        )
    if t == "whole":
        return sp.whole(R)
    raise KindMismatchError(f"unknown subset type {t!r}")


# ---------------------------------------------------------------------------
# Maps
# ---------------------------------------------------------------------------


def map_to_json(m: maps.RingMapSpec) -> dict:
    if isinstance(m, maps.QuotientMap):
        return {
            "type": "quotientMap",
            "ring": ring_to_json(m.ring),
            "prime": point_to_json(m.prime),
        }
    if isinstance(m, maps.CanonicalIntoQuotientProduct):
        return {
            "type": "canonicalIntoQuotientProduct",
            "ring": ring_to_json(m.ring),
            "set": subset_to_json(m.subset),
        }
    if isinstance(m, maps.CanonicalIntoLocalProduct):
        return {
            "type": "canonicalIntoLocalProduct",
            "ring": ring_to_json(m.ring),
            "set": subset_to_json(m.subset),
        }
    if isinstance(m, maps.DiagonalIntoModProduct):
        return {"type": "diagonalIntoModProduct", "n": m.n, "divisors": list(m.divisors)}
    if isinstance(m, maps.ResidueMap):
        return {
            "type": "residueMap",
            "ring": ring_to_json(m.ring),
            "prime": point_to_json(m.prime),
        }
    raise KindMismatchError(f"unknown map {m}")


def _ring_and_prime(obj: dict) -> tuple[RingExpr, PrimePoint]:
    R = ring_from_json(obj["ring"])
    p = point_from_json(obj["prime"])
    sp.validate_point(p, R)
    return R, p


def map_from_json(obj: dict) -> maps.RingMapSpec:
    t = _obj(obj, "map").get("type")
    if t == "quotientMap":
        return maps.QuotientMap(*_ring_and_prime(obj))
    if t == "canonicalIntoQuotientProduct":
        R = ring_from_json(obj["ring"])
        return maps.CanonicalIntoQuotientProduct(R, subset_from_json(obj["set"], R))
    if t == "canonicalIntoLocalProduct":
        R = ring_from_json(obj["ring"])
        return maps.CanonicalIntoLocalProduct(R, subset_from_json(obj["set"], R))
    if t == "diagonalIntoModProduct":
        divisors = tuple(_int(d, "divisor") for d in _list(obj["divisors"], "divisors"))
        return maps.DiagonalIntoModProduct(_int(obj["n"], "n"), divisors)
    if t == "residueMap":
        return maps.ResidueMap(*_ring_and_prime(obj))
    raise KindMismatchError(f"unknown map type {t!r}")


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


def density_certificate_to_json(cert: topology.DensityCertificate, R: RingExpr) -> dict:
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
