import json
import sys
from collections import Counter
from fractions import Fraction
from random import Random
from typing import get_args

import pytest

from conftest import AXES_F2, AXES_Q, F2, F2X, enumerable_zoo, symbolic_zoo
from spectop import construction, jsonio, maps, rings, values
from spectop import spectrum as sp
from spectop.errors import (
    FactorizationLimitError,
    KindMismatchError,
    SpectopError,
    UnsupportedSymbolicError,
)
from spectop.rings import IntEl
from spectop.spectrum import SuppMin, TamePrime, ZMax


def test_ring_round_trip():
    for R in enumerable_zoo() + symbolic_zoo() + [rings.QQ]:
        doc = jsonio.ring_to_json(R)
        assert jsonio.ring_from_json(json.loads(json.dumps(doc))) == R


def test_ring_json_matches_documented_forms():
    assert jsonio.ring_to_json(rings.ZZ) == {"kind": "Z"}
    assert jsonio.ring_to_json(rings.zmod(12)) == {"kind": "Zmod", "n": 12}
    assert jsonio.ring_from_json({"kind": "Fp", "p": 5}) == rings.prime_field(5)
    R = jsonio.ring_from_json(
        {
            "kind": "MonomialQuotient",
            "field": {"kind": "Fp", "p": 2},
            "nvars": 3,
            "gens": [[1, 1, 0], [1, 0, 1], [0, 1, 1]],
        }
    )
    assert R == construction.build_supplement(F2, 3).inner
    assert jsonio.ring_from_json(
        {"kind": "SymbolicSupplement", "field": {"kind": "Fp", "p": 2}}
    ) == AXES_F2


def test_element_round_trip(rng):
    zoo = enumerable_zoo() + [rings.ZZ, rings.QQ, rings.poly_ring(3), AXES_F2]
    for R in zoo:
        for e in rings.sample_elements(R, rng, 15):
            doc = jsonio.element_to_json(e, R)
            back = jsonio.element_from_json(json.loads(json.dumps(doc)), R)
            assert back == e


def test_element_documented_forms():
    assert jsonio.element_from_json({"kind": "int", "v": "12"}, rings.ZZ) == IntEl(12)
    assert jsonio.element_to_json(IntEl(12), rings.ZZ) == {"kind": "int", "v": "12"}
    e = jsonio.element_from_json(
        {"kind": "mpoly", "terms": [{"c": "1", "e": [1, 0, 0]}]}, AXES_F2
    )
    assert e == rings.var_el(AXES_F2, 1)
    t = jsonio.element_from_json(
        {"kind": "tuple", "items": [{"kind": "mod", "v": 5}, {"kind": "poly", "coeffs": [1, 1]}]},
        rings.product(rings.zmod(12), rings.poly_ring(2)),
    )
    assert len(t.items) == 2


def test_element_kind_mismatch():
    with pytest.raises(KindMismatchError):
        jsonio.element_from_json({"kind": "mod", "v": 5}, rings.ZZ)


def test_float_coefficients_are_exact():
    # 1.5 is 3/2: F_2 cannot invert the 2, F_5 reads 3 * 3 = 4, Q keeps it.
    doc = {"kind": "mpoly", "terms": [{"c": 1.5, "e": [1]}]}
    with pytest.raises(KindMismatchError, match="denominator"):
        jsonio.element_from_json(doc, AXES_F2)
    axes_f5 = rings.symbolic_supplement(rings.prime_field(5))
    assert jsonio.element_from_json(doc, axes_f5) == rings.var_el(axes_f5, 1, coeff=4)
    assert jsonio.element_from_json(doc, AXES_Q) == rings.var_el(AXES_Q, 1, coeff=Fraction(3, 2))


def test_point_round_trip():
    pts = [
        sp.ZGeneric(),
        ZMax(11),
        sp.ZmodPrime(3),
        sp.FpxGeneric(),
        sp.FpxMax((1, 1, 1)),
        sp.FieldZero(),
        sp.MonoPrime(frozenset({1, 3})),
        SuppMin(4),
        sp.SuppTop(),
        TamePrime(0, sp.ZmodPrime(2)),
        TamePrime(SuppMin(2), SuppMin(2)),
    ]
    for p in pts:
        doc = jsonio.point_to_json(p)
        assert jsonio.point_from_json(json.loads(json.dumps(doc))) == p


def test_subset_round_trip_and_documented_form():
    E = sp.cofinite(rings.ZZ, {ZMax(11)}, False)
    doc = jsonio.subset_to_json(E)
    assert doc == {
        "type": "cofiniteClosed",
        "excluded": [{"type": "zMax", "p": 11}],
        "withGeneric": False,
    }
    assert jsonio.subset_from_json(doc, rings.ZZ) == E
    for R in enumerable_zoo():
        pts = sp.spec_points(R)
        E = sp.explicit(R, pts[:2])
        assert jsonio.subset_from_json(jsonio.subset_to_json(E), R) == E
    E2 = sp.cofinite(AXES_F2, {SuppMin(1), SuppMin(7)}, True)
    assert jsonio.subset_from_json(jsonio.subset_to_json(E2), AXES_F2) == E2
    assert jsonio.subset_from_json({"type": "whole"}, AXES_F2) == sp.whole(AXES_F2)
    # A missing limit flag leaves the limit point out.
    assert jsonio.subset_from_json({"type": "cofiniteMin", "excluded": [2]}, AXES_F2) == (
        sp.cofinite(AXES_F2, {SuppMin(2)}, False)
    )
    assert jsonio.subset_from_json({"type": "cofiniteClosed", "excluded": []}, rings.ZZ) == (
        sp.cofinite(rings.ZZ, set(), False)
    )


@pytest.mark.parametrize(
    "R, doc, error",
    [
        (rings.ZZ, {"type": "cofiniteMin", "excluded": [1]}, UnsupportedSymbolicError),
        (AXES_F2, {"type": "cofiniteClosed", "excluded": []}, UnsupportedSymbolicError),
        (rings.zmod(6), {"type": "cofiniteClosed", "excluded": []}, UnsupportedSymbolicError),
        (rings.zmod(6), {"type": "cofiniteMin", "excluded": []}, UnsupportedSymbolicError),
        (rings.ZZ, {"type": "cofiniteClosed", "excluded": [{"type": "zGeneric"}]},
         KindMismatchError),
        (F2X, {"type": "cofiniteClosed", "excluded": [{"type": "fpxGeneric"}]},
         KindMismatchError),
    ],
    ids=[
        "min-over-Z", "closed-over-axes", "closed-over-Zmod", "min-over-Zmod",
        "generic-excluded-Z", "generic-excluded-F2x",
    ],
)
def test_wire_cofinite_rows_refuse(R, doc, error):
    # Each row names the side of the ring's limit point; the limit itself
    # is chosen by the row's flag, never excluded.
    with pytest.raises(error):
        jsonio.subset_from_json(doc, R)


def test_map_round_trip():
    E = sp.cofinite(rings.ZZ, {ZMax(11)}, False)
    examples = [
        maps.QuotientMap(rings.ZZ, ZMax(5)),
        maps.CanonicalIntoQuotientProduct(E),
        maps.CanonicalIntoLocalProduct(E),
        maps.DiagonalIntoModProduct(6, (2, 3)),
        maps.ResidueMap(rings.ZZ, sp.ZGeneric()),
    ]
    for m in examples:
        doc = jsonio.map_to_json(m)
        assert jsonio.map_from_json(json.loads(json.dumps(doc))) == m


BIG = 2**70 + 1  # above the default 64-bit factorization bound
BIG_RINGS = [
    {"kind": "Zmod", "n": BIG},
    {"kind": "Product", "factors": [{"kind": "Z"}, {"kind": "Zmod", "n": BIG}]},
]


@pytest.mark.parametrize("doc", BIG_RINGS, ids=["Zmod", "Product"])
def test_ring_from_json_takes_the_bound_as_a_value(doc):
    with pytest.raises(FactorizationLimitError):
        jsonio.ring_from_json(doc)
    assert jsonio.ring_to_json(jsonio.ring_from_json(doc, limit=None)) == doc
    with pytest.raises(FactorizationLimitError):
        jsonio.ring_from_json(doc)


def test_map_from_json_takes_the_bound_as_a_value():
    ring = {"kind": "Zmod", "n": BIG}
    quotient = {"type": "canonicalIntoQuotientProduct", "ring": ring, "set": {"type": "whole"}}
    with pytest.raises(FactorizationLimitError):
        jsonio.map_from_json(quotient)
    assert jsonio.map_from_json(quotient, limit=None).ring == rings.zmod(BIG, limit=None)
    diagonal = {"type": "diagonalIntoModProduct", "n": BIG, "divisors": [1, BIG]}
    with pytest.raises(FactorizationLimitError):
        jsonio.map_from_json(diagonal).source
    m = jsonio.map_from_json(diagonal, limit=None)
    assert m.limit is None
    assert m.source == rings.zmod(BIG, limit=None)
    assert jsonio.map_to_json(m) == diagonal


# Map documents whose fields name no map, with the refusal of the map's
# constructor: the decoder checks nothing the map does not check itself.
BAD_MAP_DOCS = {
    "quotientMap": (
        {"type": "quotientMap", "ring": {"kind": "Z"}, "prime": {"type": "zMax", "p": 4}},
        r"^\(4\) is not a point of Z$",
    ),
    "residueMap": (
        {"type": "residueMap", "ring": {"kind": "Z"}, "prime": {"type": "zMax", "p": 4}},
        r"^\(4\) is not a point of Z$",
    ),
    "diagonalIntoModProduct": (
        {"type": "diagonalIntoModProduct", "n": 6, "divisors": [0]},
        "^divisors must be positive and divide n$",
    ),
}


@pytest.mark.parametrize("kind", sorted(BAD_MAP_DOCS))
def test_map_from_json_refuses_what_the_map_refuses(kind):
    doc, message = BAD_MAP_DOCS[kind]
    with pytest.raises(KindMismatchError, match=message):
        jsonio.map_from_json(doc)


def test_canonical_dumps_deterministic():
    E = sp.cofinite(rings.ZZ, {ZMax(11), ZMax(2)}, True)
    a = jsonio.dumps_canonical(jsonio.subset_to_json(E))
    b = jsonio.dumps_canonical(jsonio.subset_to_json(E))
    assert a == b


def _public_subclasses(base) -> set:
    found = set()
    for cls in base.__subclasses__():
        found |= _public_subclasses(cls)
        if not cls.__name__.startswith("_"):
            found.add(cls)
    return found


def test_every_value_class_has_one_wire_row():
    # A class without a row would fail only at its first query; SpecSubset
    # has one row per wire form.
    classes = (
        _public_subclasses(rings.RingExpr)
        | _public_subclasses(maps.RingMapSpec)
        | set(get_args(values.PrimePoint))
        | set(get_args(values.El))
        | {sp.SpecSubset}
    )
    tables = [jsonio._RING_ROWS, jsonio._ELEMENT_ROWS, jsonio._POINT_ROWS,
              jsonio._SUBSET_ROWS, jsonio._MAP_ROWS]
    rows = Counter(row.cls for table in tables for row in table.rows)
    assert rows == {cls: {sp.SpecSubset: 5}.get(cls, 1) for cls in classes}
    for table in tables:
        assert len(table.by_tag) == len(table.rows)


@pytest.fixture
def rng():
    return Random(47)


def _nested(wrap, inner, depth):
    doc = inner
    for _ in range(depth):
        doc = wrap(doc)
    return doc


DEEP = sys.getrecursionlimit()
DEEP_RING = _nested(lambda d: {"kind": "Product", "factors": [d]}, {"kind": "Z"}, DEEP)
DEEP_POINT = _nested(lambda d: {"type": "tamePrime", "slot": 0, "inner": d}, {"type": "zGeneric"}, DEEP)


@pytest.mark.parametrize(
    "decode",
    [
        lambda: jsonio.ring_from_json(DEEP_RING),
        lambda: jsonio.point_from_json(DEEP_POINT),
        lambda: jsonio.subset_from_json({"type": "explicit", "points": [DEEP_POINT]}, rings.ZZ),
        lambda: jsonio.map_from_json(
            {"type": "quotientMap", "ring": DEEP_RING, "prime": {"type": "zGeneric"}}
        ),
    ],
    ids=["ring", "point", "subset", "map"],
)
def test_values_nested_past_the_recursion_limit_are_refused(decode):
    with pytest.raises(SpectopError, match="nested too deeply"):
        decode()
