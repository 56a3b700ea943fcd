"""Value documents: every ring, point, element and subset form survives a
JSON round trip, the canonical text is json.dumps's, and every field of a
command-line document replaced by a value of the wrong JSON type, or left
out, is an input error (exit 2)."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import AXES_F2, AXES_Q, F2, F2X, F3, PROPERTY, enumerable_zoo, symbolic_zoo
from spectop import construction, jsonio, rings
from spectop import spectrum as sp
from spectop.cli import run_command
from spectop.errors import SpectopError
from spectop.rings import MPolyEl
from spectop.spectrum import (
    FieldZero,
    FpxGeneric,
    FpxMax,
    MonoPrime,
    SuppMin,
    SuppTop,
    TamePrime,
    ZGeneric,
    ZmodPrime,
    ZMax,
)


def _json_trip(doc):
    return json.loads(json.dumps(doc))


# ---------------------------------------------------------------------------
# Round trips
# ---------------------------------------------------------------------------

FIELDS = st.sampled_from([rings.QQ, F2, F3, rings.prime_field(101)])
PRIMES = st.sampled_from([2, 3, 5, 7, 101, 2**61 - 1])


@st.composite
def monomial_quotients(draw):
    nvars = draw(st.integers(1, 4))
    gen = st.lists(st.integers(0, 1), min_size=1, max_size=nvars).filter(any)
    return rings.monomial_quotient(draw(FIELDS), nvars, draw(st.lists(gen, max_size=4)))


def _concrete_rings():
    return st.one_of(
        st.just(rings.ZZ),
        st.just(rings.QQ),
        st.integers(2, 10**6).map(rings.zmod),
        PRIMES.map(rings.prime_field),
        PRIMES.map(rings.poly_ring),
        monomial_quotients(),
        st.builds(construction.build_supplement, FIELDS, st.integers(1, 5)),
    )


RINGS = st.one_of(
    _concrete_rings(),
    FIELDS.map(rings.symbolic_supplement),
    # Nested products, which the builder flattens.
    st.recursive(
        _concrete_rings(),
        lambda inner: st.lists(inner, min_size=1, max_size=3).map(lambda fs: rings.product(*fs)),
        max_leaves=5,
    ),
)


@PROPERTY
@given(RINGS)
def test_ring_json_round_trip(R):
    back = jsonio.ring_from_json(_json_trip(jsonio.ring_to_json(R)))
    assert back == R
    assert type(back) is type(R)
    assert str(back) == str(R)


BASE_POINTS = st.one_of(
    st.just(ZGeneric()),
    PRIMES.map(ZMax),
    PRIMES.map(ZmodPrime),
    st.just(FpxGeneric()),
    st.lists(st.integers(0, 100), max_size=4).map(lambda c: FpxMax(tuple(c) + (1,))),
    st.just(FieldZero()),
    st.frozensets(st.integers(1, 9), max_size=4).map(MonoPrime),
    st.integers(1, 10**6).map(SuppMin),
    st.just(SuppTop()),
)
# Both slot forms: a factor index, or the base point of a canonical map's set.
POINTS = st.recursive(
    BASE_POINTS,
    lambda inner: st.builds(TamePrime, st.one_of(st.integers(0, 9), inner), inner),
    max_leaves=4,
)


@PROPERTY
@given(POINTS)
def test_point_json_round_trip(p):
    back = jsonio.point_from_json(_json_trip(jsonio.point_to_json(p)))
    assert back == p
    assert sp.point_str(back) == sp.point_str(p)


ELEMENT_RINGS = enumerable_zoo() + symbolic_zoo() + [
    rings.poly_ring(3),
    AXES_Q,
    rings.monomial_quotient(rings.QQ, 3, [(1, 1)]),
    rings.product(rings.zmod(6), rings.poly_ring(5), rings.QQ),
]


MONOMIAL = (rings.MonomialQuotient, rings.LocalizedAtIrrelevant, rings.SymbolicSupplement)


@st.composite
def elements(draw):
    R = draw(st.sampled_from(ELEMENT_RINGS))
    if isinstance(R, MONOMIAL) and draw(st.booleans()):
        # Arbitrary terms, with fractions over Q.
        coeffs = st.fractions(max_denominator=9) if R.field == rings.QQ else st.integers()
        exps = st.lists(st.integers(0, 2), max_size=R.nvars or 5).map(tuple)
        terms = draw(st.lists(st.tuples(coeffs, exps), max_size=3))
        return R, rings.normalize(MPolyEl(tuple(terms)), R)
    rng = draw(st.randoms(use_true_random=False))
    return R, rings.sample_elements(R, rng, 1)[0]


@PROPERTY
@given(elements())
def test_element_json_round_trip(pair):
    R, e = pair
    back = jsonio.element_from_json(_json_trip(jsonio.element_to_json(e, R)), R)
    assert back == e
    assert rings.el_str(back, R) == rings.el_str(e, R)


SYMBOLIC_POINTS = {
    rings.ZZ: [ZGeneric(), ZMax(2), ZMax(3), ZMax(101)],
    F2X: [FpxGeneric(), FpxMax((0, 1)), FpxMax((1, 1)), FpxMax((1, 1, 1))],
    AXES_F2: [SuppTop(), SuppMin(1), SuppMin(2), SuppMin(7)],
    AXES_Q: [SuppTop(), SuppMin(3), SuppMin(4)],
}
SUBSET_RINGS = enumerable_zoo() + list(SYMBOLIC_POINTS)


@st.composite
def subsets(draw):
    R = draw(st.sampled_from(SUBSET_RINGS))
    pool = st.sampled_from(SYMBOLIC_POINTS[R] if R.symbolic else sp.spec_points(R))
    shapes = [
        st.just(sp.empty_set(R)),
        st.just(sp.whole(R)),
        st.lists(pool, max_size=4).map(lambda pts: sp.explicit(R, pts)),
    ]
    if R.symbolic:
        pair = st.tuples(st.lists(pool, max_size=3), st.booleans())
        # A drawn limit point is left to the flag: the limit is never excluded.
        shapes.append(pair.map(lambda a: sp.cofinite(R, set(a[0]) - {R.limit}, a[1])))
    return R, draw(st.one_of(shapes))


@PROPERTY
@given(subsets())
def test_subset_json_round_trip(pair):
    R, E = pair
    back = jsonio.subset_from_json(_json_trip(jsonio.subset_to_json(E)), R)
    assert back == E
    assert type(back) is type(E)
    assert sp.subset_str(back) == sp.subset_str(E)


# ---------------------------------------------------------------------------
# Canonical text
# ---------------------------------------------------------------------------

JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(2**64, 2**200).flatmap(lambda n: st.sampled_from([n, -n]))
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12,
)


@PROPERTY
@given(JSON_VALUES)
@example({
    "z": [-0.0, 1e308, 2**64 + 1, -(2**70)],
    "\u00e4": "\u00e9\n\"\\\x00\U0001f600",
    "a": [True, False, None, {}],
})
def test_canonical_text_is_json_dumps_sorted_and_compact(doc):
    assert jsonio.dumps_canonical(doc) == json.dumps(doc, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Garbage in gives exit 2
# ---------------------------------------------------------------------------


def _ring(kind, **fields):
    return {"kind": kind, **fields}


def _point(type_, **fields):
    return {"type": type_, **fields}


Z = _ring("Z")
Z6 = _ring("Zmod", n=6)
AXES = _ring("SymbolicSupplement", field=_ring("Fp", p=2))
TRIANGLE = _ring("MonomialQuotient", field=_ring("Fp", p=2), nvars=3,
                 gens=[[1, 1, 0], [1, 0, 1], [0, 1, 1]])
Z6_F3 = _ring("Product", factors=[Z6, _ring("Fp", p=3)])


def _tame(slot, inner):
    return _point("tamePrime", slot=slot, inner=inner)


def _explicit(*points):
    return {"type": "explicit", "points": list(points)}


# One document of every ring kind, point kind, subset form and map kind,
# each with the argument list that it completes.  Each list exits 0 as it
# stands; the document is the one that is damaged.
RING_DOCS = [
    Z,
    _ring("Q"),
    _ring("Zmod", n=12),
    _ring("Fp", p=5),
    _ring("FpPoly", p=3),
    _ring("MonomialQuotient", field=_ring("Q"), nvars=2, gens=[[1], [0, 1]]),
    _ring("LocalizedAtIrrelevant", inner=TRIANGLE),
    _ring("Product", factors=[Z6, _ring("Product", factors=[_ring("Fp", p=3), _ring("Q")])]),
    AXES,
]
SET_DOCS = [
    (Z, _explicit(_point("zMax", p=5), _point("zGeneric"))),
    (Z, {"type": "cofiniteClosed", "excluded": [_point("zMax", p=11)], "withGeneric": False}),
    (Z, {"type": "empty"}),
    (Z, {"type": "whole"}),
    (_ring("FpPoly", p=2), _explicit(_point("fpxMax", coeffs=[1, 1]), _point("fpxGeneric"))),
    (_ring("Zmod", n=12), _explicit(_point("zmodPrime", p=2))),
    (_ring("Fp", p=5), _explicit(_point("fieldZero"))),
    (_ring("LocalizedAtIrrelevant", inner=TRIANGLE), _explicit(_point("monoPrime", cover=[1, 2]))),
    (AXES, _explicit(_point("suppMin", k=3), _point("suppTop"))),
    (AXES, {"type": "cofiniteMin", "excluded": [2], "withTop": True}),
    (Z6_F3, _explicit(_tame(0, _point("zmodPrime", p=3)), _tame(1, _point("fieldZero")))),
]
MAP_DOCS = [
    ({"type": "quotientMap", "ring": Z, "prime": _point("zGeneric")}, _point("zGeneric")),
    ({"type": "residueMap", "ring": Z, "prime": _point("zGeneric")}, _point("zGeneric")),
    (
        {
            "type": "canonicalIntoQuotientProduct",
            "ring": Z6_F3,
            "set": _explicit(_tame(0, _point("zmodPrime", p=2)),
                             _tame(0, _point("zmodPrime", p=3)), _tame(1, _point("fieldZero"))),
        },
        _tame(1, _point("fieldZero")),
    ),
    (
        {
            "type": "canonicalIntoLocalProduct",
            "ring": Z,
            "set": {"type": "cofiniteClosed", "excluded": [_point("zMax", p=3)],
                    "withGeneric": True},
        },
        _point("zGeneric"),
    ),
    ({"type": "diagonalIntoModProduct", "n": 6, "divisors": [2, 3]}, _point("zmodPrime", p=2)),
]


def _commands():
    """(name, argument list with one document left as None, that document)."""
    for doc in RING_DOCS:
        yield f"spec/{doc['kind']}", ["spec", "--ring", None], doc
    for ring, doc in SET_DOCS:
        argv = ["closure", "--topology", "zariski", "--ring", json.dumps(ring), "--set", None]
        yield f"closure/{doc['type']}/{ring['kind']}", argv, doc
    for map_doc, prime in MAP_DOCS:
        yield f"lyover/{map_doc['type']}", ["lyover", "--map", None, "--prime", json.dumps(prime)], map_doc
        yield f"lyover/{map_doc['type']}/prime", ["lyover", "--map", json.dumps(map_doc), "--prime", None], prime


COMMANDS = list(_commands())
OPTIONAL_KEYS = {"withGeneric", "withTop"}
WRONG = [None, True, False, 7, 1.5, "x", [], {}]


def _exit_code(argv, doc) -> int:
    argv = [json.dumps(doc) if a is None else a for a in argv]
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        return run_command(argv)


def _fields(doc, path=()):
    """(path, value) of every key and list entry inside doc."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for k, v in items:
        yield path + (k,), v
        yield from _fields(v, path + (k,))


def _damaged(doc):
    """Each copy of doc with one field replaced by a value of another JSON
    type (a boolean among them), or with one required key left out."""
    for path, value in _fields(doc):
        for wrong in WRONG:
            if type(wrong) is not type(value):
                yield path, wrong
        if isinstance(path[-1], str) and path[-1] not in OPTIONAL_KEYS:
            yield path, KeyError


def _apply(doc, path, wrong):
    doc = json.loads(json.dumps(doc))
    parent = doc
    for k in path[:-1]:
        parent = parent[k]
    if wrong is KeyError:
        del parent[path[-1]]
    else:
        parent[path[-1]] = wrong
    return doc


@pytest.mark.parametrize("argv,doc", [c[1:] for c in COMMANDS], ids=[c[0] for c in COMMANDS])
def test_documents_are_accepted(argv, doc):
    assert _exit_code(argv, doc) == 0


@pytest.mark.parametrize("argv,doc", [c[1:] for c in COMMANDS], ids=[c[0] for c in COMMANDS])
def test_garbage_field_exits_2(argv, doc):
    bad = [
        (path, wrong)
        for path, wrong in _damaged(doc)
        if _exit_code(argv, _apply(doc, path, wrong)) != 2
    ]
    assert bad == []


ELEMENT_DOCS = [
    (rings.ZZ, {"kind": "int", "v": "12"}),
    (rings.QQ, {"kind": "rat", "v": "-3/4"}),
    (rings.zmod(12), {"kind": "mod", "v": 5}),
    (rings.poly_ring(3), {"kind": "poly", "coeffs": [1, 0, 2]}),
    (AXES_Q, {"kind": "mpoly", "terms": [{"c": "1/2", "e": [0, 1]}, {"c": "3", "e": []}]}),
    (rings.product(rings.zmod(6), rings.QQ),
     {"kind": "tuple", "items": [{"kind": "mod", "v": 5}, {"kind": "int", "v": 2}]}),
]


@pytest.mark.parametrize("R,doc", ELEMENT_DOCS, ids=[d["kind"] for _, d in ELEMENT_DOCS])
def test_garbage_element_field_is_refused(R, doc):
    # No command reads an element; the decoder refuses what the command
    # line turns into exit 2.  Numbers travel as strings here, so only
    # values that are no number at all are wrong.
    jsonio.element_from_json(doc, R)
    for path, wrong in _damaged(doc):
        if wrong in (7, 1.5) and path[-1] in ("v", "c"):
            continue
        with pytest.raises((SpectopError, KeyError)):
            jsonio.element_from_json(_apply(doc, path, wrong), R)
    # A bool or an exponent string is no coefficient either.
    for path in [path for path, _ in _fields(doc) if path[-1] == "c"]:
        for wrong in (True, "1e3"):
            with pytest.raises(SpectopError):
                jsonio.element_from_json(_apply(doc, path, wrong), R)
