"""Map documents: every map kind survives a JSON round trip, and a
malformed diagonal or tame-slot document is an input error (exit 2)."""

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given
from hypothesis import strategies as st

from conftest import AXES_F2, F2, F2X, PROPERTY
from spectop import construction, jsonio, maps, rings
from spectop import spectrum as sp
from spectop.cli import run_command
from spectop.spectrum import FpxGeneric, FpxMax, SuppMin, SuppTop, ZGeneric, ZMax


Z6 = rings.zmod(6)
RINGS = [
    rings.zmod(12),
    rings.zmod(30),
    construction.build_supplement(F2, 3),
    rings.product(Z6, Z6),
    rings.ZZ,
    F2X,
    AXES_F2,
]
SYMBOLIC_POINTS = {
    rings.ZZ: [ZGeneric(), ZMax(2), ZMax(3), ZMax(101)],
    F2X: [FpxGeneric(), FpxMax((0, 1)), FpxMax((1, 1)), FpxMax((1, 1, 1))],
    AXES_F2: [SuppTop(), SuppMin(1), SuppMin(2), SuppMin(7)],
}


def _pool(R) -> list:
    return SYMBOLIC_POINTS[R] if R.symbolic else sp.spec_points(R)


@st.composite
def subsets(draw, R):
    pool = st.sampled_from(_pool(R))
    shapes = [
        st.just(sp.empty_set(R)),
        st.just(sp.whole(R)),
        st.lists(pool, max_size=4).map(lambda pts: sp.explicit(R, pts)),
    ]
    if R.symbolic:
        pair = st.tuples(st.lists(pool, max_size=3), st.booleans())
        # A drawn limit point is left to the flag: the limit is never excluded.
        shapes.append(pair.map(lambda a: sp.cofinite(R, set(a[0]) - {R.limit}, a[1])))
    return draw(st.one_of(shapes))


@st.composite
def ring_maps(draw):
    kind = draw(st.sampled_from([
        maps.QuotientMap,
        maps.ResidueMap,
        maps.CanonicalIntoQuotientProduct,
        maps.CanonicalIntoLocalProduct,
        maps.DiagonalIntoModProduct,
    ]))
    if kind is maps.DiagonalIntoModProduct:
        # A diagonal map is built only with n >= 2 and divisors of n.
        n = draw(st.integers(2, 10**6))
        divisors = draw(st.lists(st.integers(1, 10**6).map(lambda k: math.gcd(n, k)), max_size=5))
        return kind(n, tuple(divisors))
    R = draw(st.sampled_from(RINGS))
    if kind in (maps.QuotientMap, maps.ResidueMap):
        return kind(R, draw(st.sampled_from(_pool(R))))
    return kind(draw(subsets(R)))


@PROPERTY
@given(ring_maps())
def test_map_json_round_trip(m):
    doc = json.loads(json.dumps(jsonio.map_to_json(m)))
    back = jsonio.map_from_json(doc)
    assert back == m
    assert type(back) is type(m)
    assert str(back) == str(m)


# Values that are neither an integer nor a list under the JSON decoders' rules.
NOT_AN_INT = st.one_of(
    st.none(),
    st.booleans(),
    st.floats().filter(lambda x: not x.is_integer()),
    st.text("abxyz", max_size=3),
    st.dictionaries(st.sampled_from(["type", "p"]), st.integers(), max_size=2),
)


def _exit_code(map_doc: dict, prime_doc: dict) -> int:
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        return run_command(
            ["lyover", "--map", json.dumps(map_doc), "--prime", json.dumps(prime_doc)]
        )


@st.composite
def malformed_diagonals(draw):
    doc = {"type": "diagonalIntoModProduct", "n": 6, "divisors": [2, 3]}
    where = draw(st.sampled_from(["n", "divisors", "divisor", "missing"]))
    if where == "n":
        doc["n"] = draw(
            st.one_of(NOT_AN_INT, st.lists(st.integers(), max_size=2), st.integers(max_value=1))
        )
    elif where == "divisors":
        doc["divisors"] = draw(NOT_AN_INT)
    elif where == "divisor":
        bad = draw(st.one_of(NOT_AN_INT, st.integers(max_value=0)))
        doc["divisors"][draw(st.integers(0, 1))] = bad
    else:
        del doc[draw(st.sampled_from(["n", "divisors"]))]
    return doc


@PROPERTY
@given(malformed_diagonals())
def test_malformed_diagonal_exits_2(doc):
    assert _exit_code(doc, {"type": "zmodPrime", "p": 2}) == 2


GOOD_TAME = {"type": "tamePrime", "slot": 0, "inner": {"type": "zmodPrime", "p": 2}}
BAD_SLOTS = st.one_of(
    NOT_AN_INT,
    st.integers().filter(lambda k: k not in (0, 1)),
    st.lists(st.integers(), max_size=2),
    st.sampled_from([{"type": "zmodPrime", "p": 2}, {"type": "zGeneric"}, GOOD_TAME]),
)


@PROPERTY
@given(
    st.sampled_from(
        ["quotientMap", "residueMap", "canonicalIntoQuotientProduct", "canonicalIntoLocalProduct"]
    ),
    BAD_SLOTS,
)
def test_malformed_tame_slot_exits_2(kind, slot):
    tame = dict(GOOD_TAME, slot=slot)
    doc = {"type": kind, "ring": {"kind": "Product", "factors": [{"kind": "Zmod", "n": 6}] * 2}}
    if kind.endswith("Map"):
        doc["prime"] = tame
    else:
        doc["set"] = {"type": "explicit", "points": [tame]}
    assert _exit_code(doc, GOOD_TAME) == 2
