from itertools import combinations, islice
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import AXES_F2, F2, F2X, PROPERTY, SUPP3, enumerable_zoo, symbolic_zoo
from spectop import construction, gfpoly, jsonio, maps, rings
from spectop import spectrum as sp
from spectop import topology as top
from spectop.errors import KindMismatchError, NonEnumerableError, SpectopError
from spectop.rings import IntEl, PolyEl
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


def test_enumerate_zmod12():
    assert sp.spec_points(rings.zmod(12)) == [ZmodPrime(2), ZmodPrime(3)]


def test_enumerate_product_tame_primes():
    R = rings.product(rings.zmod(4), rings.zmod(9))
    assert sp.spec_points(R) == [
        TamePrime(0, ZmodPrime(2)),
        TamePrime(1, ZmodPrime(3)),
    ]


def test_enumerate_axes_ring():
    pts = set(sp.spec_points(SUPP3))
    expected = {
        MonoPrime(frozenset({2, 3})),
        MonoPrime(frozenset({1, 3})),
        MonoPrime(frozenset({1, 2})),
        MonoPrime(frozenset({1, 2, 3})),
    }
    assert pts == expected


def test_enumerate_symbolic_is_whole():
    for R in symbolic_zoo():
        assert sp.whole(R) == sp.cofinite(R, (), True)
        with pytest.raises(NonEnumerableError):
            sp.spec_points(R)


def test_subset_points_lists_finite_sets_only():
    for R in symbolic_zoo():
        for E in (sp.whole(R), sp.cofinite(R, (), False)):
            with pytest.raises(NonEnumerableError, match="is not a finite set"):
                sp.subset_points(E)
    assert sp.subset_points(sp.explicit(rings.ZZ, {ZMax(3), ZGeneric()})) == [ZGeneric(), ZMax(3)]


def test_enumerate_rejects_symbolic_product_factor():
    R = rings.Product((rings.ZZ, rings.zmod(4)))
    with pytest.raises(NonEnumerableError):
        sp.spec_points(R)


def test_positive_dim_quotient_not_enumerable():
    R = rings.monomial_quotient(F2, 2, {(1, 1)})
    with pytest.raises(NonEnumerableError):
        sp.spec_points(R)


def test_leq_examples():
    assert sp.leq_specialization(ZGeneric(), ZMax(7), rings.ZZ)
    assert not sp.leq_specialization(ZMax(5), ZMax(7), rings.ZZ)
    assert sp.leq_specialization(SuppMin(2), SuppTop(), AXES_F2)


def test_leq_is_partial_order_on_zoo():
    zoo = enumerable_zoo() + [
        construction.build_supplement(F2, 6),
        rings.product(rings.zmod(4), rings.zmod(9), rings.zmod(25), rings.zmod(49)),
    ]
    for R in zoo:
        pts = sp.spec_points(R)
        for p in pts:
            assert sp.leq_specialization(p, p, R)
        for p, q in combinations(pts, 2):
            if sp.leq_specialization(p, q, R) and sp.leq_specialization(q, p, R):
                assert p == q
        for p in pts:
            for q in pts:
                for r in pts:
                    if sp.leq_specialization(p, q, R) and sp.leq_specialization(q, r, R):
                        assert sp.leq_specialization(p, r, R)


def test_mono_prime_covers_hit_every_generator():
    for n in range(1, 7):
        R = construction.build_supplement(F2, n)
        for p in sp.spec_points(R):
            for g in R.inner.gens:
                assert rings.mask_support(g) & p.cover


def test_v_locus_integers():
    # Oracle: 12 = 2^2 * 3 by plain division.
    assert 12 % 2 == 0 and 12 % 3 == 0 and 12 % 5 != 0
    assert sp.v_locus(IntEl(12), rings.ZZ) == sp.explicit(rings.ZZ, {ZMax(2), ZMax(3)})
    assert sp.v_locus(IntEl(0), rings.ZZ) == sp.whole(rings.ZZ)
    assert sp.v_locus(IntEl(1), rings.ZZ) == sp.empty_set(rings.ZZ)
    assert sp.v_locus(IntEl(-30), rings.ZZ) == sp.explicit(
        rings.ZZ, {ZMax(2), ZMax(3), ZMax(5)}
    )


def test_v_locus_axes_localized():
    x1 = rings.var_el(SUPP3, 1)
    # Brute force over the 4-point spectrum.
    expected = {p for p in sp.spec_points(SUPP3) if sp.point_contains(p, x1, SUPP3)}
    assert expected == {
        MonoPrime(frozenset({1, 3})),
        MonoPrime(frozenset({1, 2})),
        MonoPrime(frozenset({1, 2, 3})),
    }
    assert sp.v_locus(x1, SUPP3) == sp.explicit(SUPP3, expected)


def test_v_locus_symbolic_axes():
    x1 = rings.var_el(AXES_F2, 1)
    assert sp.v_locus(x1, AXES_F2) == sp.cofinite(AXES_F2, {SuppMin(1)}, True)
    unit = AXES_F2.reduce_terms([(1, ()), (1, (0, 0, 1))])
    assert sp.v_locus(unit, AXES_F2) == sp.empty_set(AXES_F2)
    z = AXES_F2.reduce_terms([(1, (1,)), (1, (0, 1))])
    assert sp.d_locus(z, AXES_F2) == sp.explicit(AXES_F2, {SuppMin(1), SuppMin(2)})


def test_subset_member_examples():
    E1 = sp.cofinite(rings.ZZ, {ZMax(11)}, False)
    assert not sp.subset_member(ZMax(11), E1)
    assert sp.subset_member(ZMax(13), E1)
    assert not sp.subset_member(ZGeneric(), E1)
    E2 = sp.cofinite(rings.ZZ, {ZMax(11)}, True)
    assert sp.subset_member(ZGeneric(), E2)
    E3 = sp.cofinite(AXES_F2, {SuppMin(1)}, False)
    assert sp.subset_member(SuppMin(4), E3)
    assert not sp.subset_member(SuppMin(1), E3)
    assert not sp.subset_member(SuppTop(), E3)


def test_complement_duality_enumerable(rng):
    for R in enumerable_zoo():
        pts = sp.spec_points(R)
        for e in rings.sample_elements(R, rng, 10):
            v = sp.v_locus(e, R)
            d = sp.d_locus(e, R)
            for p in pts:
                assert sp.subset_member(p, v) != sp.subset_member(p, d)


def test_complement_duality_symbolic(rng):
    for R in symbolic_zoo():
        for e in rings.sample_elements(R, rng, 20):
            v = sp.v_locus(e, R)
            d = sp.d_locus(e, R)
            for p in sp.sample_points(R, rng, 5):
                assert sp.subset_member(p, v) != sp.subset_member(p, d)


def _products(R, gens):
    """Elements with known factors: 0, 1, and c * g_i^e * g_(i+1) and
    g_i * g_(i+1) * g_(i+2) along the list, where the exponent e runs
    through 1, 2, 3 and the unit c through -1 over Z or the nonzero
    constants of GF(p).  Neighbours in the list often share a degree."""
    units = [R.from_int(k) for k in ((1, -1) if R == rings.ZZ else range(1, R.p))]
    out = [rings.zero(R), rings.one(R)]
    for i, (g, h) in enumerate(zip(gens, gens[1:])):
        c = units[i % len(units)]
        out.append(R.mul(c, R.mul(R.power(g, 1 + i % 3), h)))
        if i + 2 < len(gens):
            out.append(R.mul(R.mul(g, h), gens[i + 2]))
    return out


@pytest.mark.parametrize(
    "R, count", [(rings.ZZ, 60), (F2X, 9), (rings.poly_ring(3), 12), (rings.poly_ring(5), 12)],
    ids=["Z", "F2[x]", "F3[x]", "F5[x]"],
)
def test_v_locus_is_the_points_that_contain_the_element(R, count):
    # Factoring (the family locus) against divisibility (membership): on
    # the generic point and the first closed points, which generate every
    # element here, V(r) holds exactly the points that contain r.  Unlike
    # the sampled check in test_topology, the elements are built from the
    # scanned points, with repeated and same-degree factors.
    closed = list(islice(R.closed_points(), count))
    gens = [IntEl(q.p) if R == rings.ZZ else PolyEl(q.coeffs) for q in closed]
    scan = [R.limit] + closed
    for r in _products(R, gens):
        V = sp.v_locus(r, R)
        assert {q for q in scan if sp._member(q, V)} == {
            q for q in scan if sp.point_contains(q, r, R)
        }, r
        assert V.cofinite or V.points <= set(scan), r


def test_v_locus_multiplicative(rng):
    for _ in range(200):
        r = IntEl(rng.randint(-300, 300))
        s = IntEl(rng.randint(-300, 300))
        if r.v == 0 or s.v == 0:
            continue
        lhs = sp.v_locus(rings.ZZ.mul(r, s), rings.ZZ)
        rhs = sp.subset_union(sp.v_locus(r, rings.ZZ), sp.v_locus(s, rings.ZZ))
        assert lhs == rhs
    p = 2
    for _ in range(200):
        a = PolyEl(tuple(rng.randrange(p) for _ in range(rng.randint(1, 5))))
        b = PolyEl(tuple(rng.randrange(p) for _ in range(rng.randint(1, 5))))
        a, b = rings.normalize(a, F2X), rings.normalize(b, F2X)
        if a.coeffs == () or b.coeffs == ():
            continue
        lhs = sp.v_locus(F2X.mul(a, b), F2X)
        rhs = sp.subset_union(sp.v_locus(a, F2X), sp.v_locus(b, F2X))
        assert lhs == rhs


# Per symbolic ring: its limit point and five points of its infinite
# family.  The sets below name only the first four, so membership at these
# six points tells any two of them apart.
FAMILY_POINTS = {
    rings.ZZ: (ZGeneric(), [ZMax(2), ZMax(3), ZMax(11), ZMax(13), ZMax(17)]),
    F2X: (
        FpxGeneric(),
        [FpxMax((0, 1)), FpxMax((1, 1)), FpxMax((1, 1, 1)), FpxMax((1, 1, 0, 1)),
         FpxMax((1, 0, 1, 1))],
    ),
    AXES_F2: (SuppTop(), [SuppMin(1), SuppMin(2), SuppMin(3), SuppMin(4), SuppMin(5)]),
}


def _check_algebra(R, subsets, probes, named) -> list:
    """Check the subset algebra on `subsets` against membership: at the
    probes, and exactly at `named`, points at which membership tells any
    two of the sets and of their combinations apart.  Returns every value
    checked."""
    derived = []
    for A in subsets:
        comp = sp.subset_complement(A)
        for p in probes:
            assert sp.subset_member(p, A) != sp.subset_member(p, comp)
        assert sp.subset_union(A, comp) == sp.whole(R)
        assert sp.subset_intersect(A, comp) == sp.empty_set(R)
        derived.append(comp)
        for B in subsets:
            u = sp.subset_union(A, B)
            i = sp.subset_intersect(A, B)
            d = sp.subset_difference(A, B)
            for p in probes:
                in_a, in_b = sp.subset_member(p, A), sp.subset_member(p, B)
                assert sp.subset_member(p, u) == (in_a or in_b)
                assert sp.subset_member(p, i) == (in_a and in_b)
                assert sp.subset_member(p, d) == (in_a and not in_b)
                if sp.subset_le(A, B):
                    assert in_b or not in_a
            assert sp.subset_le(i, A) and sp.subset_le(A, u)
            assert sp.subset_le(d, A) and sp.subset_intersect(d, B) == sp.empty_set(R)
            derived += [u, i, d]
    # Each set has one value, so == is set equality: the invariant that
    # is_dense reads, checked on the builders' and the algebra's values.
    values = subsets + derived
    pool = dict.fromkeys((E, tuple(sp.subset_member(p, E) for p in named)) for E in values)
    for A, in_a in pool:
        for B, in_b in pool:
            le = sp.subset_le(A, B)
            assert le == all(b or not a for a, b in zip(in_a, in_b))
            if A.cofinite and not B.cofinite:
                assert not le  # an infinite set inside a finite one
            assert (A == B) == (le and sp.subset_le(B, A))
            assert (A == B) == (in_a == in_b)
    return values


def test_subset_algebra_by_membership(rng):
    for R in symbolic_zoo():
        limit, family = FAMILY_POINTS[R]
        p1, p2, p3, p4, _ = family
        subsets = [
            sp.empty_set(R),
            sp.whole(R),
            sp.explicit(R, {p1, p3}),
            sp.explicit(R, {limit, p2}),
            sp.cofinite(R, {p1}, True),
            sp.cofinite(R, {p3, p4}, False),
            # The complement of the second explicit set, built directly.
            sp.cofinite(R, {p2}, False),
        ]
        _check_algebra(R, subsets, sp.sample_points(R, rng, 40), (limit, *family))


def test_no_subset_of_an_enumerable_ring_has_the_cofinite_flag(rng):
    # _subset stores a cofinite set over an enumerable ring as the finite
    # set it is, so no builder, algebra, closure or locus value there has
    # the flag, and the algebra checks above hold on these rings too.
    for R in enumerable_zoo():
        pts = sp.spec_points(R)
        elements = rings.sample_elements(R, rng, 2)
        subsets = [
            sp.empty_set(R),
            sp.whole(R),
            sp.explicit(R, pts[:1]),
            sp.explicit(R, rng.sample(pts, rng.randint(1, len(pts)))),
            sp.v_locus(elements[0], R),
            sp.d_locus(elements[1], R),
        ]
        values = _check_algebra(R, subsets, pts, pts)
        values += [
            cl(E)
            for E in subsets
            for cl in (top.zariski_closure, top.flat_closure, top.patch_closure,
                       lambda E: top.order_closure(E, up=True),
                       lambda E: top.order_closure(E, up=False))
        ]
        assert [sp.subset_str(E) for E in values if E.cofinite] == [], str(R)


def test_subset_canonicalization():
    assert sp.cofinite(rings.ZZ, set(), True) == sp.whole(rings.ZZ)
    assert sp.cofinite(AXES_F2, set(), True) == sp.whole(AXES_F2)
    assert sp.explicit(rings.ZZ, set()) == sp.empty_set(rings.ZZ)
    assert not sp.whole(rings.zmod(12)).cofinite
    assert sp.cofinite(rings.ZZ, set(), False).cofinite


def test_cofinite_refuses_the_limit_among_the_excluded_points():
    # The flag alone says whether the limit point is in the set.
    for R in symbolic_zoo():
        for with_limit in (False, True):
            with pytest.raises(KindMismatchError):
                sp.cofinite(R, {R.limit}, with_limit)


@pytest.mark.parametrize("excluded", [{1.5, True}, {True}, {False}, {2.5}, {"x"}, {None}])
def test_axes_refuse_bool_and_non_integral_indices(excluded):
    # int() used to truncate 1.5 and read True as axis 1; a point with such
    # an index was once a point of the axes ring.
    with pytest.raises(KindMismatchError):
        sp.cofinite(AXES_F2, {SuppMin(k) for k in excluded}, False)
    with pytest.raises(KindMismatchError):
        jsonio.subset_from_json({"type": "cofiniteMin", "excluded": list(excluded)}, AXES_F2)


def test_wire_axes_take_integral_numbers():
    want = sp.cofinite(AXES_F2, {SuppMin(2), SuppMin(3)}, False)
    doc = {"type": "cofiniteMin", "excluded": [2.0, "3"]}
    assert jsonio.subset_from_json(doc, AXES_F2) == want
    assert sp.subset_str(want) == "all minimal primes except P_2, P_3, without m"


def test_point_validation():
    with pytest.raises(KindMismatchError):
        sp.validate_point(ZmodPrime(5), rings.zmod(12))
    with pytest.raises(KindMismatchError):
        sp.validate_point(ZMax(6), rings.ZZ)
    with pytest.raises(KindMismatchError):
        sp.validate_point(MonoPrime(frozenset({3})), SUPP3)
    with pytest.raises(KindMismatchError):
        sp.explicit(rings.ZZ, {FieldZero()})
    sp.validate_point(FpxMax((1, 1, 1)), F2X)
    with pytest.raises(KindMismatchError):
        sp.validate_point(FpxMax((1, 0, 1)), F2X)  # (x+1)^2 over GF(2)


@pytest.fixture
def rng():
    return Random(29)


@pytest.mark.parametrize(
    "p, E",
    [
        (FpxGeneric(), sp.cofinite(rings.ZZ, {ZMax(2)}, True)),
        (ZGeneric(), sp.cofinite(F2X, set(), False)),
        (ZGeneric(), sp.cofinite(AXES_F2, {SuppMin(1)}, True)),
        (ZMax(4), sp.explicit(rings.ZZ, {ZMax(2)})),
        (ZMax(4), sp.empty_set(rings.ZZ)),
    ],
)
def test_subset_member_validates_before_answering(p, E):
    # Membership is asked only of points of E's ring, limit points and
    # empty or explicit subsets included.
    with pytest.raises(KindMismatchError):
        sp.subset_member(p, E)


# Every public entry that takes a point from the caller, with the rings it
# is defined over.  Each must refuse a foreign or non-prime point.
PROD = rings.product(rings.zmod(6), rings.zmod(10))
LOCAL = rings.localized(rings.monomial_quotient(F2, 2, {(1, 1)}))

# (ring, a bad point, a good point)
BAD_POINTS = {
    "Z-composite": (rings.ZZ, ZMax(4), ZMax(2)),
    "F2x-square": (F2X, FpxMax((0, 0, 1)), FpxMax((0, 1))),
    "F2x-foreign": (F2X, ZMax(2), FpxMax((0, 1))),
    "product-slot": (PROD, TamePrime(2, ZmodPrime(2)), TamePrime(0, ZmodPrime(2))),
    "axes-index-0": (AXES_F2, SuppMin(0), SuppMin(1)),
    # A good point equal to the bad one would absorb it in a set.
    "Z-float": (rings.ZZ, ZMax(7.0), ZMax(2)),
    "Zmod-float": (rings.zmod(12), ZmodPrime(2.0), ZmodPrime(3)),
    "axes-float": (AXES_F2, SuppMin(1.5), SuppMin(2)),
    "axes-bool": (AXES_F2, SuppMin(True), SuppMin(2)),
    "F2x-float": (F2X, FpxMax((1.0, 1)), FpxMax((0, 1))),
    "F2x-bool": (F2X, FpxMax((True, True)), FpxMax((0, 1))),
    "product-bool-slot": (PROD, TamePrime(True, ZmodPrime(5)), TamePrime(0, ZmodPrime(2))),
    "local-float-index": (LOCAL, MonoPrime(frozenset({1.0})), MonoPrime(frozenset({2}))),
    "local-bool-index": (LOCAL, MonoPrime(frozenset({True})), MonoPrime(frozenset({2}))),
    "local-index-0": (LOCAL, MonoPrime(frozenset({0, 1})), MonoPrime(frozenset({2}))),
    "local-index-above": (LOCAL, MonoPrime(frozenset({1, 3})), MonoPrime(frozenset({2}))),
}
# The wire reads an integral number as the integer it equals, so these
# bad points are good ones once written as JSON.
INTEGRAL_ON_THE_WIRE = {"Z-float", "Zmod-float", "F2x-float", "local-float-index"}


ENTRIES = {
    "explicit": (lambda R, p, good: sp.explicit(R, {p}), None),
    "cofinite": (lambda R, p, good: sp.cofinite(R, {p}, True), lambda R: R.symbolic),
    # The up set V(p) and the down set of a point: the Zariski and flat
    # closures of the one-point set.
    "up_set": (lambda R, p, good: top.zariski_closure(sp.explicit(R, {p})), None),
    "down_set": (lambda R, p, good: top.flat_closure(sp.explicit(R, {p})), None),
    "leq_left": (lambda R, p, good: sp.leq_specialization(p, good, R), None),
    "leq_right": (lambda R, p, good: sp.leq_specialization(good, p, R), None),
    "point_contains": (lambda R, p, good: sp.point_contains(p, rings.one(R), R), None),
    "point_ideal": (lambda R, p, good: sp.point_ideal(p, R), None),
    "member_empty": (lambda R, p, good: sp.subset_member(p, sp.empty_set(R)), None),
    "member_explicit": (
        lambda R, p, good: sp.subset_member(p, sp.explicit(R, {good})),
        None,
    ),
    "member_whole": (lambda R, p, good: sp.subset_member(p, sp.whole(R)), None),
    "member_cofinite_with_limit": (
        lambda R, p, good: sp.subset_member(p, sp.cofinite(R, {good}, True)),
        lambda R: R.symbolic,
    ),
    "member_cofinite_without_limit": (
        lambda R, p, good: sp.subset_member(p, sp.cofinite(R, {good}, False)),
        lambda R: R.symbolic,
    ),
    "jsonio_explicit": (
        lambda R, p, good: jsonio.subset_from_json(
            {"type": "explicit", "points": [jsonio.point_to_json(p)]}, R
        ),
        None,
    ),
    "jsonio_cofiniteMin": (
        lambda R, p, good: jsonio.subset_from_json(
            {"type": "cofiniteMin", "excluded": [p.k]}, R
        ),
        lambda R: R.limit_above,
    ),
    "jsonio_cofiniteClosed": (
        lambda R, p, good: jsonio.subset_from_json(
            {"type": "cofiniteClosed", "excluded": [jsonio.point_to_json(p)]}, R
        ),
        lambda R: R.symbolic and not R.limit_above,
    ),
    "jsonio_quotient_map": (
        lambda R, p, good: jsonio.map_from_json(
            {
                "type": "quotientMap",
                "ring": jsonio.ring_to_json(R),
                "prime": jsonio.point_to_json(p),
            }
        ),
        None,
    ),
    "contract": (lambda R, p, good: maps.contract(maps.QuotientMap(R, good), p), None),
    "residue_contract": (
        lambda R, p, good: maps.contract(maps.ResidueMap(R, p), FieldZero()),
        None,
    ),
    "contract_local_slot": (
        lambda R, p, good: maps.contract(
            maps.CanonicalIntoLocalProduct(sp.whole(R)), TamePrime(good, p)
        ),
        None,
    ),
    "laying_over": (
        lambda R, p, good: maps.laying_over(maps.QuotientMap(R, good), p),
        None,
    ),
    "is_injective": (lambda R, p, good: maps.is_injective(maps.QuotientMap(R, p)), None),
    "residue_field": (lambda R, p, good: maps.residue_field(R, p), None),
    "absorbance_holds": (lambda R, p, good: construction.absorbance_holds(sp.explicit(R, [good, p])), None),
    "avoidance_holds": (lambda R, p, good: construction.avoidance_holds(sp.explicit(R, [good, p])), None),
    "tame_points": (lambda R, p, good: maps.tame_points(maps.QuotientMap(R, p)), None),
}


@pytest.mark.parametrize(
    "entry, case",
    [
        (entry, case)
        for entry, (_, applies) in ENTRIES.items()
        for case, (R, _, _) in BAD_POINTS.items()
        if (applies is None or applies(R))
        and not (entry.startswith("jsonio_") and case in INTEGRAL_ON_THE_WIRE)
    ],
)
def test_every_entry_refuses_a_bad_point(entry, case):
    fn, _ = ENTRIES[entry]
    R, bad, good = BAD_POINTS[case]
    try:
        fn(R, good, good)
    except KindMismatchError:
        pytest.fail("the good point was refused")
    except SpectopError:
        pass  # refused for another reason, e.g. a map that is not injective
    with pytest.raises(KindMismatchError):
        fn(R, bad, good)


def test_existing_subsets_are_not_validated_again(monkeypatch):
    E = sp.explicit(F2X, {FpxGeneric(), FpxMax((0, 1)), FpxMax((1, 1, 1)), FpxMax((1, 1, 0, 1))})
    F = sp.explicit(F2X, {FpxMax((1, 1)), FpxMax((1, 0, 1, 1))})
    G = sp.cofinite(F2X, {FpxMax((1, 1, 1))}, False)
    calls = []
    real = gfpoly.is_irreducible
    monkeypatch.setattr(
        gfpoly, "is_irreducible", lambda f, p: calls.append(f) or real(f, p)
    )
    top.zariski_closure(E)
    top.flat_closure(E)
    sp.subset_union(E, F)
    sp.subset_union(E, G)
    assert calls == []


def _chain_sort_key(p):
    """The isinstance chain point_sort_key replaced, kept as its oracle."""
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
        slot = (0, p.slot, ()) if isinstance(p.slot, int) else (1,) + _chain_sort_key(p.slot)
        return (3, slot, _chain_sort_key(p.inner))
    raise KindMismatchError(f"unknown point {p}")


# Each ring with its window: every point of an enumerable spectrum, or the
# limit and five family points of a symbolic one.
BOOLEAN_WINDOWS = [(R, tuple(sp.spec_points(R))) for R in enumerable_zoo()] + [
    (R, (limit, *family)) for R, (limit, family) in FAMILY_POINTS.items()
]


@st.composite
def modelled_subsets(draw):
    """A ring, its window, and three subsets, each with its model: the
    frozenset of its members in the window, and whether it holds every
    point outside the window.  An enumerable window is the whole spectrum,
    so there the model is the plain frozenset of the subset's points."""
    R, window = draw(st.sampled_from(BOOLEAN_WINDOWS))
    subsets = []
    for _ in range(3):
        inside = frozenset(draw(st.sets(st.sampled_from(window))))
        if R.symbolic and draw(st.booleans()):
            family = frozenset(window) - {R.limit}
            subsets.append((sp.cofinite(R, family - inside, R.limit in inside), (inside, True)))
        else:
            subsets.append((sp.explicit(R, inside), (inside, False)))
    return R, window, subsets


@settings(PROPERTY, max_examples=300)
@given(modelled_subsets())
def test_boolean_laws_on_both_forms(case):
    R, window, subsets = case
    union, meet, comp = sp.subset_union, sp.subset_intersect, sp.subset_complement
    whole, empty = sp.whole(R), sp.empty_set(R)

    def model(E):
        return frozenset(p for p in window if sp._member(p, E)), sp.is_infinite(E)

    for E, m in subsets:
        assert model(E) == m
    (A, (a, ia)), (B, (b, ib)), (D, _) = subsets
    # The operations against the model; no enumerable subset is infinite.
    assert model(union(A, B)) == (a | b, ia or ib)
    assert model(meet(A, B)) == (a & b, ia and ib)
    assert model(comp(A)) == (frozenset(window) - a, R.symbolic and not ia)
    assert model(sp.subset_difference(A, B)) == (a - b, ia and not ib)
    assert sp.subset_le(A, B) == (a <= b and (ib or not ia))
    # De Morgan, absorption, complement, distributivity and inclusion.
    assert comp(union(A, B)) == meet(comp(A), comp(B))
    assert comp(meet(A, B)) == union(comp(A), comp(B))
    assert union(A, meet(A, B)) == A == meet(A, union(A, B))
    assert union(A, comp(A)) == whole and meet(A, comp(A)) == empty and comp(comp(A)) == A
    assert meet(A, union(B, D)) == union(meet(A, B), meet(A, D))
    assert sp.subset_le(A, B) == (union(A, B) == B) == (meet(A, B) == A)


SORTED_RINGS = enumerable_zoo() + symbolic_zoo() + [
    rings.localized(rings.monomial_quotient(F2, 3, {(1, 1), (0, 1, 1), (1, 0, 1)})),
    rings.poly_ring(3),
]


@st.composite
def sampled_points(draw):
    """A point sampled from a ring of some family, or a tame prime of a
    canonical map's target, whose slot is a base point."""
    R = draw(st.sampled_from(SORTED_RINGS))
    rng = draw(st.randoms(use_true_random=False))
    p = sp.sample_points(R, rng, 1)[0]
    if draw(st.booleans()):
        p = TamePrime(sp.sample_points(R, rng, 1)[0], p)
    return p


@PROPERTY
@given(st.lists(sampled_points(), max_size=8))
def test_point_sort_key_orders_as_the_isinstance_chain(points):
    for p in points:
        assert sp.point_sort_key(p) == _chain_sort_key(p)
    assert sp.sorted_points(points) == sorted(points, key=_chain_sort_key)


@pytest.mark.parametrize("value", [IntEl(2), "m", None, 3, TamePrime(0, IntEl(2))])
def test_point_sort_key_refuses_a_non_point(value):
    with pytest.raises(KindMismatchError, match="unknown point"):
        sp.point_sort_key(value)
