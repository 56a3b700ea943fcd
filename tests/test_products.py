from itertools import combinations
from random import Random

import pytest

from conftest import AXES_F2, F2, SUPP3, enumerable_zoo
from spectop import construction, maps, products, rings
from spectop import spectrum as sp
from spectop import topology as top
from spectop.errors import BadSlotError, NonEnumerableError, UnsupportedError
from spectop.rings import IntEl, ModEl, TupleEl
from spectop.spectrum import (
    FieldZero,
    MonoPrime,
    SuppMin,
    SuppTop,
    TamePrime,
    ZGeneric,
    ZmodPrime,
    ZMax,
)


def test_unit_idempotents():
    R = rings.product(rings.zmod(4), rings.zmod(9))
    e0 = products.unit_idempotent(0, R)
    e1 = products.unit_idempotent(1, R)
    assert e0 == TupleEl((ModEl(1), ModEl(0)))
    assert rings.mul(R, e0, e0) == e0
    assert rings.mul(R, e0, e1) == rings.zero(R)
    assert rings.add(R, e0, e1) == rings.one(R)
    with pytest.raises(BadSlotError):
        products.unit_idempotent(2, R)


def test_idempotent_laws_random_products(rng):
    for _ in range(20):
        k = rng.randint(1, 4)
        R = rings.product(*[rings.zmod(rng.randint(2, 50)) for _ in range(k)])
        total = rings.zero(R)
        for i in range(k):
            ei = products.unit_idempotent(i, R)
            assert rings.mul(R, ei, ei) == ei
            for j in range(k):
                if i != j:
                    ej = products.unit_idempotent(j, R)
                    assert rings.mul(R, ei, ej) == rings.zero(R)
            total = rings.add(R, total, ei)
        assert total == rings.one(R)


def test_unit_idempotents_sum_to_one():
    # The direct sum of finitely many factors holds the sum of the e_k,
    # which is 1: a finite product has no wild primes.
    for R in (
        rings.product(rings.zmod(4), rings.zmod(9)),
        rings.product(rings.zmod(4), rings.zmod(9), rings.zmod(25)),
        rings.product(rings.zmod(8)),
    ):
        total = rings.zero(R)
        for k in range(len(R.factors)):
            total = rings.add(R, total, products.unit_idempotent(k, R))
        assert total == rings.one(R)


def test_contract_along_canonical_product_maps():
    E = sp.explicit(rings.ZZ, {ZMax(2), ZMax(3)})
    m = maps.CanonicalIntoQuotientProduct(E)
    assert maps.contract(m, TamePrime(0, FieldZero())) == ZMax(2)
    E_loc = sp.explicit(rings.ZZ, {ZMax(5)})
    m_loc = maps.CanonicalIntoLocalProduct(E_loc)
    assert maps.contract(m_loc, TamePrime(0, ZGeneric())) == ZGeneric()
    mins = sorted(
        (p for p in sp.spec_points(SUPP3) if len(p.cover) == 2),
        key=sp.point_sort_key,
    )
    E_s = sp.explicit(SUPP3, mins[:2])
    m_s = maps.CanonicalIntoQuotientProduct(E_s)
    full = MonoPrime(frozenset({1, 2, 3}))
    assert maps.contract(m_s, TamePrime(1, full)) == full


def test_quotient_image_finite_examples():
    E = sp.explicit(rings.ZZ, {ZMax(2), ZMax(3)})
    assert products.quotient_product_image(E) == E
    E_gen = sp.explicit(rings.ZZ, {ZGeneric(), ZMax(5)})
    assert products.quotient_product_image(E_gen) == sp.whole(rings.ZZ)


def test_quotient_image_symbolic_examples():
    E = sp.cofinite(rings.ZZ, {ZMax(11)}, False)
    assert products.quotient_product_image(E) == sp.cofinite(
        rings.ZZ, {ZMax(11)}, True
    )
    E2 = sp.cofinite(AXES_F2, set(), False)
    assert products.quotient_product_image(E2) == sp.whole(AXES_F2)


def test_quotient_image_with_generic_member_is_whole():
    # A set containing the generic point routes through the factor
    # R/(0) = R, whose spectrum contracts onto everything.
    E = sp.cofinite(rings.ZZ, {ZMax(11)}, True)
    assert products.quotient_product_image(E) == sp.whole(rings.ZZ)
    assert products.local_product_image(E) == E


def test_patch_identity_image_intersection(rng):
    # On the symbolic families the patch closure is the intersection of
    # the two canonical images.
    for _ in range(80):
        if rng.random() < 0.5:
            R = rings.ZZ
            excl = {ZMax(p) for p in rng.sample((2, 3, 5, 7, 11, 13), rng.randint(0, 3))}
            E = sp.cofinite(R, excl, rng.random() < 0.5)
        else:
            R = AXES_F2
            excl = {SuppMin(k) for k in rng.sample(range(1, 12), rng.randint(0, 3))}
            E = sp.cofinite(R, excl, rng.random() < 0.5)
        both = sp.subset_intersect(
            products.quotient_product_image(E), products.local_product_image(E)
        )
        assert both == top.patch_closure(E)


def test_local_image_examples():
    E = sp.explicit(rings.ZZ, {ZMax(2), ZMax(3)})
    assert products.local_product_image(E) == sp.explicit(
        rings.ZZ, {ZGeneric(), ZMax(2), ZMax(3)}
    )
    E2 = sp.cofinite(rings.ZZ, {ZMax(11)}, False)
    assert products.local_product_image(E2) == sp.cofinite(
        rings.ZZ, {ZMax(11)}, True
    )
    E3 = sp.cofinite(AXES_F2, {SuppMin(5)}, False)
    assert products.local_product_image(E3) == sp.cofinite(AXES_F2, {SuppMin(5)}, True)
    E4 = sp.explicit(AXES_F2, {SuppTop()})
    assert products.local_product_image(E4) == sp.whole(AXES_F2)


def test_brute_force_examples():
    R = rings.zmod(12)
    E = sp.explicit(R, {ZmodPrime(2)})
    assert products.brute_force_image(E, products.QUOTIENT) == E
    mins = sorted(
        (p for p in sp.spec_points(SUPP3) if len(p.cover) == 2),
        key=sp.point_sort_key,
    )
    one_min = sp.explicit(SUPP3, {mins[0]})
    assert products.brute_force_image(one_min, products.LOCAL) == one_min
    two_mins = sp.explicit(SUPP3, mins[:2])
    got = products.brute_force_image(two_mins, products.QUOTIENT)
    expected = sp.explicit(SUPP3, set(mins[:2]) | {MonoPrime(frozenset({1, 2, 3}))})
    assert got == expected


def test_brute_force_requires_finite_enumerable():
    with pytest.raises(NonEnumerableError):
        products.brute_force_image(
            sp.cofinite(rings.ZZ, set(), False), products.QUOTIENT
        )


def test_oracle_agreement_exhaustive():
    zoo = enumerable_zoo() + [construction.build_supplement(F2, 7)]
    for R in zoo:
        pts = sp.spec_points(R)
        if len(pts) > 8:
            continue
        for k in range(len(pts) + 1):
            for sub in combinations(pts, k):
                E = sp.explicit(R, sub)
                for kind, image_op, closure_op in (
                    (products.QUOTIENT, products.quotient_product_image, top.zariski_closure),
                    (products.LOCAL, products.local_product_image, top.flat_closure),
                ):
                    formula = image_op(E)
                    oracle = products.brute_force_image(E, kind)
                    assert formula == oracle
                    assert sp.subset_le(E, formula)
                    assert sp.subset_le(formula, closure_op(E))


def test_is_unit_in_quotient_product_examples():
    E = sp.cofinite(rings.ZZ, {ZMax(11)}, False)
    assert products.is_unit_in_quotient_product(IntEl(11), E)
    assert not products.is_unit_in_quotient_product(IntEl(6), E)
    mins = sorted(
        (p for p in sp.spec_points(SUPP3) if len(p.cover) == 2),
        key=sp.point_sort_key,
    )
    # P_2 and P_3 both contain x1.
    E_s = sp.explicit(SUPP3, {MonoPrime(frozenset({1, 3})), MonoPrime(frozenset({1, 2}))})
    x1 = rings.var_el(SUPP3, 1)
    assert not products.is_unit_in_quotient_product(x1, E_s)
    assert products.is_unit_in_quotient_product(
        rings.mpoly_el(SUPP3, {(): 1, (1,): 1}), E_s
    )
    # A unit of R/p avoids every prime above p, not only p.  2 is no unit
    # of Z/(0) = Z, also when (0) is one member among many.
    assert not products.is_unit_in_quotient_product(IntEl(2), sp.explicit(rings.ZZ, {ZGeneric()}))
    assert not products.is_unit_in_quotient_product(
        IntEl(2), sp.cofinite(rings.ZZ, {ZMax(2)}, True)
    )
    # R/P_2 is F_2[x_2] localized at (x_2), where x_2 is no unit.
    assert not products.is_unit_in_quotient_product(
        rings.var_el(AXES_F2, 2), sp.explicit(AXES_F2, {SuppMin(2)})
    )


def test_unit_in_quotient_product_by_maximal_ideals(rng):
    # r is a unit in R/p exactly when no maximal ideal above p contains it.
    for R in enumerable_zoo():
        pts = sp.spec_points(R)
        maximal = [q for q in pts if R.reach(frozenset((q,)), True) == {q}]
        elements = rings.sample_elements(R, rng, 6) + [rings.zero(R), rings.one(R)]
        for r in elements:
            in_maximal = [q for q in maximal if sp.point_contains(q, r, R)]
            for k in range(len(pts) + 1):
                for sub in combinations(pts, k):
                    want = not any(
                        sp.leq_specialization(p, q, R) for p in sub for q in in_maximal
                    )
                    got = products.is_unit_in_quotient_product(r, sp.explicit(R, sub))
                    assert got == want, (str(R), r, sub)


def test_nilradical_product_law_examples():
    assert products.nilradical_product_law_check(
        rings.product(rings.zmod(4), rings.zmod(9))
    )
    assert products.nilradical_product_law_check(
        rings.product(rings.zmod(12), rings.zmod(12))
    )
    assert products.nilradical_product_law_check(rings.product(rings.zmod(8)))


def test_nilradical_product_law_refuses_indices_squaring_cannot_see():
    # 2 is nilpotent of index e in Z/2^e; eight squarings reach index 256.
    big = rings.zmod(2**200, limit=None)
    assert products.nilradical_product_law_check(rings.product(big, rings.zmod(9)))
    huge = rings.zmod(2**300, limit=None)
    with pytest.raises(UnsupportedError):
        products.nilradical_product_law_check(rings.product(huge))


def test_strictness_demos():
    E = sp.cofinite(rings.ZZ, {ZMax(11)}, False)
    rep = products.strictness_demo(E, top.ZARISKI)
    assert rep.strict and rep.witness == ZMax(11)
    assert rep.image == sp.cofinite(rings.ZZ, {ZMax(11)}, True)
    assert rep.closure == sp.whole(rings.ZZ)

    E2 = sp.cofinite(AXES_F2, {SuppMin(7)}, False)
    rep2 = products.strictness_demo(E2, top.FLAT)
    assert rep2.strict and rep2.witness == SuppMin(7)

    E3 = sp.explicit(rings.ZZ, {ZMax(2), ZMax(3)})
    rep3 = products.strictness_demo(E3, top.ZARISKI)
    assert not rep3.strict and rep3.witness is None
    assert rep3.image == rep3.closure == E3


def test_images_inside_closures_symbolic(rng):
    for _ in range(120):
        if rng.random() < 0.5:
            R = rings.ZZ
            excl = {ZMax(p) for p in rng.sample((2, 3, 5, 7, 11, 13), rng.randint(0, 3))}
            E = sp.cofinite(R, excl, rng.random() < 0.5)
        else:
            R = AXES_F2
            excl = {SuppMin(k) for k in rng.sample(range(1, 12), rng.randint(0, 3))}
            E = sp.cofinite(R, excl, rng.random() < 0.5)
        qi = products.quotient_product_image(E)
        li = products.local_product_image(E)
        assert sp.subset_le(E, qi) and sp.subset_le(E, li)
        assert sp.subset_le(qi, top.zariski_closure(E))
        assert sp.subset_le(li, top.flat_closure(E))
        probes = sp.sample_points(R, rng, 6)
        for p in probes:
            if sp.subset_member(p, qi):
                assert sp.subset_member(p, top.zariski_closure(E))
            if sp.subset_member(p, li):
                assert sp.subset_member(p, top.flat_closure(E))


def test_dedekind_image_pair_on_polynomials(rng):
    # Both images over GF(2)[x] add exactly the generic point, and the
    # local image equals the flat closure.
    from spectop import gfpoly

    pool = []
    gen = gfpoly.irreducibles(2)
    for _ in range(8):
        pool.append(next(gen))
    F2X = rings.poly_ring(2)
    for _ in range(25):
        excl = {sp.FpxMax(f) for f in rng.sample(pool, rng.randint(0, 3))}
        E = sp.cofinite(F2X, excl, False)
        expected = sp.cofinite(F2X, excl, True)
        assert products.quotient_product_image(E) == expected
        li = products.local_product_image(E)
        assert li == expected
        assert li == top.flat_closure(E)


@pytest.fixture
def rng():
    return Random(41)


def test_image_report_witness_invariant(rng):
    # strict iff a witness exists, and the witness sits in the closure
    # but not in the image.
    cases = [
        (rings.ZZ, sp.cofinite(rings.ZZ, {ZMax(11)}, False), top.ZARISKI),
        (rings.ZZ, sp.cofinite(rings.ZZ, {ZMax(2)}, False), top.FLAT),
        (AXES_F2, sp.cofinite(AXES_F2, {SuppMin(3), SuppMin(4)}, False), top.FLAT),
        (AXES_F2, sp.cofinite(AXES_F2, {SuppMin(3)}, False), top.ZARISKI),
        (rings.ZZ, sp.explicit(rings.ZZ, {ZMax(2), ZMax(3)}), top.ZARISKI),
    ]
    for R, E, t in cases:
        rep = products.strictness_demo(E, t)
        assert rep.strict == (rep.witness is not None)
        if rep.witness is not None:
            assert sp.subset_member(rep.witness, rep.closure)
            assert not sp.subset_member(rep.witness, rep.image)
