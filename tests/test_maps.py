from itertools import combinations
from random import Random

import pytest

from conftest import AXES_F2, F2, F2X, SUPP3, enumerable_zoo, symbolic_zoo
from spectop import maps, rings
from spectop.primes import factorint
from spectop import spectrum as sp
from spectop import topology as top
from spectop.errors import (
    FactorizationLimitError,
    KindMismatchError,
    LyingOverNotFoundError,
    NonEnumerableError,
    WildPrimeError,
)
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


def test_contract_examples():
    m = maps.QuotientMap(rings.ZZ, ZMax(5))
    assert maps.contract(m, FieldZero()) == ZMax(5)
    m2 = maps.DiagonalIntoModProduct(6, (2, 3))
    assert maps.contract(m2, TamePrime(0, ZmodPrime(2))) == ZmodPrime(2)
    m3 = maps.CanonicalIntoLocalProduct(sp.explicit(rings.ZZ, {ZMax(2)}))
    assert maps.contract(m3, TamePrime(0, ZGeneric())) == ZGeneric()


def test_contract_rejects_non_dominating_points():
    m = maps.QuotientMap(rings.ZZ, ZMax(5))
    with pytest.raises(WildPrimeError):
        maps.contract(m, ZMax(7))
    m2 = maps.CanonicalIntoLocalProduct(sp.explicit(rings.ZZ, {ZMax(2)}))
    with pytest.raises(WildPrimeError):
        maps.contract(m2, TamePrime(0, ZMax(3)))


def test_contract_monotone_within_slot():
    for R in enumerable_zoo():
        pts = sp.spec_points(R)
        E = sp.explicit(R, pts)
        m = maps.CanonicalIntoQuotientProduct(E)
        tames = maps.tame_points(m)
        for a in tames:
            for b in tames:
                if a.slot == b.slot and sp.leq_specialization(a.inner, b.inner, R):
                    ca, cb = maps.contract(m, a), maps.contract(m, b)
                    assert sp.leq_specialization(ca, cb, R)


def test_is_injective_examples():
    assert maps.is_injective(maps.DiagonalIntoModProduct(6, (2, 3)))
    assert not maps.is_injective(maps.DiagonalIntoModProduct(12, (2, 3)))
    E = sp.explicit(rings.ZZ, {ZMax(2), ZMax(3)})
    assert not maps.is_injective(maps.CanonicalIntoQuotientProduct(E))
    E2 = sp.cofinite_closed(rings.ZZ, {ZMax(11)}, False)
    assert maps.is_injective(maps.CanonicalIntoQuotientProduct(E2))
    assert maps.is_injective(maps.QuotientMap(rings.ZZ, ZGeneric()))
    assert not maps.is_injective(maps.QuotientMap(rings.ZZ, ZMax(7)))


def test_is_injective_residue_and_quotient_over_products():
    # One factor: the product is the factor itself, so F_5 -> F_5 is injective.
    f5 = rings.product(rings.prime_field(5))
    assert maps.is_injective(maps.ResidueMap(f5, TamePrime(0, FieldZero())))
    assert maps.is_injective(maps.QuotientMap(f5, TamePrime(0, FieldZero())))
    z6 = rings.product(rings.zmod(6))
    assert not maps.is_injective(maps.QuotientMap(z6, TamePrime(0, ZmodPrime(2))))
    # Two factors: the prime holds the other slot's unit idempotent.
    f5_f7 = rings.product(rings.prime_field(5), rings.prime_field(7))
    for slot in (0, 1):
        assert not maps.is_injective(maps.ResidueMap(f5_f7, TamePrime(slot, FieldZero())))
        assert not maps.is_injective(maps.QuotientMap(f5_f7, TamePrime(slot, FieldZero())))


def test_is_injective_axes_cases():
    mins = [p for p in sp.spec_points(SUPP3) if len(p.cover) == 2]
    all_mins = sp.explicit(SUPP3, mins)
    assert maps.is_injective(maps.CanonicalIntoQuotientProduct(all_mins))
    two = sp.explicit(SUPP3, mins[:2])
    assert not maps.is_injective(maps.CanonicalIntoQuotientProduct(two))
    assert maps.is_injective(maps.CanonicalIntoLocalProduct(all_mins))
    assert not maps.is_injective(maps.CanonicalIntoLocalProduct(two))
    assert maps.is_injective(
        maps.CanonicalIntoQuotientProduct(sp.cofinite_min(AXES_F2, set(), False))
    )
    assert not maps.is_injective(
        maps.CanonicalIntoQuotientProduct(sp.cofinite_min(AXES_F2, {3}, True))
    )


def test_diagonal_refuses_divisors_below_one():
    for divisors in ((0,), (-2, 3), (-6,)):
        m = maps.DiagonalIntoModProduct(6, divisors)
        with pytest.raises(KindMismatchError, match="positive and divide n"):
            maps.is_injective(m)
        with pytest.raises(KindMismatchError, match="positive and divide n"):
            maps.laying_over(m, ZmodPrime(2))


def test_diagonal_checks_divisors_in_every_rule():
    # 10 does not divide 6, and 0 is no divisor: (5) is no prime of Z/6.
    five = TamePrime(0, ZmodPrime(5))
    for divisors in ((10,), (0,), (2, 10)):
        m = maps.DiagonalIntoModProduct(6, divisors)
        for rule in (maps.is_injective, maps.tame_points, lambda m: maps.contract(m, five)):
            with pytest.raises(KindMismatchError, match="positive and divide n"):
                rule(m)


def test_diagonal_source_takes_the_bound_as_a_value():
    n = 2**70 + 1
    with pytest.raises(FactorizationLimitError):
        maps.DiagonalIntoModProduct(n, (n,)).source
    m = maps.DiagonalIntoModProduct(n, (n,), limit=None)
    assert m.source == rings.zmod(n, limit=None)
    assert m == maps.DiagonalIntoModProduct(n, (n,))  # the bound is no part of the map
    assert maps.tame_points(m) == [
        TamePrime(0, ZmodPrime(p)) for p, _ in m.source.factorization
    ]


def test_diagonal_tame_points_match_factoring_each_divisor():
    # The rule that factored each divisor on its own, kept as the oracle
    # for the primes of n that divide it.
    rng = Random(12)
    for n in range(2, 2001):
        divs = [d for d in range(1, n + 1) if n % d == 0]
        samples = [tuple(divs)] + [
            tuple(rng.choice(divs) for _ in range(rng.randint(0, 4))) for _ in range(3)
        ]
        for divisors in samples:
            expected = [
                TamePrime(slot, ZmodPrime(p))
                for slot, d in enumerate(divisors)
                for p, _ in factorint(d)
            ]
            assert maps.tame_points(maps.DiagonalIntoModProduct(n, divisors)) == expected


def test_laying_over_local_product_of_a_finite_set():
    # The least member of E above p is the slot; for a finite E one exists
    # whenever the map is injective.
    for R, members, p, slot in (
        (rings.ZZ, [ZMax(3)], ZGeneric(), ZMax(3)),
        (rings.ZZ, [ZMax(7), ZMax(3)], ZGeneric(), ZMax(3)),
        (F2X, [sp.FpxMax((1, 1)), sp.FpxMax((0, 1))], sp.FpxGeneric(), sp.FpxMax((0, 1))),
        (AXES_F2, [SuppTop()], SuppMin(4), SuppTop()),
        (AXES_F2, [SuppMin(1), SuppTop()], SuppMin(4), SuppTop()),
    ):
        m = maps.CanonicalIntoLocalProduct(sp.explicit(R, members))
        assert maps.is_injective(m)
        q = maps.laying_over(m, p)
        assert q == TamePrime(slot, p)
        assert maps.contract(m, q) == p


def test_laying_over_examples():
    m = maps.DiagonalIntoModProduct(6, (2, 3))
    q = maps.laying_over(m, ZmodPrime(2))
    assert q == TamePrime(0, ZmodPrime(2))
    assert maps.contract(m, q) == ZmodPrime(2)

    mins = sorted(
        (p for p in sp.spec_points(SUPP3) if len(p.cover) == 2),
        key=sp.point_sort_key,
    )
    E = sp.explicit(SUPP3, mins)
    m2 = maps.CanonicalIntoQuotientProduct(E)
    q2 = maps.laying_over(m2, mins[0])
    assert maps.contract(m2, q2) == mins[0]

    m3 = maps.QuotientMap(rings.ZZ, ZGeneric())
    assert maps.laying_over(m3, ZGeneric()) == ZGeneric()


def test_laying_over_round_trip_enumerable(rng):
    for R in enumerable_zoo():
        pts = sp.spec_points(R)
        if len(pts) > 8:
            continue
        E = sp.explicit(R, pts)
        for m in (
            maps.CanonicalIntoQuotientProduct(E),
            maps.CanonicalIntoLocalProduct(E),
        ):
            if not maps.is_injective(m):
                continue
            minimals = [
                p
                for p in pts
                if not any(q != p and sp.leq_specialization(q, p, R) for q in pts)
            ]
            for p in minimals:
                q = maps.laying_over(m, p)
                assert maps.contract(m, q) == p


def test_laying_over_symbolic_local(rng):
    for _ in range(25):
        excl = {ZMax(p) for p in rng.sample((2, 3, 5, 7, 11), rng.randint(0, 3))}
        E = sp.cofinite_closed(rings.ZZ, excl, rng.random() < 0.5)
        m = maps.CanonicalIntoLocalProduct(E)
        q = maps.laying_over(m, ZGeneric())
        assert maps.contract(m, q) == ZGeneric()
    E2 = sp.cofinite_min(AXES_F2, {2}, True)
    m2 = maps.CanonicalIntoLocalProduct(E2)
    q2 = maps.laying_over(m2, SuppMin(2))
    assert q2 == TamePrime(SuppTop(), SuppMin(2))
    assert maps.contract(m2, q2) == SuppMin(2)


def test_laying_over_wild_only_case_refuses():
    E = sp.cofinite_closed(rings.ZZ, {ZMax(11)}, False)
    m = maps.CanonicalIntoQuotientProduct(E)
    assert maps.is_injective(m)
    with pytest.raises(NonEnumerableError):
        maps.laying_over(m, ZGeneric())


def test_laying_over_misuse():
    m = maps.DiagonalIntoModProduct(12, (2, 3))  # lcm 6 != 12
    with pytest.raises(LyingOverNotFoundError):
        maps.laying_over(m, ZmodPrime(2))
    m2 = maps.CanonicalIntoQuotientProduct(
        sp.cofinite_min(AXES_F2, set(), False)
    )
    with pytest.raises(LyingOverNotFoundError):
        maps.laying_over(m2, SuppTop())


def test_residue_field_examples():
    assert maps.residue_field(rings.ZZ, ZMax(7)) == maps.ResidueField(
        "F_7", rings.prime_field(7)
    )
    assert maps.residue_field(rings.ZZ, ZGeneric()) == maps.ResidueField("Q", rings.QQ)
    rf = maps.residue_field(SUPP3, MonoPrime(frozenset({2, 3})))
    assert rf.ring is None and rf.label == "F_2(x1)"
    rf2 = maps.residue_field(AXES_F2, SuppMin(4))
    assert rf2.label == "F_2(x4)"
    rf3 = maps.residue_field(F2X, sp.FpxMax((1, 1, 1)))
    assert rf3.label == "GF(2^2)" and rf3.ring is None
    rf4 = maps.residue_field(AXES_F2, SuppTop())
    assert rf4.ring == F2


def test_patch_identity_finite():
    for R in enumerable_zoo():
        pts = sp.spec_points(R)
        if len(pts) > 8:
            continue
        for k in range(len(pts) + 1):
            for sub in combinations(pts, k):
                E = sp.explicit(R, sub)
                assert maps.residue_product_image(E) == top.patch_closure(E)


def test_patch_identity_symbolic(rng):
    for R in symbolic_zoo():
        for _ in range(70):
            E = _random_subset(R, rng)
            assert maps.residue_product_image(E) == top.patch_closure(E)


def test_laying_over_does_not_hide_kind_mismatch(monkeypatch):
    # Tame candidates always match their ring, so a KindMismatchError from
    # contract is an engine bug, not "no tame prime lies over".
    def broken_contract(m, q):
        raise KindMismatchError("engine bug")

    monkeypatch.setattr(maps, "contract", broken_contract)
    with pytest.raises(KindMismatchError):
        maps.laying_over(maps.DiagonalIntoModProduct(6, (2, 3)), ZmodPrime(2))


def _random_subset(R, rng):
    roll = rng.random()
    if roll < 0.1:
        return sp.empty_set(R)
    if roll < 0.2:
        return sp.whole(R)
    if roll < 0.5:
        return sp.explicit(R, sp.sample_points(R, rng, rng.randint(1, 4)))
    excl = sp.sample_points(R, rng, rng.randint(0, 3))
    flag = rng.random() < 0.5
    if isinstance(R, rings.SymbolicSupplement):
        return sp.cofinite_min(R, {p.k for p in excl if isinstance(p, SuppMin)}, flag)
    closed = {p for p in excl if not isinstance(p, (sp.ZGeneric, sp.FpxGeneric))}
    return sp.cofinite_closed(R, closed, flag)


@pytest.fixture
def rng():
    return Random(43)
