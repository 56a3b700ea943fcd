import math
from itertools import combinations
from random import Random

import pytest

from conftest import AXES_F2, F2, F2X, SUPP3, enumerable_zoo, random_symbolic_subset, symbolic_zoo
from spectop import construction, maps, products, rings
from spectop.primes import factorint
from spectop import spectrum as sp
from spectop import topology as top
from spectop.errors import (
    BadArityError,
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
    E2 = sp.cofinite(rings.ZZ, {ZMax(11)}, False)
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
        maps.CanonicalIntoQuotientProduct(sp.cofinite(AXES_F2, set(), False))
    )
    assert not maps.is_injective(
        maps.CanonicalIntoQuotientProduct(sp.cofinite(AXES_F2, {SuppMin(3)}, True))
    )


# The kernel arithmetic the injectivity rules replaced, kept as their
# oracle: slot by slot, a slot with no member keeps its whole factor,
# which is nonzero.


def _slots(R, points):
    """Each factor with the members in its slot; a non-product is one slot."""
    if isinstance(R, rings.Product):
        return [(f, [p.inner for p in points if p.slot == k]) for k, f in enumerate(R.factors)]
    return [(R, list(points))]


def _meet_zero(f, inner):
    meet = rings.ideal_intersect_all([sp.point_ideal(p, f) for p in inner], f)
    return rings.ideal_is_zero(meet, f)


def _local_kernel_zero(f, inner):
    """Whether f -> prod f_p over the nonempty inner points is injective."""
    if isinstance(f, rings.ModRing):
        exps = dict(f.factorization)
        return math.prod(p.p ** exps[p.p] for p in inner) == f.n
    if isinstance(f, rings.LocalizedAtIrrelevant):
        full = frozenset(f.monomial_variables())
        return any(p.cover == full for p in inner) or _meet_zero(f, inner)
    assert isinstance(f, (rings.PrimeField, rings.RationalField))
    return True  # a field is its own localization


def _quotient_oracle(R, points):
    return all(inner and _meet_zero(f, inner) for f, inner in _slots(R, points))


def _local_oracle(R, points):
    return all(inner and _local_kernel_zero(f, inner) for f, inner in _slots(R, points))


ORACLE_ZOO = enumerable_zoo() + [
    construction.build_supplement(F2, 7),
    rings.zmod(64),
    rings.product(rings.zmod(12), rings.zmod(18)),
]


@pytest.mark.parametrize("R", ORACLE_ZOO, ids=str)
def test_injectivity_matches_the_kernel_arithmetic(R):
    pts = sp.spec_points(R)
    for p in pts:
        want = _quotient_oracle(R, [p])
        assert maps.is_injective(maps.QuotientMap(R, p)) == want, p
        assert maps.is_injective(maps.ResidueMap(R, p)) == want, p
    for k in range(len(pts) + 1):
        for sub in combinations(pts, k):
            E = sp.explicit(R, sub)
            assert maps.is_injective(maps.CanonicalIntoQuotientProduct(E)) == _quotient_oracle(
                R, sub
            ), sub
            assert maps.is_injective(maps.CanonicalIntoLocalProduct(E)) == _local_oracle(
                R, sub
            ), sub


def test_injectivity_refuses_rings_it_cannot_enumerate():
    mq = rings.monomial_quotient(F2, 2, {(1, 1)})
    x1 = MonoPrime(frozenset({1}))
    z_f5 = rings.product(rings.ZZ, rings.prime_field(5))
    five = TamePrime(1, FieldZero())
    for m in (
        maps.QuotientMap(mq, x1),
        maps.ResidueMap(mq, x1),
        maps.CanonicalIntoQuotientProduct(sp.explicit(mq, {x1})),
        maps.CanonicalIntoLocalProduct(sp.explicit(mq, {x1})),
        maps.QuotientMap(z_f5, five),
        maps.CanonicalIntoLocalProduct(sp.explicit(z_f5, {five})),
    ):
        with pytest.raises(NonEnumerableError):
            maps.is_injective(m)


TOPOLOGY_RULES = (
    "order_closure",
    "_patch",
    "patch_closure",
    "zariski_closure",
    "flat_closure",
    "closure",
    "is_dense",
    "is_stable",
)


def test_image_oracles_do_not_use_topology(monkeypatch):
    # The image oracles are what the closure rules are checked against, so
    # they must give the same answers with every topology rule broken.
    cases = []
    for R in enumerable_zoo():
        pts = sp.spec_points(R)
        for k in range(len(pts) + 1):
            for sub in combinations(pts, k):
                E = sp.explicit(R, sub)
                up, down = products.quotient_product_image(E), products.local_product_image(E)
                cases.append((E, top.patch_closure(E), up, down))
    symbolic = []
    for R in (rings.ZZ, F2X, AXES_F2):
        family = set(sp.sample_points(R, Random(5), 6)) - {R.limit}
        for E in (
            sp.whole(R),
            sp.empty_set(R),
            sp.cofinite(R, family, False),
            sp.cofinite(R, family, True),
            sp.cofinite(R, (), False),
        ):
            symbolic.append((E, top.patch_closure(E)))

    def refuse(*args, **kwargs):
        raise AssertionError("an image oracle called topology")

    for name in TOPOLOGY_RULES:
        monkeypatch.setattr(top, name, refuse)
    for E, patch, up, down in cases:
        assert maps.residue_product_image(E) == patch
        assert products.brute_force_image(E, products.QUOTIENT) == up
        assert products.brute_force_image(E, products.LOCAL) == down
    for E, patch in symbolic:
        assert maps.residue_product_image(E) == patch


def test_laying_over_does_not_hide_a_wild_prime_error(monkeypatch):
    # contract never refuses a map's own tame points, so a WildPrimeError
    # there is an engine bug; skipping the candidate would answer with a
    # later one, here the slot-1 copy of (2).
    m = maps.DiagonalIntoModProduct(6, (6, 2))
    first = sorted(maps.tame_points(m), key=sp.point_sort_key)[0]
    contract = maps.DiagonalIntoModProduct.contract

    def broken(self, q):
        if q == first:
            raise WildPrimeError("engine bug")
        return contract(self, q)

    assert maps.laying_over(m, ZmodPrime(2)) == first
    monkeypatch.setattr(maps.DiagonalIntoModProduct, "contract", broken)
    with pytest.raises(WildPrimeError):
        maps.laying_over(m, ZmodPrime(2))


def test_diagonal_refuses_divisors_below_one():
    for divisors in ((0,), (-2, 3), (-6,)):
        with pytest.raises(KindMismatchError, match="positive and divide n"):
            maps.DiagonalIntoModProduct(6, divisors)


def test_diagonal_checks_divisors_in_every_rule():
    # The divisors are checked once, when the map is built, so no rule
    # ever sees a divisor that is 0 or does not divide n.
    for divisors in ((10,), (0,), (2, 10)):
        with pytest.raises(KindMismatchError, match="positive and divide n"):
            maps.DiagonalIntoModProduct(6, divisors)
        with pytest.raises(KindMismatchError, match="positive and divide n"):
            maps.DiagonalIntoModProduct(6, divisors, limit=None)


def test_diagonal_refuses_n_below_two_when_built():
    # Z/1 and Z/0 are no rings of the engine: the map is refused before any
    # rule (is_injective reads no source) can answer on it.
    for n, divisors in ((1, (1,)), (0, (5,)), (0, ()), (-6, (2, 3)), (True, (1,))):
        with pytest.raises(BadArityError, match=r"^ModRing needs n >= 2$"):
            maps.DiagonalIntoModProduct(n, divisors)
    with pytest.raises(BadArityError):  # n is checked before the divisors
        maps.DiagonalIntoModProduct(0, (0,))


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


def test_diagonal_contracts_only_primes_of_the_slot_divisor():
    m = maps.DiagonalIntoModProduct(8, (8,))
    assert maps.contract(m, TamePrime(0, ZmodPrime(2))) == ZmodPrime(2)
    # Neither 4 nor 1 is a prime of Z/8; 2.0 and True are no int primes.
    for inner in (ZmodPrime(4), ZmodPrime(1), ZmodPrime(2.0), ZmodPrime(True), ZMax(2)):
        with pytest.raises(KindMismatchError, match="is not a prime of Z/8"):
            maps.contract(m, TamePrime(0, inner))
    # 3 divides n = 12 but not the slot's divisor 4.
    with pytest.raises(KindMismatchError, match="is not a prime of Z/4"):
        maps.contract(maps.DiagonalIntoModProduct(12, (4, 3)), TamePrime(0, ZmodPrime(3)))
    # A bool is no slot index, as for every other non-int slot.
    with pytest.raises(WildPrimeError, match="is not tame"):
        maps.contract(maps.DiagonalIntoModProduct(6, (2, 3)), TamePrime(True, ZmodPrime(3)))


def test_diagonal_factors_n_once_per_map(monkeypatch):
    m = maps.DiagonalIntoModProduct(6, (2, 3))
    calls = []
    real = rings.zmod
    monkeypatch.setattr(rings, "zmod", lambda *a: calls.append(a) or real(*a))
    for q in maps.tame_points(m):
        maps.contract(m, q)
    maps.laying_over(m, ZmodPrime(2))
    assert len(calls) == 1


def test_product_map_slots_are_ints_or_members():
    E = sp.explicit(rings.zmod(6), {ZmodPrime(2), ZmodPrime(3)})
    m = maps.CanonicalIntoQuotientProduct(E)
    assert maps.contract(m, TamePrime(1, ZmodPrime(3))) == ZmodPrime(3)
    assert maps.contract(m, TamePrime(ZmodPrime(3), ZmodPrime(3))) == ZmodPrime(3)
    # True would name slot 1; it is read as a base point and refused.
    with pytest.raises(KindMismatchError):
        maps.contract(m, TamePrime(True, ZmodPrime(3)))


def test_prime_maps_check_the_prime_when_built():
    # (4) is no prime of Z: neither map is built, so contract can never
    # hand it back as the kernel.
    for kind in (maps.QuotientMap, maps.ResidueMap):
        with pytest.raises(KindMismatchError, match=r"^\(4\) is not a point of Z$"):
            kind(rings.ZZ, ZMax(4))


def test_product_maps_refuse_points_that_are_not_theirs():
    E = sp.explicit(rings.zmod(6), {ZmodPrime(2), ZmodPrime(3)})
    for m in (maps.CanonicalIntoQuotientProduct(E), maps.CanonicalIntoLocalProduct(E)):
        with pytest.raises(WildPrimeError, match="is not tame"):
            maps.contract(m, ZmodPrime(2))
        for slot in (2, -1):
            with pytest.raises(WildPrimeError, match=f"slot {slot} out of range"):
                maps.contract(m, TamePrime(slot, ZmodPrime(2)))
    # (5) is a prime of Z/30 outside the index set {(2), (3)}.
    F = sp.explicit(rings.zmod(30), {ZmodPrime(2), ZmodPrime(3)})
    with pytest.raises(WildPrimeError, match="not a member of the index set"):
        maps.contract(maps.CanonicalIntoQuotientProduct(F), TamePrime(ZmodPrime(5), ZmodPrime(5)))


def test_diagonal_refuses_slots_out_of_range():
    m = maps.DiagonalIntoModProduct(6, (2, 3))
    for slot in (2, -1):
        with pytest.raises(WildPrimeError, match=f"slot {slot} out of range"):
            maps.contract(m, TamePrime(slot, ZmodPrime(2)))


def test_residue_map_contracts_only_the_zero_ideal():
    m = maps.ResidueMap(rings.ZZ, ZMax(5))
    assert maps.contract(m, FieldZero()) == ZMax(5)
    for q in (ZMax(5), ZGeneric(), TamePrime(0, FieldZero())):
        with pytest.raises(WildPrimeError, match="a single point"):
            maps.contract(m, q)


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
        E = sp.cofinite(rings.ZZ, excl, rng.random() < 0.5)
        m = maps.CanonicalIntoLocalProduct(E)
        q = maps.laying_over(m, ZGeneric())
        assert maps.contract(m, q) == ZGeneric()
    E2 = sp.cofinite(AXES_F2, {SuppMin(2)}, True)
    m2 = maps.CanonicalIntoLocalProduct(E2)
    q2 = maps.laying_over(m2, SuppMin(2))
    assert q2 == TamePrime(SuppTop(), SuppMin(2))
    assert maps.contract(m2, q2) == SuppMin(2)


def test_laying_over_wild_only_case_refuses():
    E = sp.cofinite(rings.ZZ, {ZMax(11)}, False)
    m = maps.CanonicalIntoQuotientProduct(E)
    assert maps.is_injective(m)
    with pytest.raises(NonEnumerableError):
        maps.laying_over(m, ZGeneric())


def test_laying_over_misuse():
    m = maps.DiagonalIntoModProduct(12, (2, 3))  # lcm 6 != 12
    with pytest.raises(LyingOverNotFoundError):
        maps.laying_over(m, ZmodPrime(2))
    m2 = maps.CanonicalIntoQuotientProduct(
        sp.cofinite(AXES_F2, set(), False)
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
            E = random_symbolic_subset(R, rng)
            assert maps.residue_product_image(E) == top.patch_closure(E)


def test_laying_over_does_not_hide_non_enumerable(monkeypatch):
    # An enumerable source is searched, never handed to a symbolic rule, so
    # a NonEnumerableError from its tame points is an engine bug.
    def broken_tame_points(m):
        raise NonEnumerableError("engine bug")

    monkeypatch.setattr(maps, "tame_points", broken_tame_points)
    F5 = rings.prime_field(5)
    with pytest.raises(NonEnumerableError):
        maps.laying_over(maps.QuotientMap(F5, FieldZero()), FieldZero())


def test_laying_over_does_not_hide_kind_mismatch(monkeypatch):
    # Tame candidates always match their ring, so a KindMismatchError from
    # contract is an engine bug, not "no tame prime lies over".
    def broken_contract(m, q):
        raise KindMismatchError("engine bug")

    monkeypatch.setattr(maps, "contract", broken_contract)
    with pytest.raises(KindMismatchError):
        maps.laying_over(maps.DiagonalIntoModProduct(6, (2, 3)), ZmodPrime(2))


@pytest.fixture
def rng():
    return Random(43)
