from fractions import Fraction
from itertools import product as iproduct
from random import Random

import pytest

from conftest import AXES_F2, F2, SUPP3, enumerable_zoo
from spectop import primes, rings
from spectop.errors import KindMismatchError, UnsupportedError
from spectop.primes import factorint
from spectop.rings import (
    IntEl,
    ModEl,
    MonomialIdeal,
    MPolyEl,
    PolyEl,
    PrincipalIdeal,
    RatEl,
    TupleEl,
)

MQ_F2_2 = rings.monomial_quotient(F2, 2, {(1, 1)})


def test_normalize_deletes_ideal_monomials():
    e = MPolyEl(((1, (1, 1)), (1, (1,))))
    assert rings.normalize(e, MQ_F2_2) == MPolyEl(((1, (1,)),))


def test_normalize_residue_reduction():
    assert rings.normalize(ModEl(17), rings.zmod(12)) == ModEl(5)


def test_normalize_tuple_already_canonical():
    R = rings.product(rings.zmod(12), rings.poly_ring(2))
    e = TupleEl((ModEl(5), PolyEl((1, 1))))
    assert rings.normalize(e, R) == e


def test_normalize_idempotent_on_samples(rng):
    for R in enumerable_zoo() + [rings.ZZ, rings.QQ, rings.poly_ring(3), AXES_F2]:
        for e in rings.sample_elements(R, rng, 25):
            once = rings.normalize(e, R)
            assert rings.normalize(once, R) == once


def test_normalize_kind_mismatch():
    with pytest.raises(KindMismatchError):
        rings.normalize(IntEl(3), rings.zmod(12))


AXES_F5 = rings.symbolic_supplement(rings.prime_field(5))


@pytest.mark.parametrize(
    "build, expected",
    [
        # 2.5 = 5/2, which is 0 mod 5, read as a Fraction or as a float.
        (lambda: rings.var_el(AXES_F5, 1, coeff=2.5), MPolyEl(())),
        (lambda: rings.var_el(AXES_F5, 1, coeff=Fraction(5, 2)), MPolyEl(())),
        (lambda: rings.mpoly_el(MQ_F2_2, {(1.5,): 1}), KindMismatchError),
        (lambda: rings.normalize(ModEl(2.5), rings.zmod(6)), KindMismatchError),
        (lambda: rings.normalize(IntEl(2.5), rings.ZZ), KindMismatchError),
        (lambda: rings.normalize(PolyEl((0.5, 1)), rings.poly_ring(3)), KindMismatchError),
        (lambda: rings.normalize(IntEl(True), rings.ZZ), KindMismatchError),
        (lambda: rings.normalize(RatEl(True), rings.QQ), KindMismatchError),
        (lambda: rings.normalize(RatEl(0.5), rings.QQ), RatEl(Fraction(1, 2))),
        (lambda: rings.normalize(IntEl(2.0), rings.ZZ), IntEl(2)),
    ],
    ids=[
        "float-coeff", "fraction-coeff", "float-exponent", "float-residue",
        "float-integer", "float-poly-coeff", "bool-integer", "bool-rational",
        "float-rational", "integral-float",
    ],
)
def test_element_fields_are_read_exactly(build, expected):
    # A number is taken at its exact value or refused, never truncated.
    if expected is KindMismatchError:
        with pytest.raises(KindMismatchError):
            build()
    else:
        # repr tells IntEl(v=2) from IntEl(v=2.0), which compare equal.
        assert repr(build()) == repr(expected)


def test_is_unit_examples():
    assert rings.is_unit(ModEl(5), rings.zmod(12))
    assert not rings.is_unit(ModEl(4), rings.zmod(12))
    one_plus_x1 = rings.mpoly_el(SUPP3, {(): 1, (1,): 1})
    assert rings.is_unit(one_plus_x1, SUPP3)
    R = rings.product(rings.zmod(4), rings.zmod(9))
    assert rings.is_unit(TupleEl((ModEl(3), ModEl(2))), R)


def test_unit_in_localized_ring_has_full_nonvanishing_locus():
    # Cross-check on the 4-point spectrum: a unit avoids every prime.
    from spectop import spectrum as sp

    one_plus_x1 = rings.mpoly_el(SUPP3, {(): 1, (1,): 1})
    assert sp.d_locus(one_plus_x1, SUPP3) == sp.whole(SUPP3)


def test_unit_rule_unlocalized_quotient():
    # 1 + x1 is not invertible before localizing: x1 avoids a minimal prime.
    e = rings.mpoly_el(MQ_F2_2, {(): 1, (1,): 1})
    assert not rings.is_unit(e, MQ_F2_2)
    assert rings.is_unit(rings.one(MQ_F2_2), MQ_F2_2)


def test_unit_rule_rejects_higher_dimension():
    R = rings.monomial_quotient(F2, 3, {(1, 1)})
    assert rings.quotient_dim(R) == 2
    with pytest.raises(UnsupportedError):
        rings.is_unit(rings.one(R), R)


def test_is_nilpotent_examples():
    R = rings.zmod(12)
    six = ModEl(6)
    assert rings.is_nilpotent(six, R)
    # Oracle: repeated squaring reaches zero.
    assert rings.mul(R, six, six) == ModEl(0)
    x1 = rings.var_el(MQ_F2_2, 1)
    assert not rings.is_nilpotent(x1, MQ_F2_2)
    # Oracle: powers stay nonzero under monomial divisibility.
    for k in range(1, 9):
        assert rings.power(MQ_F2_2, x1, k) != rings.zero(MQ_F2_2)
    for R in (rings.ZZ, rings.zmod(30), MQ_F2_2, AXES_F2):
        assert rings.is_nilpotent(rings.zero(R), R)


def test_is_regular_examples():
    R = rings.zmod(12)
    assert rings.is_regular(ModEl(5), R)
    assert not rings.is_regular(ModEl(2), R)
    assert rings.mul(R, ModEl(2), ModEl(6)) == ModEl(0)
    P = rings.product(rings.zmod(12), rings.prime_field(5))
    assert not rings.is_regular(TupleEl((ModEl(2), ModEl(1))), P)
    with pytest.raises(UnsupportedError):
        rings.is_regular(rings.one(MQ_F2_2), MQ_F2_2)


def test_unit_implies_regular_and_nilpotent_excludes_regular(rng):
    kinds = [rings.ZZ, rings.QQ, rings.zmod(12), rings.zmod(30), rings.poly_ring(3),
             rings.product(rings.zmod(4), rings.zmod(9))]
    for R in kinds:
        for e in rings.sample_elements(R, rng, 30):
            if rings.is_unit(e, R):
                assert rings.is_regular(e, R)
            if rings.is_nilpotent(e, R) and e != rings.zero(R):
                assert not rings.is_regular(e, R)


def test_product_laws_componentwise(rng):
    factors = (rings.zmod(12), rings.zmod(25), rings.prime_field(7))
    R = rings.product(*factors)
    for e in rings.sample_elements(R, rng, 60):
        unit_each = all(rings.is_unit(x, f) for x, f in zip(e.items, factors))
        regular_each = all(rings.is_regular(x, f) for x, f in zip(e.items, factors))
        assert rings.is_unit(e, R) == unit_each
        assert rings.is_regular(e, R) == regular_each


def test_ideal_member_examples():
    assert rings.ideal_member(PrincipalIdeal(IntEl(6)), IntEl(12), rings.ZZ)
    I = rings.monomial_ideal({(0, 1)})
    e = rings.mpoly_el(MQ_F2_2, {(1, 1): 1, (0, 1): 1})
    # In the quotient x1*x2 dies, so the element is x2 and lies in (x2).
    assert rings.ideal_member(I, e, MQ_F2_2)
    J = rings.monomial_ideal({(1,)})
    x2 = rings.var_el(MQ_F2_2, 2)
    assert not rings.ideal_member(J, x2, MQ_F2_2)


def test_ideal_intersect_examples():
    amb = rings.monomial_quotient(F2, 2, frozenset())
    meet = rings.ideal_intersect(
        rings.monomial_ideal({(0, 1)}), rings.monomial_ideal({(1,)}), amb
    )
    assert {rings.mask_to_exp(g) for g in meet.gens} == {(1, 1)}
    four_and_six = rings.ideal_intersect(
        PrincipalIdeal(IntEl(4)), PrincipalIdeal(IntEl(6)), rings.ZZ
    )
    assert four_and_six == PrincipalIdeal(IntEl(12))
    amb3 = rings.monomial_quotient(F2, 3, frozenset())
    meet3 = rings.ideal_intersect(
        rings.monomial_ideal({(1,), (0, 1)}),
        rings.monomial_ideal({(1,), (0, 0, 1)}),
        amb3,
    )
    assert {rings.mask_to_exp(g) for g in meet3.gens} == {(1,), (0, 1, 1)}


def monomials_up_to(nvars, degree):
    ranges = [range(degree + 1)] * nvars
    for exps in iproduct(*ranges):
        if sum(exps) <= degree and any(exps):
            yield exps


def test_ideal_intersect_membership_oracle():
    # Membership in the intersection is membership in both, on all
    # monomials of total degree <= 4 in up to 5 variables.
    rng = Random(5)
    amb = rings.monomial_quotient(rings.QQ, 5, frozenset())
    for _ in range(25):
        gens_i = {tuple(rng.randint(0, 1) for _ in range(5)) for _ in range(3)}
        gens_j = {tuple(rng.randint(0, 1) for _ in range(5)) for _ in range(3)}
        gens_i = {g for g in gens_i if any(g)}
        gens_j = {g for g in gens_j if any(g)}
        if not gens_i or not gens_j:
            continue
        I = rings.monomial_ideal(gens_i)
        J = rings.monomial_ideal(gens_j)
        meet = rings.ideal_intersect(I, J, amb)
        for exps in monomials_up_to(5, 4):
            m = rings.mpoly_el(amb, {exps: 1})
            both = rings.ideal_member(I, m, amb) and rings.ideal_member(J, m, amb)
            assert rings.ideal_member(meet, m, amb) == both


def test_ideal_intersect_lattice_laws():
    amb = rings.monomial_quotient(F2, 4, frozenset())
    rng = Random(17)
    for _ in range(40):
        ideals = []
        for _ in range(3):
            gens = {tuple(rng.randint(0, 1) for _ in range(4)) for _ in range(3)}
            gens = {g for g in gens if any(g)}
            if not gens:
                gens = {(1, 0, 0, 0)}
            ideals.append(rings.monomial_ideal(gens))
        I, J, K = ideals
        assert rings.ideal_intersect(I, J, amb) == rings.ideal_intersect(J, I, amb)
        assert rings.ideal_intersect(I, I, amb) == I
        left = rings.ideal_intersect(rings.ideal_intersect(I, J, amb), K, amb)
        right = rings.ideal_intersect(I, rings.ideal_intersect(J, K, amb), amb)
        assert left == right


def test_nilradical_examples():
    assert rings.nilradical(rings.zmod(12)) == PrincipalIdeal(ModEl(6))
    assert rings.nilradical(rings.ZZ) == PrincipalIdeal(IntEl(0))
    assert rings.nilradical(SUPP3.inner) == MonomialIdeal(SUPP3.inner.gens)
    with pytest.raises(UnsupportedError):
        rings.nilradical(rings.product(rings.zmod(4), rings.zmod(9)))


def test_nilradical_generator_is_radical_of_n():
    for n in range(2, 10_001):
        gen = rings.nilradical(rings.zmod(n)).gen.v
        expected = 1
        for p, _ in factorint(n):
            expected *= p
        assert gen == expected % n


def test_rational_arithmetic_exact():
    q = rings.QQ
    a = RatEl(Fraction(1, 3))
    b = RatEl(Fraction(1, 6))
    assert rings.add(q, a, b) == RatEl(Fraction(1, 2))
    assert rings.is_unit(a, q)
    assert not rings.is_unit(rings.zero(q), q)


def test_monomial_quotient_constructor_validation():
    with pytest.raises(KindMismatchError):
        rings.monomial_quotient(F2, 2, {(2, 0)})  # not square-free
    with pytest.raises(KindMismatchError):
        rings.monomial_quotient(F2, 1, {(1, 1)})  # too many variables
    R = rings.monomial_quotient(F2, 2, {(1, 0), (1, 1)})
    assert {rings.mask_to_exp(g) for g in R.gens} == {(1,)}  # minimalized


def test_localization_dimension_guard():
    with pytest.raises(UnsupportedError):
        rings.localized(rings.monomial_quotient(F2, 3, {(1, 1)}))
    rings.localized(rings.monomial_quotient(F2, 1, frozenset()))


def test_product_flattening_and_guards():
    R = rings.product(rings.product(rings.zmod(4), rings.zmod(9)), rings.zmod(25))
    assert len(R.factors) == 3
    with pytest.raises(UnsupportedError):
        rings.product(AXES_F2, rings.zmod(4))


@pytest.fixture
def rng():
    return Random(23)


def test_dim_guard_agrees_with_cover_formula():
    # The localization guard (no generator-free pair of variables) must
    # agree with the cover-based dimension formula.
    rng = Random(53)
    for _ in range(120):
        nvars = rng.randint(1, 7)
        gens = set()
        for _ in range(rng.randint(1, 5)):
            g = tuple(rng.randint(0, 1) for _ in range(nvars))
            if any(g):
                gens.add(g)
        if not gens:
            continue
        R = rings.monomial_quotient(F2, nvars, gens)
        assert rings._dim_at_most_one(R) == (rings.quotient_dim(R) <= 1)


def test_is_unit_matches_projection_oracle(rng):
    # Oracle: a reduced monomial quotient embeds into the product of its
    # quotients by minimal primes, each a polynomial ring whose units are
    # the nonzero constants.  An element is a unit exactly when every
    # projection (drop the monomials meeting the cover) is one.
    for _ in range(120):
        nvars = rng.randint(1, 5)
        gens = set()
        for _ in range(rng.randint(1, 5)):
            g = tuple(rng.randint(0, 1) for _ in range(nvars))
            if any(g):
                gens.add(g)
        if not gens:
            continue
        R = rings.monomial_quotient(F2, nvars, gens)
        if rings.quotient_dim(R) > 1:
            continue
        covers_min = rings.minimal_cover_sets(R)
        for e in rings.sample_elements(R, rng, 8):
            projections_unit = True
            for C in covers_min:
                surviving = [
                    (c, exp)
                    for c, exp in e.terms
                    if not (rings.mono_support(exp) & C)
                ]
                is_const_unit = len(surviving) == 1 and surviving[0][1] == ()
                if not is_const_unit:
                    projections_unit = False
                    break
            assert rings.is_unit(e, R) == projections_unit


def test_zmod_nilradical_reuses_the_cached_factorization(monkeypatch):
    p, q = 4294967291, 4294967279
    R = rings.zmod(p * p * q, limit=None)
    calls = []

    def counting(n, limit=primes.DEFAULT_LIMIT):
        calls.append(n)
        return factorint(n, limit)

    monkeypatch.setattr(primes, "factorint", counting)
    monkeypatch.setattr(rings, "factorint", counting)
    assert rings.nilradical(R) == PrincipalIdeal(ModEl(p * q))
    assert calls == []


def test_zmod_has_point_matches_divisibility_and_primality():
    primes_below = {p for p in range(2003) if primes.is_prime(p)}
    points = [rings.ZmodPrime(p) for p in range(2003)]
    for n in range(2, 2001):
        R = rings.zmod(n)
        got = {p for p in range(n + 2) if R.has_point(points[p])}
        assert got == {p for p in range(n + 2) if p in primes_below and n % p == 0}, n
