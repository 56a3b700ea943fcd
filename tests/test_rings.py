import contextlib
import math
import signal
from fractions import Fraction
from itertools import product as iproduct
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import AXES_F2, AXES_Q, F2, F2X, F3, PROPERTY, SUPP3, enumerable_zoo
from spectop import construction, primes, rings
from spectop import spectrum as sp
from spectop.errors import KindMismatchError, UnsupportedError
from spectop.primes import factorint
from spectop.rings import (
    IntEl,
    ModEl,
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


@pytest.mark.parametrize("i", [0, -2, 4])
def test_var_el_refuses_an_index_outside_the_variables(i):
    # x_0 and x_-2 once came out as x_1.
    with pytest.raises(KindMismatchError):
        rings.var_el(SUPP3, i)


AXES_F5 = rings.symbolic_supplement(rings.prime_field(5))


@pytest.mark.parametrize(
    "build, expected",
    [
        # 2.5 = 5/2, which is 0 mod 5, read as a Fraction or as a float.
        (lambda: AXES_F5.reduce_terms([(2.5, (1,))]), MPolyEl(())),
        (lambda: AXES_F5.reduce_terms([(Fraction(5, 2), (1,))]), MPolyEl(())),
        (lambda: MQ_F2_2.reduce_terms([(1, (1.5,))]), KindMismatchError),
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
    one_plus_x1 = SUPP3.reduce_terms([(1, ()), (1, (1,))])
    assert rings.is_unit(one_plus_x1, SUPP3)
    R = rings.product(rings.zmod(4), rings.zmod(9))
    assert rings.is_unit(TupleEl((ModEl(3), ModEl(2))), R)


def test_unit_in_localized_ring_has_full_nonvanishing_locus():
    # Cross-check on the 4-point spectrum: a unit avoids every prime.
    one_plus_x1 = SUPP3.reduce_terms([(1, ()), (1, (1,))])
    assert sp.d_locus(one_plus_x1, SUPP3) == sp.whole(SUPP3)


def test_unit_rule_unlocalized_quotient():
    # 1 + x1 is not invertible before localizing: x1 avoids a minimal prime.
    e = MQ_F2_2.reduce_terms([(1, ()), (1, (1,))])
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
    assert R.mul(six, six) == ModEl(0)
    x1 = rings.var_el(MQ_F2_2, 1)
    assert not rings.is_nilpotent(x1, MQ_F2_2)
    # Oracle: powers stay nonzero under monomial divisibility.
    for k in range(1, 9):
        assert MQ_F2_2.power(x1, k) != rings.zero(MQ_F2_2)
    for R in (rings.ZZ, rings.zmod(30), MQ_F2_2, AXES_F2):
        assert rings.is_nilpotent(rings.zero(R), R)


# Each ring with the prime p of its coefficient field, or None.
POWER_RINGS = [
    (rings.ZZ, None),
    (rings.QQ, None),
    (F2, 2),
    (F3, 3),
    (rings.prime_field(5), 5),
    (rings.zmod(12), None),
    (rings.zmod(1024), None),
    (F2X, 2),
    (rings.poly_ring(3), 3),
    (MQ_F2_2, 2),
    (rings.monomial_quotient(F3, 3, [(1, 1)]), 3),
    (rings.monomial_quotient(rings.QQ, 3, [(1, 1)]), None),
    (SUPP3, 2),
    (construction.build_supplement(F3, 3), 3),
    (construction.build_supplement(rings.QQ, 2), None),
    (AXES_F2, 2),
    (rings.symbolic_supplement(F3), 3),
    (AXES_Q, None),
    (rings.product(rings.zmod(8), SUPP3, F2), 2),
    (rings.product(rings.zmod(6), rings.poly_ring(3), rings.monomial_quotient(F3, 2, [])), 3),
    (rings.product(rings.ZZ, rings.QQ, rings.zmod(12)), None),
]


@pytest.mark.parametrize("R, p", POWER_RINGS, ids=[str(R) for R, _ in POWER_RINGS])
@settings(PROPERTY, max_examples=20)
@given(data=st.data())
def test_power_is_repeated_multiplication(R, p, data):
    a = R.sample_element(data.draw(st.randoms(use_true_random=False)))
    exponents = st.integers(0, 20)
    if p is not None:
        exponents = st.one_of(exponents, st.integers(1, 4).map(lambda j: p**j))
    k = data.draw(exponents)
    want = rings.one(R)
    for _ in range(k):
        want = R.mul(want, a)
    assert R.power(a, k) == want


@contextlib.contextmanager
def _time_cap(seconds: float):
    """A TimeoutError after `seconds`, so a rule that loops fails the test
    instead of stalling the run."""

    def expire(signum, frame):
        raise TimeoutError(f"no answer within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("R", [R for R, _ in POWER_RINGS], ids=str)
def test_power_zero_is_one_and_negative_is_refused(R, rng):
    # The family's own rule refuses k < 0: no inverse, error or endless
    # square-and-multiply.
    a = R.sample_element(rng)
    with _time_cap(1.0):
        assert R.power(a, 0) == rings.one(R)
        with pytest.raises(KindMismatchError):
            R.power(a, -1)


def test_product_laws_componentwise(rng):
    factors = (rings.zmod(12), rings.zmod(25), rings.prime_field(7))
    R = rings.product(*factors)
    for e in rings.sample_elements(R, rng, 60):
        unit_each = all(rings.is_unit(x, f) for x, f in zip(e.items, factors))
        assert rings.is_unit(e, R) == unit_each


def test_ideal_member_examples():
    assert rings.ideal_member(PrincipalIdeal(IntEl(6)), IntEl(12), rings.ZZ)
    I = rings.monomial_ideal({(0, 1)})
    e = MQ_F2_2.reduce_terms([(1, (1, 1)), (1, (0, 1))])
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
            m = amb.reduce_terms([(1, exps)])
            both = rings.ideal_member(I, m, amb) and rings.ideal_member(J, m, amb)
            assert rings.ideal_member(meet, m, amb) == both


def _meets_are_set_intersections(R, gens, elements):
    """For every pair a, b of gens, the members of (a) meet (b) among
    elements are those of (a) that are members of (b) too."""
    members = {}

    def of(I):
        if I not in members:
            members[I] = frozenset(r for r in elements if rings.ideal_member(I, r, R))
        return members[I]

    ideals = [rings.principal_ideal(R, a) for a in gens]
    for I, J in iproduct(ideals, repeat=2):
        assert of(rings.ideal_intersect(I, J, R)) == of(I) & of(J), (str(R), I, J)


def test_principal_intersect_is_the_set_intersection():
    # Over Z the generators -12..12, zero among them, meet in (0) or in
    # (lcm) with lcm <= 132, so the window |r| <= 300 tells every two of
    # those ideals apart.  Over Z/n every element is read.
    window = [IntEl(r) for r in range(-300, 301)]
    _meets_are_set_intersections(rings.ZZ, [IntEl(a) for a in range(-12, 13)], window)
    for n in range(2, 61):
        elements = [ModEl(r) for r in range(n)]
        _meets_are_set_intersections(rings.zmod(n), elements, elements)


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


def test_nilradical_generator_is_radical_of_n():
    # The nilradical of Z/n is generated by the radical of n: it is
    # nilpotent, and dropping any one of its primes leaves a residue that
    # is not.
    for n in range(2, 10_001):
        R = rings.zmod(n)
        ps = [p for p, _ in factorint(n)]
        radical = math.prod(ps)
        assert rings.is_nilpotent(ModEl(radical), R)
        assert not any(rings.is_nilpotent(ModEl(radical // p), R) for p in ps)


def test_rational_arithmetic_exact():
    q = rings.QQ
    a = RatEl(Fraction(1, 3))
    b = RatEl(Fraction(1, 6))
    assert q.mul(a, b) == RatEl(Fraction(1, 18))
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
        covers_min = [rings.mask_support(c) for c in rings.minimal_cover_masks(R.gens)]
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
    assert rings.is_nilpotent(ModEl(p * q), R)
    assert not rings.is_nilpotent(ModEl(p), R)
    assert calls == []


def test_zmod_has_point_matches_divisibility_and_primality():
    primes_below = {p for p in range(2003) if primes.is_prime(p)}
    points = [rings.ZmodPrime(p) for p in range(2003)]
    for n in range(2, 2001):
        R = rings.zmod(n)
        got = {p for p in range(n + 2) if R.has_point(points[p])}
        assert got == {p for p in range(n + 2) if p in primes_below and n % p == 0}, n


def test_product_has_point_asks_the_factor_in_its_slot():
    R = rings.product(rings.zmod(4), rings.zmod(9))
    tame, mod = rings.TamePrime, rings.ZmodPrime
    assert R.has_point(tame(0, mod(2))) and R.has_point(tame(1, mod(3)))
    for p in (tame(1, mod(2)), tame(0, mod(3)), tame(2, mod(2)), tame(-1, mod(3)),
              tame(True, mod(3)), mod(2)):
        assert not R.has_point(p), p
    # The product's own check refuses a bad inner point, with its own message.
    with pytest.raises(KindMismatchError, match=r"^pi_1\^-1\(2\) is not a point of Z/4 x Z/9$"):
        R.validate_point(tame(1, mod(2)))


def _localized_pair_quotient():
    return rings.localized(rings.monomial_quotient(F3, 3, {(1, 1), (0, 1, 1), (1, 0, 1)}))


@pytest.mark.parametrize(
    "build",
    [lambda: rings.product(rings.zmod(6), rings.zmod(35)), _localized_pair_quotient],
    ids=["product", "localized"],
)
def test_equal_rings_built_apart_share_their_answers(build):
    # The spectrum and order tables live on each instance; two equal rings
    # still compare and hash equal, before and after either builds them.
    A, B = build(), build()
    assert A is not B and A == B and hash(A) == hash(B)
    pts = sp.spec_points(A)
    for p in pts:
        A.reach(frozenset((p,)), True)
    assert {"_spectrum_table", "_order_table"} <= vars(A).keys()
    assert "_spectrum_table" not in vars(B)
    assert A == B and hash(A) == hash(B) and {A: 1}[B] == 1
    assert sp.spec_points(B) == pts
    for p in pts:
        for up in (True, False):
            assert A.reach(frozenset((p,)), up) == B.reach(frozenset((p,)), up)


def _every_pair_guard(R):
    """The localization guard before its pair bound: every pair of the
    ring's variables, walked in full."""
    return all(
        rings._mask_in(R.gens, 1 << i | 1 << j)
        for i in range(R.nvars) for j in range(i + 1, R.nvars)
    )


def test_dim_guard_agrees_with_every_pair_walk():
    # Every set of degree-1 and degree-2 generators over up to 4 variables.
    for nvars in range(1, 5):
        candidates = [m for m in range(1, 1 << nvars) if m.bit_count() <= 2]
        for bits in range(1 << len(candidates)):
            masks = [m for k, m in enumerate(candidates) if bits >> k & 1]
            R = rings.mask_quotient(F2, nvars, masks)
            assert rings._dim_at_most_one(R) == _every_pair_guard(R), (nvars, masks)


@pytest.mark.parametrize("nvars", [2**64, 10**30])
def test_dim_guard_refuses_a_huge_ring_without_walking_it(nvars):
    # x1 alone as a generator leaves every pair of x2, x3, ... free, so a
    # walk over the pairs from x1 on would never reach a free one.
    for masks in ([], [0b11], [0b1], [0b1, 0b10]):
        assert not rings._dim_at_most_one(rings.mask_quotient(F2, nvars, masks))


def ref_sample_element(R, rng):
    """The monomial kinds' sampler as first written: raw terms through
    reduce_terms."""
    nvars = R.nvars or 6
    terms = []
    for _ in range(rng.randint(0, 3)):
        exp = [0] * rng.randint(1, nvars)
        exp[-1] = rng.randint(1, 2)
        if rng.random() < 0.3 and len(exp) > 1:
            exp[rng.randrange(len(exp) - 1)] = 1
        if isinstance(R.field, rings.PrimeField):
            c = rng.randint(1, R.field.p - 1)
        else:
            c = rng.randint(-3, 3)
        terms.append((c, tuple(exp)))
    if rng.random() < 0.5:
        terms.append((rng.randint(0, 3), ()))
    return R.reduce_terms(terms)


SAMPLED_MONOMIAL_KINDS = [
    R
    for K in (F2, F3, rings.prime_field(5), rings.QQ)
    for R in [construction.build_supplement(K, n) for n in range(1, 6)]
    + [rings.symbolic_supplement(K), rings.monomial_quotient(K, 4, [(1, 1), (0, 1, 0, 1), (0, 0, 1)])]
]


@pytest.mark.parametrize("R", SAMPLED_MONOMIAL_KINDS, ids=str)
def test_monomial_sampler_matches_the_reduce_terms_reference(R):
    for seed in range(300):
        new, ref = Random(seed), Random(seed)
        got = [R.sample_element(new) for _ in range(4)]
        assert got == [ref_sample_element(R, ref) for _ in range(4)], seed
        assert new.getstate() == ref.getstate(), seed
