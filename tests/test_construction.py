import hashlib
from itertools import combinations
from random import Random

import pytest

from conftest import AXES_F2, AXES_Q, F2, F2X, F3, enumerable_zoo
from spectop import construction as con
from spectop import covers, jsonio, rings
from spectop import spectrum as sp
from spectop import topology as top
from spectop.errors import BadArityError, SpectrumTooLargeError, TooManyVarsError
from spectop.spectrum import FpxMax, MonoPrime, SuppMin, ZMax


def test_build_supplement_generators():
    R = con.build_supplement(F2, 3)
    assert {rings.mask_to_exp(g) for g in R.inner.gens} == {(1, 1), (1, 0, 1), (0, 1, 1)}
    R2 = con.build_supplement(rings.QQ, 2)
    assert {rings.mask_to_exp(g) for g in R2.inner.gens} == {(1, 1)}


def test_build_supplement_degenerate():
    R = con.build_supplement(F2, 1)
    assert con.supplement_is_degenerate(1)
    assert R.inner.gens == frozenset()
    with pytest.raises(BadArityError):
        con.build_supplement(F2, 0)


def test_minimal_primes_supplement():
    got = set(con.minimal_primes_monomial(con.supplement_gens(3), 3))
    assert got == {
        MonoPrime(frozenset({2, 3})),
        MonoPrime(frozenset({1, 3})),
        MonoPrime(frozenset({1, 2})),
    }


def test_minimal_primes_small_cases():
    assert set(con.minimal_primes_monomial({(1, 1)}, 2)) == {
        MonoPrime(frozenset({1})),
        MonoPrime(frozenset({2})),
    }
    assert con.minimal_primes_monomial({(1,)}, 2) == [MonoPrime(frozenset({1}))]


def test_minimal_primes_oracle_agreement(rng):
    # The branching enumeration equals the 2^n subset scan on random
    # square-free ideals.
    for _ in range(100):
        nvars = rng.randint(1, 10)
        gens = set()
        for _ in range(rng.randint(1, 4)):
            g = tuple(rng.randint(0, 1) for _ in range(nvars))
            if any(g):
                gens.add(g)
        if not gens:
            continue
        edges = [rings.mono_support(g) for g in gens]
        fast = covers.minimal_covers(edges, nvars)
        slow = covers.brute_force_minimal_covers(edges, nvars)
        assert fast == slow


def test_minimal_primes_var_bound():
    with pytest.raises(TooManyVarsError):
        con.minimal_primes_monomial({(1,) * 21}, 21)
    con.minimal_primes_monomial({(1,) * 21}, 21, check=False)


def test_verify_intersection_small_n():
    for n in (1, 2, 3, 4, 5):
        assert con.verify_intersection(n, F2)
        assert con.verify_intersection(n, rings.QQ)


def test_verify_intersection_brute_force_membership():
    # Independent oracle at n = 3: a square-free monomial lies in the
    # intersection of the axis primes exactly when it lies in the pair
    # ideal.
    amb = rings.monomial_quotient(F2, 3, frozenset())
    pair_ideal = rings.monomial_ideal(con.supplement_gens(3))
    axis = [
        rings.monomial_ideal({(0,) * (i - 1) + (1,) for i in range(1, 4) if i != k})
        for k in range(1, 4)
    ]
    for bits in range(1, 8):
        exps = tuple((bits >> i) & 1 for i in range(3))
        m = rings.mpoly_el(amb, {exps: 1})
        in_all = all(rings.ideal_member(I, m, amb) for I in axis)
        assert in_all == rings.ideal_member(pair_ideal, m, amb)


def test_krull_dim_examples():
    assert con.krull_dim(con.build_supplement(F3, 5)) == 1
    assert con.krull_dim(rings.zmod(12)) == 0
    assert con.krull_dim(rings.monomial_quotient(F2, 3, {(1, 1)})) == 2
    assert con.krull_dim(rings.ZZ) == 1
    assert con.krull_dim(rings.QQ) == 0


def test_krull_dim_chain_oracle():
    # The combinatorial formula matches chain search among monomial
    # primes of K[x1..x3]/(x1 x2): (x1) < (x1, x2) < (x1, x2, x3).
    R = rings.monomial_quotient(F2, 3, {(1, 1)})
    covers_all = [
        frozenset(c)
        for bits in range(8)
        for c in [{i + 1 for i in range(3) if (bits >> i) & 1}]
        if all(rings.mask_support(g) & frozenset(c) for g in R.gens)
    ]
    longest = 0
    for a in covers_all:
        for b in covers_all:
            for c in covers_all:
                if a < b < c:
                    longest = max(longest, 2)
    assert longest == con.krull_dim(R)


def test_pz_examples():
    assert con.pz_check(con.build_supplement(F2, 4))
    assert con.pz_check(rings.zmod(30))
    for R in enumerable_zoo():
        if len(sp.spec_points(R)) <= 7:
            assert con.pz_check(R)


def test_pz_witness_consistency():
    # The intersection of two axis primes sits inside the first one, and
    # indeed a member of the family sits below it.
    R = con.build_supplement(F2, 3)
    p1 = MonoPrime(frozenset({2, 3}))
    p2 = MonoPrime(frozenset({1, 3}))
    assert sp.leq_specialization(p1, p1, R)


def test_pz_spectrum_bound():
    with pytest.raises(SpectrumTooLargeError):
        con.pz_check(con.build_supplement(F2, 21))


def test_cp_on_zmod_and_exact_fragment():
    for n in (8, 12, 30, 210):
        assert con.cp_check(rings.zmod(n))


def test_chains_pass_both_checks():
    ambient = rings.monomial_quotient(F2, 5, frozenset())
    for length in range(1, 6):
        chain = [MonoPrime(frozenset(range(1, j + 1))) for j in range(1, length + 1)]
        assert con.absorbance_holds(sp.explicit(ambient, chain))
        assert con.avoidance_holds(sp.explicit(ambient, chain))


def test_is_reduced_examples():
    assert con.is_reduced(con.build_supplement(F2, 3))
    assert not con.is_reduced(rings.zmod(12))
    assert con.is_reduced(rings.zmod(30))
    assert con.is_reduced(rings.product(rings.zmod(30), rings.prime_field(3)))
    assert not con.is_reduced(rings.product(rings.zmod(4), rings.zmod(3)))


def test_supplement_theorem_small_range():
    for K in (F2, F3, rings.QQ):
        for n in range(2, 6):
            rep = con.supplement_report(K, n)
            assert rep.all_ok
            assert not rep.degenerate
            assert len(rep.minimal_primes) == n


def test_supplement_degenerate_report():
    rep = con.supplement_report(F2, 1)
    assert rep.degenerate
    assert rep.dim == 1
    assert rep.reduced
    assert rep.minimal_primes == (MonoPrime(frozenset()),)


def test_duality_sanity_in_axes_ring():
    for n in range(2, 6):
        R = con.build_supplement(F2, n)
        full = frozenset(range(1, n + 1))
        for k in range(1, n + 1):
            P_k = MonoPrime(full - {k})
            single = sp.explicit(R, {P_k})
            assert top.zariski_closure(single, R) == sp.explicit(
                R, {P_k, MonoPrime(full)}
            )
            assert top.flat_closure(single, R) == single


@pytest.fixture
def rng():
    return Random(37)


# ---------------------------------------------------------------------------
# Absorbance against a brute force over every subfamily, with no shared
# prefixes and no short-circuit.
# ---------------------------------------------------------------------------


def _brute_absorbance(points, R):
    """Every nonempty F and every q: the meet of F lies in q exactly when
    some member of F does (the converse is trivial, so both directions
    are checked); the verdict is whether the forward direction held."""
    ideals = [sp.point_ideal(p, R) for p in points]
    holds = True
    for size in range(1, len(points) + 1):
        for F in combinations(range(len(points)), size):
            meet = rings.ideal_intersect_all([ideals[i] for i in F], R)
            for j, q in enumerate(points):
                inside = rings.ideal_contains(ideals[j], meet, R)
                member = any(sp.leq_specialization(points[i], q, R) for i in F)
                assert member <= inside
                holds = holds and inside <= member
    return holds


ABSORBANCE_RINGS = [
    con.build_supplement(K, n) for K in (F2, rings.QQ) for n in range(2, 6)
] + [rings.zmod(n) for n in (12, 30, 36)]


@pytest.mark.parametrize("R", ABSORBANCE_RINGS, ids=str)
def test_absorbance_matches_brute_force(R):
    pts = sp.spec_points(R)
    for size in range(1, len(pts) + 1):
        for family in combinations(pts, size):
            family = list(family)
            want = _brute_absorbance(family, R)
            assert con.absorbance_holds(sp.explicit(R, family)) == want
            assert con.absorbance_holds(sp.explicit(R, family[::-1])) == want
    assert con.pz_check(R)


# ---------------------------------------------------------------------------
# The infinite families where a statement fails, with the witness checked
# from the definition and without closures: the sets of the cofinite grid
# that leave out the limit point.
# ---------------------------------------------------------------------------


def _without_limit(R, pts):
    return [sp.cofinite(R, pts[:n], False) for n in range(3)]


@pytest.mark.parametrize(
    "R, pts",
    [(rings.ZZ, (ZMax(2), ZMax(3))), (F2X, (FpxMax((0, 1)), FpxMax((1, 1))))],
    ids=["Z", "F2x"],
)
def test_absorbance_fails_with_witness_zero(R, pts, rng):
    zero_ideal = R.limit
    for E in _without_limit(R, pts):
        assert not con.absorbance_holds(E)
        # (0) contains the intersection of E: no nonzero element lies in
        # every member ...
        for a in rings.sample_elements(R, rng, 40):
            if a != rings.zero(R):
                assert not sp.subset_le(E, sp.v_locus(a, R))
        # ... and no member of E lies below (0).
        assert not sp.subset_member(zero_ideal, E)
        for p in sp.sample_points(R, rng, 40):
            if sp.subset_member(p, E):
                assert not sp.leq_specialization(p, zero_ideal, R)


@pytest.mark.parametrize("R", [AXES_F2, AXES_Q], ids=str)
def test_avoidance_fails_with_witness_m(R, rng):
    m = R.limit
    for E in _without_limit(R, (SuppMin(1), SuppMin(2))):
        assert not con.avoidance_holds(E)
        # m lies inside the union of E: each element of m lies in some P_k
        # with k in E ...
        in_m = [a for a in rings.sample_elements(R, rng, 40) if sp.point_contains(m, a, R)]
        assert in_m
        for a in in_m:
            assert any(
                sp.subset_member(P, E) and sp.point_contains(P, a, R)
                for P in map(SuppMin, range(1, 100))
            )
        # ... and no member of E lies above m.
        assert not sp.subset_member(m, E)
        for p in sp.sample_points(R, rng, 40):
            if sp.subset_member(p, E):
                assert not sp.leq_specialization(m, p, R)


# Recorded with the unpruned ideal layer.  n = 9 lies past the n <= 8 of
# the benchmark and of `verify all`, so its meets are the largest checked.
SUPPLEMENT_9_DIGESTS = {
    "F_2": "96b40b889ff4d2fc",
    "F_5": "2717c1e96050e7fd",
    "Q": "4da18826b87debec",
}


@pytest.mark.parametrize("K", [F2, rings.prime_field(5), rings.QQ], ids=str)
def test_supplement_report_n9_golden(K):
    rep = con.supplement_report(K, 9)
    doc = jsonio.dumps_canonical(jsonio.supplement_report_to_json(rep))
    assert hashlib.sha256(doc.encode()).hexdigest()[:16] == SUPPLEMENT_9_DIGESTS[str(K)]
    assert rep.all_ok
