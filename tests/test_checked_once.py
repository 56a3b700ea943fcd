"""Points and primes the engine builds are checked once, where they are made.

The suites build subsets of a ring's own spectrum with spectrum._subset
after one check per point, and of its sampled points with no check; the
image oracle contracts its map's own tame primes with no check; and
`ModRing` trusts the primes `factorint` certified, factored once per
modulus.  The tests here keep the rules those checks rest on: every
point a ring enumerates or samples is a point of that ring, the monomial
kinds' short nilpotence rule agrees with the full one, and a Z/n query
tests each of its primes once.  They also count the checks and
factorizations themselves, check that the axes rings over several fields
share each field-free fact, and check that one `verify all` run fits in
the memos of factorizations, covers, irreducibles and axes-ring facts.
"""

import sys
from collections import Counter
from random import Random

import pytest

from conftest import AXES_F2, AXES_Q, F2, F2X, bench_queries
from spectop import construction, covers, maps, primes, products, rings, suites, values
from spectop import spectrum as sp
from spectop.cli import run_command

ZOO = list(dict.fromkeys(suites._axiom_zoo() + suites._oracle_zoo()))


@pytest.mark.parametrize("R", ZOO, ids=str)
def test_every_enumerated_point_is_a_point_of_its_ring(R):
    for p in sp.spec_points(R):
        R.validate_point(p)


@pytest.mark.parametrize("R", [rings.ZZ, F2X, rings.poly_ring(3), AXES_F2, AXES_Q], ids=str)
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_every_sampled_point_is_a_point_of_its_ring(R, seed):
    pts = sp.sample_points(R, Random(seed), 60)
    assert all(R.has_point(p) for p in pts)
    assert R.limit in pts and len(set(pts)) > 2


MONOMIAL_KINDS = [
    rings.monomial_quotient(rings.QQ, 3, [(1, 1, 0), (0, 1, 1)]),
    rings.monomial_quotient(F2, 4, [(1, 1), (0, 0, 1, 1)]),
    rings.localized(rings.monomial_quotient(F2, 3, [(1, 1), (0, 1, 1), (1, 0, 1)])),
    AXES_F2,
    AXES_Q,
]


@pytest.mark.parametrize("R", MONOMIAL_KINDS, ids=str)
def test_monomial_nilpotents_are_the_canonical_zero(R):
    zero = R.from_int(0)
    sample = rings.sample_elements(R, Random(7), 200) + [zero, R.from_int(1)]
    assert any(r == zero for r in sample) and any(r != zero for r in sample)
    for r in sample:
        assert R.is_nilpotent(r) == (r == zero), r


def test_zmod_queries_test_each_prime_once(monkeypatch, capsys):
    # zmod hands factorint's certified primes to ModRing, which does not
    # test them again: no spec query over Z/n asks is_prime twice for the
    # same number.
    calls = []
    real = primes.is_prime

    def counted(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(primes, "is_prime", counted)
    monkeypatch.setattr(rings, "is_prime", counted)
    queries = bench_queries()
    for i in range(40):
        q = queries.entry("spec-zmod-mid", i)
        calls.clear()
        rings._factorization.cache_clear()  # as in a fresh CLI process
        assert run_command(list(q.argv)) == 0, q.id
        capsys.readouterr()
        assert calls, q.id
        assert [n for n, k in Counter(calls).items() if k > 1] == [], q.id


def _point_checks(fn, *args):
    """The point checks fn(*args) makes, by the callers' names."""
    callers = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_name == "validate_point":
            callers.append(frame.f_back.f_code.co_name)

    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return callers


@pytest.mark.parametrize("R", suites._oracle_zoo(), ids=str)
def test_the_image_oracle_checks_no_tame_prime_of_its_own(R):
    # brute_force_image contracts the tame primes its map enumerated from
    # the ring's spectrum, so none of them is checked again.
    for E in suites._every_subset(R):
        for kind in (products.QUOTIENT, products.LOCAL):
            assert _point_checks(products.brute_force_image, E, kind) == [], (kind, E)


def test_finite_closure_checks_each_point_once_where_it_enumerates_it(count_calls):
    # Each case builds its subset and its brute-force up closure from the
    # list _checked_points returns, so no point is checked twice.
    checks = count_calls(sp, "validate_point")
    outside = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_name == "validate_point":
            caller = frame.f_back
            while caller is not None and caller.f_code.co_name != "_checked_points":
                caller = caller.f_back
            if caller is None:
                outside.append(frame.f_back.f_code.co_name)

    sys.setprofile(profile)
    try:
        res = suites.suite_finite_closure(seed=0)
    finally:
        sys.setprofile(None)
    assert res.passed and outside == []
    assert set(checks.values()) == {1} and len(checks) == 268


def test_the_public_contract_still_checks_its_point():
    m = maps.CanonicalIntoLocalProduct(sp.whole(rings.zmod(12)))
    (q, *_) = maps.tame_points(m)
    assert len(_point_checks(maps.contract, m, q)) == 1


def test_lying_over_factors_each_modulus_once(monkeypatch):
    # A diagonal map's source is Z/n again, built through the same memo as
    # the suite's own Z/n, so each modulus is factored once.
    calls = []
    real = rings.factorint
    monkeypatch.setattr(rings, "factorint", lambda n, limit: calls.append(n) or real(n, limit))
    rings._factorization.cache_clear()
    assert suites.suite_lying_over(seed=0).passed
    assert len(calls) == len(set(calls)) == 19


def test_supplement_decides_each_axes_fact_once_per_n():
    # The intersection identity and the cover oracle's verdict read the
    # masks only, so the reports over F2, F3 and Q share one meet and one
    # 2^n scan per n = 2..8 (21 of each when every field ran its own).
    construction.verify_intersection.cache_clear()
    construction._covers_match_oracle.cache_clear()
    watched = {
        values.ideal_intersect_all.__code__: "meet",
        covers.brute_force_minimal_covers.__code__: "oracle",
    }
    calls = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in watched:
            calls[watched[frame.f_code]] += 1

    sys.setprofile(profile)
    try:
        res = suites.run_suite("supplement", 0)
    finally:
        sys.setprofile(None)
    assert res.passed
    assert calls == {"meet": 7, "oracle": 7}


@pytest.mark.parametrize("seed", [0, 7])
def test_verify_all_fits_in_the_ring_memos(seed, capsys):
    # As the memos' size comments say: a run from cleared memos evicts
    # nothing, so each key is computed once, and it leaves room.
    memos = (
        rings._factorization, rings.minimal_cover_masks, rings._irreducible_pool,
        construction.verify_intersection, construction._covers_match_oracle,
    )
    for memo in memos:
        memo.cache_clear()
    assert run_command(["verify", "all", "--seed", str(seed), "--json"]) == 0
    capsys.readouterr()
    for memo in memos:
        info = memo.cache_info()
        assert info.currsize == info.misses < info.maxsize, (memo.__wrapped__.__name__, info)
