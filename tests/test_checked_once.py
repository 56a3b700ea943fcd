"""Points and primes the engine builds are checked once, where they are made.

The suites build subsets of a ring's own spectrum with spectrum._subset
after one check per point, the image oracle takes the points `contract`
checked, and `ModRing` trusts the primes `factorint` certified.  The
tests here keep the rules those checks rest on: every point a ring
enumerates or samples is a point of that ring, the monomial kinds' short
nilpotence rule agrees with the full one, and a Z/n query tests each of
its primes once.
"""

from collections import Counter
from random import Random

import pytest

from conftest import AXES_F2, AXES_Q, F2, F2X, bench_queries
from spectop import primes, rings, suites
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
        assert run_command(list(q.argv)) == 0, q.id
        capsys.readouterr()
        assert calls, q.id
        assert [n for n, k in Counter(calls).items() if k > 1] == [], q.id
