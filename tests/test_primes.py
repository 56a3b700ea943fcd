from random import Random

import pytest

from spectop.errors import FactorizationLimitError
from spectop.primes import (
    factorint,
    is_prime,
    next_prime,
    prime_factors,
    primes_below,
    radical,
)


def naive_factor(n):
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return tuple(sorted(out.items()))


def test_factorint_matches_naive_scan():
    for n in range(1, 2000):
        assert factorint(n) == naive_factor(n)


def test_factorint_random_larger(rng):
    for _ in range(200):
        n = rng.randint(2, 10**8)
        fac = factorint(n)
        prod = 1
        for p, e in fac:
            assert is_prime(p)
            prod *= p**e
        assert prod == n


def test_is_prime_against_sieve():
    sieve = set(primes_below(5000))
    for n in range(5000):
        assert is_prime(n) == (n in sieve)


def test_pollard_on_64bit_semiprime():
    p, q = 2147483659, 2147483693
    assert factorint(p * q) == ((p, 1), (q, 1))


def test_limit_enforced_and_liftable():
    big = 2**70 + 1
    with pytest.raises(FactorizationLimitError):
        factorint(big)
    fac = factorint(big, limit=None)
    prod = 1
    for p, e in fac:
        prod *= p**e
    assert prod == big


def test_radical_and_prime_factors():
    assert radical(12) == 6
    assert radical(1) == 1
    assert radical(360) == 30
    assert prime_factors(-84) == (2, 3, 7)


def test_psi12_is_composite():
    # psi_12 is the least strong pseudoprime to all of the bases 2..37.
    psi12 = 318665857834031151167461
    assert psi12 == 399165290221 * 798330580441
    assert not is_prime(psi12)
    assert is_prime(41)


def test_next_prime():
    assert next_prime(1) == 2
    assert next_prime(2) == 3
    assert next_prime(13) == 17


@pytest.fixture
def rng():
    return Random(11)
