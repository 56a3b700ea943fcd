from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectop.errors import FactorizationLimitError
from spectop.primes import (
    factorint,
    is_prime,
    next_prime,
    prime_factors,
    primes_below,
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


# Primes below 2^32 and 2^64, and the first primes past the trial divisors
# (every prime below 2^10 = 1024; the largest is 1021).
P32, Q32 = 4294967291, 4294967279
P64 = (2**64 - 59, 2**64 - 83)
PAST_TRIAL = 1031, 1033


@pytest.mark.parametrize("p", [P32, Q32, 2147483659])
def test_squares_and_cubes_of_32bit_primes(p):
    assert factorint(p * p) == ((p, 2),)
    assert factorint(p**3, limit=None) == ((p, 3),)
    assert factorint(3 * p**3, limit=None) == ((3, 1), (p, 3))


def test_semiprimes_just_below_2_64():
    assert P32 * Q32 < 2**64
    assert factorint(P32 * Q32) == ((Q32, 1), (P32, 1))
    assert factorint(P32 * P32) == ((P32, 2),)
    # Unbalanced: a prime past the trial divisors times one just above 2^53.
    big = 9007199254740997
    assert is_prime(big)
    assert factorint(PAST_TRIAL[0] * big) == ((PAST_TRIAL[0], 1), (big, 1))


@pytest.mark.parametrize(
    "n, fac",
    [
        (561, ((3, 1), (11, 1), (17, 1))),
        (41041, ((7, 1), (11, 1), (13, 1), (41, 1))),
        (825265, ((5, 1), (7, 1), (17, 1), (19, 1), (73, 1))),
        # A strong pseudoprime to the bases 2, 3, 5 and 7.
        (3215031751, ((151, 1), (751, 1), (28351, 1))),
    ],
)
def test_carmichael_and_strong_pseudoprimes(n, fac):
    assert not is_prime(n)
    assert factorint(n) == fac
    assert factorint(n * n, limit=None) == tuple((p, 2 * e) for p, e in fac)


def test_primes_just_past_the_trial_divisors():
    p, q = PAST_TRIAL
    assert factorint(p) == ((p, 1),)
    assert factorint(p * p) == ((p, 2),)
    assert factorint(p * q) == ((p, 1), (q, 1))
    assert factorint(1021 * p) == ((1021, 1), (p, 1))
    assert factorint(2**5 * 1021**2 * p**3) == ((2, 5), (1021, 2), (p, 3))


def test_one_and_primes_below_2_64():
    assert factorint(1) == ()
    for p in P64:
        assert is_prime(p)
        assert factorint(p) == ((p, 1),)


# Size bands of the random prime factors: trial divisors, just past them,
# and up to 16, 24 and 32 bits.
BANDS = ((2, 2**10), (2**10, 2**12), (2**12, 2**16), (2**16, 2**24), (2**24, 2**32))


@st.composite
def built_factorizations(draw):
    """A factorization from random primes of mixed bands, product <= 2^64."""
    acc = {}
    n = 1
    for _ in range(draw(st.integers(1, 5))):
        lo, hi = draw(st.sampled_from(BANDS))
        p = next_prime(draw(st.integers(lo, hi - 1)))
        e = draw(st.integers(1, 3))
        if n * p**e > 2**64:
            break
        n *= p**e
        acc[p] = acc.get(p, 0) + e
    return n, tuple(sorted(acc.items()))


@settings(deadline=None, derandomize=True, database=None, max_examples=150)
@given(built_factorizations())
def test_factorint_recovers_built_factorizations(case):
    n, fac = case
    assert factorint(n) == fac


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
