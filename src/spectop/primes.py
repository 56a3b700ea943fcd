"""Integer primality and factorization.

Trial division by the primes below 2^10 strips small factors; Pollard rho
with Brent's cycle finding (R. P. Brent, BIT 20, 1980) splits the rest,
and Miller-Rabin decides which parts are prime.  Inputs above 64 bits are
refused unless the caller passes limit=None.  Everything is deterministic.
"""

from __future__ import annotations

import math

from .errors import FactorizationLimitError

DEFAULT_LIMIT = 2**64

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# Deterministic Miller-Rabin witnesses below psi_13 = 3317044064679887385961981
# (Sorenson and Webster, Math. Comp. 2017).  The bases 2..37 alone pass the
# composite psi_12 = 318665857834031151167461.  Every base is also a trial
# divisor above, so the tested n is never a base.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# Steps of y between two gcds with n in the rho loop.
_RHO_BLOCK = 128


def _pollard_rho(n: int) -> int:
    """One nontrivial factor of a composite n with no prime factor below 2^10.

    Brent's cycle finding: y runs through stretches of doubling length
    away from a saved x, and the products of x - y mod n meet n in one
    gcd per block.  A block whose gcd is n is replayed one step at a time.
    """
    root = math.isqrt(n)
    if root * root == n:
        return root
    # Deterministic parameter sweep over the polynomials x^2 + c.
    for c in range(1, 256):
        y, q, g, r = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BLOCK, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += _RHO_BLOCK
            r *= 2
        if g == n:
            # Some step of the last block shares a factor with n.
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g
    raise FactorizationLimitError(f"pollard rho failed on {n}")


def _factor_into(n: int, acc: dict[int, int]) -> None:
    if n == 1:
        return
    if is_prime(n):
        acc[n] = acc.get(n, 0) + 1
        return
    d = _pollard_rho(n)
    _factor_into(d, acc)
    _factor_into(n // d, acc)


def factorint(n: int, limit: int | None = DEFAULT_LIMIT) -> tuple[tuple[int, int], ...]:
    """Factor n >= 1 into sorted (prime, exponent) pairs.

    limit caps the accepted input size; pass None to allow arbitrary
    precision.
    """
    if n < 1:
        raise ValueError("factorint expects n >= 1")
    if limit is not None and n > limit:
        raise FactorizationLimitError(f"{n} exceeds factorization bound {limit}")
    acc: dict[int, int] = {}
    for d in _TRIAL_PRIMES:
        if d * d > n:
            break
        while n % d == 0:
            acc[d] = acc.get(d, 0) + 1
            n //= d
    if n > 1:
        _factor_into(n, acc)
    return tuple(sorted(acc.items()))


def prime_factors(n: int) -> tuple[int, ...]:
    """Sorted distinct prime divisors of |n|, n nonzero, |n| <= 2^64."""
    return tuple(p for p, _ in factorint(abs(n)))


def primes_below(bound: int) -> list[int]:
    """All primes < bound by a plain sieve."""
    if bound <= 2:
        return []
    sieve = bytearray([1]) * bound
    sieve[0] = sieve[1] = 0
    for i in range(2, math.isqrt(bound - 1) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i in range(bound) if sieve[i]]


def next_prime(n: int) -> int:
    """Smallest prime strictly greater than n."""
    k = n + 1
    if k <= 2:
        return 2
    if k % 2 == 0:
        k += 1
    while not is_prime(k):
        k += 2
    return k


# Trial divisors for factorint; Pollard rho finds every larger prime factor.
_TRIAL_PRIMES = tuple(primes_below(1 << 10))
