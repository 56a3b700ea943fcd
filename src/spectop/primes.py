"""Integer primality and factorization.

Trial division by the primes below 2^10 strips small factors.  A composite
cofactor is split in turn by a perfect-square check; a short Pollard rho
with Brent's cycle finding (R. P. Brent, BIT 20, 1980) for small factors;
Lenstra's elliptic curve method (H. W. Lenstra, Ann. Math. 126, 1987) on
Montgomery's x-only curves with the baby-step/giant-step stage 2
(P. L. Montgomery, Math. Comp. 48, 1987), which splits a 64-bit modulus
with two 32-bit factors in a few curves; and, when every curve fails,
Brent's rho with no work budget.  Every factor is a gcd with n, and
Miller-Rabin decides which parts are prime.  Inputs above 64 bits are
refused unless the caller passes limit=None.  Everything is deterministic.
"""

from __future__ import annotations

import math

from .errors import FactorizationLimitError

DEFAULT_LIMIT = 2**64

# Deterministic Miller-Rabin witnesses below psi_13 = 3317044064679887385961981
# (Sorenson and Webster, Math. Comp. 2017).  The bases 2..37 alone pass the
# composite psi_12 = 318665857834031151167461.  Every base is tried as a
# divisor first, so the tested n is never a base.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
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

# The short rho gives up once its stretch length passes this.
_SHORT_RHO_R = 1 << 7


def _brent(n: int, c: int, r_max: int | None) -> int:
    """A divisor g > 1 of n from the orbit of 2 under x -> x^2 + c mod n.

    Brent's cycle finding: y runs through stretches of doubling length r
    away from a saved x, and the products of x - y mod n meet n in one
    gcd per block.  A block whose gcd is n is replayed one step at a time;
    the divisor found may still be n.  Returns 1 once r passes r_max
    (None: never).
    """
    y, q, g, r = 2, 1, 1, 1
    while g == 1:
        if r_max is not None and r > r_max:
            return 1
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
    return g


def _pollard_rho(n: int) -> int:
    """One nontrivial factor of a composite n with no prime factor below 2^10.

    Pollard rho with Brent's cycle finding (R. P. Brent, BIT 20, 1980)
    over the polynomials x^2 + c, c = 1, 2, ...  It is the last resort
    after the short rho and ECM, and it has no work budget.
    """
    for c in range(1, 256):
        g = _brent(n, c, None)
        if g != n:
            return g
    raise FactorizationLimitError(f"pollard rho failed on {n}")


# ECM, stage 1: one ladder on the product of the prime powers up to B1.
# Stage 2: every prime p in (B1, B2] is m*D +- j with j <= D/2, j odd, and
# mod a prime factor of n, x(mD Q) = x(j Q) exactly when (mD - j) Q or
# (mD + j) Q is zero.
_ECM_B1, _ECM_B2, _ECM_D, _ECM_CURVES = 120, 6000, 210, 60


def _ecm_tables() -> tuple[str, tuple[tuple[int, tuple[int, ...]], ...]]:
    primes = primes_below(_ECM_B2 + 1)
    k = 1
    for p in primes:
        if p > _ECM_B1:
            break
        q = p
        while q * p <= _ECM_B1:
            q *= p
        k *= q
    pairs: dict[int, set[int]] = {}
    for p in primes:
        if p > _ECM_B1:
            m = (p + _ECM_D // 2) // _ECM_D
            pairs.setdefault(m, set()).add(abs(p - m * _ECM_D))
    return bin(k)[3:], tuple((m, tuple(sorted(js))) for m, js in sorted(pairs.items()))


def _ecm(n: int) -> int | None:
    """A nontrivial divisor of the composite n, or None after every curve.

    Lenstra's elliptic curve method (Ann. Math. 126, 1987) on Suyama's
    curves sigma = 6, 7, ...; a gcd of n moves on to the next curve.
    """
    for sigma in range(6, 6 + _ECM_CURVES):
        g = _ecm_curve(n, sigma)
        if 1 < g < n:
            return g
    return None


def _ecm_curve(n: int, sigma: int) -> int:
    """The first gcd with n other than 1 from one curve, or 1.

    Suyama's curve for sigma in Montgomery's form B y^2 = x^3 + A x^2 + x,
    in (X:Z) coordinates (P. L. Montgomery, Math. Comp. 48, 1987).  One
    gcd on the start data, one after stage 1 and one after stage 2.
    """

    def add(xp, zp, xq, zq, xd, zd):
        # x(P + Q) from x(P), x(Q) and x(P - Q).
        u = (xp - zp) * (xq + zq)
        v = (xp + zp) * (xq - zq)
        return zd * (u + v) ** 2 % n, xd * (u - v) ** 2 % n

    def dbl(x, z):
        s, d = (x + z) ** 2 % n, (x - z) ** 2 % n
        t = s - d
        return s * d % n, t * (d + a24 * t) % n

    bits, stage2 = _ECM_TABLES
    u, v = sigma * sigma - 5, 4 * sigma
    den = 16 * u**3 * v**3
    g = math.gcd(den, n)
    if g != 1:
        return g
    # The start point (u^3 : v^3) scaled to Z = 1, and (A + 2) / 4.
    inv = pow(den, -1, n)
    x = 16 * u**6 * inv % n
    a24 = (v - u) ** 3 * (3 * u + v) * v * v * inv % n
    # Montgomery ladder on k: (x0:z0) = jP and (x1:z1) = (j+1)P.
    x0, z0, x1, z1 = x, 1, *dbl(x, 1)
    for bit in bits:
        if bit == "1":
            x0, z0 = add(x1, z1, x0, z0, x, 1)
            x1, z1 = dbl(x1, z1)
        else:
            x1, z1 = add(x1, z1, x0, z0, x, 1)
            x0, z0 = dbl(x0, z0)
    g = math.gcd(z0, n)
    if g != 1:
        return g
    # Baby steps x(jQ) for odd j <= D/2, giant steps x(mDQ), DQ = 2(D/2)Q.
    x2, z2 = dbl(x0, z0)
    baby = {1: (x0, z0), 3: add(x2, z2, x0, z0, x0, z0)}
    for j in range(5, _ECM_D // 2 + 1, 2):
        baby[j] = add(*baby[j - 2], x2, z2, *baby[j - 4])
    gx, gz = dbl(*baby[_ECM_D // 2])
    mx, mz, nx, nz = gx, gz, *dbl(gx, gz)  # mDQ and (m+1)DQ, m = 1
    m, acc = 1, 1
    for m_next, js in stage2:
        while m < m_next:
            mx, mz, nx, nz = nx, nz, *add(nx, nz, gx, gz, mx, mz)
            m += 1
        for j in js:
            xj, zj = baby[j]
            acc = acc * (mx * zj - xj * mz) % n
    return math.gcd(acc, n)


def _factor_into(n: int, acc: dict[int, int]) -> None:
    if n == 1:
        return
    if is_prime(n):
        acc[n] = acc.get(n, 0) + 1
        return
    # n has no prime factor below 2^10: a square root, else the first
    # nontrivial divisor from the short rho, ECM and the unbounded rho.
    d = math.isqrt(n)
    if d * d != n:
        d = _brent(n, 1, _SHORT_RHO_R)
        if not 1 < d < n:
            d = _ecm(n) or _pollard_rho(n)
    _factor_into(d, acc)
    _factor_into(n // d, acc)


def factorint(n: int, limit: int | None = DEFAULT_LIMIT) -> tuple[tuple[int, int], ...]:
    """Factor n >= 1 into sorted (prime, exponent) pairs.

    limit caps the accepted input size; pass None to allow arbitrary
    precision.  None (the CLI's --allow-big) lifts only that size bound.
    The stages before the last are bounded, but the fallback rho has no
    work budget: it takes on the order of sqrt(p) steps for the smallest
    prime factor p of what is left, about 2^32 steps when p is near 2^64.
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


# Trial divisors for factorint; rho and ECM find every larger prime factor.
_TRIAL_PRIMES = tuple(primes_below(1 << 10))
_ECM_TABLES = _ecm_tables()
