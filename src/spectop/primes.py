"""Integer primality and factorization.

Trial division by the primes below 2^10 strips small factors.  A composite
cofactor is split in turn by a perfect-square check; Pollard's p - 1
(J. M. Pollard, Proc. Cambridge Philos. Soc. 76, 1974), whose stage 1 is
one built-in pow and whose stage 2 walks the tables of one ECM level; and
Lenstra's elliptic curve method (H. W. Lenstra, Ann. Math. 126, 1987) on
Montgomery's x-only curves with the baby-step/giant-step stage 2
(P. L. Montgomery, Math. Comp. 48, 1987), whose bound B1 grows by a tenth
with each curve.  Every stage is bounded, and ECM's fixed schedule of 60
curves is the work budget: a cofactor that none of them splits is refused
with FactorizationLimitError.  Each curve's ladder and stage 2 are written
out in one function, with x +- z computed once per step and shared by the
addition and the doubling, since nearly all of a 64-bit factorization is
spent there.  The stage tables of each bound are built from one sieve up
to its B2 and memoized.  Every factor is a gcd with n.  Miller-Rabin,
with as many bases as the size of n needs, decides which parts are prime
below psi_13; above it a Mersenne number is proven prime or composite by
Lucas-Lehmer, and any other part is proven composite by a Miller-Rabin
witness or is unproven.  An unproven part goes on to p - 1 and ECM like a
composite one, so none is ever recorded as a prime.
Inputs above 64 bits are refused unless the caller passes limit=None,
which lifts only that size bound.  Everything is deterministic.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import lru_cache
from itertools import compress

from .errors import FactorizationLimitError

DEFAULT_LIMIT = 2**64

# Deterministic Miller-Rabin witnesses below PSI_13, the least composite
# that is a strong probable prime to all of them (Sorenson and Webster,
# Math. Comp. 2017).  The bases 2..37 alone pass the composite
# psi_12 = 318665857834031151167461.  Every base is tried as a divisor
# first, so the tested n is never a base.
PSI_13 = 3317044064679887385961981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# psi_t for t = 1..12, the least composite that is a strong probable prime
# to each of the first t bases (OEIS A014233; G. Jaeschke, Math. Comp. 61,
# 1993; Sorenson and Webster).  Below psi_t the first t bases decide.
_MR_PSI = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 341550071728321, 3825123056546413051,
    3825123056546413051, 3825123056546413051, 318665857834031151167461,
)


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
    for a in _MR_BASES[: bisect_right(_MR_PSI, n) + 1]:
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


def _lucas_lehmer(e: int) -> bool:
    """Whether 2^e - 1 is prime, for a prime e: for odd e, exactly when
    s_(e-2) = 0 mod 2^e - 1, where s_0 = 4 and s_(k+1) = s_k^2 - 2 (Lucas
    1878; Lehmer, Ann. Math. 31, 1930)."""
    n, s = (1 << e) - 1, 4
    for _ in range(e - 2):
        s = (s * s - 2) % n
    return e == 2 or s == 0


def _proven(n: int) -> bool | None:
    """Whether n is prime, where that is proven: by Miller-Rabin below
    psi_13, by Lucas-Lehmer for a Mersenne number 2^e - 1 with e prime, and
    by a Miller-Rabin witness for a composite.  None for any other n at or
    above psi_13, a strong probable prime to every base, which is unproven."""
    if n >= PSI_13 and n & (n + 1) == 0 and is_prime(n.bit_length()):
        return _lucas_lehmer(n.bit_length())
    return is_prime(n) and (n < PSI_13 or None)


def is_proven_prime(n: int) -> bool:
    """Whether n is prime, for an n whose primality is proven either way
    (see _proven); an unproven n is refused with FactorizationLimitError.
    Every prime the engine accepts as a ring's characteristic or a point
    of Z passes here."""
    proven = _proven(n)
    if proven is None:
        raise FactorizationLimitError(
            f"{n} is not proven prime: from psi_13 = {PSI_13} on, only a Mersenne number "
            "2^e - 1 is proven, by Lucas-Lehmer"
        )
    return proven


# ECM, stage 1: one ladder on the product of the prime powers up to B1.
# Stage 2: every prime p in (B1, B2] is m*D +- j with j <= D/2, j odd, and
# mod a prime factor of n, x(mD Q) = x(j Q) exactly when (mD - j) Q or
# (mD + j) Q is zero.  Curve i runs at B1 = floor(70 * 1.1^i) and
# B2 = 30 * B1, so a small factor costs only cheap early curves, and a
# 32-bit one meets the later, longer ones (P. Zimmermann and B. Dodson,
# "20 years of ECM", ANTS 2006).
_ECM_D, _ECM_CURVES, _ECM_B2_PER_B1 = 210, 60, 30
_ECM_B1S = tuple(70 * 11**i // 10**i for i in range(_ECM_CURVES))


@lru_cache(maxsize=_ECM_CURVES)
def _ecm_tables(b1: int) -> tuple[str, tuple[tuple[int, bytes], ...]]:
    """Stage 1's multiplier in binary, less its leading 1, and stage 2's
    (m, js) pairs, for bounds b1 and _ECM_B2_PER_B1 * b1, from one sieve."""
    b2, h = _ECM_B2_PER_B1 * b1, _ECM_D // 2
    # The sieve runs h past b2, so that every row's window lies inside it.
    prime = _sieve(b2 + h + 1)
    # k is lcm(1, ..., b1): the largest power up to b1 of each prime.
    k = 1
    for p in compress(range(b1 + 1), prime):
        q = p
        while q * p <= b1:
            q *= p
        k *= q
    # Stage 2 takes the primes in (b1, b2] only.
    prime[: b1 + 1] = bytes(b1 + 1)
    prime[b2 + 1 :] = bytes(h)
    pairs = []
    # Row m holds mD - h .. mD + h, so the rows below (b1 - h) // D + 1
    # hold no prime past b1.
    for m in range((b1 - h) // _ECM_D + 1, (b2 + h) // _ECM_D + 1):
        # Byte j - 1 is 1 when mD - j or mD + j is a prime in (b1, b2].
        c = m * _ECM_D
        below = int.from_bytes(prime[max(c - h, 0) : c], "big")
        above = int.from_bytes(prime[c + 1 : c + h + 1], "little")
        js = bytes(compress(range(1, h + 1), (below | above).to_bytes(h, "little")))
        if js:
            pairs.append((m, js))
    return bin(k)[3:], tuple(pairs)


def _ecm(n: int) -> int | None:
    """A nontrivial divisor of the composite n, or None after every curve.

    Lenstra's elliptic curve method (Ann. Math. 126, 1987) on Suyama's
    curves sigma = 6, 7, ..., curve i at B1 = _ECM_B1S[i]; a gcd of n
    moves on to the next curve.
    """
    for sigma, b1 in enumerate(_ECM_B1S, start=6):
        g = _ecm_curve(n, sigma, b1)
        if 1 < g < n:
            return g
    return None


def _ecm_curve(n: int, sigma: int, b1: int) -> int:
    """The first gcd with n other than 1 from one curve at bound b1, or 1.

    Suyama's curve for sigma in Montgomery's form B y^2 = x^3 + A x^2 + x,
    in (X:Z) coordinates (P. L. Montgomery, Math. Comp. 48, 1987).  One
    gcd on the start data, one after stage 1 and one after stage 2.  The
    additions and doublings are written out in place: x(P + Q) from x(P),
    x(Q) and x(P - Q) is (Z(P-Q) (u + v)^2 : X(P-Q) (u - v)^2) with
    u = (X_P - Z_P)(X_Q + Z_Q) and v = (X_P + Z_P)(X_Q - Z_Q), and x(2P)
    is (s d : t (d + a24 t)) with s = (X + Z)^2, d = (X - Z)^2, t = s - d.
    """
    bits, stage2 = _ecm_tables(b1)
    u, v = sigma * sigma - 5, 4 * sigma
    den = 16 * u**3 * v**3
    g = math.gcd(den, n)
    if g != 1:
        return g
    # The start point (u^3 : v^3) scaled to Z = 1, and (A + 2) / 4.
    inv = pow(den, -1, n)
    x = 16 * u**6 * inv % n
    a24 = (v - u) ** 3 * (3 * u + v) * v * v * inv % n
    # Montgomery ladder on k: (x0:z0) = jP and (x1:z1) = (j+1)P.  Each step
    # adds the two points, whose difference is P = (x:1), and doubles one.
    s, d = (x + 1) ** 2 % n, (x - 1) ** 2 % n
    t = s - d
    x0, z0, x1, z1 = x, 1, s * d % n, t * (d + a24 * t) % n
    for bit in bits:
        p0 = x0 + z0
        m0 = x0 - z0
        p1 = x1 + z1
        m1 = x1 - z1
        u = m1 * p0
        v = p1 * m0
        w = u + v
        y = u - v
        if bit == "1":
            s = p1 * p1 % n
            d = m1 * m1 % n
            t = s - d
            x0 = w * w % n
            z0 = x * (y * y) % n
            x1 = s * d % n
            z1 = t * (d + a24 * t) % n
        else:
            s = p0 * p0 % n
            d = m0 * m0 % n
            t = s - d
            x1 = w * w % n
            z1 = x * (y * y) % n
            x0 = s * d % n
            z0 = t * (d + a24 * t) % n
    g = math.gcd(z0, n)
    if g != 1:
        return g
    # Baby steps bx[j], bz[j] = x(jQ) for odd j <= D/2: 2Q, 3Q = 2Q + Q,
    # and jQ = (j-2)Q + 2Q from the difference (j-4)Q.
    h = _ECM_D // 2
    bx, bz = [0] * (h + 1), [0] * (h + 1)
    p0, m0 = x0 + z0, x0 - z0
    s, d = p0 * p0 % n, m0 * m0 % n
    t = s - d
    x2, z2 = s * d % n, t * (d + a24 * t) % n
    p2, m2 = x2 + z2, x2 - z2
    u, v = m2 * p0, p2 * m0
    bx[1], bz[1] = x0, z0
    bx[3], bz[3] = z0 * (u + v) ** 2 % n, x0 * (u - v) ** 2 % n
    for j in range(5, h + 1, 2):
        xp, zp = bx[j - 2], bz[j - 2]
        u, v = (xp - zp) * p2, (xp + zp) * m2
        bx[j], bz[j] = bz[j - 4] * (u + v) ** 2 % n, bx[j - 4] * (u - v) ** 2 % n
    # Giant steps x(mDQ), DQ = 2(D/2)Q, and (m+1)DQ from m = 1 on.  0DQ is
    # the point at infinity (1:0), so a prime j below D/2 gives Z(jQ).
    pg, mg = bx[h] + bz[h], bx[h] - bz[h]
    s, d = pg * pg % n, mg * mg % n
    t = s - d
    gx, gz = s * d % n, t * (d + a24 * t) % n
    pg, mg = gx + gz, gx - gz
    m, mx, mz, acc = 0, 1, 0, 1
    for m_next, js in stage2:
        if m == 0 < m_next:
            s, d = pg * pg % n, mg * mg % n
            t = s - d
            m, mx, mz, nx, nz = 1, gx, gz, s * d % n, t * (d + a24 * t) % n
        while m < m_next:
            u, v = (nx - nz) * pg, (nx + nz) * mg
            mx, mz, nx, nz = nx, nz, mz * (u + v) ** 2 % n, mx * (u - v) ** 2 % n
            m += 1
        for j in js:
            acc = acc * (mx * bz[j] - bx[j] * mz) % n
    return math.gcd(acc, n)


# Pollard's p - 1 runs at one level of the ECM schedule, on its tables:
# B1 = 758, B2 = 22,740.  Over the query-mix moduli, with cold tables per
# batch, levels 23 to 26 factor equally fast, and lower or higher ones
# slower.
_PM1_B1 = _ECM_B1S[25]


def _pm1(n: int) -> int:
    """The first gcd with the odd n other than 1 from Pollard's p - 1, or 1.

    Pollard (Proc. Cambridge Philos. Soc. 76, 1974) at the bounds of the
    ECM level _PM1_B1.  Stage 1 is x = 2^k mod n for the level's multiplier
    k, with one gcd.  Stage 2 walks the level's (m, js) rows on
    V_i = x^i + x^-i, with V_(a+b) = V_a V_b - V_(a-b):
    V_mD - V_j = (x^mD - x^j)(1 - x^-(mD+j)) vanishes mod a prime p
    exactly when x^(mD-j) or x^(mD+j) is 1 mod p, so each pair costs one
    product (P. L. Montgomery, Math. Comp. 48, 1987).  One gcd per row.
    """
    bits, stage2 = _ecm_tables(_PM1_B1)
    x = pow(2, int("1" + bits, 2), n)
    g = math.gcd(x - 1, n)
    if g != 1:
        return g
    # Baby steps bv[j] = V_j for odd j <= D/2, from V_1 and V_2.
    h = _ECM_D // 2
    bv = [0] * (h + 1)
    v1 = (x + pow(x, -1, n)) % n
    v2 = (v1 * v1 - 2) % n
    bv[1] = v1
    bv[3] = (v2 * v1 - v1) % n
    for j in range(5, h + 1, 2):
        bv[j] = (bv[j - 2] * v2 - bv[j - 4]) % n
    # Giant steps V_mD from V_0 = 2 and V_-D = V_D = V_(D/2)^2 - 2.
    vd = (bv[h] * bv[h] - 2) % n
    m, prev, cur, acc = 0, vd, 2, 1
    for m_next, js in stage2:
        while m < m_next:
            prev, cur = cur, (cur * vd - prev) % n
            m += 1
        for j in js:
            acc = acc * (cur - bv[j]) % n
        g = math.gcd(acc, n)
        if g != 1:
            return g
    return 1


def _factor_into(n: int, acc: dict[int, int], pm1: bool = True) -> None:
    proven = _proven(n)
    if proven:
        acc[n] = acc.get(n, 0) + 1
        return
    # n has no prime factor below 2^10, and is composite or unproven: a
    # square root, else the first nontrivial divisor from p - 1 and ECM,
    # or a refusal.  When p - 1 returns n, every prime of n divides the
    # first gcd other than 1, at the same stage and row, so p - 1 returns
    # each part of n whole too and is not run on the parts.
    d = math.isqrt(n)
    if d * d != n:
        d = _pm1(n) if pm1 else n
        pm1 = d != n
        if not 1 < d < n:
            d = _ecm(n)
            if d is None:
                kind = "an unproven" if proven is None else "a composite"
                raise FactorizationLimitError(
                    f"no factoring stage splits {kind} {n.bit_length()}-bit cofactor "
                    f"within ECM's {_ECM_CURVES} curves"
                )
    _factor_into(d, acc, pm1)
    _factor_into(n // d, acc, pm1)


def factorint(n: int, limit: int | None = DEFAULT_LIMIT) -> tuple[tuple[int, int], ...]:
    """Factor n >= 1 into sorted (prime, exponent) pairs.

    The stages run in order: trial division, the square check, p - 1 and
    ECM, and each is bounded.  limit caps the accepted input size; pass
    None to allow arbitrary precision.  None (the CLI's --allow-big)
    lifts only that size bound: a composite or unproven cofactor that
    ECM's last curve leaves whole raises FactorizationLimitError, whose
    message says which it is and gives its bit length.
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


def _sieve(bound: int) -> bytearray:
    """1 at each prime below bound >= 2, 0 elsewhere (Eratosthenes)."""
    sieve = bytearray([1]) * bound
    sieve[:2] = b"\0\0"
    for i in range(2, math.isqrt(bound - 1) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, bound, i)))
    return sieve


def primes_below(bound: int) -> list[int]:
    """All primes < bound by a plain sieve."""
    return list(compress(range(bound), _sieve(bound))) if bound > 2 else []


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


# Trial divisors for factorint; p - 1 and ECM split what is left, within
# ECM's schedule, or factorint refuses it.
_TRIAL_PRIMES = tuple(primes_below(1 << 10))
