import math
from itertools import compress
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectop import primes
from spectop.errors import FactorizationLimitError
from spectop.primes import (
    PSI_13,
    factorint,
    is_prime,
    is_proven_prime,
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
    sieve = set(primes_below(10**5))
    for n in range(10**5):
        assert is_prime(n) == (n in sieve)


def _strong_probable_prime(n, a):
    """The Miller-Rabin round of base a on odd n > a."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def test_miller_rabin_base_table():
    # psi_t is composite and a strong probable prime to the first t bases, so
    # at psi_t the (t+1)-th base is needed; is_prime runs it there.
    bases = primes_below(200)
    assert primes._MR_BASES == tuple(bases[:13])
    assert len(primes._MR_PSI) == 12
    assert list(primes._MR_PSI) == sorted(primes._MR_PSI)
    for t, psi in enumerate(primes._MR_PSI, start=1):
        assert all(_strong_probable_prime(psi, a) for a in bases[:t])
        assert not all(_strong_probable_prime(psi, a) for a in bases)
        assert not is_prime(psi)


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


CARMICHAEL = [
    (561, ((3, 1), (11, 1), (17, 1))),
    (41041, ((7, 1), (11, 1), (13, 1), (41, 1))),
    (825265, ((5, 1), (7, 1), (17, 1), (19, 1), (73, 1))),
    # A strong pseudoprime to the bases 2, 3, 5 and 7.
    (3215031751, ((151, 1), (751, 1), (28351, 1))),
]


@pytest.mark.parametrize("n, fac", CARMICHAEL)
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


def _product(fac):
    n = 1
    for p, e in fac:
        n *= p**e
    return n


def _random_prime(rng, lo, hi):
    """A prime in [lo, hi), drawn from the seeded rng."""
    while True:
        p = next_prime(rng.randrange(lo - 1, hi - 1))
        if p < hi:
            return p


def test_ecm_tables_cover_every_prime_up_to_b2():
    d = primes._ECM_D
    for b1 in primes._ECM_B1S:
        bits, stage2 = primes._ecm_tables(b1)
        k = int("1" + bits, 2)
        powers = 1
        for p in primes_below(b1 + 1):
            e = 1
            while p ** (e + 1) <= b1:
                e += 1
            assert k % p**e == 0 and k % p ** (e + 1) != 0
            powers *= p**e
        # k is exactly these prime powers; factorint takes k apart only
        # while trial division does.
        assert k == powers
        if b1 < 2**10:
            assert _product(factorint(k, limit=None)) == k
        b2 = primes._ECM_B2_PER_B1 * b1
        stage2_primes = {p for p in primes_below(b2 + 1) if p > b1}
        covered = set()
        for m, js in stage2:
            for j in js:
                assert j % 2 == 1 and j <= d // 2
                # Each pair pays one product term for a prime of stage 2.
                assert {m * d - j, m * d + j} & stage2_primes
                covered |= {m * d - j, m * d + j}
        assert stage2_primes <= covered


def ref_ecm_tables(b1):
    """The one construction _ecm_tables uses, written out again with its
    sieve run a full D past B2 rather than D/2: the oracle of _ecm_tables
    at all 60 levels, with the memo filled in both orders, and at the
    seven off-schedule bounds."""
    b2, h = primes._ECM_B2_PER_B1 * b1, primes._ECM_D // 2
    prime = primes._sieve(b2 + primes._ECM_D + 1)
    k = 1
    for p in compress(range(b1 + 1), prime):
        q = p
        while q * p <= b1:
            q *= p
        k *= q
    prime[: b1 + 1] = bytes(b1 + 1)
    prime[b2 + 1 :] = bytes(len(prime) - b2 - 1)
    pairs = []
    for m in range((b2 + h) // primes._ECM_D + 1):
        # Byte j - 1 is 1 when mD - j or mD + j is a prime in (b1, b2].
        c = m * primes._ECM_D
        below = int.from_bytes(prime[max(c - h, 0) : c], "big")
        above = int.from_bytes(prime[c + 1 : c + h + 1], "little")
        js = bytes(compress(range(1, h + 1), (below | above).to_bytes(h, "little")))
        if js:
            pairs.append((m, js))
    return bin(k)[3:], tuple(pairs)


@pytest.mark.parametrize("order", ["ascending", "top-level-first"])
def test_ecm_tables_match_the_oracle_at_every_level(order):
    primes._ecm_tables.cache_clear()
    if order == "top-level-first":
        # The top level first, on an empty memo: each level is built on
        # its own, whatever the order.
        primes._ecm_tables(primes._ECM_B1S[-1])
    for b1 in primes._ECM_B1S:
        assert primes._ecm_tables(b1) == ref_ecm_tables(b1), b1
    assert primes._ecm_tables.cache_info().currsize == primes._ECM_CURVES


@pytest.mark.parametrize("b1", [1, 2, 69, 71, 100, 1000, 30000])
def test_ecm_tables_off_the_schedule_match_the_oracle(b1):
    assert primes._ecm_tables(b1) == ref_ecm_tables(b1)


def test_ecm_tables_memo_holds_one_entry_per_curve():
    assert primes._ecm_tables.cache_info().maxsize == primes._ECM_CURVES


def suyama_group_order(p, sigma):
    """The order of the group of F_p-points that holds Suyama's start point.

    Counts the points of y^2 = x^3 + A x^2 + x; the start point lies on it
    or on its quadratic twist, which has p + 1 - t points where it has
    p + 1 + t.
    """
    u, v = sigma * sigma - 5, 4 * sigma
    a = ((v - u) ** 3 * (3 * u + v) * pow(4 * u**3 * v, -1, p) - 2) % p
    square = bytearray(p)
    for y in range(1, p):
        square[y * y % p] = 1
    t = 0
    for x in range(p):
        f = (x**3 + a * x * x + x) % p
        if f:
            t += 1 if square[f] else -1
    x0 = u**3 * pow(v**3, -1, p) % p
    return p + 1 + (t if square[(x0**3 + a * x0 * x0 + x0) % p] else -t)


# Curves mod 71011 whose group order is a divisor of a level's stage 1
# multiplier times one prime q in (B1, B2] of that level.  The start point's
# order is a multiple of q (stage 1 alone does not find 71011 on these
# curves), so stage 1 leaves a point of order q, and the baby-step/giant-step
# pass at m = round(q / D) must find it at every such level.  At m = 0,
# q < D/2 is a baby step itself.
@pytest.mark.parametrize(
    "sigma, q, m", [(6, 173, 1), (25, 2969, 14), (14, 5953, 28), (16, 79, 0)]
)
def test_ecm_stage_2_finds_the_last_prime_of_the_order(sigma, q, m):
    p = 71011
    order = suyama_group_order(p, sigma)
    assert order % 12 == 0 and is_prime(q) and order % q == 0
    assert (q + primes._ECM_D // 2) // primes._ECM_D == m
    levels = []
    for b1 in primes._ECM_B1S:
        k = int("1" + primes._ecm_tables(b1)[0], 2)
        if b1 < q <= primes._ECM_B2_PER_B1 * b1 and k % (order // q) == 0:
            assert k % q != 0
            assert primes._ecm_curve(p * (2**61 - 1), sigma, b1) == p
            levels.append(b1)
    assert levels


def test_ecm_splits_balanced_64bit_semiprimes(monkeypatch):
    ecm, splits = primes._ecm, []

    def counted_ecm(n):
        splits.append(n)
        return ecm(n)

    pm1, pm1_splits = primes._pm1, []

    def counted_pm1(n):
        g = pm1(n)
        if 1 < g < n:
            pm1_splits.append(n)
        return g

    monkeypatch.setattr(primes, "_pm1", counted_pm1)
    monkeypatch.setattr(primes, "_ecm", counted_ecm)
    rng = Random(19)
    for _ in range(12):
        p, q = sorted(_random_prime(rng, 2**31 + 1, 2**32) for _ in range(2))
        assert factorint(p * q) == ((p, 1), (q, 1))
    # Past trial division and the square check, p - 1 splits two of them
    # and ECM each of the other ten.
    assert len(pm1_splits) == 2 and len(splits) == 10
    assert not set(pm1_splits) & set(splits)


def ref_ecm_curve(n: int, sigma: int, b1: int) -> int:
    """The closure-based _ecm_curve that the inlined one replaced, kept as
    its oracle: every curve must return the same gcd."""

    def add(xp, zp, xq, zq, xd, zd):
        # x(P + Q) from x(P), x(Q) and x(P - Q).
        u = (xp - zp) * (xq + zq)
        v = (xp + zp) * (xq - zq)
        return zd * (u + v) ** 2 % n, xd * (u - v) ** 2 % n

    def dbl(x, z):
        s, d = (x + z) ** 2 % n, (x - z) ** 2 % n
        t = s - d
        return s * d % n, t * (d + a24 * t) % n

    bits, stage2 = primes._ecm_tables(b1)
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
    for j in range(5, primes._ECM_D // 2 + 1, 2):
        baby[j] = add(*baby[j - 2], x2, z2, *baby[j - 4])
    gx, gz = dbl(*baby[primes._ECM_D // 2])
    # mDQ, and (m+1)DQ from m = 1 on.  0DQ is the point at infinity (1:0),
    # so a prime j below D/2 gives the factor Z(jQ).
    m, mx, mz, acc = 0, 1, 0, 1
    for m_next, js in stage2:
        if m == 0 < m_next:
            m, mx, mz, nx, nz = 1, gx, gz, *dbl(gx, gz)
        while m < m_next:
            mx, mz, nx, nz = nx, nz, *add(nx, nz, gx, gz, mx, mz)
            m += 1
        for j in js:
            xj, zj = baby[j]
            acc = acc * (mx * zj - xj * mz) % n
    return math.gcd(acc, n)


def test_ecm_curve_matches_the_closure_oracle_on_a_grid():
    rng = Random(29)
    moduli = [
        _random_prime(rng, 2**10, 2**lo_bits) * _random_prime(rng, 2**10, 2**32)
        for lo_bits in (12, 18, 24, 32)
    ]
    moduli += [_random_prime(rng, 2**10, 2**bits) ** 2 for bits in (16, 32)]
    hits = 0
    for n in moduli:
        for sigma in range(6, 14):
            for b1 in primes._ECM_B1S[:24]:
                g = ref_ecm_curve(n, sigma, b1)
                assert primes._ecm_curve(n, sigma, b1) == g, (n, sigma, b1)
                hits += g != 1
    # The grid reaches past the curves that all return 1.
    assert hits


def _stage_1_multiplier(b1):
    return int("1" + primes._ecm_tables(b1)[0], 2)


@pytest.mark.parametrize("n, sigma, b1, g, stage", [
    # sigma = 6 has u = 31, so the start data already share 31 with n.
    (31 * 2147483659, 6, 70, 31, 0),
    # The group of the curve mod 70001 has order 2^6 * 3 * 367, all below B1.
    (70001 * (2**61 - 1), 9, 389, 70001, 1),
    # Mod 71011 the order is 173 times a divisor of the stage 1 multiplier.
    (71011 * (2**61 - 1), 6, 70, 71011, 2),
])
def test_ecm_curve_matches_the_oracle_at_each_stage(n, sigma, b1, g, stage):
    p = g
    u, v = sigma * sigma - 5, 4 * sigma
    assert (math.gcd(16 * u**3 * v**3, n) == p) == (stage == 0)
    if stage:
        order = suyama_group_order(p, sigma)
        k = _stage_1_multiplier(b1)
        assert (k % order == 0) == (stage == 1)
        if stage == 2:
            q = max(primes.prime_factors(order))
            assert k % (order // q) == 0 and b1 < q <= primes._ECM_B2_PER_B1 * b1
    assert ref_ecm_curve(n, sigma, b1) == g
    assert primes._ecm_curve(n, sigma, b1) == g


def test_ecm_runs_as_many_curves_as_the_oracle(monkeypatch):
    curve, calls = primes._ecm_curve, []

    def counted_curve(n, sigma, b1):
        calls.append(sigma)
        return curve(n, sigma, b1)

    monkeypatch.setattr(primes, "_ecm_curve", counted_curve)
    rng = Random(40)
    for _ in range(40):
        n = _random_prime(rng, 2**31 + 1, 2**32) * _random_prime(rng, 2**31 + 1, 2**32)
        calls.clear()
        g = primes._ecm(n)
        want = 0
        for want, (sigma, b1) in enumerate(zip(range(6, 6 + primes._ECM_CURVES), primes._ECM_B1S), 1):
            if 1 < ref_ecm_curve(n, sigma, b1) < n:
                break
        assert g is not None and n % g == 0
        assert len(calls) == want, n


PM1_K = math.lcm(*range(1, primes._PM1_B1 + 1))
PM1_B2 = primes._ECM_B2_PER_B1 * primes._PM1_B1


def ref_pm1(n: int) -> int:
    """Pollard's p - 1 at _PM1_B1 from its definition: stage 1 on
    lcm(1, ..., B1), then stage 2 as gcd(n, prod (x^q - 1)) over the primes
    q in (B1, B2], one pow per prime."""
    x = pow(2, PM1_K, n)
    g = math.gcd(x - 1, n)
    if g != 1:
        return g
    acc = 1
    for q in primes_below(PM1_B2 + 1):
        if q > primes._PM1_B1:
            acc = acc * (pow(x, q, n) - 1) % n
    return math.gcd(acc, n)


def _order_of_2(p):
    order = p - 1
    for q, _ in factorint(order):
        while order % q == 0 and pow(2, order // q, p) == 1:
            order //= q
    return order


# Safe primes r = 2s + 1 with s a prime above B2 + D/2: the order of 2 is
# s or 2s, which no stage 1 multiplier and no stage 2 pair mD +- j reaches.
# (A Mersenne cofactor will not do: 2^k = 1 mod 2^61 - 1.)
PM1_SAFE = (2147483783, 2147485247)
# p - 1 = 2^3 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23 divides lcm(1, ..., B1).
PM1_STAGE_1 = 892371481
# (q, m, p): the order of 2 mod p is t q with t | lcm(1, ..., B1) and q in
# (B1, B2], in the first, a middle and the last stage 2 row m.
PM1_STAGE_2 = ((761, 4, 2147496341), (10007, 48, 2147882467), (22739, 108, 2147880463))


@pytest.mark.parametrize("r", [PM1_SAFE[0], PM1_STAGE_2[0][2]])
def test_pm1_stage_1_hit(r, monkeypatch):
    # Stage 1 answers alone: with every stage 2 row taken away it still
    # finds p.  With r = PM1_STAGE_2[0][2], the first row would also catch
    # r, and the gcd would be n.
    p = PM1_STAGE_1
    assert is_prime(p) and PM1_K % _order_of_2(p) == 0
    assert primes._pm1(p * r) == p
    tables = primes._ecm_tables
    monkeypatch.setattr(primes, "_ecm_tables", lambda b1: (tables(b1)[0], ()))
    assert primes._pm1(p * r) == p


@pytest.mark.parametrize("q, m, p", PM1_STAGE_2)
def test_pm1_stage_2_hit(q, m, p):
    order = _order_of_2(p)
    assert is_prime(p) and is_prime(q) and primes._PM1_B1 < q <= PM1_B2
    assert order % q == 0 and PM1_K % (order // q) == 0
    assert (q + primes._ECM_D // 2) // primes._ECM_D == m
    assert primes._pm1(p * PM1_SAFE[0]) == p


def test_pm1_miss():
    for r in PM1_SAFE:
        s = (r - 1) // 2
        assert is_prime(r) and is_prime(s) and s > PM1_B2 + primes._ECM_D // 2
        assert _order_of_2(r) in (s, 2 * s)
    n = PM1_SAFE[0] * PM1_SAFE[1]
    assert primes._pm1(n) == 1
    assert ref_pm1(n) == 1


def test_pm1_against_the_oracle_on_the_catalog_bands():
    # Products of two or three primes from the catalog's bands: [10^5, 2^26)
    # for spec-zmod-mid and [2^31, 2^32) for spec-zmod-64.  _pm1 may find a
    # factor the oracle misses: a pair mD +- j can be an odd composite a b
    # with both a and b in (B1, B2], which catches an order t a b that no
    # single prime q reaches.
    rng = Random(42)
    bands = ((100_003, 2**26), (2**31, 2**32))
    hits = misses = 0
    for _ in range(24):
        for count in (2, 3):
            ps = [_random_prime(rng, *rng.choice(bands)) for _ in range(count)]
            n = _product((p, 1) for p in ps)
            if n >= 2**64:
                continue
            g, want = primes._pm1(n), ref_pm1(n)
            assert n % g == 0, n
            assert g != 1 or want == 1, n
            hits += want != 1
            misses += want == 1
    # The grid has factors that p - 1 finds and factors it leaves to ECM.
    assert hits and misses


def test_factorint_splits_2_127_minus_2():
    # n - 1 of the Mersenne prime 2^127 - 1, with factors for every stage.
    assert factorint(2**127 - 2, limit=None) == (
        (2, 1), (3, 3), (7, 2), (19, 1), (43, 1), (73, 1), (127, 1), (337, 1),
        (5419, 1), (92737, 1), (649657, 1), (77158673929, 1),
    )


@pytest.mark.parametrize("e", [89, 107, 127])
def test_pm1_skips_the_parts_of_a_number_it_returned_whole(e, monkeypatch):
    # The order of 2 mod every prime of 2^(e-1) - 1 divides e - 1 < B1, so
    # stage 1 returns the cofactor whole, and then so would every part.
    pm1, returned = primes._pm1, {}

    def recorded(n):
        assert n not in returned, n
        returned[n] = pm1(n)
        return returned[n]

    monkeypatch.setattr(primes, "_pm1", recorded)
    n = 2**e - 2
    fac = factorint(n, limit=None)
    assert _product(fac) == n and all(is_prime(p) for p, _ in fac)
    whole = [m for m, g in returned.items() if g == m]
    assert whole
    assert [(m, d) for m in whole for d in returned if d != m and m % d == 0] == []


# Primes in (2^17, 2^21): ECM's gcd on p^3 or p^2 q can be a power of p or n.
P17, P19, P21 = 131101, 536651, 2092163

FIXED_CASES = (
    CARMICHAEL
    + [(n * n, tuple((p, 2 * e) for p, e in fac)) for n, fac in CARMICHAEL]
    + [(p**e, ((p, e),)) for p in (P32, Q32, 2147483659) for e in (2, 3)]
    + [(3 * p**3, ((3, 1), (p, 3))) for p in (P32, Q32, 2147483659)]
    + [
        (P32 * Q32, ((Q32, 1), (P32, 1))),
        (1031 * (2**53 + 5), ((1031, 1), (2**53 + 5, 1))),
        (2**5 * 1021**2 * 1031**3, ((2, 5), (1021, 2), (1031, 3))),
        (P17**3, ((P17, 3),)),
        (P21**3, ((P21, 3),)),
        (P17**2 * P19, ((P17, 2), (P19, 1))),
        (P21**2 * P17, ((P17, 1), (P21, 2))),
        (P19**2 * P32, ((P19, 2), (P32, 1))),
    ]
)


@pytest.mark.parametrize(
    "stage", ["without-pm1-and-ecm", "without-pm1", "without-ecm", "as-built"]
)
def test_each_fallback_stays_exact(stage, monkeypatch):
    # Each case is factored exactly or refused, never factored wrongly.
    # Only a stage without ECM refuses any, and the square check still
    # splits the prime squares there.
    if stage.startswith("without-pm1"):
        monkeypatch.setattr(primes, "_pm1", lambda n: 1)
    if stage.endswith("ecm"):
        monkeypatch.setattr(primes, "_ecm", lambda n: None)
    refused = set()
    for n, fac in FIXED_CASES:
        assert _product(fac) == n
        try:
            got = factorint(n, limit=None)
        except FactorizationLimitError:
            refused.add(n)
        else:
            assert got == fac
    assert bool(refused) == stage.endswith("ecm")
    assert not refused & {p * p for p in (P32, Q32, 2147483659)}


def test_mid_size_moduli_of_the_query_mix_shape():
    rng = Random(26)
    seen = 0
    while seen < 100:
        ps = [_random_prime(rng, 10**5, 2**26) for _ in range(rng.randint(2, 3))]
        small = rng.choice((1, 2, 6, 9, 35))
        acc = dict(naive_factor(small))
        for p in ps:
            acc[p] = acc.get(p, 0) + 1
        n = _product(acc.items())
        if n >= 2**64:
            continue
        assert factorint(n) == tuple(sorted(acc.items()))
        seen += 1


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


def test_proven_prime_agrees_with_is_prime_below_psi_13(rng):
    # Below psi_13 the proof is the Miller-Rabin run of is_prime, composite
    # or prime, including the strong pseudoprimes psi_1..psi_12.
    for bits in (8, 16, 32, 48, 64, 81):
        for _ in range(40):
            n = rng.getrandbits(bits)
            for m in (n, next_prime(n)):
                assert m < PSI_13 and is_proven_prime(m) == is_prime(m), m
    for psi in primes._MR_PSI:
        assert not is_proven_prime(psi)


# The prime exponents e below 128 for which 2^e - 1 is prime (OEIS A000043).
MERSENNE_EXPONENTS = (2, 3, 5, 7, 13, 17, 19, 31, 61, 89, 107, 127)


def test_lucas_lehmer_finds_the_mersenne_primes_below_2_128():
    for e in primes_below(128):
        assert primes._lucas_lehmer(e) == (e in MERSENNE_EXPONENTS), e
        assert is_proven_prime(2**e - 1) == (e in MERSENNE_EXPONENTS), e


def test_a_probable_prime_from_psi_13_on_is_unproven():
    # The least prime above psi_13 is no Mersenne number: is_prime passes
    # it, is_proven_prime refuses it, and factorint refuses to record it.
    p = next_prime(PSI_13)
    assert is_prime(p) and p & (p + 1)
    with pytest.raises(FactorizationLimitError, match="not proven prime"):
        is_proven_prime(p)
    with pytest.raises(FactorizationLimitError, match=f"unproven {p.bit_length()}-bit cofactor"):
        factorint(p, limit=None)
    # A composite with a Miller-Rabin witness is proven composite.
    assert not is_proven_prime(PSI_13 + 2)


def test_next_prime():
    assert next_prime(1) == 2
    assert next_prime(2) == 3
    assert next_prime(13) == 17


@pytest.fixture
def rng():
    return Random(11)
