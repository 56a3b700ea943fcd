from itertools import islice, product, zip_longest
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectop import gfpoly as gf
from spectop import rings
from spectop.errors import BadArityError, FactorizationLimitError


def rand_poly(rng, p, max_deg):
    return gf.trim([rng.randrange(p) for _ in range(rng.randint(0, max_deg + 1))], p)


def ref_add(f, g, p):
    """The coefficientwise sum, which mul and divmod_ are checked against."""
    return gf.trim([a + b for a, b in zip_longest(f, g, fillvalue=0)], p)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_ring_identities(p):
    rng = Random(p)
    for _ in range(300):
        a = rand_poly(rng, p, 6)
        b = rand_poly(rng, p, 6)
        c = rand_poly(rng, p, 6)
        assert gf.mul(a, b, p) == gf.mul(b, a, p)
        lhs = gf.mul(ref_add(a, b, p), c, p)
        rhs = ref_add(gf.mul(a, c, p), gf.mul(b, c, p), p)
        assert lhs == rhs


@pytest.mark.parametrize("p", [2, 3, 5])
def test_divmod_invariant(p):
    rng = Random(100 + p)
    for _ in range(300):
        a = rand_poly(rng, p, 8)
        b = rand_poly(rng, p, 5)
        if not b:
            continue
        q, r = gf.divmod_(a, b, p)
        assert ref_add(gf.mul(q, b, p), r, p) == a
        assert gf.deg(r) < gf.deg(b)


@pytest.mark.parametrize("g, p", [((1, 1, 0), 2), ((1, 4), 2), ((2, 3), 3), ((5,), 5)])
def test_divmod_refuses_zero_leading_coefficient(g, p):
    for div in (gf.divmod_, gf.mod):
        with pytest.raises(ValueError, match="zero leading coefficient"):
            div((1, 0, 1, 1), g, p)


@pytest.mark.parametrize("op", [gf.monic, gf.divmod_, gf.mod, gf.gcd])
def test_a_lead_with_no_inverse_refuses_the_composite_characteristic(op):
    # 6 has no inverse mod 9, which proves 9 composite.
    args = ((1, 6),) if op is gf.monic else ((1, 0, 1), (1, 6))
    with pytest.raises(BadArityError, match="^9 is not prime: 3 divides it$"):
        op(*args, 9)


def ref_mul(f, g, p):
    """Schoolbook product with a % p on every term."""
    out = [0] * max(len(f) + len(g) - 1, 0)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = (out[i + j] + a * b) % p
    return gf.trim(out, p)


@st.composite
def unreduced_pairs(draw):
    """(f, g, p) with coefficients in (-3p, 3p): unreduced, negative, and
    g non-monic, sometimes with a leading coefficient of 0 mod p."""
    p = draw(st.sampled_from((2, 3, 13, 2**31 - 1, 2**61 - 1)))
    coeff = st.integers(-3 * p + 1, 3 * p - 1)
    f = tuple(draw(st.lists(coeff, max_size=2 * gf.DEGREE_CAP + 2)))
    g = tuple(draw(st.lists(coeff, max_size=gf.DEGREE_CAP + 1)))
    return f, g, p


@settings(deadline=None, derandomize=True, database=None, max_examples=400)
@given(unreduced_pairs())
def test_mod_and_mul_match_the_quotient_and_the_per_term_reference(case):
    f, g, p = case
    assert gf.mul(f, g, p) == ref_mul(f, g, p)
    if not g:
        for div in (gf.mod, gf.divmod_):
            with pytest.raises(ZeroDivisionError, match="polynomial division by zero"):
                div(f, g, p)
    elif g[-1] % p == 0:
        for div in (gf.mod, gf.divmod_):
            with pytest.raises(ValueError, match="zero leading coefficient"):
                div(f, g, p)
    else:
        r = gf.mod(f, g, p)
        assert r == gf.divmod_(f, g, p)[1]
        assert all(0 <= c < p for c in r) and gf.deg(r) < gf.deg(gf.trim(g, p))


def ref_pow_mod(base, e, m, p):
    """base^e mod m, right to left over the bits of e on the tuple
    functions: the oracle of the left-to-right residue power _power."""
    result = (1,)
    base = gf.mod(base, m, p)
    while e > 0:
        if e & 1:
            result = gf.mod(gf.mul(result, base, p), m, p)
        base = gf.mod(gf.mul(base, base, p), m, p)
        e >>= 1
    return result


@st.composite
def powers(draw):
    """(base, e, m, p): base with unreduced and negative coefficients, m
    with a leading coefficient that is nonzero mod p, and e one of 1, 2, p,
    (p^d - 1)/2 for d = deg(m) (the equal-degree split's exponent) when
    that is positive, or any positive e below 2^80."""
    p = draw(st.sampled_from((2, 3, 13, 2**31 - 1, 2**61 - 1)))
    coeff = st.integers(-3 * p + 1, 3 * p - 1)
    base = tuple(draw(st.lists(coeff, max_size=2 * gf.DEGREE_CAP + 2)))
    m = tuple(draw(st.lists(coeff, max_size=8))) + (draw(st.integers(1, p - 1)),)
    d = len(m) - 1
    split = max((p**d - 1) // 2, 1)
    e = draw(st.one_of(st.sampled_from((1, 2, p, split)), st.integers(1, 2**80 - 1)))
    return base, e, m, p


@settings(deadline=None, derandomize=True, database=None, max_examples=300)
@given(powers())
def test_pow_mod_matches_the_right_to_left_oracle(case):
    # _power on the residue of base mod m, as Ben-Or and the equal-degree
    # split call it.
    base, e, m, p = case
    tail = gf._tail(m, p)
    got = gf._power(gf._reduce(list(base), tail, p), e, tail, p)
    assert tuple(gf._strip(got)) == ref_pow_mod(base, e, m, p)


def test_gcd_divides_both():
    p = 3
    rng = Random(7)
    for _ in range(200):
        a = rand_poly(rng, p, 6)
        b = rand_poly(rng, p, 6)
        g = gf.gcd(a, b, p)
        if g:
            if a:
                assert gf.divides(g, a, p)
            if b:
                assert gf.divides(g, b, p)


# Number of monic irreducibles of degree d over GF(q), by the necklace
# count (1/d) * sum mu(e) q^(d/e).
IRR_COUNTS = {
    (2, 1): 2,
    (2, 2): 1,
    (2, 3): 2,
    (2, 4): 3,
    (2, 5): 6,
    (3, 1): 3,
    (3, 2): 3,
    (3, 3): 8,
    (5, 1): 5,
    (5, 2): 10,
}


@pytest.mark.parametrize("p,d", sorted(IRR_COUNTS))
def test_irreducible_counts(p, d):
    count = 0
    for tail_bits in range(p**d):
        coeffs = []
        x = tail_bits
        for _ in range(d):
            coeffs.append(x % p)
            x //= p
        f = tuple(coeffs) + (1,)
        if gf.is_irreducible(f, p):
            count += 1
    assert count == IRR_COUNTS[(p, d)]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_factor_reassembles_and_is_irreducible(p):
    rng = Random(31 + p)
    for _ in range(120):
        f = rand_poly(rng, p, 9)
        if gf.deg(f) < 1:
            continue
        factors = gf.factor(f, p)
        prod = (1,)
        for g, mult in factors:
            assert gf.is_irreducible(g, p)
            assert g[-1] == 1
            for _ in range(mult):
                prod = gf.mul(prod, g, p)
        assert prod == gf.monic(f, p)


def test_factor_known_example():
    # x^4 + x = x (x + 1) (x^2 + x + 1) over GF(2)
    f = (0, 1, 0, 0, 1)
    assert gf.factor(f, 2) == [
        ((0, 1), 1),
        ((1, 1), 1),
        ((1, 1, 1), 1),
    ]


def test_irreducibles_stream_is_sorted_and_irreducible():
    gen = gf.irreducibles(2)
    seen = [next(gen) for _ in range(10)]
    assert seen[0] == (0, 1)
    degrees = [gf.deg(f) for f in seen]
    assert degrees == sorted(degrees)
    for f in seen:
        assert gf.is_irreducible(f, 2)


def ref_irreducibles(p):
    """The stream as first written: every monic polynomial in (degree,
    coefficient) order that passes Ben-Or's test."""
    d = 1
    while True:
        for tail in product(range(p), repeat=d):
            f = tail + (1,)
            if gf._ben_or(f, p):
                yield f
        d += 1


@pytest.mark.parametrize("p", rings._PRIME_POOL)
def test_irreducibles_sieve_matches_the_ben_or_stream(p):
    assert list(islice(gf.irreducibles(p), 40)) == list(islice(ref_irreducibles(p), 40))


def test_irreducibles_stream_leaves_the_memo_alone(monkeypatch):
    # The stream sieves and tests nothing: it keeps working when
    # is_irreducible is replaced by a wrapper that fails, as a profiler
    # replaces it by a plain one.
    monkeypatch.setattr(gf, "is_irreducible", lambda *a, **k: pytest.fail("test called"))
    gen = gf.irreducibles(3)
    assert [next(gen) for _ in range(12)][:3] == [(0, 1), (1, 1), (2, 1)]


def _monic_polys(p, max_deg):
    for d in range(max_deg + 1):
        for tail in product(range(p), repeat=d):
            yield tail + (1,)


@pytest.mark.parametrize("p,max_deg", [(2, 6), (3, 6), (5, 4)])
def test_memoized_rabin_test_matches_the_uncached_one(p, max_deg):
    # The capped entry, Ben-Or's test and Rabin's agree on every small f.
    for f in _monic_polys(p, max_deg):
        want = gf._ben_or(f, p)
        assert gf.is_irreducible(f, p) == want, f
        assert ref_rabin(f, p) == want, f


def ref_rabin(f, p):
    """Rabin's test (SIAM J. Comput. 9, 1980), the reference for Ben-Or's:
    f of degree d divides x^(p^d) - x, and gcd(x^(p^(d/t)) - x, f) = 1 for
    every prime t dividing d."""
    d = gf.deg(f)
    if d < 1:
        return False
    x = gf.mod(gf.X, f, p)
    if ref_pow_mod(gf.X, p**d, f, p) != x:
        return False
    for t in (t for t in range(2, d + 1) if d % t == 0 and all(t % s for s in range(2, t))):
        w = ref_pow_mod(gf.X, p ** (d // t), f, p)
        h = gf.trim([a - b for a, b in zip_longest(w, x, fillvalue=0)], p)
        if gf.deg(gf.gcd(h, f, p)) != 0:
            return False
    return True


@st.composite
def monic_polys(draw):
    """A monic f of degree 1..16 over a small field: uniform, or a product of
    two uniform monic factors, so that reducible f without small factors
    come up too."""
    p = draw(st.sampled_from((2, 3, 5, 7, 11, 13, 101)))

    def monic(d):
        return tuple(draw(st.lists(st.integers(0, p - 1), min_size=d, max_size=d))) + (1,)

    d = draw(st.integers(1, gf.DEGREE_CAP))
    if d == 1 or draw(st.booleans()):
        return monic(d), p
    a = draw(st.integers(1, d - 1))
    return gf.mul(monic(a), monic(d - a), p), p


@settings(deadline=None, derandomize=True, database=None, max_examples=300)
@given(monic_polys())
def test_ben_or_matches_rabin(case):
    f, p = case
    assert gf._ben_or(f, p) == ref_rabin(f, p)


def _gauss_count(p, d):
    """Monic irreducibles of degree d over GF(p): (1/d) sum_{k | d} mu(k) p^(d/k)."""

    def mu(k):
        sign, m = 1, k
        for q in range(2, k + 1):
            if m % q == 0:
                m //= q
                if m % q == 0:
                    return 0
                sign = -sign
        return sign

    return sum(mu(k) * p ** (d // k) for k in range(1, d + 1) if d % k == 0) // d


@pytest.mark.parametrize("p, max_deg", [(2, 8), (3, 5), (5, 3)])
def test_irreducibles_stream_meets_gauss_count(p, max_deg):
    counts = [0] * (max_deg + 1)
    for f in gf.irreducibles(p):
        if gf.deg(f) > max_deg:
            break
        counts[gf.deg(f)] += 1
    assert counts[1:] == [_gauss_count(p, d) for d in range(1, max_deg + 1)]


def test_degree_cap_refuses_on_every_call():
    f = (1,) + (0,) * 16 + (1,)  # degree 17, above DEGREE_CAP
    for _ in range(2):
        for test in (gf.is_irreducible, gf.factor):
            with pytest.raises(FactorizationLimitError, match="degree 17 exceeds cap 16"):
                test(f, 2)


def _residue(f, k):
    """A polynomial as a residue mod a modulus of degree k: k coefficients."""
    return list(f) + [0] * (k - len(f))


@st.composite
def frobenius_cases(draw):
    """(f, w, p): f of degree 1..16 with a leading coefficient that is
    nonzero mod p but need not be 1, and w a residue mod f; both with
    unreduced and negative coefficients."""
    p = draw(st.sampled_from((2, 3, 13, 2**31 - 1, 2**61 - 1)))
    coeff = st.integers(-3 * p + 1, 3 * p - 1)
    k = draw(st.integers(1, gf.DEGREE_CAP))
    lead = draw(coeff.filter(lambda c: c % p))
    f = tuple(draw(st.lists(coeff, min_size=k, max_size=k))) + (lead,)
    w = draw(st.lists(coeff, min_size=k, max_size=k))
    return f, w, p


@settings(deadline=None, derandomize=True, database=None, max_examples=40)
@given(frobenius_cases())
def test_frobenius_matrix_rows_and_product_match_the_power_oracle(case):
    # Row j of Q is x^(p j) mod f, and Q w is w^p mod f.
    f, w, p = case
    k = gf.deg(f)
    tail = gf._tail(f, p)
    xp = _residue(ref_pow_mod(gf.X, p, f, p), k)
    q = gf._frobenius_matrix(xp, tail, p)
    for j, row in enumerate(zip(*q)):
        assert list(row) == _residue(ref_pow_mod(gf.X, p * j, f, p), k), j
    assert gf._frobenius_apply(q, w, p) == _residue(ref_pow_mod(tuple(w), p, f, p), k)


# Each is 3 mod 4; 7 and 37 are their least primitive roots.
BIG_PRIMES = (2**31 - 1, 2**61 - 1)
PRIMITIVE_ROOT = {2**31 - 1: 7, 2**61 - 1: 37}


def _prime_factors(t):
    return [q for q in range(2, t + 1) if t % q == 0 and all(q % s for s in range(2, q))]


@st.composite
def big_prime_cases(draw):
    """(f, p, irreducible) at p = 2^31 - 1 or 2^61 - 1, degree 2..16: a
    product of two uniform monic factors, or x^t - a with a = g^m for the primitive root
    g and m prime to t, which is irreducible (Lidl and Niederreiter,
    Theorem 3.75) when every prime factor of t divides p - 1 and 4 does
    not divide t, as p = 3 mod 4."""
    p = draw(st.sampled_from(BIG_PRIMES))
    if draw(st.booleans()):
        ts = [t for t in range(2, gf.DEGREE_CAP + 1)
              if t % 4 and all((p - 1) % q == 0 for q in _prime_factors(t))]
        t = draw(st.sampled_from(ts))
        m = draw(st.integers(1, p - 2).filter(lambda m: all(m % q for q in _prime_factors(t))))
        return ((-pow(PRIMITIVE_ROOT[p], m, p)) % p,) + (0,) * (t - 1) + (1,), p, True

    def monic(d):
        return tuple(draw(st.lists(st.integers(0, p - 1), min_size=d, max_size=d))) + (1,)

    d = draw(st.integers(2, gf.DEGREE_CAP))
    a = draw(st.integers(1, d - 1))
    return gf.mul(monic(a), monic(d - a), p), p, False


@settings(deadline=None, derandomize=True, database=None, max_examples=48)
@given(big_prime_cases())
def test_ben_or_matches_rabin_at_a_big_characteristic(case):
    f, p, irreducible = case
    assert gf._ben_or(f, p) == ref_rabin(f, p) == irreducible


@pytest.mark.parametrize("p", BIG_PRIMES)
def test_factor_at_a_big_characteristic_reassembles_into_irreducibles(p):
    rng = Random(p)
    for _ in range(6):
        # A product of factors of degrees summing to at most 16, one of
        # them squared, so that every stage of factor has work.
        degrees = [rng.randint(1, 4) for _ in range(rng.randint(1, 3))]
        parts = [tuple(rng.randrange(p) for _ in range(d)) + (1,) for d in degrees]
        f = (rng.randrange(1, p),)
        for g in parts + parts[:1]:
            f = gf.mul(f, g, p)
        factors = gf.factor(f, p)
        prod = (1,)
        for g, mult in factors:
            assert g[-1] == 1 and gf.is_irreducible(g, p)
            for _ in range(mult):
                prod = gf.mul(prod, g, p)
        assert prod == gf.monic(f, p)


@pytest.mark.parametrize("f, p", [
    ((11,) + (0,) * 15 + (1,), 13),  # x^16 - 2: 2 is no square mod 13, and 13 = 1 mod 4
    (None, 2**61 - 1),
])
def test_ben_or_raises_to_the_p_th_power_once(monkeypatch, f, p):
    # One power gives x^p mod f, and Berlekamp's matrix every later
    # x^(p^i); Ben-Or's test once took a p-th power at each of its
    # deg(f) / 2 = 8 steps.
    rng = Random(16)
    while f is None:
        g = tuple(rng.randrange(p) for _ in range(16)) + (1,)
        f = g if gf._ben_or(g, p) else None
    calls = []
    power = gf._power
    monkeypatch.setattr(gf, "_power", lambda *a: calls.append(a[1]) or power(*a))
    assert gf._ben_or(f, p) and calls == [p]
