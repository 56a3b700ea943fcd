"""Dense univariate polynomial arithmetic over GF(p).

A polynomial is a tuple of coefficients in [0, p), ascending degree, with
no trailing zeros; () is the zero polynomial.  A product sums its terms
and reduces mod p once per coefficient.  Arithmetic mod a fixed f of
degree k runs on residues, lists of k coefficients, with the reduction
tail x^k mod f computed once: a remainder builds no quotient and reduces
each coefficient once, when it is the top one, and one kernel (_mulmod)
multiplies two residues and reduces the product; both accept unreduced
and negative coefficients.  _power runs over the bits of the exponent
from the top: one squaring per bit after the leading one.
Irreducibility is Ben-Or's test (FOCS 1981): f is irreducible when
gcd(x^(p^i) - x, f) = 1 for every i <= deg(f)/2.  x^p mod f takes one
power; every later x^(p^i) is one product with Berlekamp's matrix, whose
row j is x^(p j) mod f, since w(x)^p = w(x^p) over GF(p).  Factorization
is distinct-degree splitting over the same powers, kept mod the squarefree
f and reduced mod the cofactor left, then Cantor-Zassenhaus equal-degree
splitting with a fixed-seed generator, so results are reproducible.  The
stream of monic irreducibles is a sieve over products of lower degrees.
Degrees are capped at desk scale.
"""

from __future__ import annotations

import math
import operator
import random
from itertools import product

from .errors import BadArityError, FactorizationLimitError

DEGREE_CAP = 16

Poly = tuple[int, ...]

X: Poly = (0, 1)


def trim(coeffs: list[int] | tuple[int, ...], p: int) -> Poly:
    return tuple(_strip([c % p for c in coeffs]))


def deg(f: Poly) -> int:
    """Degree, with deg(0) = -1."""
    return len(f) - 1


def mul(f: Poly, g: Poly, p: int) -> Poly:
    if not f or not g:
        return ()
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return trim(out, p)


def _inverse(a: int, p: int) -> int:
    """The inverse of a mod p.  A nonzero a with no inverse proves p
    composite, so the characteristic is refused."""
    try:
        return pow(a, -1, p)
    except ValueError as exc:
        raise BadArityError(f"{p} is not prime: {math.gcd(a, p)} divides it") from exc


def _check_divisor(g: Poly, p: int) -> None:
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    if g[-1] % p == 0:
        raise ValueError(f"divisor {g} has a zero leading coefficient mod {p}")


def divmod_(f: Poly, g: Poly, p: int) -> tuple[Poly, Poly]:
    _check_divisor(g, p)
    rem = list(f)
    q = [0] * max(len(f) - len(g) + 1, 0)
    inv_lead = _inverse(g[-1], p)
    while len(rem) >= len(g) and any(rem):
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) < len(g):
            break
        shift = len(rem) - len(g)
        c = rem[-1] * inv_lead % p
        q[shift] = c
        for i, b in enumerate(g):
            rem[shift + i] = (rem[shift + i] - c * b) % p
    return trim(q, p), trim(rem, p)


def _tail(f: Poly | list[int], p: int) -> list[int]:
    """The reduction tail of f: x^k = tail(x) mod f, for k = deg(f), with
    tail = -(f - lead x^k) / lead."""
    _check_divisor(f, p)
    c = -_inverse(f[-1], p)
    return [b * c % p for b in f[:-1]]


def _reduce(r: list[int], tail: list[int], p: int) -> list[int]:
    """The residue of r mod f, for f with the given tail; r may have any
    length and unreduced or negative coefficients, and is overwritten.

    Each top coefficient c is reduced mod p once, when it is reached, and
    c x^j tail(x) replaces c x^(j+k); the sums below it stay unreduced.
    """
    k = len(tail)
    for top in range(len(r) - 1, k - 1, -1):
        c = r[top] % p
        if c:
            for i, t in enumerate(tail, top - k):
                r[i] += c * t
    del r[k:]
    return [c % p for c in r] + [0] * (k - len(r))


def _mulmod(a: list[int], b: list[int], tail: list[int], p: int) -> list[int]:
    """a b mod f for residues a and b: the terms are summed, then reduced
    once by _reduce.  Zero coefficients of a are skipped, so a sparse
    factor goes first."""
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            for j, d in enumerate(b, i):
                out[j] += c * d
    return _reduce(out, tail, p)


def _power(b: list[int], e: int, tail: list[int], p: int) -> list[int]:
    """b^e mod f for a residue b and e >= 1, left to right over the bits of
    e: one squaring per bit after the leading one, then a product with b
    when the bit is 1."""
    r = b
    for bit in bin(e)[3:]:
        r = _mulmod(r, r, tail, p)
        if bit == "1":
            r = _mulmod(b, r, tail, p)
    return r


def _strip(r: list[int]) -> list[int]:
    while r and r[-1] == 0:
        r.pop()
    return r


def _gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """The last nonzero remainder of Euclid's algorithm on a and b, not made
    monic; b is trimmed, and both lists are overwritten.  Each remainder is
    taken in place, with one inverse of the divisor's leading coefficient."""
    while b:
        k = len(b) - 1
        inv = _inverse(b[-1], p)
        for top in range(len(a) - 1, k - 1, -1):
            c = a[top] * inv % p
            if c:
                for i, t in enumerate(b, top - k):
                    a[i] -= c * t
        del a[k:]
        a, b = b, _strip([c % p for c in a])
    return a


def mod(f: Poly, g: Poly, p: int) -> Poly:
    """The remainder of divmod_, with no quotient."""
    return tuple(_strip(_reduce(list(f), _tail(g, p), p)))


def divides(g: Poly, f: Poly, p: int) -> bool:
    return not mod(f, g, p)


def monic(f: Poly, p: int) -> Poly:
    if not f or f[-1] == 1:
        return f
    c = _inverse(f[-1], p)
    return trim([a * c for a in f], p)


def gcd(f: Poly, g: Poly, p: int) -> Poly:
    return monic(tuple(_gcd(list(f), list(g), p)), p)


def derivative(f: Poly, p: int) -> Poly:
    return trim([i * c for i, c in enumerate(f)][1:], p)


def _frobenius_matrix(xp: list[int], tail: list[int], p: int) -> list[tuple[int, ...]]:
    """Berlekamp's matrix Q mod f, by columns, from xp = x^p mod f: row j
    is x^(p j) mod f, for j < k = deg(f).  Row j is xp times row j - 1;
    while p < k, xp is a monomial and each product is cheap."""
    rows = [_reduce([1], tail, p)]
    for _ in range(len(tail) - 1):
        rows.append(_mulmod(xp, rows[-1], tail, p))
    return list(zip(*rows))


def _frobenius_apply(q: list[tuple[int, ...]], w: list[int], p: int) -> list[int]:
    """w^p mod f for a residue w (reduced or not): over GF(p),
    w(x)^p = w(x^p) = sum of w_j x^(p j), so w^p is Q w."""
    return [sum(map(operator.mul, w, col)) % p for col in q]


def _frobenius(tail: list[int], p: int):
    """Yield x^(p^i) - x mod f, trimmed, for i = 1, 2, ...: x^p by one
    power, then each later x^(p^i) as Q x^(p^(i-1)) (von zur Gathen and
    Shoup 1992).  Q is built when the second one is asked for."""
    x = _reduce(list(X), tail, p)
    w = _power(x, p, tail, p)
    yield _strip([(a - b) % p for a, b in zip(w, x)])
    q = _frobenius_matrix(w, tail, p)
    while True:
        w = _frobenius_apply(q, w, p)
        yield _strip([(a - b) % p for a, b in zip(w, x)])


def _ben_or(f: Poly, p: int) -> bool:
    """Ben-Or's test: gcd(x^(p^i) - x, f) = 1 for i = 1 .. deg(f) // 2.

    A reducible f of degree d has an irreducible factor of some degree
    i <= d/2, and that factor divides x^(p^i) - x.  Uncapped.
    """
    d = deg(f)
    if d < 1:
        return False
    for _, h in zip(range(d // 2), _frobenius(_tail(f, p), p)):
        if len(_gcd(list(f), h, p)) > 1:
            return False
    return True


def is_irreducible(f: Poly, p: int) -> bool:
    """Ben-Or's test for degrees up to DEGREE_CAP; a larger degree raises."""
    if deg(f) > DEGREE_CAP:
        raise FactorizationLimitError(f"degree {deg(f)} exceeds cap {DEGREE_CAP}")
    return _ben_or(f, p)


def _equal_degree_split(f: Poly, d: int, p: int, rng: random.Random) -> list[Poly]:
    """Split a squarefree monic product of degree-d irreducibles."""
    n = deg(f)
    if n == d:
        return [monic(f, p)]
    tail = _tail(f, p)
    while True:
        h = trim([rng.randrange(p) for _ in range(n)], p)
        if deg(h) < 1:
            continue
        h = _reduce(list(h), tail, p)
        if p == 2:
            # Trace map h + h^2 + h^4 + ... over GF(2^d).
            t = h
            for _ in range(d - 1):
                h = _mulmod(h, h, tail, p)
                t = [a ^ b for a, b in zip(t, h)]
        else:
            t = _power(h, (p**d - 1) // 2, tail, p)
            t[0] = (t[0] - 1) % p
        g = monic(tuple(_gcd(list(f), _strip(t), p)), p)
        if 0 < deg(g) < n:
            left = _equal_degree_split(g, d, p, rng)
            right = _equal_degree_split(divmod_(f, g, p)[0], d, p, rng)
            return left + right


def _squarefree_factor(f: Poly, p: int, rng: random.Random, out: dict[Poly, int], mult: int) -> None:
    """Distinct-degree then equal-degree splitting of squarefree monic f.

    x^(p^d) - x is kept mod f, the cofactor left divides f, and their gcd
    is the product of the cofactor's irreducible factors of degree d."""
    powers = _frobenius(_tail(f, p), p)
    d = 1
    while deg(f) >= 2 * d:
        g = gcd(tuple(next(powers)), f, p)
        if deg(g) > 0:
            for irr in _equal_degree_split(g, d, p, rng):
                out[irr] = out.get(irr, 0) + mult
            f = divmod_(f, g, p)[0]
        d += 1
    if deg(f) > 0:
        f = monic(f, p)
        out[f] = out.get(f, 0) + mult


def _factor_monic(f: Poly, p: int, rng: random.Random, out: dict[Poly, int], mult: int) -> None:
    if deg(f) < 1:
        return
    df = derivative(f, p)
    if not df:
        # f = g(x^p) = g(x)^p since Frobenius fixes GF(p).
        g = trim([f[i] for i in range(0, len(f), p)], p)
        _factor_monic(g, p, rng, out, mult * p)
        return
    g = gcd(f, df, p)
    if deg(g) == 0:
        _squarefree_factor(f, p, rng, out, mult)
        return
    _factor_monic(g, p, rng, out, mult)
    _factor_monic(divmod_(f, g, p)[0], p, rng, out, mult)


def factor(f: Poly, p: int) -> list[tuple[Poly, int]]:
    """Monic irreducible factors of f != 0 with multiplicities, sorted;
    degrees above DEGREE_CAP are refused."""
    if not f:
        raise ValueError("cannot factor the zero polynomial")
    if deg(f) > DEGREE_CAP:
        raise FactorizationLimitError(f"degree {deg(f)} exceeds cap {DEGREE_CAP}")
    out: dict[Poly, int] = {}
    _factor_monic(monic(f, p), p, random.Random(0xC0FFEE), out, 1)
    return sorted(out.items(), key=lambda kv: (deg(kv[0]), kv[0]))


def irreducibles(p: int):
    """Yield monic irreducibles in (degree, coefficient) order, by a sieve.

    A reducible monic f of degree d is g h with g the monic irreducible
    factor of least degree, so deg(g) <= d/2, and h monic of degree
    d - deg(g).  Each degree strikes out those products of the
    irreducibles already yielded and yields the monic polynomials left;
    no irreducibility test runs.  Beside the irreducibles it has yielded,
    it holds one set of the current degree's reducibles, at most p^d
    entries.
    """
    found: list[Poly] = []
    d = 1
    while True:
        reducible = {
            mul(g, tail + (1,), p)
            for g in found
            if 2 * deg(g) <= d
            for tail in product(range(p), repeat=d - deg(g))
        }
        for tail in product(range(p), repeat=d):
            f = tail + (1,)
            if f not in reducible:
                found.append(f)
                yield f
        d += 1


def poly_str(f: Poly) -> str:
    if not f:
        return "0"
    parts = []
    for i, c in enumerate(f):
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
        else:
            head = "" if c == 1 else str(c) + "*"
            parts.append(f"{head}x" + (f"^{i}" if i > 1 else ""))
    return " + ".join(reversed(parts))
