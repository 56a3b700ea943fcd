"""Dense univariate polynomial arithmetic over GF(p).

A polynomial is a tuple of coefficients in [0, p), ascending degree, with
no trailing zeros; () is the zero polynomial.  A product sums its terms
and reduces mod p once per coefficient, and a remainder (mod) builds no
quotient and reduces each coefficient once, when it is the top one; both
accept unreduced and negative coefficients.  pow_mod runs over the bits
of the exponent from the top: one squaring per bit after the leading one.
Irreducibility is Ben-Or's test (FOCS 1981): f is irreducible when
gcd(x^(p^i) - x, f) = 1 for every i <= deg(f)/2.  Factorization is
distinct-degree splitting over the same powers x^(p^i), then
Cantor-Zassenhaus equal-degree splitting with a fixed-seed generator, so
results are reproducible.  The stream of monic irreducibles is a sieve
over products of lower degrees.  Degrees are capped at desk scale.
"""

from __future__ import annotations

import random
from itertools import product

from .errors import FactorizationLimitError

DEGREE_CAP = 16

Poly = tuple[int, ...]

X: Poly = (0, 1)


def trim(coeffs: list[int] | tuple[int, ...], p: int) -> Poly:
    cs = [c % p for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def deg(f: Poly) -> int:
    """Degree, with deg(0) = -1."""
    return len(f) - 1


def add(f: Poly, g: Poly, p: int) -> Poly:
    n = max(len(f), len(g))
    return trim([(f[i] if i < len(f) else 0) + (g[i] if i < len(g) else 0) for i in range(n)], p)


def neg(f: Poly, p: int) -> Poly:
    return tuple((-c) % p for c in f)


def sub(f: Poly, g: Poly, p: int) -> Poly:
    return add(f, neg(g, p), p)


def mul(f: Poly, g: Poly, p: int) -> Poly:
    if not f or not g:
        return ()
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return trim(out, p)


def scale(f: Poly, c: int, p: int) -> Poly:
    return trim([a * c for a in f], p)


def _check_divisor(g: Poly, p: int) -> None:
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    if g[-1] % p == 0:
        raise ValueError(f"divisor {g} has a zero leading coefficient mod {p}")


def divmod_(f: Poly, g: Poly, p: int) -> tuple[Poly, Poly]:
    _check_divisor(g, p)
    rem = list(f)
    q = [0] * max(len(f) - len(g) + 1, 0)
    inv_lead = pow(g[-1], p - 2, p)
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


def mod(f: Poly, g: Poly, p: int) -> Poly:
    """The remainder of divmod_, with no quotient.

    Mod g, x^k = tail(x) with tail = -(g - lead x^k) / lead and k = deg(g).
    Each top coefficient c is reduced mod p once, when it is reached, and
    c x^j tail(x) replaces c x^(j+k); the sums below it stay unreduced.
    """
    _check_divisor(g, p)
    k = len(g) - 1
    c = -pow(g[-1], p - 2, p)
    tail = [b * c % p for b in g[:-1]]
    rem = list(f)
    for top in range(len(rem) - 1, k - 1, -1):
        c = rem[top] % p
        if c:
            shift = top - k
            for i, b in enumerate(tail):
                rem[shift + i] += c * b
    return trim(rem[:k], p)


def divides(g: Poly, f: Poly, p: int) -> bool:
    return not mod(f, g, p)


def monic(f: Poly, p: int) -> Poly:
    if not f or f[-1] == 1:
        return f
    return scale(f, pow(f[-1], p - 2, p), p)


def gcd(f: Poly, g: Poly, p: int) -> Poly:
    while g:
        f, g = g, mod(f, g, p)
    return monic(f, p)


def pow_mod(base: Poly, e: int, m: Poly, p: int) -> Poly:
    """base^e mod m, left to right over the bits of e: one squaring per bit
    after the leading one, then a product with base when the bit is 1."""
    base = mod(base, m, p)
    if e <= 0:
        return (1,)
    result = base
    for bit in bin(e)[3:]:
        result = mod(mul(result, result, p), m, p)
        if bit == "1":
            result = mod(mul(result, base, p), m, p)
    return result


def derivative(f: Poly, p: int) -> Poly:
    return trim([i * c for i, c in enumerate(f)][1:], p)


def _frobenius(w: Poly, f: Poly, p: int) -> tuple[Poly, Poly]:
    """x^(p^i) mod f from w = x^(p^(i-1)) mod f, and gcd(x^(p^i) - x, f):
    the product of the distinct irreducible factors of f whose degree
    divides i."""
    w = pow_mod(w, p, f, p)
    return w, gcd(sub(w, mod(X, f, p), p), f, p)


def _ben_or(f: Poly, p: int) -> bool:
    """Ben-Or's test: gcd(x^(p^i) - x, f) = 1 for i = 1 .. deg(f) // 2.

    A reducible f of degree d has an irreducible factor of some degree
    i <= d/2, and that factor divides x^(p^i) - x.  Uncapped.
    """
    d = deg(f)
    if d < 1:
        return False
    w = mod(X, f, p)
    for _ in range(d // 2):
        w, g = _frobenius(w, f, p)
        if deg(g) > 0:
            return False
    return True


def is_irreducible(f: Poly, p: int) -> bool:
    """Ben-Or's test for degrees up to DEGREE_CAP; a larger degree raises."""
    if deg(f) > DEGREE_CAP:
        raise FactorizationLimitError(f"degree {deg(f)} exceeds cap {DEGREE_CAP}")
    return _ben_or(f, p)


def _equal_degree_split(f: Poly, d: int, p: int, rng: random.Random) -> list[Poly]:
    """Split a squarefree product of degree-d irreducibles."""
    n = deg(f)
    if n == d:
        return [monic(f, p)]
    while True:
        h = trim([rng.randrange(p) for _ in range(n)], p)
        if deg(h) < 1:
            continue
        if p == 2:
            # Trace map h + h^2 + h^4 + ... over GF(2^d).
            t: Poly = ()
            cur = mod(h, f, p)
            for _ in range(d):
                t = add(t, cur, p)
                cur = mod(mul(cur, cur, p), f, p)
            g = gcd(t, f, p)
        else:
            g = gcd(sub(pow_mod(h, (p**d - 1) // 2, f, p), (1,), p), f, p)
        if 0 < deg(g) < n:
            left = _equal_degree_split(g, d, p, rng)
            right = _equal_degree_split(divmod_(f, g, p)[0], d, p, rng)
            return left + right


def _squarefree_factor(f: Poly, p: int, rng: random.Random, out: dict[Poly, int], mult: int) -> None:
    """Distinct-degree then equal-degree splitting of squarefree monic f."""
    d = 1
    w = mod(X, f, p)
    while deg(f) >= 2 * d:
        w, g = _frobenius(w, f, p)
        if deg(g) > 0:
            for irr in _equal_degree_split(g, d, p, rng):
                out[irr] = out.get(irr, 0) + mult
            f = divmod_(f, g, p)[0]
            w = mod(w, f, p)
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
