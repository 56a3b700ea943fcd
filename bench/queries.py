"""Seeded single queries for the query-mix workload, with known answers.

Every query is a CLI argument list for ``spectop`` (``--json`` is added by
the runner).  Queries live in a fixed catalog: entry ``<class>/<index>``
is built from its own generator seeded by that name, so the catalog is the
same on every machine and its outcomes at the reference commit can be
recorded once (``expected/query-mix.json``).  Each batch takes a fixed
number of entries per class, the next ones of a stream of seeded
permutations of the class's catalog, so consecutive batches cover the
catalog evenly.

Where the generator built the input so that the answer is known, the entry
carries that answer (``known``), checked with arithmetic written here, not
with spectop's own code: the prime factors of a built ``n``, irreducible
polynomials from theorems (linear, root-free quadratics and cubics,
Artin-Schreier ``x^p - x - a``, binomials ``x^t - a`` by Lidl and
Niederreiter, Theorem 3.75), exit 2 for an input the CLI contract says
must be refused, ``oracleAgrees`` for enumerable images.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache
from math import gcd, lcm, prod
from random import Random

# (class, queries per batch, catalog size).  A batch of 100 leaves 10
# queries beyond its 90th percentile.  The counts keep every class below
# half of a batch's time (about 0.4 s on a 2.1 GHz Xeon core): the 64-bit
# Pollard-rho class costs 30-280 ms a query, the mid-size class about
# 14 ms, the rest about 2 ms.
CLASSES = (
    ("spec-zmod-small", 12, 200),
    ("spec-zmod-mid", 10, 200),
    ("spec-zmod-64", 1, 60),
    ("spec-fp", 6, 100),
    ("fppoly-closure", 16, 200),
    ("cofinite", 18, 300),
    ("criterion", 5, 60),
    ("image-oracle", 12, 200),
    ("lyover", 12, 200),
    ("refuse", 8, 80),
)
BATCH = sum(count for _, count, _ in CLASSES)

FIELD_PRIMES = (2, 3, 5, 7, 11, 13)
DEGREE_CAP = 16  # spectop's gfpoly.DEGREE_CAP: larger degrees are refused
# The smallest strong pseudoprimes to the first 12 and 13 prime bases
# (Sorenson and Webster, Math. Comp. 2017).  Both are composite.
PSI_12 = 318665857834031151167461
PSI_13 = 3317044064679887385961981
MERSENNE_PRIMES = (2**61 - 1, 2**89 - 1, 2**107 - 1, 2**127 - 1)


@dataclass(frozen=True)
class Query:
    id: str
    cls: str
    argv: tuple[str, ...]
    known: tuple | None  # ("exit", 2), ("spectrum", primes), ... or None


# ---------------------------------------------------------------------------
# Independent arithmetic
# ---------------------------------------------------------------------------


def _sieve(bound: int) -> list[int]:
    flags = bytearray([1]) * bound
    flags[0:2] = b"\x00\x00"
    for i in range(2, int(bound**0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
    return [i for i in range(bound) if flags[i]]


SMALL_PRIMES = _sieve(1000)


def is_prime(n: int) -> bool:
    """Miller-Rabin with the prime bases up to 41: deterministic below PSI_13."""
    if n >= PSI_13:
        raise ValueError("no deterministic witness set known for this size")
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for p in bases:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def random_prime(rng: Random, lo: int, hi: int) -> int:
    while True:
        n = rng.randrange(lo, hi) | 1
        if is_prime(n):
            return n


def _order(a: int, p: int) -> int:
    k, x = 1, a % p
    while x != 1:
        x, k = x * a % p, k + 1
    return k


def _prime_divisors(n: int) -> list[int]:
    return [q for q in SMALL_PRIMES if q <= n and n % q == 0]


def _eval(f: tuple[int, ...], x: int, p: int) -> int:
    acc = 0
    for c in reversed(f):
        acc = (acc * x + c) % p
    return acc


@cache
def irreducibles(p: int) -> list[tuple[int, ...]]:
    """Monic irreducibles over GF(p) (ascending coefficients), by theorem."""
    out: set[tuple[int, ...]] = set()
    out.update(((-a) % p, 1) for a in range(p))
    # Degrees 2 and 3: irreducible exactly when there is no root.
    for d in (2, 3):
        for k in range(p**d):
            f = tuple((k // p**i) % p for i in range(d)) + (1,)
            if all(_eval(f, x, p) for x in range(p)):
                out.add(f)
    # Artin-Schreier: x^p - x - a is irreducible for a != 0.
    if p <= DEGREE_CAP:
        for a in range(1, p):
            f = [0] * (p + 1)
            f[0], f[1], f[p] = (-a) % p, (p - 1) % p, 1
            out.add(tuple(f))
    # Binomials x^t - a, a of order e: irreducible iff every prime factor of
    # t divides e but not (p - 1)/e, and p = 1 mod 4 when 4 divides t.
    for a in range(2, p):
        e = _order(a, p)
        for t in range(4, DEGREE_CAP + 1):
            qs = _prime_divisors(t)
            if all(e % q == 0 and ((p - 1) // e) % q for q in qs) and (t % 4 or p % 4 == 1):
                out.add(((-a) % p,) + (0,) * (t - 1) + (1,))
    return sorted(out, key=lambda f: (len(f), f))


def poly_mul(f: tuple[int, ...], g: tuple[int, ...], p: int) -> tuple[int, ...]:
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = (out[i + j] + a * b) % p
    return tuple(out)


# ---------------------------------------------------------------------------
# JSON shapes
# ---------------------------------------------------------------------------


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _zmod(n) -> dict:
    return {"kind": "Zmod", "n": n}


def _fpx(f) -> dict:
    return {"type": "fpxMax", "coeffs": list(f)}


def _zmax(p) -> dict:
    return {"type": "zMax", "p": p}


def _explicit(points) -> dict:
    return {"type": "explicit", "points": list(points)}


FPX_GENERIC = {"type": "fpxGeneric"}


def _axes_ring(field: dict) -> dict:
    return {"kind": "SymbolicSupplement", "field": field}


def _field(rng: Random) -> dict:
    p = rng.choice((0,) + FIELD_PRIMES[:3])
    return {"kind": "Q"} if p == 0 else {"kind": "Fp", "p": p}


# ---------------------------------------------------------------------------
# Classes
# ---------------------------------------------------------------------------


def _spec_zmod(n: int, primes) -> tuple[list[str], tuple]:
    return ["spec", "--ring", _dump(_zmod(n))], ("spectrum", tuple(sorted(set(primes))))


def _gen_spec_zmod_small(rng: Random, idx: int):
    while True:
        ps = rng.sample(SMALL_PRIMES[:60], rng.randint(1, 4))
        n = prod(p ** rng.randint(1, 3) for p in ps)
        if n <= 10**6:
            return _spec_zmod(n, ps)


def _gen_spec_zmod_mid(rng: Random, idx: int):
    # Every factor is above the trial-division bound (10^5), so the query
    # reaches Pollard rho; a small cofactor exercises trial division first.
    while True:
        ps = [random_prime(rng, 100_003, 2**26) for _ in range(rng.randint(2, 3))]
        small = rng.choice((1, 2, 6, 9, 35))
        n = small * prod(ps)
        if n < 2**64:
            return _spec_zmod(n, ps + _prime_divisors(small))


def _gen_spec_zmod_64(rng: Random, idx: int):
    p = random_prime(rng, 2**31, 2**32)
    q = p if idx % 4 == 0 else random_prime(rng, 2**31, 2**32)
    return _spec_zmod(p * q, [p, q])


def _gen_spec_fp(rng: Random, idx: int):
    roll = idx % 4
    if roll == 0:
        p = rng.choice(SMALL_PRIMES)
    elif roll == 1:
        p = random_prime(rng, 2**31, 2**32)
    elif roll == 2:
        p = random_prime(rng, 2**59, 2**63)
    else:
        p = rng.choice(MERSENNE_PRIMES)
    argv = ["spec", "--ring", _dump({"kind": "Fp", "p": p})]
    return argv, ("spectrum-field",)


def _gen_fppoly_closure(rng: Random, idx: int):
    p = rng.choice(FIELD_PRIMES)
    pts = [_fpx(f) for f in rng.sample(irreducibles(p), rng.randint(1, 3))]
    with_generic = rng.random() < 0.25
    E = pts + ([FPX_GENERIC] if with_generic else [])
    topology = rng.choice(("zariski", "flat", "patch"))
    # Finite sets in a one-dimensional domain: closed points are Zariski
    # closed, the flat closure adds the generic point, finite sets are
    # patch closed; a set holding the generic point is Zariski dense.
    if topology == "zariski":
        closure = {"type": "whole"} if with_generic else _explicit(pts)
    elif topology == "flat":
        closure = _explicit(pts + [FPX_GENERIC])
    else:
        closure = _explicit(E)
    ring = {"kind": "FpPoly", "p": p}
    argv = ["closure", "--topology", topology, "--ring", _dump(ring), "--set", _dump(_explicit(E))]
    return argv, ("closure", closure)


def _gen_cofinite(rng: Random, idx: int):
    family = rng.choice(("Z", "FpPoly", "axes"))
    if family == "axes":
        ring = _axes_ring(_field(rng))
        ks = sorted(rng.sample(range(1, 31), rng.randint(0, 3)))
        E = {"type": "cofiniteMin", "excluded": ks, "withTop": rng.random() < 0.5}
    else:
        if family == "Z":
            ring = {"kind": "Z"}
            excl = [_zmax(p) for p in rng.sample(SMALL_PRIMES[:40], rng.randint(0, 3))]
        else:
            p = rng.choice(FIELD_PRIMES)
            ring = {"kind": "FpPoly", "p": p}
            excl = [_fpx(f) for f in rng.sample(irreducibles(p), rng.randint(0, 3))]
        with_generic = rng.random() < 0.5
        E = {"type": "cofiniteClosed", "excluded": excl, "withGeneric": with_generic}
    command = rng.choice(("closure", "dense", "stable", "image"))
    base = ["--ring", _dump(ring), "--set", _dump(E)]
    known = None
    if command == "closure":
        topology = rng.choice(("zariski", "flat", "patch"))
        argv = ["closure", "--topology", topology] + base
        if family != "axes" and topology == "zariski":
            # Infinitely many closed points of a one-dimensional domain.
            known = ("closure", {"type": "whole"})
    elif command == "dense":
        topology = rng.choice(("zariski", "flat"))
        argv = ["dense", "--topology", topology] + base
        if family != "axes" and topology == "zariski":
            known = ("dense", True)
    elif command == "stable":
        mode = rng.choice(("specialization", "generalization"))
        argv = ["stable", "--mode", mode] + base
        if family != "axes":
            # Closed points specialize only to themselves; every point
            # generalizes to the generic point.
            whole = E["withGeneric"] and not E["excluded"]
            stable = (not E["withGeneric"] or whole) if mode == "specialization" else E["withGeneric"]
            known = ("stable", stable)
    else:
        argv = ["image", "--kind", rng.choice(("quotient", "local"))] + base
    return argv, known


def _gen_criterion(rng: Random, idx: int):
    family = rng.choice(("Z", "FpPoly", "axes", "Zmod", "Fp"))
    mode = rng.choice(("zariski", "flat"))
    if family == "Z":
        ring, holds = {"kind": "Z"}, mode == "zariski"
    elif family == "FpPoly":
        ring, holds = {"kind": "FpPoly", "p": rng.choice(FIELD_PRIMES)}, mode == "zariski"
    elif family == "axes":
        ring, holds = _axes_ring(_field(rng)), mode == "flat"
    elif family == "Zmod":
        ring, holds = _zmod(rng.randint(2, 10**6)), True
    else:
        ring, holds = {"kind": "Fp", "p": rng.choice(SMALL_PRIMES)}, True
    return ["criterion", "--mode", mode, "--ring", _dump(ring)], ("holds", holds)


def _axes_local_ring(p: int, n: int) -> tuple[dict, list[dict]]:
    """The n-axes local ring over GF(p) and its points: covers of size >= n-1."""
    gens = []
    for i in range(n):
        for k in range(i + 1, n):
            e = [0] * n
            e[i] = e[k] = 1
            gens.append(e)
    inner = {"kind": "MonomialQuotient", "field": {"kind": "Fp", "p": p}, "nvars": n, "gens": gens}
    full = list(range(1, n + 1))
    covers = [[j for j in full if j != k] for k in full] + [full]
    return {"kind": "LocalizedAtIrrelevant", "inner": inner}, [
        {"type": "monoPrime", "cover": c} for c in covers
    ]


def _zmod_points(rng: Random, nprimes: int) -> tuple[dict, list[dict]]:
    ps = rng.sample(SMALL_PRIMES[:10], nprimes)
    n = prod(p ** rng.randint(1, 2) for p in ps)
    return _zmod(n), [{"type": "zmodPrime", "p": p} for p in sorted(ps)]


def _gen_image_oracle(rng: Random, idx: int):
    shape = rng.choice(("zmod", "product", "axes"))
    if shape == "zmod":
        ring, pts = _zmod_points(rng, rng.randint(1, 4))
    elif shape == "axes":
        ring, pts = _axes_local_ring(rng.choice((2, 3)), rng.randint(2, 3))
    else:
        factors, pts = [], []
        for slot in range(rng.randint(2, 3)):
            f, fpts = _zmod_points(rng, rng.randint(1, 2))
            factors.append(f)
            pts += [{"type": "tamePrime", "slot": slot, "inner": q} for q in fpts]
        ring = {"kind": "Product", "factors": factors}
    E = rng.sample(pts, rng.randint(1, len(pts)))
    kind = rng.choice(("quotient", "local"))
    argv = ["image", "--kind", kind, "--oracle", "--ring", _dump(ring), "--set", _dump(_explicit(E))]
    return argv, ("oracle", tuple(_dump(q) for q in E))


def _gen_lyover(rng: Random, idx: int):
    shape = rng.choice(("diagonal", "diagonal", "quotient", "local-z"))
    if shape == "local-z":
        excl = [_zmax(p) for p in rng.sample(SMALL_PRIMES[:20], rng.randint(0, 3))]
        E = {"type": "cofiniteClosed", "excluded": excl, "withGeneric": rng.random() < 0.5}
        m = {"type": "canonicalIntoLocalProduct", "ring": {"kind": "Z"}, "set": E}
        prime = {"type": "zGeneric"}
    elif shape == "quotient":
        ps = sorted(rng.sample(SMALL_PRIMES[:12], rng.randint(1, 4)))
        m = {"type": "canonicalIntoQuotientProduct", "ring": _zmod(prod(ps)), "set": {"type": "whole"}}
        prime = {"type": "zmodPrime", "p": rng.choice(ps)}
    else:
        ps = rng.sample(SMALL_PRIMES[:12], rng.randint(1, 3))
        exps = [rng.randint(1, 3) for _ in ps]
        n = prod(p**e for p, e in zip(ps, exps))
        slots = [1] * rng.randint(2, 3)
        for p, e in zip(ps, exps):
            slots[rng.randrange(len(slots))] *= p**e  # so the lcm of the slots is n
            k = rng.randrange(len(slots))
            if slots[k] % p:
                slots[k] *= p ** rng.randint(0, e)
        slots = [s for s in slots if s > 1]
        if len(slots) < 2:
            slots.append(ps[0])
        m = {"type": "diagonalIntoModProduct", "n": n, "divisors": slots}
        prime = {"type": "zmodPrime", "p": rng.choice(ps)}
    argv = ["lyover", "--map", _dump(m), "--prime", _dump(prime)]
    return argv, ("contracts", _dump(prime))


# Inputs the CLI contract says must be refused with exit 2.  The first rows
# are the malformed shapes and the composite Fp moduli listed as open
# defects; they stay in the catalog whatever the outcome.
_REFUSE_FIXED = (
    ["spec", "--ring", '{"kind":"Zmod","n":[1]}'],
    ["spec", "--ring", '{"kind":"Zmod","n":1e400}'],
    ["spec", "--ring", '{"kind":"Product","factors":7}'],
    ["closure", "--topology", "zariski", "--ring", '{"kind":"Z"}',
     "--set", '{"type":"explicit","points":[{"type":"zMax","p":null}]}'],
    ["spec", "--ring", _dump({"kind": "Fp", "p": PSI_12})],
    ["spec", "--ring", _dump({"kind": "Fp", "p": PSI_13})],
    ["spec", "--ring", '{"kind":"Zmod","n":0}'],
    ["spec", "--ring", '{"kind":"Zmod","n":-6}'],
    ["spec", "--ring", '{"kind":"Zmod","n":"abc"}'],
    ["spec", "--ring", '{"kind":"Zmod"}'],
    ["spec", "--ring", '{"kind":"Nope"}'],
    ["spec", "--ring", '{"kind":"Zmod","n":12'],
    ["spec", "--ring", _dump(_zmod(2**70 + 1))],
    ["spec", "--ring", '{"kind":"Fp","p":1}'],
)


def _gen_refuse(rng: Random, idx: int):
    if idx < len(_REFUSE_FIXED):
        return list(_REFUSE_FIXED[idx]), ("exit", 2)
    roll = idx % 4
    if roll == 0:
        # A composite Fp modulus.
        a, b = random_prime(rng, 3, 2**20), random_prime(rng, 3, 2**20)
        argv = ["spec", "--ring", _dump({"kind": "Fp", "p": a * b})]
    elif roll == 1:
        # A composite "maximal ideal" of Z.
        a, b = rng.sample(SMALL_PRIMES, 2)
        argv = ["closure", "--topology", "flat", "--ring", '{"kind":"Z"}',
                "--set", _dump(_explicit([_zmax(a * b)]))]
    elif roll == 2:
        # A reducible polynomial as a point of GF(p)[x].
        p = rng.choice(FIELD_PRIMES)
        while True:
            f, g = rng.choice(irreducibles(p)), rng.choice(irreducibles(p))
            if len(f) + len(g) - 2 <= DEGREE_CAP:
                break
        argv = ["closure", "--topology", "zariski", "--ring", _dump({"kind": "FpPoly", "p": p}),
                "--set", _dump(_explicit([_fpx(poly_mul(f, g, p))]))]
    else:
        # A prime of Z/n that does not divide n.
        ring, pts = _zmod_points(rng, 2)
        n = ring["n"]
        q = next(p for p in SMALL_PRIMES if n % p)
        argv = ["closure", "--topology", "patch", "--ring", _dump(ring),
                "--set", _dump(_explicit(pts[:1] + [{"type": "zmodPrime", "p": q}]))]
    return argv, ("exit", 2)


GENERATORS = {
    "spec-zmod-small": _gen_spec_zmod_small,
    "spec-zmod-mid": _gen_spec_zmod_mid,
    "spec-zmod-64": _gen_spec_zmod_64,
    "spec-fp": _gen_spec_fp,
    "fppoly-closure": _gen_fppoly_closure,
    "cofinite": _gen_cofinite,
    "criterion": _gen_criterion,
    "image-oracle": _gen_image_oracle,
    "lyover": _gen_lyover,
    "refuse": _gen_refuse,
}


def entry(cls: str, idx: int) -> Query:
    argv, known = GENERATORS[cls](Random(f"{cls}/{idx}"), idx)
    return Query(f"{cls}/{idx}", cls, tuple(argv) + ("--json",), known)


def catalog() -> list[Query]:
    return [entry(cls, i) for cls, _, size in CLASSES for i in range(size)]


def _drawn(seed: int, cls: str, size: int, start: int, count: int) -> list[int]:
    """Positions start .. start+count-1 of the class's draw stream.

    Draws 0 .. size-1 are a seeded permutation of the catalog, the next
    size draws another, and so on, so batches that together draw the
    catalog whole draw every entry equally often.
    """
    out = []
    for pos in range(start, start + count):
        rnd, k = divmod(pos, size)
        out.append(_permutation(seed, cls, size, rnd)[k])
    return out


@cache
def _permutation(seed: int, cls: str, size: int, rnd: int) -> list[int]:
    order = list(range(size))
    Random(f"query-mix/{seed}/{cls}/{rnd}").shuffle(order)
    return order


def batch(seed: int, iteration: int, tiny: bool = False) -> list[Query]:
    """The queries of one batch: the next draws of each class, in seeded order.

    ``tiny`` draws one query per class, for the benchmark's own tests.
    """
    out = []
    for cls, count, size in CLASSES:
        k = 1 if tiny else count
        out += [entry(cls, i) for i in _drawn(seed, cls, size, iteration * k, k)]
    Random(f"query-mix/{seed}/{iteration}").shuffle(out)
    return out


def whole_draw_batches(classes) -> int:
    """The fewest batches in which each of these classes draws its catalog whole."""
    return lcm(*(size // gcd(size, count) for cls, count, size in CLASSES if cls in classes))


# ---------------------------------------------------------------------------
# Known-answer checks
# ---------------------------------------------------------------------------


def _point_set(subset: dict) -> set[str] | None:
    if subset.get("type") != "explicit":
        return None
    return {_dump(q) for q in subset["points"]}


def _same_subset(got: dict, want: dict) -> bool:
    if want.get("type") == "explicit":
        return _point_set(got) == _point_set(want)
    return got == want


def known_ok(known: tuple, code, stdout: str) -> bool:
    """Whether an outcome (exit code, stdout) matches a generator-known answer."""
    kind = known[0]
    if kind == "exit":
        return code == known[1]
    if code != 0:
        return False
    doc = json.loads(stdout)
    if kind == "spectrum":
        want = {_dump({"type": "zmodPrime", "p": p}) for p in known[1]}
        return _point_set(doc["spectrum"]) == want
    if kind == "spectrum-field":
        return _point_set(doc["spectrum"]) == {_dump({"type": "fieldZero"})}
    if kind == "closure":
        return _same_subset(doc["closure"], known[1])
    if kind in ("dense", "stable", "holds"):
        return doc[kind] is known[1]
    if kind == "oracle":
        image = _point_set(doc["image"])
        return doc.get("oracleAgrees") is True and image is not None and set(known[1]) <= image
    if kind == "contracts":
        return _dump(doc["contracts-back"]) == known[1]
    raise ValueError(f"unknown check {kind!r}")
