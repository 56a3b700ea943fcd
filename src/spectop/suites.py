"""Named verification suites for the command line.

Each suite runs a family of checks of its own fixed size with a seeded
generator (coverage grows by seed), returning a deterministic report:
identical seeds give byte-identical JSON.  Every failing case carries a
repro command line.

Every draw is drawn, counted and reported: deciding a draw never reads
the suite's generator, so the draws come in the same order whether or not
they are decided, and each gets its own case or count.  Each distinct
draw is decided once, from a dict local to the run: closure-axioms keeps
the verdict of each symbolic subset, lying-over each map's injectivity
and each (map, point) round trip, nilradical-product each product's law
check, and that check compares each distinct sampled element once.
"""

from __future__ import annotations

from itertools import combinations
from random import Random

from . import construction, maps, products, rings
from . import spectrum as sp
from . import topology as top
from .errors import LyingOverNotFoundError
from .rings import IntEl, Record, RingExpr
from .spectrum import MonoPrime, PrimePoint, SpecSubset, SuppMin, ZMax, cofinite

WILD_PRIME_NOTE = (
    "finite brute force cannot reproduce the limit-point term of the "
    "infinite branches (the wild-prime contribution); those are accepted "
    "via the symbolic rules backed by the closure statements for each family"
)


class SuiteCase(Record):
    __slots__ = ()
    id: str
    input: str
    expected: str
    actual: str
    passed: bool
    repro: str | None


class SuiteResult(Record):
    __slots__ = ()
    suite: str
    seed: int
    params: dict
    cases: list[SuiteCase]
    notes: list[str]

    def __new__(cls, suite: str, seed: int, params: dict, cases=None, notes=None):
        return tuple.__new__(cls, (suite, seed, params, cases or [], notes or []))

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.cases)

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "params": self.params,
            "cases": [
                {
                    "id": c.id,
                    "input": c.input,
                    "expected": c.expected,
                    "actual": c.actual,
                    "pass": c.passed,
                    **({"repro": c.repro} if c.repro else {}),
                }
                for c in sorted(self.cases, key=lambda c: c.id)
            ],
            "summary": {
                "total": len(self.cases),
                "failures": sum(not c.passed for c in self.cases),
                "pass": self.passed,
            },
            "notes": self.notes,
        }


def _case(res: SuiteResult, cid: str, inp: str, expected, actual) -> None:
    ok = expected == actual
    repro = None if ok else f"spectop verify {res.suite} --seed {res.seed}"
    res.cases.append(SuiteCase(cid, inp, str(expected), str(actual), ok, repro))


# ---------------------------------------------------------------------------
# Shared generators
# ---------------------------------------------------------------------------

F2 = rings.prime_field(2)
F3 = rings.prime_field(3)
F2X = rings.poly_ring(2)
AXES_F2 = rings.symbolic_supplement(F2)


def _random_symbolic_subset(R: RingExpr, rng: Random) -> SpecSubset:
    """A seeded subset of a symbolic spectrum: empty, whole, finite or
    cofinite.  The draws build through sp._subset, unchecked: the points
    sample_points hands back are points of R, as enumerated ones are."""
    roll = rng.random()
    if roll < 0.1:
        return sp.empty_set(R)
    if roll < 0.2:
        return sp.whole(R)
    if roll < 0.5:
        return sp._subset(R, R.sample_points(rng, rng.randint(1, 4)))
    return _random_infinite_subset(R, rng, 3)


def _oracle_zoo() -> list[RingExpr]:
    """Enumerable rings with at most 5 points."""
    return [
        rings.zmod(12),
        rings.zmod(8),
        rings.zmod(30),
        rings.zmod(210),
        construction.build_supplement(F2, 2),
        construction.build_supplement(F3, 3),
        construction.build_supplement(F2, 4),
        rings.product(rings.zmod(4), rings.zmod(9)),
        rings.product(rings.zmod(6), rings.zmod(35)),
        rings.product(rings.zmod(4), rings.zmod(9), rings.zmod(25)),
        rings.product(construction.build_supplement(F2, 2), rings.zmod(4)),
    ]


def _axiom_zoo() -> list[RingExpr]:
    """Enumerable rings with at most 8 points."""
    return _oracle_zoo() + [
        construction.build_supplement(rings.QQ, 5),
        rings.prime_field(5),
        rings.QQ,
        construction.build_supplement(F2, 1),
        rings.product(rings.zmod(30), rings.prime_field(3)),
    ]


def _checked_points(R: RingExpr) -> list[PrimePoint]:
    """The spectrum of an enumerable ring, each point checked once here, so
    the subsets and pairs built from it recombine checked points."""
    pts = sp.spec_points(R)
    for p in pts:
        sp.validate_point(p, R)
    return pts


def _every_subset(R: RingExpr):
    """Each subset of an enumerable spectrum, by size, then in point order."""
    pts = _checked_points(R)
    for k in range(len(pts) + 1):
        for sub in combinations(pts, k):
            yield sp._subset(R, sub)


def _up_closure_brute(E: SpecSubset, pts: list[PrimePoint]) -> SpecSubset:
    """The points of pts, E's checked spectrum, above some point of E."""
    R = E.ring
    members = [q for q in pts if any(R._leq(p, q) for p in E.points)]
    return sp._subset(R, members)


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------


def suite_finite_closure(seed: int = 0) -> SuiteResult:
    """Finite sets over Z/n: closure = brute-force up closure = V(fold)."""
    cases, max_n = 100, 10**6
    res = SuiteResult("finite-closure", seed, {"cases": cases, "max_n": max_n})
    rng = Random(seed)
    for i in range(cases):
        n = rng.randint(2, max_n)
        R = rings.zmod(n)
        pts = _checked_points(R)
        chosen = [p for p in pts if rng.random() < 0.6] or [pts[0]]
        E = sp._subset(R, chosen)
        cl = top.zariski_closure(E)
        brute = _up_closure_brute(E, pts)
        meet = rings.ideal_intersect_all([R.point_ideal(p) for p in chosen], R)
        v_of_fold = sp.v_locus(meet.gen, R)
        ok = cl == brute and cl == v_of_fold
        _case(res, f"{i:03d}", f"n={n} E={sp.subset_str(E)}", True, ok)
    return res


def _strictness_remark(
    name: str, seed: int, E: SpecSubset, topology: str, closure: str, witness: str
) -> SuiteResult:
    """One strictness remark: the product image of E gains only the limit
    point, the closure is `closure`, and `witness` lies between them."""
    res = SuiteResult(name, seed, {})
    rep = products.strictness_demo(E, topology)
    inp = sp.subset_str(E)
    image = sp.subset_str(cofinite(E.ring, E.excluded, True))
    _case(res, "image", inp, image, sp.subset_str(rep.image))
    _case(res, "closure", inp, closure, sp.subset_str(rep.closure))
    _case(res, "strict", inp, True, rep.strict)
    _case(res, "witness", inp, witness, sp.point_str(rep.witness))
    return res


def suite_remark_v5(seed: int = 0) -> SuiteResult:
    """Strictness of the quotient-product image over Z, excluded prime 11."""
    E = cofinite(rings.ZZ, {ZMax(11)}, False)
    res = _strictness_remark("remark-v5", seed, E, top.ZARISKI, "Spec(Z)", "(11)")
    _case(
        res,
        "unit-11",
        "is_unit_in_quotient_product(11, E)",
        True,
        products.is_unit_in_quotient_product(IntEl(11), E),
    )
    return res


def suite_remark_flat(seed: int = 0) -> SuiteResult:
    """Strictness of the localization-product image on the axes ring."""
    E = cofinite(AXES_F2, {SuppMin(7)}, False)
    whole = sp.subset_str(sp.whole(AXES_F2))
    return _strictness_remark("remark-flat", seed, E, top.FLAT, whole, "P_7")


def suite_supplement(seed: int = 0) -> SuiteResult:
    """All axes-ring statements for n in [2, 8] over F2, F3 and Q."""
    max_n = 8
    res = SuiteResult("supplement", seed, {"max_n": max_n})
    for K in (F2, F3, rings.QQ):
        for n in range(2, max_n + 1):
            rep = construction.supplement_report(K, n)
            _case(res, f"{K}-n{n}", f"field={K} n={n}", True, rep.all_ok)
    return res


def suite_nilradical_product(seed: int = 0) -> SuiteResult:
    """Componentwise nilpotents and dense minimal tame primes on products."""
    cases = 20
    res = SuiteResult("nilradical-product", seed, {"cases": cases})
    rng = Random(seed)
    fixed = [
        rings.product(rings.zmod(4), rings.zmod(9)),
        rings.product(rings.zmod(12), rings.zmod(12)),
        rings.product(rings.zmod(8)),
    ]
    pool = [rings.zmod(rng.randint(2, 400)) for _ in range(cases)]
    pool += [construction.build_supplement(F2, rng.randint(1, 3)) for _ in range(4)]
    gen = [
        rings.product(*rng.sample(pool, rng.randint(1, 3))) for _ in range(cases)
    ]
    verdict: dict[RingExpr, bool] = {}
    for i, R in enumerate(fixed + gen):
        if R not in verdict:
            verdict[R] = products.nilradical_product_law_check(R)
        _case(res, f"{i:03d}", str(R), True, verdict[R])
    return res


def suite_lying_over(seed: int = 0) -> SuiteResult:
    """Round trips contract(laying_over(p)) = p over injective maps."""
    cases = 50
    res = SuiteResult("lying-over", seed, {"cases": cases})
    rng = Random(seed)
    # Z/210 onto its four residue fields, the same in every case that draws it.
    z210 = rings.zmod(2 * 3 * 5 * 7)
    into_fields = maps.CanonicalIntoQuotientProduct(sp.whole(z210))
    injective: dict[maps.RingMapSpec, bool] = {}
    round_trip: dict[tuple[maps.RingMapSpec, PrimePoint], str] = {}
    i = 0
    while i < cases:
        roll = rng.random()
        if roll < 0.4:
            n = rng.randint(2, 10_000)
            R = rings.zmod(n)
            fac = R.factorization
            nslots = rng.randint(2, len(fac) + 1)
            # Exponent of each prime per slot; the max over slots must hit
            # the exponent in n so the lcm of the divisors equals n.
            exps = [[0] * nslots for _ in fac]
            for j, (p, e) in enumerate(fac):
                if rng.random() < 0.3:
                    exps[j][rng.randrange(nslots)] = rng.randint(0, e)
                exps[j][rng.randrange(nslots)] = e
            slots = [1] * nslots
            for j, (p, e) in enumerate(fac):
                for k in range(nslots):
                    slots[k] *= p ** exps[j][k]
            m: maps.RingMapSpec = maps.DiagonalIntoModProduct(R, tuple(slots))
            minimals = sp.spec_points(R)
        elif roll < 0.6:
            m = into_fields
            minimals = sp.spec_points(z210)
        elif roll < 0.8:
            R = construction.build_supplement(F2, rng.randint(2, 4))
            mins = [p for p in sp.spec_points(R) if len(p.cover) < R.nvars]
            E = sp.explicit(R, mins if rng.random() < 0.5 else sp.spec_points(R))
            kind = rng.random() < 0.5
            m = (
                maps.CanonicalIntoQuotientProduct(E)
                if kind
                else maps.CanonicalIntoLocalProduct(E)
            )
            minimals = mins
        else:
            excl = {ZMax(p) for p in rng.sample((2, 3, 5, 7, 11, 13), rng.randint(0, 3))}
            E = cofinite(rings.ZZ, excl, rng.random() < 0.5)
            m = maps.CanonicalIntoLocalProduct(E)
            minimals = [sp.ZGeneric()]
        if m not in injective:
            injective[m] = maps.is_injective(m)
        if not injective[m]:
            continue
        shown = str(m)
        for p in minimals:
            if (m, p) not in round_trip:
                try:  # a refusal over an injective map is a failing case
                    q = maps.laying_over(m, p)
                except LyingOverNotFoundError as exc:
                    round_trip[m, p] = f"refused: {exc}"
                else:
                    round_trip[m, p] = sp.point_str(maps.contract(m, q))
            _case(
                res,
                f"{i:03d}-{sp.point_str(p)}",
                f"{shown} over {sp.point_str(p)}",
                sp.point_str(p),
                round_trip[m, p],
            )
        i += 1
    return res


def suite_pz(seed: int = 0) -> SuiteResult:
    """Prime absorbance and avoidance over finite families: the axes rings,
    Z/n and chains of monomial primes, where prime avoidance makes both
    hold."""
    max_n = 5
    res = SuiteResult("pz", seed, {"max_n": max_n})
    for n in range(1, max_n + 1):
        R = construction.build_supplement(F2, n)
        _case(res, f"axes-n{n}", str(R), True, construction.absorbance_holds(sp.whole(R)))
    for n in (8, 12, 30, 210):
        R = rings.zmod(n)
        _case(res, f"zmod-{n}-pz", str(R), True, construction.absorbance_holds(sp.whole(R)))
        _case(res, f"zmod-{n}-cp", str(R), True, construction.avoidance_holds(sp.whole(R)))
    ambient = rings.monomial_quotient(F2, 5, frozenset())
    for length in range(1, 6):
        chain = [MonoPrime(frozenset(range(1, j + 1))) for j in range(1, length + 1)]
        _case(
            res,
            f"chain-{length}-pz",
            f"chain of length {length}",
            True,
            construction.absorbance_holds(sp.explicit(ambient, chain)),
        )
        _case(
            res,
            f"chain-{length}-cp",
            f"chain of length {length}",
            True,
            construction.avoidance_holds(sp.explicit(ambient, chain)),
        )
    return res


# A witness r of a failing density criterion: its infinite, non-dense
# locus, and the rule it must fail.  V(r) needs r not nilpotent for the
# Zariski topology; D(r) needs r not a unit for the flat one.
_WITNESS_RULES = {
    top.ZARISKI: (sp.v_locus, "nilpotent", rings.is_nilpotent),
    top.FLAT: (sp.d_locus, "unit", rings.is_unit),
}


def suite_density(seed: int = 0) -> SuiteResult:
    """Density criteria plus dense/non-dense confirmations."""
    cases = 50
    res = SuiteResult("density", seed, {"cases": cases})
    rng = Random(seed)
    for R, good_mode, bad_mode in (
        (rings.ZZ, top.ZARISKI, top.FLAT),
        (F2X, top.ZARISKI, top.FLAT),
        (AXES_F2, top.FLAT, top.ZARISKI),
    ):
        cert = top.density_criterion(R, good_mode)
        _case(res, f"{R}-{good_mode}-holds", str(R), True, cert.holds)
        for j in range(cases):
            E = _random_infinite_subset(R, rng)
            _case(
                res,
                f"{R}-{good_mode}-dense-{j:02d}",
                sp.subset_str(E),
                True,
                top.is_dense(E, good_mode),
            )
        cert = top.density_criterion(R, bad_mode)
        _case(res, f"{R}-{bad_mode}-fails", str(R), False, cert.holds)
        locus_of, kind, rule = _WITNESS_RULES[bad_mode]
        locus = locus_of(cert.witness, R)
        _case(
            res,
            f"{R}-{bad_mode}-witness-infinite",
            sp.subset_str(locus),
            True,
            sp.is_infinite(locus),
        )
        _case(
            res,
            f"{R}-{bad_mode}-witness-nondense",
            sp.subset_str(locus),
            False,
            top.is_dense(locus, bad_mode),
        )
        _case(
            res,
            f"{R}-{bad_mode}-witness-not-{kind}",
            rings.el_str(cert.witness, R),
            False,
            rule(cert.witness, R),
        )
    for R in (rings.zmod(12), rings.prime_field(7)):
        for mode in (top.ZARISKI, top.FLAT):
            cert = top.density_criterion(R, mode)
            _case(
                res,
                f"{R}-{mode}-finite",
                str(R),
                (True, top.FINITE_SPECTRUM),
                (cert.holds, cert.rationale),
            )
    return res


def _random_infinite_subset(R: RingExpr, rng: Random, most: int = 4) -> SpecSubset:
    # A sampled limit point is left to the flag: the limit is never excluded,
    # and a cofinite set's points hold it exactly when the flag leaves it out.
    excl = frozenset(R.sample_points(rng, rng.randint(0, most))) - {R.limit}
    return sp._subset(R, excl if rng.random() < 0.5 else excl | {R.limit}, True)


def suite_closure_axioms(seed: int = 0) -> SuiteResult:
    """Closure axioms, the ordering, and the stability characterization."""
    cases = 500
    res = SuiteResult("closure-axioms", seed, {"cases": cases})
    rng = Random(seed)
    failures = 0
    total = 0
    for R in _axiom_zoo():
        for E in _every_subset(R):
            ok, msg = _axioms_hold(E)
            total += 1
            if not ok:
                failures += 1
                _case(res, f"enum-{R}-{sp.subset_str(E)}", msg, True, False)
    for R in (rings.ZZ, F2X, AXES_F2):
        verdicts: dict[SpecSubset, tuple[bool, str]] = {}
        for j in range(cases // 3):
            E = _random_symbolic_subset(R, rng)
            if E not in verdicts:
                verdicts[E] = _axioms_hold(E)
            ok, msg = verdicts[E]
            total += 1
            if not ok:
                failures += 1
                _case(res, f"sym-{R}-{j:03d}", msg, True, False)
    _case(res, "all-cases", f"{total} subsets checked", 0, failures)
    return res


def _axioms_hold(E: SpecSubset) -> tuple[bool, str]:
    # Each closure of E is computed once and read by every check below.
    zariski = top.zariski_closure(E)
    flat = top.flat_closure(E)
    gamma = top.patch_closure(E)
    bigger = sp.subset_union(E, _enlarge(E))
    # Every closure fixes the empty set and the whole spectrum (Kuratowski).
    fixed = _is_empty_or_whole(E)
    for t, cl in ((top.ZARISKI, zariski), (top.FLAT, flat), (top.PATCH, gamma)):
        if fixed and cl != E:
            return False, f"{t} moves {sp.subset_str(E)}"
        if not sp.subset_le(E, cl):
            return False, f"{t} not extensive on {sp.subset_str(E)}"
        if top.closure(cl, t) != cl:
            return False, f"{t} not idempotent on {sp.subset_str(E)}"
        if not sp.subset_le(cl, top.closure(bigger, t)):
            return False, f"{t} not monotone on {sp.subset_str(E)}"
    if not sp.subset_le(gamma, zariski):
        return False, f"patch not inside zariski on {sp.subset_str(E)}"
    if not sp.subset_le(gamma, flat):
        return False, f"patch not inside flat on {sp.subset_str(E)}"
    char = gamma == E and top.is_stable(E, top.SPECIALIZATION)
    if (zariski == E) != char:
        return False, f"zariski characterization fails on {sp.subset_str(E)}"
    char = gamma == E and top.is_stable(E, top.GENERALIZATION)
    if (flat == E) != char:
        return False, f"flat characterization fails on {sp.subset_str(E)}"
    return True, ""


def _is_empty_or_whole(E: SpecSubset) -> bool:
    """Read off the canonical form: both sets have no points, but for the
    whole of an enumerable spectrum, which has every point."""
    R = E.ring
    return not E.points or not R.symbolic and len(E.points) == len(R._spectrum_table)


def _enlarge(E: SpecSubset) -> SpecSubset:
    """What the monotonicity check adds to E: everything for a cofinite
    set, the ring's first point over an enumerable ring, and over a symbolic
    ring a point outside the finite E: the limit when E lacks it, else the
    first family point outside E that a Random(0) of its own samples, so
    the suite's draws do not depend on it.  Each is a point of R already
    (a point of the checked spectrum, the limit, or a sampled point), so
    the set is built through sp._subset."""
    R = E.ring
    if sp.is_infinite(E):
        return sp.whole(R)
    if not R.symbolic:
        return sp._subset(R, R._spectrum_table[:1])
    p = R.limit
    if p in E.points:
        pick = Random(0)
        while p in E.points:
            p = R.sample_points(pick, 1)[0]
    return sp._subset(R, (p,))


def suite_oracle_agreement(seed: int = 0) -> SuiteResult:
    """Brute-force tame enumeration equals the image formulas, inside closures."""
    res = SuiteResult("oracle-agreement", seed, {})
    res.notes.append(WILD_PRIME_NOTE)
    failures = 0
    total = 0
    for R in _oracle_zoo():
        for E in _every_subset(R):
            for kind, image_op, closure_op in (
                (products.QUOTIENT, products.quotient_product_image, top.zariski_closure),
                (products.LOCAL, products.local_product_image, top.flat_closure),
            ):
                total += 1
                formula = image_op(E)
                oracle = products.brute_force_image(E, kind)
                cl = closure_op(E)
                if formula != oracle or not sp.subset_le(formula, cl) or not sp.subset_le(E, formula):
                    failures += 1
                    _case(
                        res,
                        f"{R}-{kind}-{sp.subset_str(E)}",
                        "oracle == formula inside closure",
                        True,
                        False,
                    )
    _case(res, "all-cases", f"{total} (ring, subset, kind) triples", 0, failures)
    return res


SUITES = {
    "finite-closure": suite_finite_closure,
    "remark-v5": suite_remark_v5,
    "remark-flat": suite_remark_flat,
    "supplement": suite_supplement,
    "nilradical-product": suite_nilradical_product,
    "lying-over": suite_lying_over,
    "pz": suite_pz,
    "density": suite_density,
    "closure-axioms": suite_closure_axioms,
    "oracle-agreement": suite_oracle_agreement,
}


def run_suite(name: str, seed: int = 0) -> SuiteResult:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; known: {', '.join(sorted(SUITES))}")
    return SUITES[name](seed=seed)
