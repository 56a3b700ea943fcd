from itertools import combinations
from random import Random

import pytest

from conftest import (
    AXES_F2,
    AXES_Q,
    F2,
    F2X,
    SUPP3,
    enumerable_zoo,
    random_infinite_subset,
    random_symbolic_subset,
    symbolic_zoo,
)
from spectop import construction, rings
from spectop import spectrum as sp
from spectop import topology as top
from spectop.errors import NonEnumerableError
from spectop.spectrum import SuppMin, SuppTop, ZGeneric, ZMax


# ---------------------------------------------------------------------------
# Closure rules
# ---------------------------------------------------------------------------


def test_zariski_examples():
    assert top.zariski_closure(sp.explicit(rings.ZZ, {ZGeneric()})) == sp.whole(rings.ZZ)
    E = sp.cofinite(rings.ZZ, {ZMax(2), ZMax(3)}, False)
    assert top.zariski_closure(E) == sp.whole(rings.ZZ)
    E2 = sp.cofinite(AXES_F2, {SuppMin(1)}, False)
    assert top.zariski_closure(E2) == sp.cofinite(AXES_F2, {SuppMin(1)}, True)


def test_flat_examples():
    E = sp.explicit(rings.ZZ, {ZMax(5)})
    assert top.flat_closure(E) == sp.explicit(rings.ZZ, {ZGeneric(), ZMax(5)})
    E2 = sp.cofinite(AXES_F2, {SuppMin(2)}, False)
    assert top.flat_closure(E2) == sp.whole(AXES_F2)
    E3 = sp.explicit(AXES_F2, {SuppMin(1), SuppMin(3)})
    assert top.flat_closure(E3) == E3
    # Brute force on the concrete three-axes ring: down closure fixes a
    # set of minimal primes.
    mins = [p for p in sp.spec_points(SUPP3) if len(p.cover) == 2]
    E4 = sp.explicit(SUPP3, mins[:2])
    assert top.flat_closure(E4) == E4


def test_patch_examples():
    R = rings.zmod(12)
    for k in range(3):
        for sub in combinations(sp.spec_points(R), k):
            E = sp.explicit(R, sub)
            assert top.patch_closure(E) == E
    E = sp.cofinite(rings.ZZ, {ZMax(11)}, False)
    assert top.patch_closure(E) == sp.cofinite(rings.ZZ, {ZMax(11)}, True)
    assert top.patch_closure(sp.empty_set(rings.ZZ)) == sp.empty_set(rings.ZZ)


def test_stability_examples():
    E = sp.cofinite(rings.ZZ, {ZMax(11)}, False)
    assert top.is_stable(E, top.SPECIALIZATION)
    assert not top.is_stable(E, top.GENERALIZATION)
    E2 = sp.explicit(AXES_F2, {SuppMin(1), SuppTop()})
    assert not top.is_stable(E2, top.GENERALIZATION)
    # Same shape on the concrete three-axes ring, by brute force over the
    # four-point poset: P_2 below the maximal ideal is missing.
    P1 = sp.MonoPrime(frozenset({2, 3}))
    m = sp.MonoPrime(frozenset({1, 2, 3}))
    E_conc = sp.explicit(SUPP3, {P1, m})
    assert not top.is_stable(E_conc, top.GENERALIZATION)
    assert top.is_stable(E_conc, top.SPECIALIZATION)
    # With the generic point present, excluded closed points break
    # stability under specialization.
    E3 = sp.cofinite(rings.ZZ, {ZMax(11)}, True)
    assert not top.is_stable(E3, top.SPECIALIZATION)


def test_density_examples():
    E = sp.cofinite(rings.ZZ, {ZMax(3)}, False)
    assert top.is_dense(E, top.ZARISKI)
    E2 = sp.explicit(rings.zmod(12), {sp.ZmodPrime(2)})
    assert not top.is_dense(E2, top.ZARISKI)
    E3 = sp.cofinite(AXES_F2, {SuppMin(4)}, False)
    assert top.is_dense(E3, top.FLAT)
    assert not top.is_dense(E3, top.ZARISKI)


# ---------------------------------------------------------------------------
# Axioms and characterizations
# ---------------------------------------------------------------------------


def test_closure_axioms_random_pairs(rng):
    for R in symbolic_zoo():
        for _ in range(170):
            E = random_symbolic_subset(R, rng)
            F = sp.subset_union(E, random_symbolic_subset(R, rng))
            for t in top.TOPOLOGIES:
                clE = top.closure(E, t)
                assert sp.subset_le(E, clE)
                assert top.closure(clE, t) == clE
                assert sp.subset_le(clE, top.closure(F, t))


def test_closure_axioms_enumerable_exhaustive():
    for R in enumerable_zoo():
        pts = sp.spec_points(R)
        if len(pts) > 8:
            continue
        for k in range(len(pts) + 1):
            for sub in combinations(pts, k):
                E = sp.explicit(R, sub)
                for t in top.TOPOLOGIES:
                    clE = top.closure(E, t)
                    assert sp.subset_le(E, clE)
                    assert top.closure(clE, t) == clE


def test_patch_inside_both(rng):
    for R in symbolic_zoo():
        for _ in range(80):
            E = random_symbolic_subset(R, rng)
            gamma = top.patch_closure(E)
            assert sp.subset_le(gamma, top.zariski_closure(E))
            assert sp.subset_le(gamma, top.flat_closure(E))
    for R in enumerable_zoo():
        pts = sp.spec_points(R)
        for k in range(len(pts) + 1):
            for sub in combinations(pts, k):
                E = sp.explicit(R, sub)
                gamma = top.patch_closure(E)
                assert sp.subset_le(gamma, top.zariski_closure(E))
                assert sp.subset_le(gamma, top.flat_closure(E))


def test_characterization_finite_exhaustive():
    # Closed in a spectral topology = patch closed + the right stability.
    for R in enumerable_zoo():
        pts = sp.spec_points(R)
        if len(pts) > 8:
            continue
        for k in range(len(pts) + 1):
            for sub in combinations(pts, k):
                E = sp.explicit(R, sub)
                patch_fixed = top.patch_closure(E) == E
                z = top.zariski_closure(E) == E
                assert z == (patch_fixed and top.is_stable(E, top.SPECIALIZATION))
                f = top.flat_closure(E) == E
                assert f == (patch_fixed and top.is_stable(E, top.GENERALIZATION))


def test_characterization_symbolic(rng):
    for R in symbolic_zoo():
        for _ in range(170):
            E = random_symbolic_subset(R, rng)
            patch_fixed = top.patch_closure(E) == E
            z = top.zariski_closure(E) == E
            assert z == (patch_fixed and top.is_stable(E, top.SPECIALIZATION))
            f = top.flat_closure(E) == E
            assert f == (patch_fixed and top.is_stable(E, top.GENERALIZATION))


def test_finite_formula_on_integers(rng):
    # Closure of a finite set of maximal ideals is the vanishing locus of
    # the product, i.e. of a generator of the intersection.
    primes = (2, 3, 5, 7, 11, 13, 17, 19)
    for _ in range(60):
        chosen = [ZMax(p) for p in rng.sample(primes, rng.randint(1, 4))]
        E = sp.explicit(rings.ZZ, chosen)
        meet = rings.ideal_intersect_all(
            [sp.point_ideal(p, rings.ZZ) for p in chosen], rings.ZZ
        )
        assert top.zariski_closure(E) == sp.v_locus(meet.gen, rings.ZZ)


# ---------------------------------------------------------------------------
# Density criteria
# ---------------------------------------------------------------------------


def test_density_criterion_holds_sides(rng):
    for R, mode in ((rings.ZZ, top.ZARISKI), (F2X, top.ZARISKI), (AXES_F2, top.FLAT)):
        cert = top.density_criterion(R, mode)
        assert cert.holds
        for _ in range(50):
            E = random_infinite_subset(R, rng)
            assert top.is_dense(E, mode)


def test_density_criterion_failure_witnesses():
    for R, mode in ((rings.ZZ, top.FLAT), (F2X, top.FLAT), (AXES_F2, top.ZARISKI)):
        cert = top.density_criterion(R, mode)
        assert not cert.holds
        assert cert.witness is not None
        locus = (
            sp.v_locus(cert.witness, R)
            if mode == top.ZARISKI
            else sp.d_locus(cert.witness, R)
        )
        assert locus.cofinite
        assert not top.is_dense(locus, mode)
        if mode == top.ZARISKI:
            assert not rings.is_nilpotent(cert.witness, R)
        else:
            assert not rings.is_unit(cert.witness, R)


def test_density_criterion_finite_spectrum():
    for R in (rings.zmod(12), rings.prime_field(7), SUPP3):
        for mode in (top.ZARISKI, top.FLAT):
            cert = top.density_criterion(R, mode)
            assert cert.holds and cert.rationale == top.FINITE_SPECTRUM


def test_up_down_sets_match_singleton_closures():
    # The up (down) set of a point, its order closure, is the Zariski
    # (flat) closure of the one-point set.
    for R in enumerable_zoo():
        for p in sp.spec_points(R):
            single = sp.explicit(R, {p})
            assert top.order_closure(single, up=True) == top.zariski_closure(single)
            assert top.order_closure(single, up=False) == top.flat_closure(single)


@pytest.fixture
def rng():
    return Random(31)


def test_symbolic_axes_closures_match_concrete_model(rng):
    # For a finite set of axes points, the symbolic rules must agree with
    # honest order-theoretic closures in a concrete n-axes ring large
    # enough to hold every index in play.
    from spectop import construction

    N = 6
    concrete = construction.build_supplement(F2, N)
    full = frozenset(range(1, N + 1))

    def to_concrete(point):
        if isinstance(point, SuppTop):
            return sp.MonoPrime(full)
        return sp.MonoPrime(full - {point.k})

    for _ in range(120):
        pts = set()
        for _ in range(rng.randint(0, 4)):
            pts.add(SuppMin(rng.randint(1, 5)))
        if rng.random() < 0.3:
            pts.add(SuppTop())
        sym = sp.explicit(AXES_F2, pts)
        conc = sp.explicit(concrete, {to_concrete(p) for p in pts})
        for t in top.TOPOLOGIES:
            sym_cl = top.closure(sym, t)
            conc_cl = top.closure(conc, t)
            if sym_cl == sp.whole(AXES_F2):
                expected = sp.whole(concrete)
            else:
                expected = sp.explicit(
                    concrete, {to_concrete(p) for p in sp.subset_points(sym_cl)}
                )
            assert conc_cl == expected, (t, sp.subset_str(sym))


# ---------------------------------------------------------------------------
# Explicit closures against the order, and the spectrum memo
# ---------------------------------------------------------------------------


def _subsets(pts, rng):
    """Every subset of a spectrum of at most six points, else a seeded sample."""
    if len(pts) <= 6:
        return [sub for k in range(len(pts) + 1) for sub in combinations(pts, k)]
    return [rng.sample(pts, rng.randint(0, len(pts))) for _ in range(64)]


def test_explicit_closures_are_brute_force_order_closures():
    rng = Random(7)
    for R in enumerable_zoo():
        pts = sp.spec_points(R)
        for sub in _subsets(pts, rng):
            E = sp.explicit(R, sub)
            up = {q for q in pts if any(R._leq(p, q) for p in sub)}
            down = {q for q in pts if any(R._leq(q, p) for p in sub)}
            assert top.zariski_closure(E) == sp.explicit(R, up), (str(R), sub)
            assert top.flat_closure(E) == sp.explicit(R, down), (str(R), sub)


def test_spec_points_hands_out_a_copy():
    for R in enumerable_zoo():
        pts = sp.spec_points(R)
        ups = {p: R.reach(frozenset((p,)), True) for p in pts}
        whole = sp.whole(R)
        mutated = sp.spec_points(R)
        mutated.reverse()
        mutated.append(mutated[0])
        assert sp.spec_points(R) == pts
        assert sp.whole(R) == whole
        assert {p: R.reach(frozenset((p,)), True) for p in pts} == ups
        mutated.clear()
        assert sp.spec_points(R) == pts
        assert sp.whole(R) == whole


def test_positive_dim_quotient_refuses_on_every_call():
    R = rings.monomial_quotient(F2, 3, {(1, 1)})
    for _ in range(3):
        with pytest.raises(NonEnumerableError):
            sp.spec_points(R)
        with pytest.raises(NonEnumerableError):
            R.reach(frozenset((sp.MonoPrime(frozenset({1})),)), True)


def test_zero_dimensional_rings_build_no_order_table():
    # Z/n and the fields answer order questions without an order table,
    # so a sweep over many one-off Z/n builds none.
    for R in (rings.zmod(210), rings.zmod(8), rings.prime_field(5), rings.QQ):
        for p in sp.spec_points(R):
            assert R.reach(frozenset((p,)), True) == R.reach(frozenset((p,)), False) == {p}
            assert R.is_minimal_prime(p)
        assert "_order_table" not in vars(R)
    # A ring of positive dimension builds its table on first use.
    R = rings.localized(rings.monomial_quotient(F2, 2, {(1, 1)}))
    assert "_order_table" not in vars(R)
    R.reach(frozenset(sp.spec_points(R)[:1]), True)
    assert "_order_table" in vars(R)


SCANNED_SYMBOLIC = [rings.ZZ, F2X, AXES_F2, AXES_Q]


def _scan_sample(R):
    """The spectrum of an enumerable ring; over a symbolic one, the limit
    and at least three points of the family."""
    if R.is_enumerable():
        return sp.spec_points(R)
    pts = set(sp.sample_points(R, Random(11), 24)) | {R.limit}
    assert len(pts) >= 4, str(R)
    return sp.sorted_points(pts)


def test_order_table_matches_a_brute_force_scan():
    for R in enumerable_zoo() + SCANNED_SYMBOLIC:
        pts = _scan_sample(R)
        for p in pts:
            up = {q for q in pts if R._leq(p, q)}
            down = {q for q in pts if R._leq(q, p)}
            for upward, scan in ((True, up), (False, down)):
                got = R.reach(frozenset((p,)), upward)
                if got is None:
                    # None is every point: only from the limit, toward the family.
                    assert p == R.limit and R.limit_above != upward, (str(R), p)
                    assert scan == set(pts), (str(R), p)
                else:
                    assert got == scan, (str(R), p)
            minimal = not any(q != p and R._leq(q, p) for q in pts)
            assert R.is_minimal_prime(p) == minimal, (str(R), p)


def test_symbolic_locus_matches_membership():
    rng = Random(12)
    for R in SCANNED_SYMBOLIC:
        pts = _scan_sample(R)
        for r in rings.sample_elements(R, rng, 40) + [rings.zero(R), rings.one(R)]:
            V = sp.v_locus(r, R)
            for p in pts:
                assert sp.subset_member(p, V) == R._contains(p, r), (str(R), r, p)
