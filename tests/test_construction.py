import hashlib
from itertools import combinations
from random import Random

import pytest

from conftest import AXES_F2, AXES_Q, F2, F2X, F3, enumerable_zoo, symbolic_zoo
from spectop import construction as con
from spectop import covers, jsonio, rings, values
from spectop import spectrum as sp
from spectop import topology as top
from spectop.errors import BadArityError, KindMismatchError, TooManyVarsError
from spectop.spectrum import FpxMax, MonoPrime, SuppMin, ZMax


def _pair_gens(n):
    """The exponent tuples of the products x_i x_k with i < k <= n."""
    return frozenset(
        tuple(int(j in (i, k)) for j in range(k + 1)) for i, k in combinations(range(n), 2)
    )


def test_build_supplement_generators():
    R = con.build_supplement(F2, 3)
    assert {rings.mask_to_exp(g) for g in R.inner.gens} == {(1, 1), (1, 0, 1), (0, 1, 1)}
    R2 = con.build_supplement(rings.QQ, 2)
    assert {rings.mask_to_exp(g) for g in R2.inner.gens} == {(1, 1)}


def test_build_supplement_degenerate():
    R = con.build_supplement(F2, 1)
    assert con.supplement_is_degenerate(1)
    assert R.inner.gens == frozenset()
    with pytest.raises(BadArityError):
        con.build_supplement(F2, 0)


def test_minimal_primes_supplement():
    got = set(con.minimal_primes_monomial(_pair_gens(3), 3))
    assert got == {
        MonoPrime(frozenset({2, 3})),
        MonoPrime(frozenset({1, 3})),
        MonoPrime(frozenset({1, 2})),
    }


def test_minimal_primes_small_cases():
    assert set(con.minimal_primes_monomial({(1, 1)}, 2)) == {
        MonoPrime(frozenset({1})),
        MonoPrime(frozenset({2})),
    }
    assert con.minimal_primes_monomial({(1,)}, 2) == [MonoPrime(frozenset({1}))]


def test_minimal_primes_oracle_agreement(rng):
    # The branching enumeration equals the 2^n subset scan on random
    # square-free ideals.
    for _ in range(100):
        nvars = rng.randint(1, 10)
        gens = set()
        for _ in range(rng.randint(1, 4)):
            g = tuple(rng.randint(0, 1) for _ in range(nvars))
            if any(g):
                gens.add(g)
        if not gens:
            continue
        edges = [rings.exp_to_mask(g) for g in gens]
        fast = covers.minimal_covers(edges)
        slow = covers.brute_force_minimal_covers(edges, nvars)
        assert fast == slow


@pytest.mark.parametrize(
    "gens, check",
    [({(0, 0, 1)}, True), ({(0, 0, 1)}, False), ({()}, True)],
    ids=["x3-in-2-vars-oracle", "x3-in-2-vars-no-oracle", "unit"],
)
def test_minimal_primes_refuses_bad_generators(gens, check):
    # x3 in a 2-variable ring, and the unit ideal, which has no primes.
    with pytest.raises(KindMismatchError):
        con.minimal_primes_monomial(gens, 2, check=check)


def _support_sets(n):
    return [frozenset(i + 1 for i in range(n) if m >> i & 1) for m in range(1 << n)]


def _hypergraphs(n, rng):
    """Every edge set for n <= 3, every graph for n <= 5, else 60 random
    hypergraphs; edges are nonempty masks, the empty edge set included."""
    nonempty = range(1, 1 << n)
    pairs = [1 << i | 1 << j for i, j in combinations(range(n), 2)]
    if n <= 5:
        pool = nonempty if n <= 3 else pairs
        return [[e for i, e in enumerate(pool) if k >> i & 1] for k in range(1 << len(pool))]
    return [rng.sample(nonempty, rng.randint(0, 8)) for _ in range(60)]


@pytest.mark.parametrize("n", range(1, 8))
def test_cover_oracle_meets_the_definition(n, rng):
    # Against the definition, over every subset of the n vertices: each
    # returned set meets every edge, loses that property when any one of
    # its vertices is dropped, and every cover contains a returned set.
    subsets = _support_sets(n)
    for masks in _hypergraphs(n, rng):
        edges = [subsets[e] for e in masks]
        got = [rings.mask_support(c) for c in covers.brute_force_minimal_covers(masks, n)]
        for c in got:
            assert all(e & c for e in edges)
            assert all(any(not e & (c - {v}) for e in edges) for v in c)
        for s in subsets:
            if all(e & s for e in edges):
                assert any(c <= s for c in got)
        assert covers.minimal_covers(masks) == covers.brute_force_minimal_covers(masks, n)


def ref_minimal_covers(edges, nvars):
    """The plain scan: every mask below 2^nvars, one at a time."""
    edges = set(edges)

    def is_cover(m):
        return all(e & m for e in edges)

    found = [
        m
        for m in range(1 << nvars)
        if is_cover(m)
        and not any(m >> i & 1 and is_cover(m & ~(1 << i)) for i in range(nvars))
    ]
    return sorted(found, key=lambda m: (m.bit_count(), [i for i in range(nvars) if m >> i & 1]))


@pytest.mark.parametrize("n", range(0, 13))
def test_bit_parallel_oracle_matches_the_plain_scan(n, rng):
    # Every edge set for n <= 3, every graph for n <= 5, and seeded
    # hypergraphs above that, some with repeated edges.
    if n <= 5:
        families = _hypergraphs(n, rng)
    else:
        nonempty = range(1, 1 << n)
        families = [rng.choices(nonempty, k=rng.randint(0, 10)) for _ in range(12)]
    for edges in families:
        assert covers.brute_force_minimal_covers(edges, n) == ref_minimal_covers(edges, n)


@pytest.mark.parametrize(
    "edges, nvars",
    [
        ([], 0),
        ([], 1),
        ([], 4),
        ([0], 0),
        ([0], 3),
        ([0b101, 0], 3),
        ([1], 0),
        ([1], 1),
        ([0b10], 1),
        ([0b11, 0b11, 0b11], 2),
        ([0b110, 0b011, 0b110, 0b011], 3),
        ([0b1001, 0b1_0000], 4),
    ],
    ids=[
        "no-edges-0", "no-edges-1", "no-edges-4", "empty-edge-0", "empty-edge-3",
        "empty-edge-beside-another", "x1-in-0-vars", "x1-in-1-var", "x2-in-1-var",
        "repeated-edge", "repeated-edges", "edge-beyond-nvars",
    ],
)
def test_bit_parallel_oracle_edge_cases(edges, nvars):
    # No edges: only the empty set.  The empty edge: no cover at all.
    # Bits at or above nvars meet no vertex set.
    assert covers.brute_force_minimal_covers(edges, nvars) == ref_minimal_covers(edges, nvars)


def test_minimal_primes_with_the_oracle_at_its_bound():
    # The 20-variable pair ideal, checked against the oracle, gives the
    # 20 axis primes; 21 variables are refused before any search.
    n = covers.ORACLE_VAR_BOUND
    full = frozenset(range(1, n + 1))
    got = con.minimal_primes_monomial(_pair_gens(n), n, check=True)
    assert got == [MonoPrime(full - {k}) for k in range(n, 0, -1)]
    with pytest.raises(TooManyVarsError):
        con.minimal_primes_monomial(_pair_gens(n + 1), n + 1, check=True)


def test_cover_search_takes_covers_of_any_size():
    # 1,200 singleton edges force one cover of 1,200 vertices; the search
    # keeps its branches on a stack, so no recursion limit is reached.
    edges = [1 << i for i in range(1200)]
    assert covers.minimal_covers(edges) == [(1 << 1200) - 1]


def test_minimal_primes_var_bound():
    with pytest.raises(TooManyVarsError):
        con.minimal_primes_monomial({(1,) * 21}, 21)
    con.minimal_primes_monomial({(1,) * 21}, 21, check=False)


def test_verify_intersection_small_n():
    # The identity reads masks only, so it takes no field.
    con.verify_intersection.cache_clear()
    for n in (1, 2, 3, 4, 5):
        assert con.verify_intersection(n)


def test_axes_fold_passes_quadratically_many_masks(monkeypatch):
    # The balanced fold at n = 128 hands _minimal_masks 31,168 masks in
    # all; a left fold, whose meet after k steps holds all k(k-1)/2
    # pairs, hands it 357,505.
    n = con.AXES_N_BOUND
    passed = []
    minimal_masks = values._minimal_masks

    def counting(masks):
        masks = set(masks)
        passed.append(len(masks))
        return minimal_masks(masks)

    monkeypatch.setattr(values, "_minimal_masks", counting)
    con.verify_intersection.cache_clear()  # so the fold runs here
    assert con.verify_intersection(n)
    assert passed
    assert sum(passed) <= 4 * n * n


def test_verify_intersection_brute_force_membership():
    # Independent oracle at n = 3: a square-free monomial lies in the
    # intersection of the axis primes exactly when it lies in the pair
    # ideal.
    amb = rings.monomial_quotient(F2, 3, frozenset())
    pair_ideal = rings.monomial_ideal(_pair_gens(3))
    axis = [
        rings.monomial_ideal({(0,) * (i - 1) + (1,) for i in range(1, 4) if i != k})
        for k in range(1, 4)
    ]
    for bits in range(1, 8):
        exps = tuple((bits >> i) & 1 for i in range(3))
        m = amb.reduce_terms([(1, exps)])
        in_all = all(rings.ideal_member(I, m, amb) for I in axis)
        assert in_all == rings.ideal_member(pair_ideal, m, amb)


def test_krull_dim_examples():
    assert con.krull_dim(con.build_supplement(F3, 5)) == 1
    assert con.krull_dim(rings.zmod(12)) == 0
    assert con.krull_dim(rings.monomial_quotient(F2, 3, {(1, 1)})) == 2
    assert con.krull_dim(rings.ZZ) == 1
    assert con.krull_dim(rings.QQ) == 0
    # A product's spectrum is the disjoint union of its factors', so its
    # dimension is the largest factor's, symbolic or not enumerable alike.
    assert con.krull_dim(rings.product(rings.ZZ, rings.zmod(6))) == 1
    quotient = rings.monomial_quotient(F2, 3, {(1, 1)})
    assert con.krull_dim(rings.product(quotient, rings.zmod(4))) == 2


def test_krull_dim_chain_oracle():
    # The combinatorial formula matches chain search among monomial
    # primes of K[x1..x3]/(x1 x2): (x1) < (x1, x2) < (x1, x2, x3).
    R = rings.monomial_quotient(F2, 3, {(1, 1)})
    covers_all = [
        frozenset(c)
        for bits in range(8)
        for c in [{i + 1 for i in range(3) if (bits >> i) & 1}]
        if all(rings.mask_support(g) & frozenset(c) for g in R.gens)
    ]
    longest = 0
    for a in covers_all:
        for b in covers_all:
            for c in covers_all:
                if a < b < c:
                    longest = max(longest, 2)
    assert longest == con.krull_dim(R)


def _longest_chain(R):
    """Brute force: the longest strict chain under leq_specialization."""
    pts = sp.spec_points(R)
    length = dict.fromkeys(pts, 0)
    for _ in pts:
        for q in pts:
            for p in pts:
                if p != q and sp.leq_specialization(p, q, R):
                    length[q] = max(length[q], length[p] + 1)
    return max(length.values())


@pytest.mark.parametrize("R", enumerable_zoo() + symbolic_zoo(), ids=str)
def test_krull_dim_is_the_rings_own_rule(R):
    assert R.krull_dim() == con.krull_dim(R)
    if R.is_enumerable():
        assert R.krull_dim() == _longest_chain(R)


# Localized monomial quotients beside the supplement's generator sets:
# degree-1 generators, a path, a triangle and dimension 0.
LOCALIZED_ZOO = [
    rings.localized(rings.monomial_quotient(K, n, gens))
    for K, n, gens in [
        (F2, 1, ()),
        (F2, 2, {(1,)}),
        (F3, 2, {(1,), (0, 1)}),
        (F2, 3, {(1,), (0, 1, 1)}),
        (rings.QQ, 3, {(1, 1), (0, 1, 1), (1, 0, 1)}),
        (F2, 3, {(1,), (0, 1)}),
        (F2, 4, {(1,), (0, 1, 1), (0, 1, 0, 1), (0, 0, 1, 1)}),
    ]
]


@pytest.mark.parametrize("R", LOCALIZED_ZOO, ids=str)
def test_localized_krull_dim_is_the_longest_chain(R):
    assert R.krull_dim() == con.krull_dim(R) == _longest_chain(R)


# The text and wire form of each ring of LOCALIZED_ZOO, in order: the wire
# form names the quotient before localizing under "inner".
LOCALIZED_TEXT = [
    ("(F_2[x1..x1]/(0))_m", '{"field":{"kind":"Fp","p":2},"gens":[],"kind":"MonomialQuotient","nvars":1}'),
    ("(F_2[x1..x2]/(x1))_m",
     '{"field":{"kind":"Fp","p":2},"gens":[[1,0]],"kind":"MonomialQuotient","nvars":2}'),
    ("(F_3[x1..x2]/(x2,x1))_m",
     '{"field":{"kind":"Fp","p":3},"gens":[[0,1],[1,0]],"kind":"MonomialQuotient","nvars":2}'),
    ("(F_2[x1..x3]/(x2*x3,x1))_m",
     '{"field":{"kind":"Fp","p":2},"gens":[[0,1,1],[1,0,0]],"kind":"MonomialQuotient","nvars":3}'),
    ("(Q[x1..x3]/(x2*x3,x1*x3,x1*x2))_m",
     '{"field":{"kind":"Q"},"gens":[[0,1,1],[1,0,1],[1,1,0]],"kind":"MonomialQuotient","nvars":3}'),
    ("(F_2[x1..x3]/(x2,x1))_m",
     '{"field":{"kind":"Fp","p":2},"gens":[[0,1,0],[1,0,0]],"kind":"MonomialQuotient","nvars":3}'),
    ("(F_2[x1..x4]/(x3*x4,x2*x4,x2*x3,x1))_m",
     '{"field":{"kind":"Fp","p":2},"gens":[[0,0,1,1],[0,1,0,1],[0,1,1,0],[1,0,0,0]],'
     '"kind":"MonomialQuotient","nvars":4}'),
]


@pytest.mark.parametrize(
    "R, text, inner",
    [(R, *t) for R, t in zip(LOCALIZED_ZOO, LOCALIZED_TEXT)],
    ids=[t for t, _ in LOCALIZED_TEXT],
)
def test_localized_ring_keeps_its_quotient_text_and_wire_form(R, text, inner):
    assert rings.localized(R.inner) == R
    assert (R.field, R.nvars, R.gens) == (R.inner.field, R.inner.nvars, R.inner.gens)
    assert str(R) == text
    wire = f'{{"inner":{inner},"kind":"LocalizedAtIrrelevant"}}'
    assert jsonio.dumps_canonical(jsonio.ring_to_json(R)) == wire
    assert jsonio.ring_from_json(jsonio.ring_to_json(R)) == R


def test_pz_examples():
    assert con.absorbance_holds(sp.whole(con.build_supplement(F2, 4)))
    assert con.absorbance_holds(sp.whole(rings.zmod(30)))
    for R in enumerable_zoo():
        if len(sp.spec_points(R)) <= 7:
            assert con.absorbance_holds(sp.whole(R))


def test_pz_witness_consistency():
    # The intersection of two axis primes sits inside the first one, and
    # indeed a member of the family sits below it.
    R = con.build_supplement(F2, 3)
    p1 = MonoPrime(frozenset({2, 3}))
    p2 = MonoPrime(frozenset({1, 3}))
    assert sp.leq_specialization(p1, p1, R)


def test_cp_on_zmod_and_exact_fragment():
    for n in (8, 12, 30, 210):
        assert con.avoidance_holds(sp.whole(rings.zmod(n)))


def test_chains_pass_both_checks():
    ambient = rings.monomial_quotient(F2, 5, frozenset())
    for length in range(1, 6):
        chain = [MonoPrime(frozenset(range(1, j + 1))) for j in range(1, length + 1)]
        assert con.absorbance_holds(sp.explicit(ambient, chain))
        assert con.avoidance_holds(sp.explicit(ambient, chain))


def test_is_reduced_examples():
    assert con.is_reduced(con.build_supplement(F2, 3))
    assert not con.is_reduced(rings.zmod(12))
    assert con.is_reduced(rings.zmod(30))
    assert con.is_reduced(rings.product(rings.zmod(30), rings.prime_field(3)))
    assert not con.is_reduced(rings.product(rings.zmod(4), rings.zmod(3)))


def test_supplement_theorem_small_range():
    for K in (F2, F3, rings.QQ):
        for n in range(2, 6):
            rep = con.supplement_report(K, n)
            assert rep.all_ok
            assert not rep.degenerate
            assert len(rep.minimal_primes) == n


def test_supplement_statements_at_the_bound():
    # The paper's four statements at the largest n the report admits.
    n = con.AXES_N_BOUND
    rep = con.supplement_report(F2, n, check=False)
    full = frozenset(range(1, n + 1))
    assert rep.all_ok and rep.intersection_ok and rep.reduced and rep.pz_ok
    assert set(rep.minimal_primes) == {MonoPrime(full - {k}) for k in full}
    assert len(rep.minimal_primes) == n
    assert rep.dim == 1


def test_supplement_bound_is_checked_before_building(monkeypatch):
    def build(*args):
        raise AssertionError("the ring was built")

    monkeypatch.setattr(rings, "mask_quotient", build)
    monkeypatch.setattr(rings, "monomial_quotient", build)
    for check in (True, False):
        with pytest.raises(TooManyVarsError):
            con.supplement_report(F2, con.AXES_N_BOUND + 1, check=check)
    with pytest.raises(TooManyVarsError):
        con.verify_intersection(con.AXES_N_BOUND + 1)


def test_supplement_runs_one_cover_search():
    # The minimal primes and the dimension that krull_dim reads share one
    # memo entry, keyed on the generator masks; the spectrum and order
    # tables live on the report's own ring.
    rings.minimal_cover_masks.cache_clear()
    rep = con.supplement_report(F3, 6)
    assert rep.all_ok
    info = rings.minimal_cover_masks.cache_info()
    assert (info.misses, info.currsize) == (1, 1)
    assert info.hits >= 1


def _clear_axes_memos():
    for memo in (con.verify_intersection, con._covers_match_oracle, rings.minimal_cover_masks):
        memo.cache_clear()


def _without_field(rep):
    return {name: getattr(rep, name) for name in rep._fields if name != "field"}


@pytest.mark.parametrize("order", [1, -1], ids=["F2-first", "Q-first"])
def test_every_field_reads_the_same_axes_facts(order):
    # The memos carry no field: from cleared memos, each field's report
    # equals the first field's but for the field's name, whichever field
    # fills the memos, and the memoized identity is the computed one.
    fields = [F2, F3, rings.prime_field(5), rings.QQ][::order]
    _clear_axes_memos()
    for n, check in [(n, True) for n in range(1, 13)] + [(64, False)]:
        first, *rest = [con.supplement_report(K, n, check=check) for K in fields]
        assert first.all_ok and first.field == str(fields[0])
        assert first.intersection_ok == con.verify_intersection.__wrapped__(n)
        for K, rep in zip(fields[1:], rest):
            assert rep.field == str(K)
            assert _without_field(rep) == _without_field(first), (n, str(K))


def test_a_refused_axes_n_raises_on_every_call():
    # A call that raises leaves no memo entry.
    _clear_axes_memos()
    for _ in range(2):
        with pytest.raises(TooManyVarsError):
            con.verify_intersection(con.AXES_N_BOUND + 1)
        for K in (F2, rings.QQ):
            with pytest.raises(TooManyVarsError):
                con.supplement_report(K, con.AXES_N_BOUND + 1, check=False)
            with pytest.raises(TooManyVarsError):
                con.supplement_report(K, covers.ORACLE_VAR_BOUND + 1)
    assert con.verify_intersection.cache_info().currsize == 0
    assert con._covers_match_oracle.cache_info().currsize == 0


def test_a_disagreeing_oracle_fails_every_report(monkeypatch):
    # The remembered verdict is the oracle's, so a disagreement found once
    # fails every field's report, not only the first.
    monkeypatch.setattr(covers, "brute_force_minimal_covers", lambda edges, nvars: [])
    _clear_axes_memos()
    try:
        for K in (F2, F3, rings.QQ):
            with pytest.raises(AssertionError, match="disagrees with the subset oracle"):
                con.supplement_report(K, 4)
        assert con._covers_match_oracle.cache_info().misses == 1
    finally:
        _clear_axes_memos()


def test_supplement_degenerate_report():
    rep = con.supplement_report(F2, 1)
    assert rep.degenerate
    assert rep.dim == 1
    assert rep.reduced
    assert rep.minimal_primes == (MonoPrime(frozenset()),)


def test_duality_sanity_in_axes_ring():
    for n in range(2, 6):
        R = con.build_supplement(F2, n)
        full = frozenset(range(1, n + 1))
        for k in range(1, n + 1):
            P_k = MonoPrime(full - {k})
            single = sp.explicit(R, {P_k})
            assert top.zariski_closure(single) == sp.explicit(
                R, {P_k, MonoPrime(full)}
            )
            assert top.flat_closure(single) == single


@pytest.fixture
def rng():
    return Random(37)


# ---------------------------------------------------------------------------
# Absorbance against a brute force over every subfamily, with no shared
# prefixes and no short-circuit.
# ---------------------------------------------------------------------------


def _brute_absorbance(points, R):
    """Every nonempty F and every q: the meet of F lies in q exactly when
    some member of F does (the converse is trivial, so both directions
    are checked); the verdict is whether the forward direction held."""
    ideals = [sp.point_ideal(p, R) for p in points]
    holds = True
    for size in range(1, len(points) + 1):
        for F in combinations(range(len(points)), size):
            meet = rings.ideal_intersect_all([ideals[i] for i in F], R)
            for j, q in enumerate(points):
                inside = rings.ideal_contains(ideals[j], meet, R)
                member = any(sp.leq_specialization(points[i], q, R) for i in F)
                assert member <= inside
                holds = holds and inside <= member
    return holds


ABSORBANCE_RINGS = [
    con.build_supplement(K, n) for K in (F2, rings.QQ) for n in range(2, 6)
] + [rings.zmod(n) for n in (12, 30, 36)]


@pytest.mark.parametrize("R", ABSORBANCE_RINGS, ids=str)
def test_absorbance_matches_brute_force(R):
    pts = sp.spec_points(R)
    for size in range(1, len(pts) + 1):
        for family in combinations(pts, size):
            family = list(family)
            want = _brute_absorbance(family, R)
            assert con.absorbance_holds(sp.explicit(R, family)) == want
            assert con.absorbance_holds(sp.explicit(R, family[::-1])) == want
    assert con.absorbance_holds(sp.whole(R))


# ---------------------------------------------------------------------------
# The infinite families where a statement fails, with the witness checked
# from the definition and without closures: the sets of the cofinite grid
# that leave out the limit point.
# ---------------------------------------------------------------------------


def _without_limit(R, pts):
    return [sp.cofinite(R, pts[:n], False) for n in range(3)]


@pytest.mark.parametrize(
    "R, pts",
    [(rings.ZZ, (ZMax(2), ZMax(3))), (F2X, (FpxMax((0, 1)), FpxMax((1, 1))))],
    ids=["Z", "F2x"],
)
def test_absorbance_fails_with_witness_zero(R, pts, rng):
    zero_ideal = R.limit
    for E in _without_limit(R, pts):
        assert not con.absorbance_holds(E)
        # (0) contains the intersection of E: no nonzero element lies in
        # every member ...
        for a in rings.sample_elements(R, rng, 40):
            if a != rings.zero(R):
                assert not sp.subset_le(E, sp.v_locus(a, R))
        # ... and no member of E lies below (0).
        assert not sp.subset_member(zero_ideal, E)
        for p in sp.sample_points(R, rng, 40):
            if sp.subset_member(p, E):
                assert not sp.leq_specialization(p, zero_ideal, R)


@pytest.mark.parametrize("R", [AXES_F2, AXES_Q], ids=str)
def test_avoidance_fails_with_witness_m(R, rng):
    m = R.limit
    for E in _without_limit(R, (SuppMin(1), SuppMin(2))):
        assert not con.avoidance_holds(E)
        # m lies inside the union of E: each element of m lies in some P_k
        # with k in E ...
        in_m = [a for a in rings.sample_elements(R, rng, 40) if sp.point_contains(m, a, R)]
        assert in_m
        for a in in_m:
            assert any(
                sp.subset_member(P, E) and sp.point_contains(P, a, R)
                for P in map(SuppMin, range(1, 100))
            )
        # ... and no member of E lies above m.
        assert not sp.subset_member(m, E)
        for p in sp.sample_points(R, rng, 40):
            if sp.subset_member(p, E):
                assert not sp.leq_specialization(m, p, R)


# Recorded with the unpruned ideal layer.  n = 9 lies past the n <= 8 of
# the benchmark and of `verify all`, so its meets are the largest checked.
SUPPLEMENT_9_DIGESTS = {
    "F_2": "96b40b889ff4d2fc",
    "F_5": "2717c1e96050e7fd",
    "Q": "4da18826b87debec",
}


@pytest.mark.parametrize("K", [F2, rings.prime_field(5), rings.QQ], ids=str)
def test_supplement_report_n9_golden(K):
    rep = con.supplement_report(K, 9)
    doc = jsonio.dumps_canonical(jsonio.supplement_report_to_json(rep))
    assert hashlib.sha256(doc.encode()).hexdigest()[:16] == SUPPLEMENT_9_DIGESTS[str(K)]
    assert rep.all_ok
