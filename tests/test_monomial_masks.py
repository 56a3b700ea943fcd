"""The bitmask ideal layer against an exponent-tuple reference, and the
boundary where monomials enter and leave it as exponent tuples."""

from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import F2, PROPERTY
from spectop import jsonio, rings
from spectop.errors import KindMismatchError
from spectop.values import _mask_in, _minimal_masks

NVARS = 8

# ---------------------------------------------------------------------------
# Reference: monomials as padded exponent tuples, compared componentwise.
# ---------------------------------------------------------------------------


def ref_canon(e):
    e = tuple(e)
    while e and e[-1] == 0:
        e = e[:-1]
    return e


def ref_divides(g, m):
    n = max(len(g), len(m))
    g = g + (0,) * (n - len(g))
    m = m + (0,) * (n - len(m))
    return all(a <= b for a, b in zip(g, m))


def ref_lcm(u, v):
    n = max(len(u), len(v))
    u = u + (0,) * (n - len(u))
    v = v + (0,) * (n - len(v))
    return ref_canon(max(a, b) for a, b in zip(u, v))


def ref_minimalize(gens):
    gens = {ref_canon(g) for g in gens}
    return {g for g in gens if not any(h != g and ref_divides(h, g) for h in gens)}


def ref_in(gens, m):
    return any(ref_divides(g, m) for g in gens)


def exps(I):
    return {rings.mask_to_exp(g) for g in I.gens}


square_free = st.lists(st.integers(0, 1), max_size=NVARS).map(tuple)
gen_sets = st.sets(square_free, max_size=6)
ring_gens = st.sets(square_free.filter(any), min_size=1, max_size=6)
element_terms = st.dictionaries(
    st.lists(st.integers(0, 2), max_size=NVARS).map(tuple),
    st.integers(1, 5),
    max_size=4,
)
AMBIENT = rings.monomial_quotient(rings.QQ, NVARS, frozenset())


@PROPERTY
@given(gen_sets)
def test_minimalization_matches_reference(G):
    assert exps(rings.monomial_ideal(G)) == ref_minimalize(G)


@PROPERTY
@given(gen_sets, gen_sets)
def test_intersect_matches_reference(G, H):
    meet = rings.ideal_intersect(rings.monomial_ideal(G), rings.monomial_ideal(H), AMBIENT)
    want = ref_minimalize({ref_lcm(ref_canon(u), ref_canon(v)) for u in G for v in H})
    assert exps(meet) == want


@PROPERTY
@given(gen_sets, gen_sets)
def test_contains_matches_reference(G, H):
    I, J = rings.monomial_ideal(G), rings.monomial_ideal(H)
    want = all(ref_in(G, ref_canon(m)) for m in H)
    assert rings.ideal_contains(I, J, AMBIENT) == want


# Overlapping pairs over ten variables: J takes multiples of some of I's
# generators, so each side often already lies in the other, next to the
# unit ideal (the empty monomial) and the zero ideal (no generators).
WIDE = 10
WIDE_AMBIENT = rings.monomial_quotient(rings.QQ, WIDE, frozenset())
wide_mask = st.integers(0, (1 << WIDE) - 1)


def _wide_exp(m):
    return tuple(m >> i & 1 for i in range(WIDE))


def _or_special(draw, masks):
    """masks, or one time in four the zero or the unit ideal."""
    k = draw(st.integers(0, 7))
    return (frozenset(), frozenset({0}))[k] if k < 2 else masks


@st.composite
def overlapping_pair(draw):
    I = _or_special(draw, draw(st.frozensets(wide_mask, min_size=1, max_size=12)))
    J = {g | draw(wide_mask) for g in sorted(I) if draw(st.booleans())}
    J |= draw(st.frozensets(wide_mask, max_size=12 - len(J)))
    J = _or_special(draw, J)
    pair = ({_wide_exp(m) for m in I}, {_wide_exp(m) for m in J})
    return pair if draw(st.booleans()) else pair[::-1]


@settings(PROPERTY, max_examples=300)
@given(overlapping_pair())
def test_overlapping_intersect_and_contains_match_reference(pair):
    G, H = pair
    I, J = rings.monomial_ideal(G), rings.monomial_ideal(H)
    want = ref_minimalize({ref_lcm(ref_canon(u), ref_canon(v)) for u in G for v in H})
    assert exps(rings.ideal_intersect(I, J, WIDE_AMBIENT)) == want
    assert exps(rings.ideal_intersect(J, I, WIDE_AMBIENT)) == want
    assert rings.ideal_contains(I, J, WIDE_AMBIENT) == all(ref_in(G, ref_canon(m)) for m in H)
    assert rings.ideal_contains(J, I, WIDE_AMBIENT) == all(ref_in(H, ref_canon(m)) for m in G)


@PROPERTY
@given(gen_sets, element_terms)
def test_member_matches_reference(G, terms):
    # Element exponents may exceed one; only their support meets a
    # square-free generator.
    r = rings.mpoly_el(AMBIENT, terms)
    want = all(ref_in(G, e) for _, e in r.terms)
    assert rings.ideal_member(rings.monomial_ideal(G), r, AMBIENT) == want


@PROPERTY
@given(ring_gens, gen_sets)
def test_is_zero_matches_reference(defining, G):
    R = rings.monomial_quotient(F2, NVARS, defining)
    want = all(ref_in(defining, ref_canon(m)) for m in G)
    assert rings.ideal_is_zero(rings.monomial_ideal(G), R) == want


# The two kernels directly, over 64 variables.  A mask with b bits walks
# its 2^b submasks when the set has at least that many masks, and scans
# the set otherwise: the families mix up to 40 masks of at most four bits
# (walked) with a few masks of many bits (scanned).  Submasks and
# multiples of drawn masks are added so that divisibility occurs on both
# sides.
BIG = 64
small_mask = st.sets(st.integers(0, BIG - 1), max_size=4).map(
    lambda bits: sum(1 << b for b in bits)
)
big_mask = st.integers(0, (1 << BIG) - 1)


@st.composite
def mask_family(draw):
    small = draw(st.lists(small_mask, max_size=40))
    small += [m & draw(big_mask) for m in small[:8]]
    big = draw(st.lists(big_mask, max_size=3))
    big += [draw(big_mask) | m for m in small[:2]]
    return small + big


def _exp64(m):
    return ref_canon(tuple(m >> i & 1 for i in range(BIG)))


@settings(PROPERTY, max_examples=150)
@given(mask_family(), st.one_of(small_mask, big_mask), st.booleans())
def test_mask_kernels_match_reference_over_64_variables(masks, m, widen):
    G = {_exp64(g) for g in masks}
    assert {_exp64(g) for g in _minimal_masks(masks)} == ref_minimalize(G)
    gens = frozenset(masks)
    if widen and masks:
        m |= masks[m % len(masks)]  # a multiple of some generator
    assert _mask_in(gens, m) == ref_in(G, _exp64(m))


# ---------------------------------------------------------------------------
# Boundary: printed and JSON forms, recorded from the exponent-tuple layer.
# ---------------------------------------------------------------------------

MIXED = {(1, 1), (1, 0, 1), (0, 0, 0, 1)}


@pytest.mark.parametrize(
    "R, text, doc",
    [
        (
            rings.monomial_quotient(F2, 4, MIXED),
            "F_2[x1..x4]/(x4,x1*x3,x1*x2)",
            '{"field":{"kind":"Fp","p":2},"gens":[[0,0,0,1],[1,0,1,0],[1,1,0,0]],'
            '"kind":"MonomialQuotient","nvars":4}',
        ),
        (
            rings.monomial_quotient(rings.QQ, 6, MIXED),
            "Q[x1..x6]/(x4,x1*x3,x1*x2)",
            '{"field":{"kind":"Q"},"gens":[[0,0,0,1,0,0],[1,0,1,0,0,0],[1,1,0,0,0,0]],'
            '"kind":"MonomialQuotient","nvars":6}',
        ),
        (
            rings.monomial_quotient(F2, 5, {(0, 1, 0, 1), (1, 0, 0, 0, 0), (0, 0, 1)}),
            "F_2[x1..x5]/(x3,x2*x4,x1)",
            '{"field":{"kind":"Fp","p":2},"gens":[[0,0,1,0,0],[0,1,0,1,0],[1,0,0,0,0]],'
            '"kind":"MonomialQuotient","nvars":5}',
        ),
        (
            rings.localized(
                rings.monomial_quotient(rings.prime_field(3), 3, {(1, 1), (0, 0, 1), (1, 0, 1)})
            ),
            "(F_3[x1..x3]/(x3,x1*x2))_m",
            '{"inner":{"field":{"kind":"Fp","p":3},"gens":[[0,0,1],[1,1,0]],'
            '"kind":"MonomialQuotient","nvars":3},"kind":"LocalizedAtIrrelevant"}',
        ),
    ],
)
def test_mixed_length_generators_print_and_encode_as_before(R, text, doc):
    assert str(R) == text
    assert jsonio.dumps_canonical(jsonio.ring_to_json(R)) == doc
    assert jsonio.ring_from_json(jsonio.ring_to_json(R)) == R


def test_monomial_ideal_refuses_non_square_free():
    with pytest.raises(KindMismatchError):
        rings.monomial_ideal({(2,)})


# ---------------------------------------------------------------------------
# Element product: reduced operands multiplied directly, against the
# pad, sum and re-canonicalize reference.
# ---------------------------------------------------------------------------


def ref_mul(R, a, b):
    prods = []
    for ca, ea in a.terms:
        for cb, eb in b.terms:
            n = max(len(ea), len(eb))
            ea_p = ea + (0,) * (n - len(ea))
            eb_p = eb + (0,) * (n - len(eb))
            prods.append((ca * cb, tuple(x + y for x, y in zip(ea_p, eb_p))))
    return R.reduce_terms(prods)


def _product_rings():
    out = []
    for field in (F2, rings.prime_field(3), rings.prime_field(7), rings.QQ):
        out.append(rings.symbolic_supplement(field))
        # The four-axes ring: dimension one, so it may be localized.
        axes4 = {(1, 1), (1, 0, 1), (1, 0, 0, 1), (0, 1, 1), (0, 1, 0, 1), (0, 0, 1, 1)}
        out.append(rings.localized(rings.monomial_quotient(field, 4, axes4)))
        out.append(rings.monomial_quotient(field, 5, {(1, 1), (0, 0, 1, 0, 1), (0, 0, 0, 1)}))
    return out


PRODUCT_RINGS = _product_rings()
product_terms = st.dictionaries(
    st.lists(st.integers(0, 3), max_size=4).map(tuple),
    st.one_of(st.integers(-9, 9), st.fractions(-3, 3, max_denominator=4)),
    max_size=5,
)


def _element(R, terms):
    if isinstance(R.field, rings.PrimeField):
        terms = {e: c for e, c in terms.items() if c.denominator % R.field.p}
    return rings.mpoly_el(R, terms)


@PROPERTY
@given(st.sampled_from(PRODUCT_RINGS), product_terms, product_terms)
def test_mul_matches_pad_sum_reduce(R, s, t):
    a, b = _element(R, s), _element(R, t)
    assert rings.mul(R, a, b) == ref_mul(R, a, b)
    assert rings.mul(R, b, a) == ref_mul(R, b, a)
    assert rings.mul(R, a, a) == ref_mul(R, a, a)
    # The ring rule itself, on the reduced operands: products killed by
    # their support mask, coefficients of the type reduce_terms gives.
    got, want = R.mul(a, b), ref_mul(R, a, b)
    assert got == want
    assert [type(c) for c, _ in got.terms] == [type(c) for c, _ in want.terms]


@pytest.mark.parametrize("R", PRODUCT_RINGS, ids=str)
def test_mul_of_different_lengths(R):
    # (1 + 2 x1 + x2^2) * (3 + x1 x3 + x3): exponents of lengths 0..3 on
    # both sides, with products the ring kills and products it keeps.
    a = rings.mpoly_el(R, {(): 1, (1,): 2, (0, 2): 1})
    b = rings.mpoly_el(R, {(): 3, (1, 0, 1): 1, (0, 0, 1): 1})
    for x, y in ((a, b), (b, a), (a, a), (b, b)):
        assert rings.mul(R, x, y) == ref_mul(R, x, y)


def test_mul_and_add_normalize_their_operands():
    # The ring rule expects reduced operands; the public functions reduce
    # first, so a hand-built element with a trailing zero still multiplies
    # to the canonical product.
    R = rings.monomial_quotient(rings.prime_field(3), 3, {(1, 1)})
    raw = rings.MPolyEl(((1, (1, 0)), (4, (1,))))
    two_x1 = rings.var_el(R, 1, coeff=2)
    assert rings.mul(R, raw, rings.one(R)) == two_x1
    assert rings.mul(R, rings.one(R), raw) == two_x1
    assert rings.add(R, raw, rings.zero(R)) == two_x1
    with pytest.raises(KindMismatchError):
        rings.mul(R, rings.IntEl(1), raw)


# ---------------------------------------------------------------------------
# Finite meets: ideal_intersect_all meets its ideals as a balanced tree;
# the reference folds them from the left.  A monomial ideal has one
# minimal generating set and a principal ideal one canonical generator,
# so the two must agree exactly.
# ---------------------------------------------------------------------------


def ref_left_fold(ideals, R):
    acc = ideals[0]
    for J in ideals[1:]:
        acc = rings.ideal_intersect(acc, J, R)
    return acc


@pytest.mark.parametrize("seed", range(4))
def test_balanced_fold_matches_left_fold_on_monomial_families(seed):
    # Families of 1 to 17 ideals over ten variables, with the zero ideal
    # (no generators) and the unit ideal (the empty monomial) mixed in.
    rng = Random(seed)
    for _ in range(60):
        family = []
        for _ in range(rng.randint(1, 17)):
            k = rng.randrange(12)
            gens = () if k == 0 else ((),) if k == 1 else {
                _wide_exp(rng.randrange(1, 1 << WIDE)) for _ in range(rng.randint(1, 6))
            }
            family.append(rings.monomial_ideal(gens))
        want = ref_left_fold(family, WIDE_AMBIENT)
        assert rings.ideal_intersect_all(family, WIDE_AMBIENT) == want
        assert rings.ideal_intersect_all(iter(family), WIDE_AMBIENT) == want


@pytest.mark.parametrize(
    "R", [rings.ZZ, rings.poly_ring(3), rings.zmod(360)], ids=str
)
def test_balanced_fold_matches_left_fold_on_principal_families(R):
    # The principal callers: the Zariski-closure fold over Z/n, and the
    # localization-kernel meets over Z and F_p[x].
    rng = Random(11)
    for _ in range(200):
        family = [
            rings.principal_ideal(R, R.sample_element(rng)) for _ in range(rng.randint(1, 9))
        ]
        assert rings.ideal_intersect_all(family, R) == ref_left_fold(family, R)
