"""The set-level order rule `reach` and the operators built on it.

`topology.order_closure` and `is_stable` ask the ring once for a whole
set, finite or cofinite, and `spectrum.subset_le` compares two
frozensets.  The ref_* functions below answer the same questions as the
engine did before: a finite set point by point, each point's up (down)
set from the family's per-point rule, unioned or tested one at a time; a
cofinite set by the limit's side; and inclusion by membership of each
point.  They agree on every subset of every closure-axioms ring and on
seeded subsets of the symbolic spectra.
"""

from itertools import combinations
from random import Random

import pytest

from conftest import AXES_F2, AXES_Q, F2X, random_symbolic_subset
from spectop import rings, suites
from spectop import spectrum as sp
from spectop import topology as top

F3X = rings.poly_ring(3)
SYMBOLIC = [rings.ZZ, F2X, F3X, AXES_F2, AXES_Q]


def ref_points(R, p, up):
    """The per-point order: p's up (down) set, None when that is every
    point.  A symbolic family point reaches itself, and the limit too on the
    limit's side; the limit reaches everything away from its side.  On an
    enumerable ring it is a scan of _leq."""
    if R.symbolic:
        if up == R.limit_above:
            return frozenset({p, R.limit})
        return None if p == R.limit else frozenset({p})
    return frozenset(q for q in sp.spec_points(R) if (R._leq(p, q) if up else R._leq(q, p)))


def ref_order_closure(E, up):
    R = E.ring
    if not E.cofinite:
        out = set()
        for p in E.points:
            pts = ref_points(R, p, up)
            if pts is None:
                return sp.whole(R)
            out |= pts
        return sp._subset(R, out)
    if R.limit_above == up:
        return top.patch_closure(E)
    return sp.whole(R) if E.with_limit else E


def ref_is_stable(E, mode):
    up = mode == top.SPECIALIZATION
    if not E.cofinite:
        for p in E.points:
            pts = ref_points(E.ring, p, up)
            if pts is None or not pts <= E.points:
                return False
        return True
    return not E.points or E.with_limit == (E.ring.limit_above == up)


def ref_subset_le(A, B):
    if A.cofinite:
        return B.cofinite and B.points <= A.points
    return all(sp._member(p, B) for p in A.points)


def _agree(subsets, label):
    for E in subsets:
        for up in (True, False):
            assert top.order_closure(E, up) == ref_order_closure(E, up), (label, E, up)
        for mode in (top.SPECIALIZATION, top.GENERALIZATION):
            assert top.is_stable(E, mode) == ref_is_stable(E, mode), (label, E, mode)
        for F in subsets:
            assert sp.subset_le(E, F) == ref_subset_le(E, F), (label, E, F)


@pytest.mark.parametrize("R", suites._axiom_zoo(), ids=str)
def test_set_rules_match_the_per_point_rules_on_every_subset(R):
    _agree(list(suites._every_subset(R)), str(R))


def _seeded_subsets(R, rng):
    """Empty, whole, finite sets with and without the limit, cofinite sets
    with and without it, over a few shared family points, and seeded draws."""
    family = sp.sorted_points(set(sp.sample_points(R, rng, 12)) - {R.limit})[:4]
    assert len(family) >= 3, str(R)
    out = [sp.empty_set(R), sp.whole(R)]
    for k in range(len(family) + 1):
        for sub in combinations(family, k):
            out += [sp.explicit(R, sub), sp.explicit(R, {*sub, R.limit})]
            out += [sp.cofinite(R, sub, True), sp.cofinite(R, sub, False)]
    return out + [random_symbolic_subset(R, rng) for _ in range(12)]


@pytest.mark.parametrize("R", SYMBOLIC, ids=str)
def test_set_rules_match_the_per_point_rules_on_seeded_symbolic_subsets(R):
    _agree(_seeded_subsets(R, Random(32)), str(R))


@pytest.mark.parametrize("R", suites._axiom_zoo(), ids=str)
def test_reach_is_the_brute_force_order_on_every_subset(R):
    pts = sp.spec_points(R)
    for k in range(len(pts) + 1):
        for sub in combinations(pts, k):
            up = {q for q in pts if any(R._leq(p, q) for p in sub)}
            down = {q for q in pts if any(R._leq(q, p) for p in sub)}
            assert R.reach(frozenset(sub), True) == up, (str(R), sub)
            assert R.reach(frozenset(sub), False) == down, (str(R), sub)


@pytest.mark.parametrize("R", SYMBOLIC, ids=str)
def test_pair_form_reach_is_the_per_point_order_on_cofinite_sets(R):
    # reach reads a cofinite set's points and answers with the points of a
    # cofinite set: the per-point closure, or None (every point) exactly when
    # the set holds the limit and asks away from the limit's side.
    for E in _seeded_subsets(R, Random(36)):
        if not E.cofinite:
            continue
        for up in (True, False):
            got = R.reach(E.points, up, True)
            want = ref_order_closure(E, up)
            assert (got is None) == (E.with_limit and up != R.limit_above), (str(R), E, up)
            assert (sp.whole(R) if got is None else sp._subset(R, got, True)) == want, (E, up)


@pytest.mark.parametrize("R", SYMBOLIC, ids=str)
def test_symbolic_reach_is_the_scanned_order(R):
    # Over a sample holding the limit: None (every point) exactly when the
    # set holds the limit and asks away from the limit's side.
    pts = sp.sorted_points(set(sp.sample_points(R, Random(5), 16)) | {R.limit})
    for k in range(4):
        for sub in combinations(pts, k):
            for up in (True, False):
                got = R.reach(frozenset(sub), up)
                scan = {q for q in pts if any(R._leq(*((p, q) if up else (q, p))) for p in sub)}
                if got is None:
                    assert R.limit in sub and up != R.limit_above, (str(R), sub, up)
                    assert scan == set(pts), (str(R), sub, up)
                else:
                    assert got == scan, (str(R), sub, up)
