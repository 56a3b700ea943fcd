"""The verify suites: what they catch and what they compute.

The closure-axioms suite catches each way a closure operator can break.
Each variant below replaces one operator of `topology` with a broken
version; the suite must then fail, and with the message of the axiom the
variant breaks.  Together the variants reach all seven messages, so no
check of `suites._axioms_hold` is dead.
"""

import hashlib
from random import Random

import pytest

from spectop import cli, maps, products, rings, suites
from spectop import spectrum as sp
from spectop import topology as top

REAL_ZARISKI = top.zariski_closure
REAL_FLAT = top.flat_closure
REAL_STABLE = top.is_stable


def drop_every_point(E):
    """Not extensive: the closure of every set is empty."""
    return sp.empty_set(E.ring)


def one_point_more(E):
    """Not idempotent: each call adds the first point not yet in the set,
    so applying the closure again never converges."""
    if E.ring.symbolic:
        return REAL_ZARISKI(E)
    cl = REAL_ZARISKI(E)
    missing = [p for p in sp.spec_points(E.ring) if not sp.subset_member(p, cl)]
    return sp.subset_union(cl, sp.explicit(E.ring, missing[:1]))


def shrink_when_bigger(E):
    """Not monotone: a set holding the ring's first point is its own
    closure, though a smaller set may close to more."""
    if not E.ring.symbolic and sp.subset_member(sp.spec_points(E.ring)[0], E):
        return E
    return REAL_FLAT(E)


def whole_for_one_symbolic_point(E):
    """Not monotone on a symbolic spectrum only: one point closes to the
    whole spectrum, two points to their true closure."""
    if E.ring.symbolic and not E.cofinite and len(sp.subset_points(E)) == 1:
        return sp.whole(E.ring)
    return REAL_ZARISKI(E)


def zariski_without_patch(E):
    """The up closure of E itself, not of its patch closure, so the limit
    point Γ adds can lie outside it."""
    return top.order_closure(E, up=True)


def flat_without_patch(E):
    return top.order_closure(E, up=False)


def flip(mode):
    def is_stable(E, m):
        return REAL_STABLE(E, m) != (m == mode)

    return is_stable


VARIANTS = [
    ("zariski_closure", drop_every_point, "zariski not extensive"),
    ("zariski_closure", one_point_more, "zariski not idempotent"),
    ("flat_closure", shrink_when_bigger, "flat not monotone"),
    ("zariski_closure", zariski_without_patch, "patch not inside zariski"),
    ("flat_closure", flat_without_patch, "patch not inside flat"),
    ("is_stable", flip(top.SPECIALIZATION), "zariski characterization fails"),
    ("is_stable", flip(top.GENERALIZATION), "flat characterization fails"),
]


@pytest.mark.parametrize(
    "name, broken, message", VARIANTS, ids=[m.replace(" ", "-") for _, _, m in VARIANTS]
)
def test_closure_axioms_suite_catches_a_broken_operator(monkeypatch, name, broken, message):
    monkeypatch.setattr(top, name, broken)
    res = suites.suite_closure_axioms(seed=0, cases=30)
    assert not res.passed
    failed = [c.input for c in res.cases if not c.passed and c.id != "all-cases"]
    assert any(m.startswith(message + " on ") for m in failed), failed[:5]


def test_closure_axioms_suite_passes_with_the_real_operators():
    assert suites.suite_closure_axioms(seed=0, cases=30).passed


@pytest.mark.parametrize(
    "suite, image, closure",
    [
        ("remark-v5", "quotient_product_image", "zariski_closure"),
        ("remark-flat", "local_product_image", "flat_closure"),
    ],
)
def test_strictness_remark_computes_image_and_closure_once(monkeypatch, suite, image, closure):
    calls = []

    def count(module, name):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda E: calls.append(name) or real(E))

    count(products, image)
    count(top, closure)
    assert suites.run_suite(suite).passed
    assert sorted(calls) == sorted([image, closure])


# sha256 of the symbolic subsets closure-axioms draws, one "ring: subset"
# line each, at the seeds `verify all` is recorded at.  Its report names
# only failures and a count, so without these a shifted or shortened
# sequence of draws would change no byte of it.
SYMBOLIC_DRAWS = {0: "f7efa8e2b803c223", 7: "74af2e74874c697f"}


@pytest.mark.parametrize("seed", sorted(SYMBOLIC_DRAWS))
def test_closure_axioms_draws_the_recorded_symbolic_subsets(monkeypatch, seed):
    drawn = _recorded_symbolic_draws(monkeypatch, seed)
    lines = [f"{E.ring}: {sp.subset_str(E)}" for E in drawn]
    assert len(lines) == 498
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16] == SYMBOLIC_DRAWS[seed]


def test_closure_axioms_decides_each_distinct_draw_once(monkeypatch, count_calls):
    drawn = _recorded_symbolic_draws(monkeypatch, 0)
    calls = count_calls(suites, "_axioms_hold")
    assert suites.suite_closure_axioms(seed=0).passed
    decided = [E for (E,) in calls if E.ring.symbolic]
    assert set(calls.values()) == {1}
    assert (len(calls), len(decided), len(drawn)) == (504, 286, 498)
    assert set(decided) == set(drawn)


def test_closure_axioms_counts_and_reports_every_draw(monkeypatch):
    # A repeated draw is decided once, yet counted and, failing, reported
    # under its own id like every other draw.
    drawn = _recorded_symbolic_draws(monkeypatch, 0)
    monkeypatch.setattr(suites, "_axioms_hold", lambda E: (not E.ring.symbolic, "fails"))
    res = suites.suite_closure_axioms(seed=0)
    failed = [c.id for c in res.cases if not c.passed and c.id.startswith("sym-")]
    assert len(failed) == len(set(failed)) == len(drawn) == 498
    (total,) = [c for c in res.cases if c.id == "all-cases"]
    assert (total.input, total.actual) == ("716 subsets checked", "498")


def test_lying_over_decides_each_distinct_round_trip_once(count_calls):
    lifts = count_calls(maps, "laying_over")
    res = suites.suite_lying_over(seed=0)
    assert res.passed and len(res.cases) == 123
    assert set(lifts.values()) == {1} and len(lifts) == 80


def reach_on_the_wrong_side(self, points, up, cofinite=False):
    """_Symbolic.reach with the limit's side flipped: a set holding the
    limit reaches every point toward the limit, not away from it."""
    holds = (self.limit in points) != cofinite
    if up == self.limit_above:
        return None if holds else points
    return points if holds or not (points or cofinite) else points ^ {self.limit}


def test_lying_over_records_a_refusal_as_a_failing_case(monkeypatch, capsys):
    # With the order flipped the generic point of Z is no longer minimal,
    # so laying_over refuses it: the suite fails (exit 1) with the refusal
    # as the case's actual value, rather than stopping as on bad input (2).
    monkeypatch.setattr(rings._Symbolic, "reach", reach_on_the_wrong_side)
    assert cli.run_command(["verify", "lying-over", "--seed", "0"]) == 1
    assert "got refused: (0) is not a minimal prime" in capsys.readouterr().out


def test_nilradical_product_compares_each_distinct_element_once(count_calls):
    # Each distinct product is checked once, though two of the 23 are drawn
    # twice, and each element once a check.
    checks = count_calls(products, "nilradical_product_law_check")
    compared = count_calls(products, "_nilpotent_by_squaring")
    res = suites.suite_nilradical_product(seed=0)
    assert res.passed and len(res.cases) == 23
    assert len(checks) == 21 and set(checks.values()) == {1}
    assert sum(compared.values()) == 781
    assert all(k == checks[R,] for (R, _, _), k in compared.items())


def test_closure_axioms_monotonicity_bites_on_finite_symbolic_draws(monkeypatch):
    monkeypatch.setattr(top, "zariski_closure", whole_for_one_symbolic_point)
    res = suites.suite_closure_axioms(seed=0)
    failed = [(c.id, c.input) for c in res.cases if not c.passed and c.id.startswith("sym-")]
    assert any(m.startswith("zariski not monotone on ") for _, m in failed), failed[:5]


@pytest.mark.parametrize("seed", sorted(SYMBOLIC_DRAWS))
def test_only_the_whole_spectrum_gets_no_larger_companion(monkeypatch, seed):
    symbolic = _recorded_symbolic_draws(monkeypatch, seed)
    same = [E for E in symbolic if sp.subset_union(E, suites._enlarge(E)) == E]
    assert all(E == sp.whole(E.ring) for E in same)
    assert len(same) < len(symbolic) / 4


def ref_enlarge(E):
    """The monotonicity companion as first written: every point checked
    again by the builders, and a Random(0) for every finite symbolic set."""
    R = E.ring
    if E.cofinite:
        return sp.whole(R)
    if not R.symbolic:
        return sp.explicit(R, sp.spec_points(R)[:1])
    p, pick = R.limit, Random(0)
    while sp._member(p, E):
        p = sp.sample_points(R, pick, 1)[0]
    return sp.explicit(R, [p])


def ref_fixed(E):
    """The fixed-set test as first written: E against two built subsets."""
    return E in (sp.empty_set(E.ring), sp.whole(E.ring))


def _recorded_symbolic_draws(monkeypatch, seed):
    """The symbolic subsets closure-axioms draws at seed, in order, with
    every repeat."""
    drawn = []
    real = suites._random_symbolic_subset
    monkeypatch.setattr(
        suites, "_random_symbolic_subset", lambda R, rng: drawn.append(real(R, rng)) or drawn[-1]
    )
    assert suites.suite_closure_axioms(seed=seed).passed
    monkeypatch.undo()
    return drawn


def _every_axiom_subset():
    return [E for R in suites._axiom_zoo() for E in suites._every_subset(R)]


@pytest.mark.parametrize("seed", sorted(SYMBOLIC_DRAWS))
def test_enlarge_matches_the_reference_on_the_recorded_draws(monkeypatch, seed):
    symbolic = _recorded_symbolic_draws(monkeypatch, seed)
    assert len(symbolic) == 498
    for E in symbolic:
        assert suites._enlarge(E) == ref_enlarge(E), sp.subset_str(E)


def test_enlarge_matches_the_reference_on_every_enumerable_subset():
    for E in _every_axiom_subset():
        assert suites._enlarge(E) == ref_enlarge(E), (str(E.ring), sp.subset_str(E))


@pytest.mark.parametrize("seed", sorted(SYMBOLIC_DRAWS))
def test_fixed_sets_match_the_reference(monkeypatch, seed):
    subsets = _every_axiom_subset() + _recorded_symbolic_draws(monkeypatch, seed)
    fixed = [ref_fixed(E) for E in subsets]
    assert any(fixed) and not all(fixed)
    for E, want in zip(subsets, fixed):
        assert suites._is_empty_or_whole(E) == want, (str(E.ring), sp.subset_str(E))
