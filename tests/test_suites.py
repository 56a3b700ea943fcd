"""The verify suites: what they catch and what they compute.

The closure-axioms suite catches each way a closure operator can break.
Each variant below replaces one operator of `topology` with a broken
version; the suite must then fail, and with the message of the axiom the
variant breaks.  Together the variants reach all seven messages, so no
check of `suites._axioms_hold` is dead.
"""

import hashlib

import pytest

from spectop import products, suites
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
    drawn = []
    monkeypatch.setattr(suites, "_axioms_hold", lambda E: drawn.append(E) or (True, ""))
    assert suites.suite_closure_axioms(seed=seed).passed
    lines = [f"{E.ring}: {sp.subset_str(E)}" for E in drawn if E.ring.symbolic]
    assert len(lines) == 498
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16] == SYMBOLIC_DRAWS[seed]


def test_closure_axioms_monotonicity_bites_on_finite_symbolic_draws(monkeypatch):
    monkeypatch.setattr(top, "zariski_closure", whole_for_one_symbolic_point)
    res = suites.suite_closure_axioms(seed=0)
    failed = [(c.id, c.input) for c in res.cases if not c.passed and c.id.startswith("sym-")]
    assert any(m.startswith("zariski not monotone on ") for _, m in failed), failed[:5]


@pytest.mark.parametrize("seed", sorted(SYMBOLIC_DRAWS))
def test_only_the_whole_spectrum_gets_no_larger_companion(monkeypatch, seed):
    drawn = []
    monkeypatch.setattr(suites, "_axioms_hold", lambda E: drawn.append(E) or (True, ""))
    suites.suite_closure_axioms(seed=seed)
    symbolic = [E for E in drawn if E.ring.symbolic]
    same = [E for E in symbolic if sp.subset_union(E, suites._enlarge(E)) == E]
    assert all(E == sp.whole(E.ring) for E in same)
    assert len(same) < len(symbolic) / 4
