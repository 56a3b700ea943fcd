"""Zariski, flat and patch closure operators, stability and density.

Three rules carry every closure: the up closure (the primes above some
member), the down closure (the primes below some member) and the patch
closure.  In a spectral space the Zariski (flat) closure of a set is the
up (down) closure of its patch closure (Hochster 1969).  The ring gives
the up and down closures of a set whole, finite or cofinite
(RingExpr.reach), so no rule here walks the points of a set one by one
or asks on which side the limit point lies.  On an enumerable spectrum
the patch topology is discrete; on the three symbolic families the patch
closure rests on an exact statement about the ring family (finite
vanishing loci over Z and GF(p)[x], finite non-vanishing loci on the
infinite axes ring).  The engine refuses rather than guess when a
representation has no rule.
"""

from __future__ import annotations

from . import spectrum as sp
from .errors import UnsupportedError
from .rings import (  # the density rationales are named from here too
    COUNTEREXAMPLE,
    FACTORIZATION_FINITE,
    FINITE_SPECTRUM,
    FINITE_SUPPORT,
    El,
    RingExpr,
)
from .spectrum import PrimePoint, Record, SpecSubset

ZARISKI = "zariski"
FLAT = "flat"
PATCH = "patch"
TOPOLOGIES = (ZARISKI, FLAT, PATCH)

SPECIALIZATION = "specialization"
GENERALIZATION = "generalization"


def up_set(p: PrimePoint, R: RingExpr) -> SpecSubset:
    """V(p): all specializations of p."""
    return order_closure(sp.explicit(R, {p}), up=True)


def down_set(p: PrimePoint, R: RingExpr) -> SpecSubset:
    """The generalizations of p; the flat closure of the singleton."""
    return order_closure(sp.explicit(R, {p}), up=False)


def order_closure(E: SpecSubset, up: bool) -> SpecSubset:
    """The up closure of E (the primes above some member, up=True) or its
    down closure (the primes below some member): one reach call, which
    answers in E's own form.
    """
    R = E.ring
    pts = R.reach(E.points, up, E.cofinite)
    return sp.whole(R) if pts is None else sp._subset(R, pts, E.cofinite)


def _patch(E: SpecSubset) -> SpecSubset:
    # Every family point is patch-isolated, and every patch neighbourhood of
    # the limit holds all but finitely many family points: each V(a), a
    # nonzero, is finite over Z and GF(p)[x], and each D(a), a a nonunit, is
    # finite on the axes ring.  So the limit is the only point added, and
    # only to an infinite set that lacks it; any other E is returned as is,
    # so equal closures share their point set.
    R = E.ring
    return sp._subset(R, E.points - {R.limit}, True) if E.cofinite and R.limit in E.points else E


def patch_closure(E: SpecSubset) -> SpecSubset:
    """Patch (constructible) closure; finite spectra are patch discrete."""
    return _patch(E)


def zariski_closure(E: SpecSubset) -> SpecSubset:
    """Smallest specialization-stable patch-closed superset of E: the up
    closure of its patch closure (Hochster 1969)."""
    return order_closure(_patch(E), up=True)


def flat_closure(E: SpecSubset) -> SpecSubset:
    """Smallest generalization-stable patch-closed superset of E: the down
    closure of its patch closure."""
    return order_closure(_patch(E), up=False)


def closure(E: SpecSubset, topology: str) -> SpecSubset:
    if topology == ZARISKI:
        return zariski_closure(E)
    if topology == FLAT:
        return flat_closure(E)
    if topology == PATCH:
        return patch_closure(E)
    raise UnsupportedError(f"unknown topology {topology!r}")


def is_stable(E: SpecSubset, mode: str) -> bool:
    """Stability under specialization or generalization.

    A set is stable when its up (down) closure, one reach call, adds no
    point to it; when that closure is every point, only the whole
    spectrum is.
    """
    if mode not in (SPECIALIZATION, GENERALIZATION):
        raise UnsupportedError(f"unknown stability mode {mode!r}")
    pts = E.ring.reach(E.points, mode == SPECIALIZATION, E.cofinite)
    return pts == E.points if pts is not None else E.cofinite and not E.points


def is_dense(E: SpecSubset, topology: str) -> bool:
    return closure(E, topology) == sp.whole(E.ring)


# ---------------------------------------------------------------------------
# Density criteria
# ---------------------------------------------------------------------------


class DensityCertificate(Record):
    """Outcome of the every-infinite-subset-is-dense test for one topology.

    When holds is False the witness element has an infinite vanishing
    locus (zariski mode) or an infinite non-vanishing locus (flat mode)
    which is itself not dense; both facts are checkable with v_locus and
    d_locus.
    """

    __slots__ = ()
    holds: bool
    mode: str
    witness: El | None
    rationale: str


def density_criterion(R: RingExpr, mode: str) -> DensityCertificate:
    """Decide whether every infinite subset of Spec(R) is dense.

    Zariski mode asks that V(a) be finite for every non-nilpotent a, flat
    mode that D(a) be finite for every nonunit a.
    """
    if mode not in (ZARISKI, FLAT):
        raise UnsupportedError(f"unknown density mode {mode!r}")
    holds, witness, rationale = R.density_rule(mode == ZARISKI)
    return DensityCertificate(holds, mode, witness, rationale)
