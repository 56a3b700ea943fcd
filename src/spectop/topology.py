"""Zariski, flat and patch closure operators, stability and density.

On an enumerable spectrum the Zariski closure of a set is its up closure
in the specialization order, the flat closure its down closure, and the
patch topology is discrete.  On the three symbolic families the closures
are given by representation rules, each backed by an exact statement
about that ring family (finite vanishing loci over Z and GF(p)[x], finite
non-vanishing loci on the infinite axes ring).  The engine refuses rather
than guess when a representation has no rule.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import spectrum as sp
from .errors import KindMismatchError, UnsupportedError, UnsupportedSymbolicError
from .rings import (  # the density rationales are named from here too
    COUNTEREXAMPLE,
    FACTORIZATION_FINITE,
    FINITE_SPECTRUM,
    FINITE_SUPPORT,
    El,
    RingExpr,
)
from .spectrum import (
    Cofinite,
    EmptySet,
    Explicit,
    PrimePoint,
    SpecSubset,
    Whole,
)

ZARISKI = "zariski"
FLAT = "flat"
PATCH = "patch"
TOPOLOGIES = (ZARISKI, FLAT, PATCH)

SPECIALIZATION = "specialization"
GENERALIZATION = "generalization"


def _resolve_ring(E: SpecSubset, R: RingExpr | None) -> RingExpr:
    if R is not None and R != E.ring:
        raise KindMismatchError("subset does not live over the given ring")
    return E.ring


def _points_or_whole(R: RingExpr, points) -> SpecSubset:
    # The ring's up and down sets hold points of R only.
    return Whole(R) if points is None else sp._explicit(R, points)


def up_set(p: PrimePoint, R: RingExpr) -> SpecSubset:
    """V(p): all specializations of p."""
    sp.validate_point(p, R)
    return _points_or_whole(R, R.up_points(p))


def down_set(p: PrimePoint, R: RingExpr) -> SpecSubset:
    """The generalizations of p; the flat closure of the singleton."""
    sp.validate_point(p, R)
    return _points_or_whole(R, R.down_points(p))


def zariski_closure(E: SpecSubset, R: RingExpr | None = None) -> SpecSubset:
    """Smallest specialization-stable patch-closed superset of E."""
    return _order_closure(E, _resolve_ring(E, R), up=True)


def flat_closure(E: SpecSubset, R: RingExpr | None = None) -> SpecSubset:
    """Smallest generalization-stable patch-closed superset of E."""
    return _order_closure(E, _resolve_ring(E, R), up=False)


def _order_closure(E: SpecSubset, R: RingExpr, up: bool) -> SpecSubset:
    """The Zariski (up) or flat closure.

    A finite set gives the union of its points' up (down) sets.  An
    infinite set gives its patch closure when the limit point lies on the
    closure's side of the order, else the whole spectrum.  On the limit's
    side, every prime over the meet of the kept family points is one of
    them or the limit.  On the other side, an infinite part of the family
    meets every nonempty open: each V(a), a nonzero, is finite over Z and
    GF(p)[x], and each D(a), a a nonunit, is finite on the axes ring.
    """
    if isinstance(E, (EmptySet, Whole)):
        return E
    if isinstance(E, Explicit):
        reach = R.up_points if up else R.down_points
        out: set[PrimePoint] = set()
        for p in E.points:
            pts = reach(p)
            if pts is None:
                return Whole(R)
            out |= pts
        return sp._explicit(R, out)
    if isinstance(E, Cofinite):
        return sp._cofinite(R, E.excluded, True) if E.limit_above == up else Whole(R)
    raise UnsupportedSymbolicError(
        f"no {ZARISKI if up else FLAT} rule for {sp.subset_str(E)}"
    )


def patch_closure(E: SpecSubset, R: RingExpr | None = None) -> SpecSubset:
    """Patch (constructible) closure; finite spectra are patch discrete."""
    R = _resolve_ring(E, R)
    if isinstance(E, (EmptySet, Whole, Explicit)):
        return E
    if isinstance(E, Cofinite):
        # The family's one limit point is the only point added.
        return sp._cofinite(R, E.excluded, True)
    raise UnsupportedSymbolicError(f"no patch rule for {sp.subset_str(E)}")


def closure(E: SpecSubset, topology: str, R: RingExpr | None = None) -> SpecSubset:
    if topology == ZARISKI:
        return zariski_closure(E, R)
    if topology == FLAT:
        return flat_closure(E, R)
    if topology == PATCH:
        return patch_closure(E, R)
    raise UnsupportedError(f"unknown topology {topology!r}")


def is_stable(E: SpecSubset, R: RingExpr | None, mode: str) -> bool:
    """Stability under specialization or generalization.

    An explicit set is stable when the up (down) set of each of its
    points stays inside it; the cofinite sets follow representation
    rules.
    """
    R = _resolve_ring(E, R)
    if mode not in (SPECIALIZATION, GENERALIZATION):
        raise UnsupportedError(f"unknown stability mode {mode!r}")
    if isinstance(E, (EmptySet, Whole)):
        return True
    if isinstance(E, Explicit):
        # Stable exactly when every point's up (down) set stays inside E.
        reach = R.up_points if mode == SPECIALIZATION else R.down_points
        for p in E.points:
            pts = reach(p)
            if pts is None or not pts <= E.points:
                return False
        return True
    if isinstance(E, Cofinite):
        # A family point's up (down) set is the point and the limit when the
        # limit lies on that side; the limit's is everything when it does not.
        return E.with_limit == (E.limit_above == (mode == SPECIALIZATION))
    raise UnsupportedSymbolicError(f"no stability rule for {sp.subset_str(E)}")


def is_dense(E: SpecSubset, R: RingExpr | None, topology: str) -> bool:
    return closure(E, topology, R) == sp.whole(_resolve_ring(E, R))


# ---------------------------------------------------------------------------
# Density criteria
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DensityCertificate:
    """Outcome of the every-infinite-subset-is-dense test for one topology.

    When holds is False the witness element has an infinite vanishing
    locus (zariski mode) or an infinite non-vanishing locus (flat mode)
    which is itself not dense; both facts are checkable with v_locus and
    d_locus.
    """

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
