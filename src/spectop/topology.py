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
    CofiniteClosed,
    CofiniteMin,
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
    R = _resolve_ring(E, R)
    if isinstance(E, (EmptySet, Whole)):
        return E
    if isinstance(E, Explicit):
        out: SpecSubset = EmptySet(R)
        for p in E.points:
            out = sp.subset_union(out, _points_or_whole(R, R.up_points(p)))
        return out
    if isinstance(E, CofiniteClosed):
        # An infinite set of maximal ideals meets every nonempty open:
        # each V(a), a nonzero, is a finite set here.
        return Whole(R)
    if isinstance(E, CofiniteMin):
        # Every prime over the intersection of the kept axes is one of
        # those axes or the top point.
        return sp._cofinite_min(R, E.excluded, True)
    raise UnsupportedSymbolicError(f"no zariski rule for {sp.subset_str(E)}")


def flat_closure(E: SpecSubset, R: RingExpr | None = None) -> SpecSubset:
    """Smallest generalization-stable patch-closed superset of E."""
    R = _resolve_ring(E, R)
    if isinstance(E, (EmptySet, Whole)):
        return E
    if isinstance(E, Explicit):
        out: SpecSubset = EmptySet(R)
        for p in E.points:
            out = sp.subset_union(out, _points_or_whole(R, R.down_points(p)))
        return out
    if isinstance(E, CofiniteClosed):
        return sp._cofinite_closed(R, E.excluded, True)
    if isinstance(E, CofiniteMin):
        # An infinite set of axes meets every nonempty flat open: each
        # D(a), a a nonunit, is a finite set on the axes ring.
        return Whole(R)
    raise UnsupportedSymbolicError(f"no flat rule for {sp.subset_str(E)}")


def patch_closure(E: SpecSubset, R: RingExpr | None = None) -> SpecSubset:
    """Patch (constructible) closure; finite spectra are patch discrete."""
    R = _resolve_ring(E, R)
    if isinstance(E, (EmptySet, Whole, Explicit)):
        return E
    if isinstance(E, CofiniteClosed):
        return sp._cofinite_closed(R, E.excluded, True)
    if isinstance(E, CofiniteMin):
        return sp._cofinite_min(R, E.excluded, True)
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
    if isinstance(E, CofiniteClosed):
        if mode == SPECIALIZATION:
            return not E.with_generic
        return E.with_generic
    if isinstance(E, CofiniteMin):
        if mode == SPECIALIZATION:
            return E.with_top
        return not E.with_top
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
