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
from .rings import (
    El,
    IntegerRing,
    IntEl,
    PolyEl,
    PolyRingOverPrimeField,
    RingExpr,
    SymbolicSupplement,
    var_el,
)
from .spectrum import (
    CofiniteClosed,
    CofiniteMin,
    EmptySet,
    Explicit,
    FpxGeneric,
    PrimePoint,
    SpecSubset,
    SuppMin,
    SuppTop,
    Whole,
    ZGeneric,
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


def up_set(p: PrimePoint, R: RingExpr) -> SpecSubset:
    """V(p): all specializations of p."""
    if sp.has_symbolic_spectrum(R):
        if isinstance(p, (ZGeneric, FpxGeneric)):
            return Whole(R)
        if isinstance(p, SuppMin):
            return sp.explicit(R, {p, SuppTop()})
        if isinstance(p, SuppTop):
            return sp.explicit(R, {p})
        return sp.explicit(R, {p})
    pts = sp.spec_points(R)
    return sp.explicit(R, {q for q in pts if sp.leq_specialization(p, q, R)})


def down_set(p: PrimePoint, R: RingExpr) -> SpecSubset:
    """The generalizations of p; the flat closure of the singleton."""
    if sp.has_symbolic_spectrum(R):
        if isinstance(p, (ZGeneric, FpxGeneric)):
            return sp.explicit(R, {p})
        if isinstance(p, SuppMin):
            return sp.explicit(R, {p})
        if isinstance(p, SuppTop):
            return Whole(R)
        return sp.explicit(R, {p, _generic(R)})
    pts = sp.spec_points(R)
    return sp.explicit(R, {q for q in pts if sp.leq_specialization(q, p, R)})


def _generic(R: RingExpr) -> PrimePoint:
    if isinstance(R, IntegerRing):
        return ZGeneric()
    if isinstance(R, PolyRingOverPrimeField):
        return FpxGeneric()
    raise KindMismatchError(f"{R} has no generic point")


def zariski_closure(E: SpecSubset, R: RingExpr | None = None) -> SpecSubset:
    """Smallest specialization-stable patch-closed superset of E."""
    R = _resolve_ring(E, R)
    if isinstance(E, (EmptySet, Whole)):
        return E
    if isinstance(E, Explicit):
        out: SpecSubset = EmptySet(R)
        for p in E.points:
            out = sp.subset_union(out, up_set(p, R))
        return out
    if isinstance(E, CofiniteClosed):
        # An infinite set of maximal ideals meets every nonempty open:
        # each V(a), a nonzero, is a finite set here.
        return Whole(R)
    if isinstance(E, CofiniteMin):
        # Every prime over the intersection of the kept axes is one of
        # those axes or the top point.
        return sp.cofinite_min(R, E.excluded, True)
    raise UnsupportedSymbolicError(f"no zariski rule for {sp.subset_str(E)}")


def flat_closure(E: SpecSubset, R: RingExpr | None = None) -> SpecSubset:
    """Smallest generalization-stable patch-closed superset of E."""
    R = _resolve_ring(E, R)
    if isinstance(E, (EmptySet, Whole)):
        return E
    if isinstance(E, Explicit):
        out: SpecSubset = EmptySet(R)
        for p in E.points:
            out = sp.subset_union(out, down_set(p, R))
        return out
    if isinstance(E, CofiniteClosed):
        return sp.cofinite_closed(R, E.excluded, True)
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
        return sp.cofinite_closed(R, E.excluded, True)
    if isinstance(E, CofiniteMin):
        return sp.cofinite_min(R, E.excluded, True)
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

    Exact quantification over point pairs on enumerable spectra;
    representation rules on the symbolic families.
    """
    R = _resolve_ring(E, R)
    if mode not in (SPECIALIZATION, GENERALIZATION):
        raise UnsupportedError(f"unknown stability mode {mode!r}")
    if isinstance(E, (EmptySet, Whole)):
        return True
    if isinstance(E, Explicit) and not sp.has_symbolic_spectrum(R):
        pts = sp.spec_points(R)
        for p in E.points:
            for q in pts:
                inside = (
                    sp.leq_specialization(p, q, R)
                    if mode == SPECIALIZATION
                    else sp.leq_specialization(q, p, R)
                )
                if inside and q not in E.points:
                    return False
        return True
    if isinstance(E, Explicit):
        if isinstance(R, (IntegerRing, PolyRingOverPrimeField)):
            has_generic = any(isinstance(p, (ZGeneric, FpxGeneric)) for p in E.points)
            closed = {p for p in E.points if not isinstance(p, (ZGeneric, FpxGeneric))}
            if mode == SPECIALIZATION:
                # The generic point specializes to every maximal ideal.
                return not has_generic
            return not closed or has_generic
        if isinstance(R, SymbolicSupplement):
            has_top = any(isinstance(p, SuppTop) for p in E.points)
            has_min = any(isinstance(p, SuppMin) for p in E.points)
            if mode == SPECIALIZATION:
                return not has_min or has_top
            return not has_top
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

FACTORIZATION_FINITE = "FactorizationFinite"
FINITE_SPECTRUM = "FiniteSpectrum"
FINITE_SUPPORT = "FiniteSupport"
COUNTEREXAMPLE = "CounterexampleElement"


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
    if isinstance(R, IntegerRing):
        if mode == ZARISKI:
            # Factoring a nonzero integer leaves a finite vanishing locus.
            return DensityCertificate(True, mode, None, FACTORIZATION_FINITE)
        return DensityCertificate(False, mode, IntEl(2), COUNTEREXAMPLE)
    if isinstance(R, PolyRingOverPrimeField):
        if mode == ZARISKI:
            return DensityCertificate(True, mode, None, FACTORIZATION_FINITE)
        return DensityCertificate(False, mode, PolyEl((0, 1)), COUNTEREXAMPLE)
    if isinstance(R, SymbolicSupplement):
        if mode == FLAT:
            # A nonunit is supported on finitely many axes, so its
            # non-vanishing locus is finite.
            return DensityCertificate(True, mode, None, FINITE_SUPPORT)
        return DensityCertificate(False, mode, var_el(R, 1), COUNTEREXAMPLE)
    if sp.is_enumerable(R):
        # No infinite subsets exist at all.
        return DensityCertificate(True, mode, None, FINITE_SPECTRUM)
    raise UnsupportedError(f"no density criterion for {R}")
