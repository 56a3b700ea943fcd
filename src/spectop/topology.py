"""Zariski, flat and patch closure operators, stability and density.

Three rules carry every closure: the up closure (the primes above some
member), the down closure (the primes below some member) and the patch
closure.  In a spectral space the Zariski (flat) closure of a set is the
up (down) closure of its patch closure (Hochster 1969).  Those rules and
stability read the subset form, so spectrum holds them; the ring gives
the up and down closures of a set whole (RingExpr.reach), so no rule
walks the points of a set one by one.  On an enumerable spectrum the
patch topology is discrete; on the three symbolic families the patch
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
from .spectrum import GENERALIZATION, SPECIALIZATION, Record, SpecSubset
from .spectrum import is_stable, order_closure, patch_closure  # the rules that read the form

ZARISKI = "zariski"
FLAT = "flat"
PATCH = "patch"
TOPOLOGIES = (ZARISKI, FLAT, PATCH)


def zariski_closure(E: SpecSubset) -> SpecSubset:
    """Smallest specialization-stable patch-closed superset of E: the up
    closure of its patch closure (Hochster 1969)."""
    return order_closure(patch_closure(E), up=True)


def flat_closure(E: SpecSubset) -> SpecSubset:
    """Smallest generalization-stable patch-closed superset of E: the down
    closure of its patch closure."""
    return order_closure(patch_closure(E), up=False)


def closure(E: SpecSubset, topology: str) -> SpecSubset:
    if topology == ZARISKI:
        return zariski_closure(E)
    if topology == FLAT:
        return flat_closure(E)
    if topology == PATCH:
        return patch_closure(E)
    raise UnsupportedError(f"unknown topology {topology!r}")


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
