"""Vertex covers of support hypergraphs.

Minimal primes of a square-free monomial ideal correspond to minimal
vertex covers of the hypergraph whose edges are the supports of the
generators.  Vertices are variable indices, numbered from 1.
"""

from __future__ import annotations

from itertools import combinations

from .errors import TooManyVarsError

ORACLE_VAR_BOUND = 20


def is_cover(cover: frozenset[int], edges: list[frozenset[int]]) -> bool:
    return all(edge & cover for edge in edges)


def _minimalize(covers: set[frozenset[int]]) -> list[frozenset[int]]:
    out = []
    for c in covers:
        if not any(other < c for other in covers):
            out.append(c)
    return sorted(out, key=lambda c: (len(c), sorted(c)))


def minimal_covers(edges: list[frozenset[int]], nvars: int) -> list[frozenset[int]]:
    """All minimal vertex covers, by branching on an uncovered edge.

    Every minimal cover must contain some vertex of the first uncovered
    edge, so the recursion is complete.  Branching on the vertices of
    that edge in order bans the earlier ones in the later branches (any
    cover through them is found earlier), which keeps the tree small;
    non-minimal leaves are pruned at the end.
    """
    edges = sorted(set(edges), key=lambda e: (len(e), sorted(e)))
    if any(not e for e in edges):
        raise ValueError("empty edge: the ideal would be the unit ideal")
    found: set[frozenset[int]] = set()

    def extend(chosen: frozenset[int], banned: frozenset[int]) -> None:
        for edge in edges:
            if not edge & chosen:
                fresh_bans: set[int] = set()
                for v in sorted(edge):
                    if v not in banned:
                        extend(chosen | {v}, banned | frozenset(fresh_bans))
                    fresh_bans.add(v)
                return
        found.add(chosen)

    extend(frozenset(), frozenset())
    return _minimalize(found)


def brute_force_minimal_covers(edges: list[frozenset[int]], nvars: int) -> list[frozenset[int]]:
    """Independent oracle: scan all 2^nvars subsets (nvars <= 20)."""
    if nvars > ORACLE_VAR_BOUND:
        raise TooManyVarsError(f"{nvars} variables exceeds oracle bound {ORACLE_VAR_BOUND}")
    edges = sorted(set(edges), key=lambda e: (len(e), sorted(e)))
    covers: set[frozenset[int]] = set()
    verts = range(1, nvars + 1)
    for size in range(nvars + 1):
        for sub in combinations(verts, size):
            cand = frozenset(sub)
            if any(cand > c or cand == c for c in covers):
                continue
            if is_cover(cand, edges):
                covers.add(cand)
    return _minimalize(covers)
