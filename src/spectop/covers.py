"""Vertex covers of support hypergraphs.

Minimal primes of a square-free monomial ideal correspond to minimal
vertex covers of the hypergraph whose edges are the supports of the
generators.  Edges and covers are int bitmasks, as the generators are:
bit i-1 stands for the vertex (variable) x_i.
"""

from __future__ import annotations

from .errors import TooManyVarsError

ORACLE_VAR_BOUND = 20


def _cover_key(mask: int) -> tuple[int, tuple[int, ...]]:
    """Covers are listed by size, then by their sorted vertex indices."""
    return mask.bit_count(), tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def minimal_covers(edges, nvars: int) -> list[int]:
    """All minimal vertex covers, by branching on an uncovered edge.

    Every minimal cover must contain some vertex of the first uncovered
    edge, so the recursion is complete.  Branching on the vertices of
    that edge in order bans the earlier ones in the later branches (any
    cover through them is found earlier), which keeps the tree small;
    non-minimal leaves are pruned at the end, against the smaller leaves
    kept so far.  A branch only grows its cover, so the edges before the
    one it branched on stay covered.  The branches wait on a stack, not
    on the call stack, so a cover may have any number of vertices.
    """
    edges = sorted(set(edges), key=lambda e: (e.bit_count(), e))
    if edges and not edges[0]:
        raise ValueError("empty edge: the ideal would be the unit ideal")
    found: set[int] = set()
    stack = [(0, 0, 0)]  # (chosen, banned, first edge not yet known covered)
    while stack:
        chosen, banned, start = stack.pop()
        for i in range(start, len(edges)):
            edge = edges[i]
            if not edge & chosen:
                bans = banned
                rest = edge
                while rest:
                    v = rest & -rest
                    if not v & banned:
                        stack.append((chosen | v, bans, i + 1))
                    bans |= v
                    rest ^= v
                break
        else:
            found.add(chosen)
    kept: list[int] = []
    for c in sorted(found, key=int.bit_count):
        if all(k & ~c for k in kept):
            kept.append(c)
    return sorted(kept, key=_cover_key)


def brute_force_minimal_covers(edges, nvars: int) -> list[int]:
    """Independent oracle: scan all 2^nvars masks (nvars <= 20) for the
    covers that stop being covers when any one vertex is dropped."""
    if nvars > ORACLE_VAR_BOUND:
        raise TooManyVarsError(f"{nvars} variables exceeds oracle bound {ORACLE_VAR_BOUND}")
    edges = set(edges)

    def is_cover(m: int) -> bool:
        return all(e & m for e in edges)

    found = [
        m
        for m in range(1 << nvars)
        if is_cover(m)
        and not any(m >> i & 1 and is_cover(m & ~(1 << i)) for i in range(nvars))
    ]
    return sorted(found, key=_cover_key)
