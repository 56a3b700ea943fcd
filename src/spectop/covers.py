"""Vertex covers of support hypergraphs.

Minimal primes of a square-free monomial ideal correspond to minimal
vertex covers of the hypergraph whose edges are the supports of the
generators.  Edges and covers are int bitmasks, as the generators are:
bit i-1 stands for the vertex (variable) x_i.  minimal_covers finds the
minimal covers by branching; brute_force_minimal_covers is its
independent oracle, which checks every vertex set in one bit-parallel
scan.
"""

from __future__ import annotations

import re

from .errors import TooManyVarsError

ORACLE_VAR_BOUND = 20


def _cover_key(mask: int) -> tuple[int, tuple[int, ...]]:
    """Covers are listed by size, then by their sorted vertex indices."""
    return mask.bit_count(), tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def minimal_covers(edges) -> list[int]:
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
    """Independent oracle: the covers among all 2^nvars vertex sets that
    stop being covers when any one vertex is dropped (nvars <= 20).

    Every vertex set is decided at once.  Bit m of a 2^nvars-bit int
    stands for the vertex set m, and has[i] holds the sets that contain
    vertex i.  The covers are the AND over the edges of the OR of has[v]
    over each edge's vertices (an edge's bits at or above nvars meet no
    set).  A cover m is redundant when m minus some vertex i is still a
    cover, that is, when `cover << (1 << i) & has[i]` sets bit m.
    """
    if nvars > ORACLE_VAR_BOUND:
        raise TooManyVarsError(f"{nvars} variables exceeds oracle bound {ORACLE_VAR_BOUND}")
    size = 1 << nvars
    has = []
    for i in range(nvars):
        # 2^i clear bits then 2^i set bits, doubled until it spans size.
        pattern, width = ((1 << (1 << i)) - 1) << (1 << i), 2 << i
        while width < size:
            pattern |= pattern << width
            width <<= 1
        has.append(pattern)
    cover = (1 << size) - 1
    for e in set(edges):
        hit = 0
        for i in range(nvars):
            if e >> i & 1:
                hit |= has[i]
        cover &= hit
    redundant = 0
    for i in range(nvars):
        redundant |= cover << (1 << i) & has[i]
    bits = f"{cover & ~redundant:b}"[::-1]
    return sorted((m.start() for m in re.finditer("1", bits)), key=_cover_key)
