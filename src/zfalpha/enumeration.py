"""Isomorph-free enumeration of connected cubic graphs on up to 14 vertices.

Orderly generation (Read, *Every one a winner*, 1978): vertices are added one
at a time, each new vertex choosing its neighbors among earlier vertices, and a
partial graph is extended only if its labeling is canonical (lexicographically
maximal adjacency bit string over all relabelings).  Deleting the last vertex
of a canonical graph leaves a canonical graph, so every isomorphism class is
produced exactly once.

The canonicity test is a depth-first search over relabelings that keeps each
unplaced vertex's placed neighbours as a bitmask of positions, so comparing a
candidate with the identity's column is one integer comparison.  A branch whose
new vertex closes a component of degree-3 vertices short of n vertices is cut
before that test: later vertices attach only to vertices of degree below 3,
so every graph below it is disconnected.

Most candidates for a new vertex k are dropped before the component cut and
the canonicity test, by one swap test (``_beaten_by_swap``).  Swapping
positions k - 1 and k leaves columns 0..k-2 as they are, and makes column
k - 1 the new vertex's neighbours among positions 0..k-2.  If that column
beats the identity's column k - 1, the swapped labeling beats the identity
at its first difference, so the partial graph is not canonical and
``_is_canonical`` would reject it too.  The test never drops a graph that
the search accepts, so the output and its order are those of the search
alone.
"""

from __future__ import annotations

import itertools

from .graphs import Graph, GraphError


def _is_canonical(adj, k):
    """True iff no relabeling of the k placed vertices beats the identity
    labeling's column string.

    Column p holds x(i, p) for i < p, position 0 first.  As a bitmask with
    position i at bit i, the identity's column p is ``adj[p] & ((1 << p) - 1)``
    and a candidate's is ``w[v]``, its neighbours among the placed positions;
    the candidate beats the identity when the lowest bit where the two differ
    is set in ``w[v]``, and ties when they are equal.  A candidate that meets
    none of the vertices at positions 0..i0, where i0 is the goal's lowest
    bit, loses at i0, so only neighbours of those vertices are scanned.  The
    search answers whether any chain of ties ends in a beat, which does not
    depend on the order it is scanned in.
    """
    goals = [adj[p] & ((1 << p) - 1) for p in range(k)]
    w = [0] * k      # placed neighbours of each unplaced vertex, by position
    near = [0] * k   # near[p]: neighbours of the vertices at positions 0..p

    def place(p, unused):
        if p == k:
            return True
        goal = goals[p]
        if goal:
            cand = unused & near[(goal & -goal).bit_length() - 1]
        else:
            cand = unused
        bit = 1 << p
        while cand:
            low = cand & -cand
            cand ^= low
            v = low.bit_length() - 1
            x = w[v]
            if x != goal:
                diff = x ^ goal
                if x & diff & -diff:
                    return False
                continue
            rest = unused ^ low
            row = adj[v]
            near[p] = near[p - 1] | row if p else row
            nbrs = row & rest
            m = nbrs
            while m:
                lb = m & -m
                w[lb.bit_length() - 1] |= bit
                m ^= lb
            ok = place(p + 1, rest)
            m = nbrs
            while m:
                lb = m & -m
                w[lb.bit_length() - 1] ^= bit
                m ^= lb
            if not ok:
                return False
        return True

    return place(0, (1 << k) - 1)


def _closes_small_component(adj, v, n):
    """True iff v's component has fewer than n vertices, all of degree 3."""
    seen = frontier = 1 << v
    while frontier:
        low = frontier & -frontier
        frontier ^= low
        row = adj[low.bit_length() - 1]
        if row.bit_count() != 3:
            return False
        frontier |= row & ~seen
        seen |= row
    return seen.bit_count() < n


def _beaten_by_swap(adj, col):
    """True iff giving a new vertex k = len(adj) the neighbours ``col`` (a
    bitmask) and swapping it with vertex k - 1 beats the identity's column
    k - 1: the lowest bit below k - 1 where ``col`` and ``adj[k - 1]``
    differ is set in ``col``."""
    below = (1 << (len(adj) - 1)) - 1
    x = col & below
    diff = x ^ (adj[-1] & below)
    return x & diff & -diff != 0


def check_order(n):
    """Raise GraphError unless the built-in enumeration covers n vertices:
    4 <= n <= 14 and even.  Larger inputs should come from externally
    generated graph6 files."""
    if n % 2 != 0:
        raise GraphError("cubic graphs need an even vertex count")
    if not 4 <= n <= 14:
        raise GraphError("built-in enumeration supports 4 <= n <= 14")


def enumerate_connected_cubic(n):
    """List all non-isomorphic connected cubic graphs on n vertices, for the
    sizes ``check_order`` accepts."""
    check_order(n)
    results = []

    def extend(adj):
        k = len(adj)
        if k == n:
            # cubic by the feasibility check below; connected because each
            # component was all degree 3 once its last vertex arrived, and
            # the prune below passes that only for all n vertices
            results.append(Graph(n, tuple(adj)))
            return
        deficient = [v for v in range(k) if adj[v].bit_count() < 3]
        deficiency = sum(3 - adj[v].bit_count() for v in deficient)
        slots = n - k
        for d in range(min(3, len(deficient)), -1, -1):
            # feasibility: remaining vertices must absorb all deficiency
            new_def = deficiency - d + (3 - d)
            if new_def > 3 * (slots - 1):
                continue
            for combo in itertools.combinations(deficient, d):
                col = 0
                for u in combo:
                    col |= 1 << u
                if _beaten_by_swap(adj, col):
                    continue
                new_adj = list(adj) + [col]
                for u in combo:
                    new_adj[u] |= 1 << k
                # k's component can be all degree 3 only if k took 3 edges
                if d == 3 and _closes_small_component(new_adj, k, n):
                    continue
                if _is_canonical(new_adj, k + 1):
                    extend(new_adj)

    extend([0])
    return results
