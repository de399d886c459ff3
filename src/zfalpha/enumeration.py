"""Isomorph-free enumeration of connected cubic graphs on up to 12 vertices.

Orderly generation: vertices are added one at a time, each new vertex choosing
its neighbors among earlier vertices, and a partial graph is extended only if
its labeling is canonical (lexicographically maximal adjacency bit string over
all relabelings).  Deleting the last vertex of a canonical graph leaves a
canonical graph, so every isomorphism class is produced exactly once.
"""

from __future__ import annotations

import itertools

from .graphs import Graph, GraphError, is_connected


def _columns(adj, k):
    """Column values of the upper triangle: column j collects x(i, j) for i < j,
    with i = 0 the most significant bit."""
    cols = []
    for j in range(1, k):
        val = 0
        for i in range(j):
            val = (val << 1) | ((adj[i] >> j) & 1)
        cols.append(val)
    return cols


def _is_canonical(adj, k):
    """True iff no relabeling of the k placed vertices beats the identity
    labeling's column string."""
    target = _columns(adj, k)

    def place(position, used, placed):
        if position == k:
            return True
        for v in range(k):
            if used & (1 << v):
                continue
            val = 0
            for u in placed:
                val = (val << 1) | ((adj[u] >> v) & 1)
            goal = target[position - 1]
            if val > goal:
                return False
            if val == goal:
                if not place(position + 1, used | (1 << v), placed + [v]):
                    return False
        return True

    for v in range(k):
        if not place(1, 1 << v, [v]):
            return False
    return True


def enumerate_connected_cubic(n):
    """List all non-isomorphic connected cubic graphs on n vertices.

    Built-in range is 4 <= n <= 12 (even); larger inputs should come from
    externally generated graph6 files.
    """
    if n % 2 != 0:
        raise GraphError("cubic graphs need an even vertex count")
    if not 4 <= n <= 12:
        raise GraphError("built-in enumeration supports 4 <= n <= 12")

    results = []

    def extend(adj):
        k = len(adj)
        if k == n:
            if all(row.bit_count() == 3 for row in adj):
                g = Graph(n, tuple(adj))
                if is_connected(g):
                    results.append(g)
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
                new_adj = list(adj) + [0]
                for u in combo:
                    new_adj[u] |= 1 << k
                    new_adj[k] |= 1 << u
                if _is_canonical(new_adj, k + 1):
                    extend(new_adj)

    extend([0])
    return results
