"""Independent reference implementations used to validate the fast solvers.

Everything here favors obviousness over speed: full subset enumeration,
set-based propagation, and networkx for isomorphism testing.  The one import
from the package under test is the enumerator behind ``cubic_graphs``, a
shared cache of test inputs; ``count_labeled_connected_cubic``,
``automorphism_count`` and ``is_canonical_by_columns`` are its oracles.
"""

import functools
import heapq
import itertools
import random

import networkx as nx

from zfalpha.enumeration import enumerate_connected_cubic


@functools.cache
def cubic_graphs(n):
    """enumerate_connected_cubic(n), run once per test session: n = 12 alone
    takes seconds."""
    return tuple(enumerate_connected_cubic(n))


def edges_of(adj_or_graph):
    g = adj_or_graph
    return [(u, v) for u in range(g.n) for v in range(u + 1, g.n)
            if g.adj[u] >> v & 1]


def nx_graph(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(edges_of(g))
    return h


# ---------------------------------------------------------------------------
# naive invariants (set-based, no bitmasks)


def brute_closure(g, blue):
    blue = set(blue)
    n = g.n
    nbrs = {v: {u for u in range(n) if g.adj[v] >> u & 1} for v in range(n)}
    while True:
        forced = None
        for v in list(blue):
            white = nbrs[v] - blue
            if len(white) == 1:
                forced = white.pop()
                break
        if forced is None:
            return blue
        blue.add(forced)


def brute_zero_forcing(g):
    for size in range(0, g.n + 1):
        for combo in itertools.combinations(range(g.n), size):
            if len(brute_closure(g, combo)) == g.n:
                return size
    raise AssertionError("unreachable")


def unpruned_wavefront(g):
    """Witness of the closure dynamic program run until the full set itself
    is popped, with no early stop: the reference for ``forcing._wavefront``.
    Same moves, costs and ``(cost, mask)`` order; the closure is a plain
    fixpoint sweep over the vertices."""
    def sweep_closure(blue):
        grown = True
        while grown:
            grown = False
            for v in range(g.n):
                white = g.adj[v] & ~blue
                if blue >> v & 1 and white and white & (white - 1) == 0:
                    blue |= white
                    grown = True
        return blue

    best, move, heap = {0: 0}, {}, [(0, 0)]
    while True:
        cost, blue = heapq.heappop(heap)
        if cost > best[blue]:
            continue
        if blue == g.full_mask:
            witness = 0
            while blue:
                blue, added = move[blue]
                witness |= added
            return witness
        for v in range(g.n):
            white = g.adj[v] & ~blue
            new = (white | 1 << v) & ~blue
            if not new:
                continue
            added = new & ~(1 << white.bit_length() - 1) if white else new
            reached = sweep_closure(blue | new)
            reached_cost = cost + max(new.bit_count() - 1, 1)
            if reached_cost < best.get(reached, reached_cost + 1):
                best[reached] = reached_cost
                move[reached] = (blue, added)
                heapq.heappush(heap, (reached_cost, reached))


def brute_alpha(g):
    best = 0
    for size in range(g.n, 0, -1):
        for combo in itertools.combinations(range(g.n), size):
            if all(not g.adj[u] >> v & 1
                   for u, v in itertools.combinations(combo, 2)):
                return size
    return best


def brute_is_acyclic(g):
    color = {}
    for start in range(g.n):
        if start in color:
            continue
        stack = [(start, -1)]
        color[start] = True
        while stack:
            v, parent = stack.pop()
            skipped_parent = False
            for u in range(g.n):
                if not g.adj[v] >> u & 1:
                    continue
                if u == parent and not skipped_parent:
                    skipped_parent = True
                    continue
                if u in color:
                    return False
                color[u] = True
                stack.append((u, v))
    return True


def first_decycling_set_by_combinations(g, size):
    """First S with ``size`` members, in ``itertools.combinations`` order,
    such that g - S is a forest (union-find finds no edge closing a cycle);
    None if there is none.  Returned as a vertex mask."""
    def find(root, v):
        while root[v] != v:
            v = root[v]
        return v

    edges = edges_of(g)
    for combo in itertools.combinations(range(g.n), size):
        removed = set(combo)
        root = list(range(g.n))
        for u, v in edges:
            if u in removed or v in removed:
                continue
            ru, rv = find(root, u), find(root, v)
            if ru == rv:
                break
            root[ru] = rv
        else:
            return sum(1 << v for v in combo)
    return None


def brute_decycling(g):
    for size in range(0, g.n + 1):
        for combo in itertools.combinations(range(g.n), size):
            h = nx_graph(g).copy()
            h.remove_nodes_from(combo)
            if nx.is_forest(h):
                return size
    raise AssertionError("unreachable")


# ---------------------------------------------------------------------------
# labeled cubic enumeration and automorphism counts


def _labeled_cubic(n):
    """All labeled cubic graphs on n vertices, as frozensets of edges."""
    out = []

    def extend(v, deg, edges):
        if v == n:
            out.append(frozenset(edges))
            return
        need = 3 - deg[v]
        pool = [u for u in range(v + 1, n) if deg[u] < 3]
        if need == 0:
            extend(v + 1, deg, edges)
            return
        for combo in itertools.combinations(pool, need):
            for u in combo:
                deg[u] += 1
            deg[v] += need
            extend(v + 1, deg, edges + [(v, u) for u in combo])
            deg[v] -= need
            for u in combo:
                deg[u] -= 1

    extend(0, [0] * n, [])
    return out


def count_labeled_connected_cubic(n):
    """Number of labeled connected cubic graphs on n vertices, from
    ``_labeled_cubic`` with a union-find connectivity check."""
    def find(root, v):
        while root[v] != v:
            v = root[v]
        return v

    count = 0
    for edges in _labeled_cubic(n):
        root = list(range(n))
        parts = n
        for u, v in edges:
            ru, rv = find(root, u), find(root, v)
            if ru != rv:
                root[ru] = rv
                parts -= 1
        count += parts == 1
    return count


def automorphism_count(g):
    """|Aut(g)|, by listing networkx's isomorphisms of g onto itself."""
    h = nx_graph(g)
    return sum(1 for _ in nx.algorithms.isomorphism.GraphMatcher(h, h)
               .isomorphisms_iter())


# ---------------------------------------------------------------------------
# orderly-generation canonicity, column by column


def is_canonical_by_columns(adj, k):
    """True iff no relabeling of the k vertices of ``adj`` beats the identity
    labeling's column string: column j collects x(i, j) for i < j as a
    j-bit number, i = 0 the most significant bit, and strings compare
    column by column.  The reference for ``enumeration._is_canonical``."""
    def columns():
        cols = []
        for j in range(1, k):
            val = 0
            for i in range(j):
                val = (val << 1) | ((adj[i] >> j) & 1)
            cols.append(val)
        return cols

    target = columns()

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


# ---------------------------------------------------------------------------
# random instance generators (deterministic given the rng)


def random_edge_graph(builder, n, p, rng):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < p]
    return builder(n, edges)


def random_tree_edges(n, rng):
    return [(rng.randrange(v), v) for v in range(1, n)]


def random_forest_edges(n, rng, keep=0.8):
    return [(rng.randrange(v), v) for v in range(1, n) if rng.random() < keep]


def random_cubic_edges(n, rng):
    """Edge list of a random connected cubic graph, by the pairing model:
    match 3n points at random, rejecting loops, multi-edges and disconnected
    results."""
    while True:
        points = [v for v in range(n) for _ in range(3)]
        rng.shuffle(points)
        edges = set()
        for a, b in zip(points[::2], points[1::2]):
            if a == b or (min(a, b), max(a, b)) in edges:
                break
            edges.add((min(a, b), max(a, b)))
        else:
            reached = {0}
            stack = [0]
            while stack:
                v = stack.pop()
                for e in edges:
                    if v in e:
                        u = e[0] + e[1] - v
                        if u not in reached:
                            reached.add(u)
                            stack.append(u)
            if len(reached) == n:
                return sorted(edges)


def random_connected_bounded_degree_edges(n, max_degree, extra, rng):
    """A random tree plus up to ``extra`` additional edges, all degrees capped."""
    deg = [0] * n
    edges = set()
    for v in range(1, n):
        choices = [u for u in range(v) if deg[u] < max_degree]
        u = rng.choice(choices)
        edges.add((u, v))
        deg[u] += 1
        deg[v] += 1
    for _ in range(extra):
        candidates = [(u, v) for u in range(n) for v in range(u + 1, n)
                      if (u, v) not in edges
                      and deg[u] < max_degree and deg[v] < max_degree]
        if not candidates:
            break
        u, v = rng.choice(candidates)
        edges.add((u, v))
        deg[u] += 1
        deg[v] += 1
    return sorted(edges)


def random_bipartite_no_isolated(n_left, n_right, p, rng):
    """Edge list of a random bipartite graph where every vertex gets a mate."""
    n = n_left + n_right
    edges = set()
    for u in range(n_left):
        for v in range(n_left, n):
            if rng.random() < p:
                edges.add((u, v))
    for u in range(n_left):
        if not any(e[0] == u for e in edges):
            edges.add((u, rng.randrange(n_left, n)))
    for v in range(n_left, n):
        if not any(e[1] == v for e in edges):
            edges.add((rng.randrange(n_left), v))
    return n, sorted(edges)
