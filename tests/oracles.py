"""Independent reference implementations used to validate the fast solvers.

Everything here favors obviousness over speed: full subset enumeration,
set-based propagation, and networkx for isomorphism testing.  The imports
from the package under test are the enumerator behind ``cubic_graphs``, a
shared cache of test inputs (``count_labeled_connected_cubic``,
``automorphism_count`` and ``is_canonical_by_columns`` are its oracles), and
the closure and minimal-fort search that ``fort_search_zero_forcing``, a
second exact-Z search, is built on.
"""

import functools
import heapq
import itertools
import random

import networkx as nx

from zfalpha.enumeration import enumerate_connected_cubic
from zfalpha.forcing import closure, enumerate_minimal_forts
from zfalpha.graphs import GraphError, bits


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


def brute_zero_forcing_avoiding(g, forbidden):
    """Size of a smallest zero forcing set that avoids the ``forbidden``
    mask, or None if no set does."""
    allowed = [v for v in range(g.n) if not forbidden >> v & 1]
    for size in range(0, len(allowed) + 1):
        for combo in itertools.combinations(allowed, size):
            if len(brute_closure(g, combo)) == g.n:
                return size
    return None


def unpruned_wavefront(g):
    """Witness of the closure dynamic program run until the full set itself
    is popped, with no early stop: the reference for ``forcing._wavefront``.
    Same start (every false-twin class blue but its highest member), moves,
    costs and ``(cost, mask)`` order; the twin classes come from grouping
    the sorted adjacency rows, and the closure is a plain fixpoint sweep
    over the vertices."""
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

    by_row = sorted(range(g.n), key=lambda v: (g.adj[v], v))
    kept = [v for _, group in itertools.groupby(by_row, key=lambda v: g.adj[v])
            for v in list(group)[:-1]]
    start = sum(1 << v for v in kept)
    origin = sweep_closure(start)
    best, move, heap = {origin: len(kept)}, {}, [(len(kept), origin)]
    while True:
        cost, blue = heapq.heappop(heap)
        if cost > best[blue]:
            continue
        if blue == g.full_mask:
            witness = start
            while blue != origin:
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


# ---------------------------------------------------------------------------
# a second exact-Z search, by fort hitting, that the wavefront is compared
# against


def _is_fort_without(g, fort, v):
    """True iff ``fort`` minus ``v`` is a fort, given that ``fort`` is one.

    Removing v changes the inside count only of v and of its neighbours, so
    only those outside vertices can newly see exactly one inside neighbour.
    """
    adj = g.adj
    candidate = fort & ~(1 << v)
    check = (adj[v] & ~fort) | (1 << v)
    while check:  # bits(check) inlined: this runs for every vertex tried
        low = check & -check
        inside = adj[low.bit_length() - 1] & candidate
        if inside and inside & (inside - 1) == 0:
            return False
        check ^= low
    return True


def _shrink_fort(g, members):
    """Greedy element removal while the set remains a fort; ``members``
    must be a fort."""
    shrunk = True
    while shrunk:
        shrunk = False
        for v in bits(members):
            candidate = members & ~(1 << v)
            if candidate and _is_fort_without(g, members, v):
                members = candidate
                shrunk = True
    return members


def _packing(forts, limit=None):
    """Size of the greedy packing of pairwise disjoint forts, taken in list
    order: a lower bound on every set that hits them all.  Counting stops
    once the size exceeds ``limit``."""
    used = 0
    size = 0
    for f in forts:
        if not f & used:
            used |= f
            size += 1
            if limit is not None and size > limit:
                break
    return size


def _greedy_forcing_set(g, forbidden=0):
    """Upper-bound witness: grow by maximum closure gain, then prune greedily."""
    blue = 0
    closed = 0
    allowed = g.full_mask & ~forbidden
    while closed != g.full_mask:
        best_v, best_gain = -1, -1
        for v in bits(allowed & ~blue):
            # the closure of blue + v is that of closed + v
            gain = closure(g, closed | 1 << v, closed).bit_count()
            if gain > best_gain:
                best_v, best_gain = v, gain
        if best_v < 0:
            raise GraphError("no forcing set avoids the forbidden vertices")
        blue |= 1 << best_v
        closed = closure(g, closed | 1 << best_v, closed)
    for v in bits(blue):
        candidate = blue & ~(1 << v)
        if candidate and closure(g, candidate) == g.full_mask:
            blue = candidate
    return blue


def fort_search_zero_forcing(g, forbidden=0):
    """Minimum zero forcing set avoiding ``forbidden``; returns (witness, forts).

    Iterative-deepening search over vertex sets.  Each node branches on an
    unhit fort; when every known fort is hit but the closure stalls, the
    stalled white set yields a new fort and the search continues against it.
    Infeasible (set, budget) states are memoized across depths.  The greedy
    upper-bound witness avoids ``forbidden`` and forces, so it hits every
    fort: no fort lies inside ``forbidden`` and no branch set is empty.

    The seeds are the minimal forts on at most three vertices (two when
    n > 40), from ``enumerate_minimal_forts``.  ``forts`` is kept in
    generation order (the seeds sorted by size, then value).  A node sees
    its unhit forts ordered by size, ties in generation order; it builds
    that list from its parent's, filtered by the one vertex added, plus the
    forts generated since the parent's list was built.
    """
    if g.n == 0:
        return 0, []
    full = g.full_mask
    allowed = full & ~forbidden
    ub_witness = _greedy_forcing_set(g, forbidden)
    forts = enumerate_minimal_forts(g, max_size=3 if g.n <= 40 else 2)
    if not forts:
        forts = [_shrink_fort(g, full)]
    forts.sort(key=lambda f: (f.bit_count(), f))
    seen = {}

    def dfs(chosen, budget, unhit, known):
        # unhit: the forts among the first ``known`` that the parent's set
        # misses, in the order the parent saw them
        if seen.get(chosen, -1) >= budget:
            return None
        unhit = [f for f in unhit if not f & chosen]
        if known < len(forts):
            # newer forts go after the older ones of their size (stable sort)
            unhit += [f for f in forts[known:] if not f & chosen]
            unhit.sort(key=int.bit_count)
        known = len(forts)
        if unhit:
            # branch on the first unhit fort with the fewest allowed vertices;
            # without forbidden vertices that is the first
            if forbidden:
                branch = min(unhit, key=lambda f: (f & allowed).bit_count())
                branch &= allowed
            else:
                branch = unhit[0]
            if _packing(unhit, budget) > budget:
                seen[chosen] = budget
                return None
        else:
            closed = closure(g, chosen)
            if closed == full:
                return chosen
            new_fort = _shrink_fort(g, full & ~closed)
            forts.append(new_fort)
            branch = new_fort & allowed
        if budget == 0:
            seen[chosen] = 0
            return None
        for v in bits(branch):
            result = dfs(chosen | (1 << v), budget - 1, unhit, known)
            if result is not None:
                return result
        seen[chosen] = budget
        return None

    try:
        for size in range(max(_packing(forts), 1), ub_witness.bit_count()):
            found = dfs(0, size, [], 0)
            if found is not None:
                return found, forts
        return ub_witness, forts
    finally:
        # dfs refers to itself, so without this the cycle would hold ``seen``
        # until the next full garbage collection
        del dfs


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
