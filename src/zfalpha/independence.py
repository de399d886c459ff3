"""Exact maximum independent set / minimum vertex cover and related predicates."""

from __future__ import annotations

from dataclasses import dataclass

from .forcing import _check_deadline
from .graphs import bits, components, induced_edge_count, mask_of, path_order


@dataclass(frozen=True)
class IndependenceCertificate:
    alpha: int
    witness: int
    beta: int
    cover_witness: int


def is_independent(g, members):
    for v in bits(members):
        if g.adj[v] & members:
            return False
    return True


def is_near_independent(g, members):
    """True iff the set induces exactly one edge."""
    return induced_edge_count(g, members) == 1


def _solve_degree_le2(g, cand):
    """Optimal independent set when every candidate vertex has candidate-degree <= 2.

    The candidate-induced components are paths and cycles; take every
    isolated candidate, then every other vertex of each longer component's
    ``path_order`` walk, less the last of an odd cycle.
    """
    adj = g.adj
    chosen, rest = 0, cand
    while rest:  # bits(cand) inlined: an independent cand is all isolated
        low = rest & -rest
        rest ^= low
        if not adj[low.bit_length() - 1] & cand:
            chosen |= low
    for comp in components(adj, cand & ~chosen):
        walk = path_order(adj, comp)
        chosen |= mask_of(walk[::2])
        if len(walk) % 2 and adj[walk[0]] >> walk[-1] & 1:
            chosen &= ~(1 << walk[-1])
    return chosen


def _clique_cover(adj, cand):
    """Number of cliques in a greedy partition of ``cand``: an upper bound on
    alpha of the induced subgraph, which meets each clique at most once.

    Each clique starts at the lowest remaining vertex and grows by the lowest
    remaining vertex adjacent to all of its members.
    """
    count = 0
    while cand:
        low = cand & -cand
        cand ^= low
        common = adj[low.bit_length() - 1] & cand
        while common:
            low = common & -common
            cand ^= low
            common &= adj[low.bit_length() - 1]
        count += 1
    return count


def maximum_independent_set(g, deadline=None):
    """Exact alpha(g) by branch and bound on a maximum-degree vertex.

    Prunes with the candidate count and, at branching nodes, with a greedy
    clique cover of the candidates; components of maximum degree <= 2 are
    solved directly.  The branching order never depends on the bound, and a
    subtree is cut only when it cannot beat the best set strictly, so the
    witness is the first maximum set in that fixed order, whatever the bound.
    Deterministic lowest-index tie-breaking throughout.
    """
    best, adj = [0, 0], g.adj  # best: size, mask
    top = max((row.bit_count() for row in adj), default=0)  # no degree beats it

    def consider(mask):
        size = mask.bit_count()
        if size > best[0]:
            best[0], best[1] = size, mask

    def expand(cand, cur):
        _check_deadline(deadline, "independent-set")
        cur_size = cur.bit_count()
        if cur_size + cand.bit_count() <= best[0]:
            return
        if cand == 0:
            consider(cur)
            return
        best_v, best_d, rest = -1, -1, cand
        while rest and best_d < top:  # bits(cand) inlined: runs at every node
            v = (rest & -rest).bit_length() - 1
            rest ^= 1 << v
            d = (adj[v] & cand).bit_count()
            if d > best_d:
                best_v, best_d = v, d
        if best_d <= 2:
            consider(cur | _solve_degree_le2(g, cand))
            return
        if cur_size + _clique_cover(adj, cand) <= best[0]:
            return
        v = best_v
        expand(cand & ~(adj[v] | (1 << v)), cur | (1 << v))
        expand(cand & ~(1 << v), cur)

    expand(g.full_mask, 0)
    witness = best[1]
    cover = g.full_mask & ~witness
    return IndependenceCertificate(
        alpha=best[0], witness=witness, beta=g.n - best[0], cover_witness=cover)
