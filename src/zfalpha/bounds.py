"""Constructive machinery relating zero forcing, independence, and decycling.

Everything here either builds an explicit zero forcing set (and verifies it by
closure) or exhaustively searches for a minimum decycling set, so every reported
bound comes with a checkable witness.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

# closure is not called here, but bench/tracing.py counts calls through it
from .forcing import (_check_deadline, closure, is_zero_forcing_set,
                      zero_forcing_number)
from .graphs import (GraphError, bfs_layers, bits, classify_degrees,
                     components, connected_components, induced_edge_count,
                     induced_subgraph, is_acyclic, is_complete, is_connected,
                     mask_of, minimum_edge_cover, path_order)
from .independence import is_independent, maximum_independent_set


@dataclass(frozen=True, slots=True)
class BoundReport:
    bound_name: str
    bound_value: int
    holds: bool
    witness: int  # forcing-set mask where applicable, else 0
    applicable: bool = True


@dataclass(frozen=True)
class DecyclingPartition:
    r_mask: int
    s_mask: int
    s_class: str  # independent | near_independent | other
    r_class: str  # tree | forest_2_components | other


@dataclass(frozen=True)
class EmbeddabilityReport:
    phi: int
    phi_witness: int
    max_genus: int
    upper_embeddable: bool
    one_face: bool
    two_face: bool


# ---------------------------------------------------------------------------
# path covers of forests


def _linear_forest_paths(adj, within):
    """Paths of the linear forest on ``within`` under the neighbour masks
    ``adj``, each as its ``path_order`` walk, ordered by smallest member."""
    return [path_order(adj, comp) for comp in components(adj, within)]


def minimum_path_cover(f):
    """Minimum path cover of an acyclic graph, as a list of vertex sequences.

    Leaf-to-root greedy, each component rooted at its lowest vertex: a vertex
    keeps the edges to its two lowest children that still end a path, and it
    ends a path itself when it keeps fewer than two.  The count equals the
    zero forcing number of the forest (cross-checked in the test suite).
    """
    if not is_acyclic(f):
        raise GraphError("minimum_path_cover requires an acyclic graph")
    kept = [0] * f.n
    ends = 0  # visited vertices that still end a path
    for layer in reversed(bfs_layers(f, f.full_mask)):
        for v in bits(layer):
            # visited neighbours are children: a forest has no edge inside a
            # layer
            kids = f.adj[v] & ends
            rest = kids & (kids - 1)  # all but the lowest
            for u in bits(kids ^ (rest & (rest - 1))):  # the lowest two
                kept[v] |= 1 << u
                kept[u] |= 1 << v
            if not rest:
                ends |= 1 << v
    return _linear_forest_paths(kept, f.full_mask)


# ---------------------------------------------------------------------------
# maximum independent set with all-path complement


def _cycle_components(g, h_mask):
    """Components of the induced subgraph on h_mask that contain a cycle."""
    return [c for c in components(g.adj, h_mask)
            if induced_edge_count(g, c) >= c.bit_count()]


def _forbid_k4_components(g):
    for comp in connected_components(g):
        if comp.bit_count() == 4 and is_complete(g, comp):
            raise GraphError("a component isomorphic to K4 is not allowed")


def path_complement_mis(g, mis=None):
    """A maximum independent set A such that every component of g-A is a path.

    Starts from an exact maximum independent set (``mis``, g's
    ``IndependenceCertificate``, computed when not given) and repeatedly
    applies the alternating-path swaps, each of which strictly reduces the
    number of cycles in the complement.  With S = A, g - S is a linear forest
    with c = 2 alpha - n/2 paths and beta(G[A]) = 0, so
    ``forcing_set_from_decycling(g, A)`` gives a forcing set of
    alpha + c = 3 alpha - n/2 vertices.
    """
    profile = classify_degrees(g)
    if not profile.is_cubic:
        raise GraphError("path_complement_mis requires a cubic graph")
    _forbid_k4_components(g)
    if mis is None:
        mis = maximum_independent_set(g)
    a_mask = mis.witness
    cycles = _cycle_components(g, g.full_mask & ~a_mask)
    while cycles:
        improved = _swap_once(g, a_mask, cycles)
        if improved is None:
            raise GraphError("no cycle-reducing swap found; invariant violated")
        new_cycles = _cycle_components(g, g.full_mask & ~improved)
        if len(new_cycles) >= len(cycles):
            raise GraphError("swap did not reduce the cycle count")
        a_mask, cycles = improved, new_cycles
    return a_mask


def _swap_once(g, a_mask, cycle_comps):
    """A maximum independent set with fewer cycle components in its
    complement than ``a_mask`` has, made by one chain swap, or None.

    With H = g - A, a chain c0 a0 c1 a1 ... ck ak starts at a vertex c0 of a
    cycle component of H and an A-neighbour a0 of it.  It grows from its last
    A-vertex through an H-leaf c of a component of H not yet in the chain,
    when the lowest other H-leaf of that component is also adjacent to the
    last A-vertex; c's lowest A-neighbour other than the last A-vertex, if
    not yet in the chain, comes next.  Chains are searched depth first, each
    extension before the chain itself.  A chain swaps a0..ak out of A and
    c0..ck in; failing that, an H-degree-2 neighbour x of ak other than ck
    whose first H-neighbour in the chain is ci swaps a0..a(i-1), ak out and
    c0..c(i-1), x in.  The first swap that keeps A independent and of the
    same size and lowers the cycle count wins.
    """
    h_mask = g.full_mask & ~a_mask
    comp_of = {v: comp for comp in components(g.adj, h_mask) for v in bits(comp)}

    def h_degree(v):
        return (g.adj[v] & h_mask).bit_count()

    def improves(candidate):
        return (candidate.bit_count() == a_mask.bit_count()
                and is_independent(g, candidate)
                and len(_cycle_components(g, g.full_mask & ~candidate))
                < len(cycle_comps))

    def swap(cs, as_):
        a_k = as_[-1]
        primary = a_mask & ~mask_of(as_) | mask_of(cs)
        if improves(primary):
            return primary
        for x in bits(g.adj[a_k] & h_mask):
            if x == cs[-1] or h_degree(x) != 2:
                continue
            i = next((i for i, c in enumerate(cs) if g.adj[x] >> c & 1), None)
            if i is not None:
                secondary = (a_mask & ~(mask_of(as_[:i]) | 1 << a_k)
                             | mask_of(cs[:i]) | 1 << x)
                if improves(secondary):
                    return secondary
        return None

    def grow(cs, as_, used):
        a_k = as_[-1]
        for c in bits(g.adj[a_k] & h_mask):
            comp = comp_of[c]
            if h_degree(c) != 1 or comp & used:
                continue
            other = next((u for u in bits(comp)
                          if u != c and h_degree(u) == 1), None)
            if other is None or not g.adj[a_k] >> other & 1:
                continue
            a_next = next(bits(g.adj[c] & a_mask & ~(1 << a_k)), None)
            if a_next is None or a_next in as_:
                continue
            found = grow(cs + [c], as_ + [a_next], used | comp)
            if found is not None:
                return found
        return swap(cs, as_)

    for comp in cycle_comps:
        for c0 in bits(comp):
            for a0 in bits(g.adj[c0] & a_mask):
                found = grow([c0], [a0], comp)
                if found is not None:
                    return found
    return None


# ---------------------------------------------------------------------------
# forcing sets from decycling sets


def _path_components_after_removal(g, f_mask, removed_edges):
    """Components of the forest on f_mask after deleting removed_edges, each
    as its ``path_order`` walk; raises if a vertex keeps three neighbours."""
    adj = [row & f_mask if f_mask >> v & 1 else 0 for v, row in enumerate(g.adj)]
    for u, v in removed_edges:
        adj[u] &= ~(1 << v)
        adj[v] &= ~(1 << u)
    if any(row.bit_count() > 2 for row in adj):
        raise GraphError("component is not a path after edge-cover removal")
    # acyclic: g - S is a forest, and deleting edges keeps it one
    return _linear_forest_paths(adj, f_mask)


def forcing_set_from_decycling(g, s_mask, mis=None):
    """Explicit zero forcing set of size <= alpha + beta(G[S]) + c.

    Requires g cubic and g-S acyclic with c components.  Builds the witness
    through an edge cover of the degree-3 vertices of the forest F = g-S,
    deletes those edges to leave a path cover of F, and takes S plus the
    lowest endpoint of each path.  The cover is a minimum edge cover of the
    degree-3 vertices with a degree-3 neighbour in F; each lone one, with
    none, is covered by its lowest-index edge in F.  alpha comes from
    ``mis``, g's ``IndependenceCertificate``, computed when not given.

    Lemma: S plus any one endpoint of each path of any path cover of the
    forest F by edges of F forces g, so no choice of endpoints is searched.
    Suppose the closure stops short, and take a path with a white vertex.
    Its blue prefix, grown from the chosen end, ends at a vertex with two
    white neighbours: the next one on the path and one off it (an edge to a
    later vertex of the path would close a cycle in F).  That neighbour lies
    beyond the blue prefix of another path; repeat from that path.  This
    walks over the paths along edges of F, leaving each path from a blue
    vertex and entering the next at a white one, so it never returns along
    the edge it came by.  Two edges between the same two paths would close
    a cycle in F, so the paths and these edges form a forest too, and a walk
    in a forest that never turns back cannot go on forever.  The witness is
    still re-checked by ``is_zero_forcing_set``.
    """
    if not classify_degrees(g).is_cubic:
        raise GraphError("forcing_set_from_decycling requires a cubic graph")
    f_mask = g.full_mask & ~s_mask
    c = len(components(g.adj, f_mask))
    if induced_edge_count(g, f_mask) != f_mask.bit_count() - c:
        raise GraphError("g - S must be acyclic")

    d3 = mask_of(v for v in bits(f_mask) if (g.adj[v] & f_mask).bit_count() == 3)
    lone = mask_of(v for v in bits(d3) if not g.adj[v] & d3)
    removed = list(minimum_edge_cover(g, d3 & ~lone))
    removed += [(v, next(bits(g.adj[v] & f_mask))) for v in bits(lone)]

    paths = _path_components_after_removal(g, f_mask, removed)
    witness = s_mask | mask_of(p[0] for p in paths)

    sub_s, _ = induced_subgraph(g, s_mask)
    beta_s = maximum_independent_set(sub_s).beta
    if mis is None:
        mis = maximum_independent_set(g)
    value = mis.alpha + beta_s + c
    holds = is_zero_forcing_set(g, witness) and witness.bit_count() <= value
    return BoundReport("decycling_forcing", value, holds, witness)


# ---------------------------------------------------------------------------
# decycling number, embeddability, and decycling partitions


def _first_decycling_set(g, size, deadline=None):
    """First S with ``size`` members, in ``combinations`` order, such that
    g - S is a forest; None if there is none.

    Depth-first over the vertices 0..n-1, taking each before skipping it, so
    the k-subsets are visited in ``combinations`` order and the first hit is
    the lexicographically first decycling set.  Two exact prunes cut dead
    subtrees without reordering them: a skipped vertex can never be taken
    later, so skipping v is dead when it closes a cycle among the skipped
    vertices; and deleting a vertex lowers the cyclomatic number m - n + c
    of g - chosen by at most max_degree - 1, so a node is dead when that
    number exceeds (max_degree - 1) times the picks left.  The second prune
    first tries c >= 1 (c = 0 when nothing is left), and counts the
    components only when that bound passes.  A hit is a node with no picks
    left that passes the second prune, i.e. a forest.
    ``_check_deadline(deadline, "decycling")`` runs once per search node.

    Counting identity: on connected cubic g with |S| = k, g - S has
    3n/2 - 3k + e(S) edges, and as a forest with c components n - k - c, so
    e(S) + c = 2k - n/2.  At k = (n+2)/4 every hit is independent with a
    tree complement; at k = (n+4)/4 every hit meets one two-face clause.
    """
    if size == 0:
        return 0 if is_acyclic(g) else None
    slack = max(classify_degrees(g).max_degree - 1, 0)
    full = g.full_mask

    def search(v, chosen, edges, picks):
        # vertices below v are decided; g - chosen has ``edges`` edges
        skipped = (1 << v) - 1 & ~chosen
        for u in range(v, g.n - picks + 1):
            _check_deadline(deadline, "decycling")
            taken = chosen | 1 << u
            rest = full & ~taken
            left = edges - (g.adj[u] & rest).bit_count()
            # the cyclomatic number left - |rest| + c(rest) may be at most
            # slack * (picks - 1), so c(rest) at most ``room``
            room = slack * (picks - 1) - left + rest.bit_count()
            if (room >= (1 if rest else 0)
                    and len(components(g.adj, rest)) <= room):
                if picks == 1:
                    return taken
                found = search(u + 1, taken, left, picks - 1)
                if found is not None:
                    return found
            # skipped was a forest: u closes a cycle only through two
            # skipped neighbours
            skipped |= 1 << u
            if ((g.adj[u] & skipped).bit_count() > 1
                    and not is_acyclic(g, skipped)):
                return None
        return None

    return search(0, 0, g.edge_count(), size)


def decycling_number(g, deadline=None):
    """Minimum decycling (feedback vertex) set: the first hit of
    ``_first_decycling_set`` over ascending sizes, from
    ceil((m - n + 1) / (max_degree - 1)) up (removing phi vertices deletes at
    most max_degree * phi edges and leaves a forest on n - phi vertices), so
    the witness is the lexicographically first minimum decycling set.  Raises
    ``SolverBudgetExceeded`` once ``deadline`` (a ``time.monotonic`` value)
    has passed, checked at every search node."""
    if is_acyclic(g):
        return 0, 0
    slack = classify_degrees(g).max_degree - 1
    for size in range(max(1, -(-(g.edge_count() - g.n + 1) // slack)), g.n):
        s = _first_decycling_set(g, size, deadline)
        if s is not None:
            return size, s
    raise AssertionError("unreachable: one remaining vertex is a forest")


def _require_connected_cubic(g, op):
    if not classify_degrees(g).is_cubic or not is_connected(g):
        raise GraphError(f"{op} requires a connected cubic graph")


def find_partition_one_face(g, decycling=None):
    """Partition with S independent and g[R] a tree, or None.

    Labels the minimum decycling set S of ``decycling``, g's
    ``decycling_number`` result (computed when not given): a partition
    exists iff phi = (n+2)/4, and then S is one.
    """
    _require_connected_cubic(g, "find_partition_one_face")
    phi, s = decycling or decycling_number(g)
    if 4 * phi != g.n + 2:
        return None
    return DecyclingPartition(g.full_mask & ~s, s, "independent", "tree")


def find_partition_two_face(g, decycling=None):
    """Partition matching either two-face clause, or None.

    Clause 1: g[R] a tree and S near independent.
    Clause 2: g[R] a two-component forest and S independent.
    Labels the minimum decycling set S of ``decycling``, g's
    ``decycling_number`` result (computed when not given): a partition
    exists iff phi = (n+4)/4, and then S meets one clause.
    """
    _require_connected_cubic(g, "find_partition_two_face")
    phi, s = decycling or decycling_number(g)
    if 4 * phi != g.n + 4:
        return None
    if is_independent(g, s):
        return DecyclingPartition(g.full_mask & ~s, s, "independent",
                                  "forest_2_components")
    return DecyclingPartition(g.full_mask & ~s, s, "near_independent", "tree")


def embeddability_report(g):
    """Decycling number, maximum genus, and face-embeddability classification,
    all from one ``decycling_number`` search."""
    _require_connected_cubic(g, "embeddability_report")
    decycling = phi, witness = decycling_number(g)
    one = find_partition_one_face(g, decycling) is not None
    two = find_partition_two_face(g, decycling) is not None
    return EmbeddabilityReport(
        phi=phi,
        phi_witness=witness,
        max_genus=g.n // 2 + 1 - phi,
        upper_embeddable=one or two,
        one_face=one,
        two_face=two,
    )


# ---------------------------------------------------------------------------
# bound checks


def _degree_alpha_set(g, a_mask=None):
    """Recursive zero-forcing-set construction of size <= (max_degree - 1) * alpha,
    grown from the maximum independent set ``a_mask`` (computed when not given)."""
    delta = classify_degrees(g).max_degree
    if a_mask is None:
        a_mask = maximum_independent_set(g).witness
    blue = a_mask
    for comp in components(g.adj, g.full_mask & ~a_mask):
        size = comp.bit_count()
        degs = {u: (g.adj[u] & comp).bit_count() for u in bits(comp)}
        maxd = max(degs.values())
        if maxd <= 2:
            nedges = sum(degs.values()) // 2
            if nedges == size - 1:
                # path: lowest endpoint
                blue |= 1 << min(u for u in bits(comp) if degs[u] <= 1)
            elif delta == 3:
                # cycle, max degree 3: one vertex lying in a triangle of g
                # suffices (the rest is forced through the independent set);
                # without such a vertex the whole cycle is forced through it
                pick = None
                for u in bits(comp):
                    nbrs = list(bits(g.adj[u]))
                    if any(g.has_edge(x, y)
                           for x, y in itertools.combinations(nbrs, 2)):
                        pick = u
                        break
                blue |= 1 << (pick if pick is not None else next(bits(comp)))
            else:
                # cycle, max degree >= 4: two adjacent vertices form a zero
                # forcing set of the component on its own
                u = next(bits(comp))
                blue |= (1 << u) | (g.adj[u] & comp) & -(g.adj[u] & comp)
        elif is_complete(g, comp):
            if size == delta + 1:
                # pick two vertices with no common neighbor in A to leave white
                pair = None
                for x, y in itertools.combinations(sorted(bits(comp)), 2):
                    if not (g.adj[x] & g.adj[y] & a_mask):
                        pair = (x, y)
                        break
                if pair is None:
                    raise GraphError(
                        "complete component with all pairs sharing an "
                        "A-neighbor; graph is complete or disconnected")
                blue |= comp & ~((1 << pair[0]) | (1 << pair[1]))
            else:
                blue |= comp & ~(1 << max(bits(comp)))
        else:
            sub, verts = induced_subgraph(g, comp)
            sub_blue = _degree_alpha_set(sub)
            for i in bits(sub_blue):
                blue |= 1 << verts[i]
    return blue


def degree_alpha_construction(g, mis=None):
    """Explicit zero forcing set witnessing Z <= (max_degree - 1) * alpha.

    ``mis`` is g's ``IndependenceCertificate``, computed when not given."""
    delta = classify_degrees(g).max_degree
    if delta < 3:
        raise GraphError("requires maximum degree at least 3")
    if not is_connected(g):
        raise GraphError("requires a connected graph")
    if is_complete(g):
        raise GraphError("requires a non-complete graph")
    if mis is None:
        mis = maximum_independent_set(g)
    witness = _degree_alpha_set(g, mis.witness)
    value = (delta - 1) * mis.alpha
    holds = is_zero_forcing_set(g, witness) and witness.bit_count() <= value
    return BoundReport("degree_alpha", value, holds, witness)


def check_small_z_bounds(g, z=None, alpha=None):
    """Counting bounds: ceil(n/(Z+1)) <= alpha, and Z <= alpha
    whenever Z <= sqrt(n).  Returns two reports; the second is marked not
    applicable when its hypothesis fails."""
    if z is None:
        z, _ = zero_forcing_number(g)
    if alpha is None:
        alpha = maximum_independent_set(g).alpha
    lower = -(-g.n // (z + 1))
    first = BoundReport("alpha_at_least_n_over_z_plus_1", lower, lower <= alpha, 0)
    if z * z <= g.n:
        second = BoundReport("z_at_most_alpha_when_z_small", alpha, z <= alpha, 0)
    else:
        second = BoundReport("z_at_most_alpha_when_z_small", alpha, True, 0,
                             applicable=False)
    return first, second
