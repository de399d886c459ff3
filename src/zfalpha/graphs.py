"""Immutable bitmask graphs, graph6 I/O, and bipartite matching primitives.

Vertices are 0..n-1 and vertex sets are plain Python ints used as bitmasks,
which keeps every set operation a single machine-word-ish operation for the
graph sizes the exact solvers can handle (n <= 64).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass


class GraphError(ValueError):
    """Base class for graph construction / precondition errors."""


class Graph6Error(GraphError):
    """Malformed or unsupported graph6 data."""


class NotBipartiteError(GraphError):
    """Raised when an odd cycle is found by the 2-coloring check."""


class IsolatedVertexError(GraphError):
    """Raised when an edge cover is requested for a graph with isolated vertices."""


MAX_VERTICES = 64


def bits(mask):
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices):
    """Bitmask of an iterable of vertex indices."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


@dataclass(frozen=True, slots=True)
class Graph:
    """Simple undirected graph with per-vertex neighbor bitmasks."""

    n: int
    adj: tuple

    def __post_init__(self):
        if not 0 <= self.n <= MAX_VERTICES:
            raise GraphError(f"vertex count {self.n} outside 0..{MAX_VERTICES}")
        if len(self.adj) != self.n:
            raise GraphError("adjacency length does not match vertex count")
        full = (1 << self.n) - 1
        for v, row in enumerate(self.adj):
            if row & (1 << v):
                raise GraphError(f"loop at vertex {v}")
            if row & ~full:
                raise GraphError(f"neighbor out of range at vertex {v}")
        for v, row in enumerate(self.adj):
            while row:  # bits(row) inlined: every Graph is checked
                u = (row & -row).bit_length() - 1
                row ^= 1 << u
                if not self.adj[u] >> v & 1:
                    raise GraphError(f"asymmetric edge {v}-{u}")

    @property
    def full_mask(self):
        return (1 << self.n) - 1

    def degree(self, v):
        return self.adj[v].bit_count()

    def has_edge(self, u, v):
        return bool(self.adj[u] & (1 << v))

    def edges(self):
        """All edges as (u, v) pairs with u < v, in lexicographic order."""
        out = []
        for v in range(self.n):
            higher = self.adj[v] >> (v + 1)
            for u in bits(higher):
                out.append((v, u + v + 1))
        return out

    def edge_count(self):
        return sum(self.degree(v) for v in range(self.n)) // 2

    def neighbors(self, v):
        return list(bits(self.adj[v]))


def graph_from_edges(n, edges):
    adj = [0] * n
    for u, v in edges:
        if u == v:
            raise GraphError(f"loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge {u}-{v} out of range for n={n}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(adj))


def induced_subgraph(g, vertex_mask):
    """Induced subgraph plus the list mapping new indices to original vertices."""
    keep = list(bits(vertex_mask))
    index = {v: i for i, v in enumerate(keep)}
    adj = [0] * len(keep)
    for v in keep:
        for u in bits(g.adj[v] & vertex_mask):
            adj[index[v]] |= 1 << index[u]
    return Graph(len(keep), tuple(adj)), keep


# ---------------------------------------------------------------------------
# graph6 serialization (short form, n <= 62)


def parse_graph6(data):
    """Decode one short-form graph6 record (bytes or str)."""
    if not data.isascii():
        raise Graph6Error("non-ASCII text in graph6 record")
    if isinstance(data, str):
        data = data.encode("ascii")
    data = data.strip()
    if data.startswith(b">>graph6<<"):
        data = data[len(b">>graph6<<"):]
    if not data:
        raise Graph6Error("empty graph6 record")
    head = data[0]
    if head == 126:
        raise Graph6Error("long-form graph6 (n > 62) is not supported")
    if not 63 <= head <= 126:
        raise Graph6Error(f"header byte {head} outside 63..126")
    n = head - 63
    nbits = n * (n - 1) // 2
    body = data[1:]
    need = (nbits + 5) // 6
    if len(body) < need:
        raise Graph6Error("truncated graph6 bit field")
    if len(body) > need:
        raise Graph6Error("trailing bytes after graph6 record")
    bitstream = 0
    for byte in body:
        if not 63 <= byte <= 126:
            raise Graph6Error(f"body byte {byte} outside 63..126")
        bitstream = (bitstream << 6) | (byte - 63)
    pad = 6 * need - nbits
    bitstream >>= pad
    adj = [0] * n
    # Column order: x(0,1), x(0,2), x(1,2), x(0,3), ... with the first listed
    # bit arriving most significant in the stream.
    pos = nbits
    for col in range(1, n):
        for row in range(col):
            pos -= 1
            if (bitstream >> pos) & 1:
                adj[row] |= 1 << col
                adj[col] |= 1 << row
    return Graph(n, tuple(adj))


def write_graph6(g):
    """Encode a graph as one short-form graph6 record (bytes)."""
    if g.n > 62:
        raise Graph6Error("short-form graph6 only supports n <= 62")
    nbits = g.n * (g.n - 1) // 2
    bitstream = 0
    for col in range(1, g.n):
        for row in range(col):
            bitstream = (bitstream << 1) | ((g.adj[row] >> col) & 1)
    need = (nbits + 5) // 6
    bitstream <<= 6 * need - nbits
    out = bytearray([63 + g.n])
    for i in range(need - 1, -1, -1):
        out.append(63 + ((bitstream >> (6 * i)) & 63))
    return bytes(out)


# ---------------------------------------------------------------------------
# structural predicates


def components(adj, within):
    """Component masks of the subgraph induced by the vertex mask ``within``
    under the neighbour masks ``adj``, ordered by smallest member."""
    comps = []
    while within:
        comp = frontier = within & -within
        while frontier:
            nxt = 0
            while frontier:  # bits(frontier) inlined: alpha peels often
                low = frontier & -frontier
                frontier ^= low
                nxt |= adj[low.bit_length() - 1]
            frontier = nxt & within & ~comp
            comp |= frontier
        comps.append(comp)
        within &= ~comp
    return comps


def induced_edge_count(g, members):
    """Number of edges of the subgraph induced by the vertex mask ``members``."""
    return sum((g.adj[v] & members).bit_count() for v in bits(members)) // 2


def connected_components(g):
    """Component masks, ordered by smallest member."""
    return components(g.adj, g.full_mask)


def is_connected(g):
    return g.n <= 1 or len(connected_components(g)) == 1


def bridges(g):
    """Bridges of g (the edges on no cycle) as (u, v) pairs with u < v, in
    ascending order, by one iterative lowlink depth-first search.

    ``low[v]`` is the least discovery index reachable from v's subtree by at
    most one back edge; the tree edge to v is a bridge iff it exceeds the
    discovery index of v's parent.
    """
    adj = g.adj
    order = [-1] * g.n
    low = [0] * g.n
    found = []
    count = 0
    for root in range(g.n):
        if order[root] >= 0:
            continue
        order[root] = low[root] = count
        count += 1
        # frames of (vertex, its parent, neighbours not yet scanned)
        stack = [[root, -1, adj[root]]]
        while stack:
            frame = stack[-1]
            v, parent, rest = frame
            while rest:  # back edges in this loop, a tree edge leaves it
                w = (rest & -rest).bit_length() - 1
                rest ^= 1 << w
                if order[w] < 0:
                    frame[2] = rest
                    order[w] = low[w] = count
                    count += 1
                    stack.append([w, v, adj[w] & ~(1 << v)])
                    break
                if order[w] < low[v]:
                    low[v] = order[w]
            else:
                stack.pop()
                if parent >= 0:
                    if low[v] > order[parent]:
                        found.append((v, parent) if v < parent else (parent, v))
                    low[parent] = min(low[parent], low[v])
    return sorted(found)


def bridge_blocks(g, cut):
    """Blocks of g, the components of g minus its bridges ``cut``, as masks
    ordered by smallest member, and a map from each vertex to its block."""
    adj = list(g.adj)
    for u, v in cut:
        adj[u] ^= 1 << v
        adj[v] ^= 1 << u
    blocks = components(adj, g.full_mask)
    return blocks, {v: i for i, m in enumerate(blocks) for v in bits(m)}


def is_acyclic(g, within=None):
    """True iff the subgraph induced by ``within`` (default: all of g) is a
    forest, i.e. has |within| minus its component count edges."""
    if within is None:
        within = g.full_mask
    edges = induced_edge_count(g, within)
    return edges == within.bit_count() - len(components(g.adj, within))


@dataclass(frozen=True)
class DegreeProfile:
    max_degree: int
    is_cubic: bool
    is_subcubic: bool


def classify_degrees(g):
    degs = [g.degree(v) for v in range(g.n)]
    dmax = max(degs, default=0)
    return DegreeProfile(
        max_degree=dmax,
        is_cubic=g.n > 0 and all(d == 3 for d in degs),
        is_subcubic=dmax <= 3,
    )


def claw_centers(g):
    """Mask of vertices with three pairwise nonadjacent neighbors."""
    centers = 0
    for v in range(g.n):
        nbrs = g.neighbors(v)
        if len(nbrs) < 3:
            continue
        for a, b, c in itertools.combinations(nbrs, 3):
            if not (g.has_edge(a, b) or g.has_edge(a, c) or g.has_edge(b, c)):
                centers |= 1 << v
                break
    return centers


def is_complete(g, within=None):
    """True iff ``within`` (default: all of g) induces a clique."""
    if within is None:
        within = g.full_mask
    size = within.bit_count()
    return all((g.adj[v] & within).bit_count() == size - 1
               for v in bits(within))


def path_order(adj, comp):
    """Members of ``comp``, a path or cycle under the neighbour masks ``adj``,
    in walk order: a path from its lowest endpoint, a cycle from its lowest
    vertex toward its lower neighbour."""
    start, rest = (comp & -comp).bit_length() - 1, comp
    while rest:  # bits(comp) inlined: the lowest vertex of degree <= 1, if any
        v = (rest & -rest).bit_length() - 1
        rest ^= 1 << v
        if (adj[v] & comp).bit_count() <= 1:
            start, rest = v, 0
    walk = [start]
    left = comp & ~(1 << start)
    nxt = adj[start] & left
    while nxt:
        v = (nxt & -nxt).bit_length() - 1
        walk.append(v)
        left &= ~(1 << v)
        nxt = adj[v] & left
    return walk


def bfs_layers(g, within):
    """Breadth-first layers of the subgraph induced by ``within``, as masks:
    layer k holds the vertices at distance k from the lowest vertex of their
    component."""
    layers = []
    while within:
        layer, k = within & -within, 0
        while layer:
            if k == len(layers):
                layers.append(0)
            layers[k] |= layer
            within &= ~layer
            below = 0
            for v in bits(layer):
                below |= g.adj[v]
            layer, k = below & within, k + 1
    return layers


def bipartition(g, within=None):
    """2-coloring of the subgraph induced by ``within`` (default: all of g)
    as (side0_mask, side1_mask), the even and odd ``bfs_layers``; raises on an
    odd cycle, which shows as an edge inside a layer."""
    if within is None:
        within = g.full_mask
    side = [0, 0]
    for k, layer in enumerate(bfs_layers(g, within)):
        for v in bits(layer):
            inside = g.adj[v] & layer
            if inside:
                raise NotBipartiteError(
                    f"odd cycle through edge {v}-{next(bits(inside))}")
        side[k & 1] |= layer
    return side[0], side[1]


# ---------------------------------------------------------------------------
# bipartite matching and edge cover


def maximum_matching_bipartite(g, within=None):
    """Maximum matching of the bipartite subgraph induced by ``within``
    (default: all of g) via augmenting paths from each side-0 vertex in turn.

    Returns a frozenset of (u, v) edges with u < v.
    """
    if within is None:
        within = g.full_mask
    left, _right = bipartition(g, within)
    match = [-1] * g.n  # partner or -1
    visited = 0

    def augment(v):
        nonlocal visited
        for u in bits(g.adj[v] & within):
            if visited >> u & 1:
                continue
            visited |= 1 << u
            if match[u] == -1 or augment(match[u]):
                match[u] = v
                match[v] = u
                return True
        return False

    for v in bits(left):
        if match[v] == -1:
            visited = 0
            augment(v)
    return frozenset((v, match[v]) for v in bits(within) if match[v] > v)


def minimum_edge_cover(g, within=None):
    """Minimum edge cover of the bipartite subgraph induced by ``within``
    (default: all of g), which must have no isolated vertices.

    Gallai completion: a maximum matching plus, for every unmatched vertex,
    its lowest-index incident edge. The size is |within| - |matching|.
    """
    if within is None:
        within = g.full_mask
    for v in bits(within):
        if not g.adj[v] & within:
            raise IsolatedVertexError(f"vertex {v} is isolated")
    matching = maximum_matching_bipartite(g, within)
    covered = 0
    for u, v in matching:
        covered |= (1 << u) | (1 << v)
    cover = set(matching)
    for v in bits(within & ~covered):
        u = next(bits(g.adj[v] & within))
        cover.add((min(u, v), max(u, v)))
    return frozenset(cover)


# ---------------------------------------------------------------------------
# small named graphs (test and demo fodder)


def path_graph(n):
    return graph_from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    edges = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    return graph_from_edges(n, edges)


def complete_graph(n):
    return graph_from_edges(n, list(itertools.combinations(range(n), 2)))


def complete_bipartite(a, b):
    return graph_from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def star_graph(leaves):
    """K_{1,leaves} with the center at vertex 0."""
    return graph_from_edges(leaves + 1, [(0, i + 1) for i in range(leaves)])


def petersen_graph():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return graph_from_edges(10, outer + spokes + inner)


def prism_graph():
    """K3 x K2 (the triangular prism)."""
    return graph_from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                                (0, 3), (1, 4), (2, 5)])


def disjoint_union(g, h):
    edges = g.edges() + [(u + g.n, v + g.n) for u, v in h.edges()]
    return graph_from_edges(g.n + h.n, edges)
