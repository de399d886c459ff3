"""Vertex replacement gadgets, 3-1 trees, and the tight cubic family.

Every construction goes through one primitive, ``_replace``: it deletes
vertices and joins each one's former neighbors to a fixed gadget's
attachment points.  Each returns a GadgetMap recording the vertex
correspondence.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .bounds import BoundReport, minimum_path_cover
from .forcing import (ForcingRecord, _chains_from_steps, _force_steps,
                      zero_forcing_number)
from .graphs import (Graph, GraphError, bits, classify_degrees, graph_from_edges,
                     is_acyclic, is_connected, mask_of)


@dataclass(frozen=True)
class GadgetMap:
    source: Graph
    result: Graph
    replaced: tuple  # replaced source vertices
    vertex_map: dict  # surviving source vertex -> result vertex
    gadget_vertices: dict  # replaced vertex -> {label: result vertex}


@dataclass(frozen=True)
class ThreeOneTree:
    tree: Graph
    leaves: int
    internal: int


def as_31_tree(g):
    """Validate that g is a tree with every degree in {1, 3}."""
    if not is_acyclic(g) or not is_connected(g) or g.n < 2:
        raise GraphError("not a nontrivial tree")
    leaves = 0
    internal = 0
    for v in range(g.n):
        d = g.degree(v)
        if d == 1:
            leaves |= 1 << v
        elif d == 3:
            internal |= 1 << v
        else:
            raise GraphError(f"vertex {v} has degree {d}, expected 1 or 3")
    return ThreeOneTree(g, leaves, internal)


# ---------------------------------------------------------------------------
# vertex replacement

# Degree-1 gadget (seven vertices): K4-e whose degree-2 vertex is itself
# replaced by K4-e.  Attachment point is v'.
_DEG1 = (("v'", "a", "b", "c", "d", "e", "f"),
         (("v'", "a"), ("v'", "b"), ("a", "b"), ("a", "e"), ("b", "f"),
          ("c", "e"), ("c", "d"), ("f", "d"), ("c", "f"), ("e", "d")),
         ("v'",))

# Degree-2 gadget: K4-e on {v1, v2, a, b} with the missing edge v1-v2.
_DEG2 = (("v1", "v2", "a", "b"),
         (("v1", "a"), ("v1", "b"), ("v2", "a"), ("v2", "b"), ("a", "b")),
         ("v1", "v2"))

# Degree-3 gadget: a triangle, one attachment per corner.
_DEG3 = (("v1", "v2", "v3"),
         (("v1", "v2"), ("v2", "v3"), ("v1", "v3")),
         ("v1", "v2", "v3"))


def _replace(g, plan):
    """Replace each vertex of ``plan`` by its gadget, a triple (labels,
    internal edges, attachment labels).

    The result equals replacing the vertices one at a time in ascending
    order, each step keeping the order of the other vertices, appending the
    gadget's block and joining the vertex's neighbors, in index order, to the
    attachment points; so its neighbors replaced before it come last.
    """
    for v, (_, _, attach) in plan.items():
        if not 0 <= v < g.n:
            raise GraphError(f"vertex {v} is not in the graph (0..{g.n - 1})")
        if g.degree(v) != len(attach):
            raise GraphError(
                f"vertex {v} has degree {g.degree(v)}, gadget expects {len(attach)}")
    vmap = {u: i for i, u in enumerate(u for u in range(g.n) if u not in plan)}
    pos = len(vmap)
    gadget_vertices, edges, end = {}, [], {}  # end[v, u]: v's gadget vertex at u
    replaced = tuple(sorted(plan))
    for v in replaced:
        labels, internal, attach = plan[v]
        gpos = {lab: pos + i for i, lab in enumerate(labels)}
        pos += len(labels)
        edges += [(gpos[a], gpos[b]) for a, b in internal]
        neighbors = sorted(bits(g.adj[v]), key=lambda u: (u in gadget_vertices, u))
        end.update(((v, u), gpos[lab]) for u, lab in zip(neighbors, attach))
        gadget_vertices[v] = gpos
    def side(v, u):  # v's end of the edge v-u in the result
        return end[v, u] if v in plan else vmap[v]
    edges += [(side(a, b), side(b, a)) for a, b in g.edges()]
    return GadgetMap(g, graph_from_edges(pos, edges), replaced, vmap, gadget_vertices)


def replace_deg1(g, v):
    """Replace a degree-1 vertex; alpha and Z both increase by exactly 2."""
    return _replace(g, {v: _DEG1})


def replace_deg2(g, v):
    """Replace a degree-2 vertex with K4-e; alpha and Z both increase by 1."""
    return _replace(g, {v: _DEG2})


def replace_claw_center(g, v):
    """Replace a degree-3 vertex with a triangle.

    Guarantees alpha(result) <= alpha(g) + 1 and Z(g) <= Z(result).
    """
    return _replace(g, {v: _DEG3})


def cubify(g):
    """Replace every degree-1 and degree-2 vertex, which makes g cubic.

    Preserves alpha - Z exactly and keeps the graph connected.
    """
    if g.n < 2 or not is_connected(g) or not classify_degrees(g).is_subcubic:
        raise GraphError("cubify requires a connected subcubic graph on >= 2 vertices")
    return _replace(g, {v: _DEG1 if g.degree(v) == 1 else _DEG2
                        for v in range(g.n) if g.degree(v) < 3})


# ---------------------------------------------------------------------------
# 3-1 trees


def _rooted_shape(g, v, parent):
    return "(" + "".join(sorted(_rooted_shape(g, u, v)
                                for u in bits(g.adj[v]) if u != parent)) + ")"


def tree_canonical_form(g):
    """Canonical string of a tree (rooted at its center), for isomorphism tests."""
    if g.n == 1:
        return "()"
    alive = set(range(g.n))
    deg = {v: g.degree(v) for v in alive}
    while len(alive) > 2:
        drop = [v for v in alive if deg[v] <= 1]
        for v in drop:
            alive.discard(v)
            for u in bits(g.adj[v]):
                if u in alive:
                    deg[u] -= 1
    centers = sorted(alive)
    if len(centers) == 1:
        return _rooted_shape(g, centers[0], -1)
    c1, c2 = centers
    return "".join(sorted([_rooted_shape(g, c1, c2), _rooted_shape(g, c2, c1)]))


def generate_31_trees(n):
    """All pairwise non-isomorphic 3-1 trees on n vertices.

    Grown by leaf expansion (a leaf becomes a degree-3 vertex with two fresh
    leaves) from K_{1,3}, with canonical-form isomorphism rejection.
    """
    if n % 2 != 0 or n < 4:
        raise GraphError("3-1 trees require an even vertex count >= 4")
    current = [graph_from_edges(4, [(0, 1), (0, 2), (0, 3)])]
    size = 4
    while size < n:
        seen = {}
        for t in current:
            for leaf in range(t.n):
                if t.degree(leaf) != 1:
                    continue
                edges = t.edges() + [(leaf, t.n), (leaf, t.n + 1)]
                bigger = graph_from_edges(t.n + 2, edges)
                seen.setdefault(tree_canonical_form(bigger), bigger)
        current = [seen[k] for k in sorted(seen)]
        size += 2
    return [as_31_tree(t) for t in current]


# ---------------------------------------------------------------------------
# the tight family G_T

# Leaf gadget: K4 with one subdivided edge; the subdivision vertex is the
# attachment point l'.
_LEAF = (("l'", "a", "b", "c", "d"),
         (("l'", "b"), ("b", "d"), ("a", "d"), ("c", "d"), ("a", "l'"),
          ("c", "a"), ("c", "b")),
         ("l'",))


def build_tight_graph(t):
    """G_T: every leaf of the 3-1 tree replaced by the subdivided-K4 gadget."""
    return _replace(t.tree, dict.fromkeys(bits(t.leaves), _LEAF))


def check_tight_family(t, deadline=None):
    """Verify Z(G_T) = Z(T) + n + 2 = alpha(G_T) + 1 for a 3-1 tree."""
    from .independence import maximum_independent_set

    z_tree = len(minimum_path_cover(t.tree))
    built = build_tight_graph(t)
    z, witness = zero_forcing_number(built.result, deadline)
    alpha = maximum_independent_set(built.result, deadline).alpha
    value = z_tree + t.tree.n + 2
    holds = z == value and value == alpha + 1
    return BoundReport("tight_family_equality", value, holds, witness)


# ---------------------------------------------------------------------------
# leaf forcing sets (every leaf in the set performs a force)


def leaf_forcing_zfset(g):
    """Minimum zero forcing set of a 3-1 tree on >= 5 vertices together with a
    replayable record in which every leaf of the set performs a force.

    A leaf can only force its one neighbour, so such a record exists iff the
    neighbours of the set's leaves are distinct and outside the set: the leaf
    forces are then valid first moves, and ``_force_steps`` records the rest.
    """
    t = as_31_tree(g)
    if g.n < 5:
        raise GraphError("requires a 3-1 tree on at least 5 vertices")
    z, _ = zero_forcing_number(g)
    for combo in itertools.combinations(range(g.n), z):
        b = mask_of(combo)
        leaf_forces = [(v, g.adj[v].bit_length() - 1) for v in bits(b & t.leaves)]
        forced = mask_of(w for _, w in leaf_forces)
        if forced.bit_count() < len(leaf_forces) or forced & b:
            continue
        steps, blue = _force_steps(g, b | forced)
        if blue == g.full_mask:
            steps = leaf_forces + steps
            return b, ForcingRecord(b, tuple(steps), _chains_from_steps(b, steps))
    raise GraphError(
        "no minimum zero forcing set with all member leaves forcing; "
        "this contradicts a proven property of 3-1 trees")
