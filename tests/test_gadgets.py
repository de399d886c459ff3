import hashlib
import random
from collections import Counter

import pytest

from zfalpha.bounds import minimum_path_cover
from zfalpha.forcing import is_fort, is_zero_forcing_set, zero_forcing_number
from zfalpha.gadgets import (as_31_tree, build_tight_graph, check_tight_family,
                             cubify, generate_31_trees, leaf_forcing_zfset,
                             replace_claw_center, replace_deg1, replace_deg2,
                             tree_canonical_form)
from zfalpha.graphs import (GraphError, bits, classify_degrees, cycle_graph,
                            graph_from_edges, is_connected, path_graph,
                            star_graph, write_graph6)
from zfalpha.independence import maximum_independent_set

from oracles import cubic_graphs, random_connected_bounded_degree_edges


def _random_connected_subcubic(rng, n):
    return graph_from_edges(
        n, random_connected_bounded_degree_edges(n, 3, rng.randint(0, n // 2),
                                                 rng))


def _relabeled(rng, g):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return graph_from_edges(g.n, [(perm[a], perm[b]) for a, b in g.edges()])


def test_replace_deg1_shape_and_deltas():
    rng = random.Random(91)
    checked = 0
    for _ in range(40):
        n = rng.randint(3, 9)
        g = _random_connected_subcubic(rng, n)
        v = next((u for u in range(n) if g.degree(u) == 1), None)
        if v is None:
            continue
        checked += 1
        step = replace_deg1(g, v)
        assert step.result.n == g.n + 6
        assert is_connected(step.result)
        assert classify_degrees(step.result).is_subcubic
        da = (maximum_independent_set(step.result).alpha
              - maximum_independent_set(g).alpha)
        dz = zero_forcing_number(step.result)[0] - zero_forcing_number(g)[0]
        assert (da, dz) == (2, 2), g.edges()
    assert checked >= 15


def test_replace_deg2_shape_and_deltas():
    rng = random.Random(92)
    checked = 0
    for _ in range(40):
        n = rng.randint(3, 9)
        g = _random_connected_subcubic(rng, n)
        v = next((u for u in range(n) if g.degree(u) == 2), None)
        if v is None:
            continue
        checked += 1
        step = replace_deg2(g, v)
        assert step.result.n == g.n + 3
        da = (maximum_independent_set(step.result).alpha
              - maximum_independent_set(g).alpha)
        dz = zero_forcing_number(step.result)[0] - zero_forcing_number(g)[0]
        assert (da, dz) == (1, 1), g.edges()
    assert checked >= 15


def test_replace_claw_center_inequalities():
    rng = random.Random(93)
    checked = 0
    for _ in range(40):
        n = rng.randint(4, 9)
        g = _random_connected_subcubic(rng, n)
        v = next((u for u in range(n) if g.degree(u) == 3), None)
        if v is None:
            continue
        checked += 1
        step = replace_claw_center(g, v)
        assert step.result.n == g.n + 2
        assert (maximum_independent_set(step.result).alpha
                <= maximum_independent_set(g).alpha + 1)
        assert zero_forcing_number(g)[0] <= zero_forcing_number(step.result)[0]
    assert checked >= 10


def test_replace_wrong_degree_rejected():
    p = path_graph(3)
    with pytest.raises(GraphError):
        replace_deg1(p, 1)
    with pytest.raises(GraphError):
        replace_deg2(p, 0)


def test_replace_vertex_out_of_range_rejected():
    # in each graph vertex n - 1 has the gadget's degree, so -1 must not
    # silently stand for it
    claw = graph_from_edges(4, [(0, 3), (1, 3), (2, 3)])
    for builder, g in ((replace_deg1, path_graph(3)),
                       (replace_deg2, cycle_graph(4)),
                       (replace_claw_center, claw)):
        builder(g, g.n - 1)
        for v in (g.n, -1):
            with pytest.raises(GraphError, match="not in the graph"):
                builder(g, v)


def test_gadget_internal_forts():
    # the degree-2 gadget keeps {a, b} as a fort of the result,
    # the degree-1 gadget keeps {c, d}
    g = path_graph(4)
    step = replace_deg2(g, 1)
    gpos = step.gadget_vertices[1]
    assert is_fort(step.result, (1 << gpos["a"]) | (1 << gpos["b"]))
    step = replace_deg1(g, 0)
    gpos = step.gadget_vertices[0]
    assert is_fort(step.result, (1 << gpos["c"]) | (1 << gpos["d"]))
    built = cubify(g)
    assert sorted(built.gadget_vertices) == [0, 1, 2, 3]
    for v, gpos in built.gadget_vertices.items():
        pair = ("c", "d") if g.degree(v) == 1 else ("a", "b")
        assert is_fort(built.result, (1 << gpos[pair[0]]) | (1 << gpos[pair[1]]))


def test_cubify_preserves_gap():
    rng = random.Random(94)
    for _ in range(25):
        n = rng.randint(2, 8)
        g = _random_connected_subcubic(rng, n)
        built = cubify(g)
        assert classify_degrees(built.result).is_cubic
        assert is_connected(built.result)
        gap_before = (maximum_independent_set(g).alpha
                      - zero_forcing_number(g)[0])
        gap_after = (maximum_independent_set(built.result).alpha
                     - zero_forcing_number(built.result)[0])
        assert gap_before == gap_after, g.edges()
        # surviving vertices keep their adjacency
        for u, mu in built.vertex_map.items():
            for v, mv in built.vertex_map.items():
                if u < v:
                    assert g.has_edge(u, v) == built.result.has_edge(mu, mv)


def test_cubify_rejects_bad_input():
    with pytest.raises(GraphError):
        cubify(star_graph(4))  # degree 4 center
    with pytest.raises(GraphError):
        cubify(graph_from_edges(3, [(0, 1)]))  # disconnected


def test_cubify_of_cubic_is_identity():
    g = cycle_graph(4)
    built = cubify(g)
    assert built.result.n > g.n  # C4 is not cubic, it grows
    from zfalpha.graphs import petersen_graph
    built = cubify(petersen_graph())
    assert built.result.adj == petersen_graph().adj


# ---------------------------------------------------------------------------
# 3-1 trees


def test_as_31_tree_validation():
    k13 = star_graph(3)
    t = as_31_tree(k13)
    assert t.leaves == 0b1110 and t.internal == 0b0001
    with pytest.raises(GraphError):
        as_31_tree(path_graph(3))  # middle vertex has degree 2
    with pytest.raises(GraphError):
        as_31_tree(cycle_graph(4))


def test_generate_31_trees_counts():
    assert [len(generate_31_trees(n)) for n in (4, 6, 8, 10)] == [1, 1, 1, 2]


def test_generated_trees_are_distinct_and_valid():
    trees = generate_31_trees(10)
    forms = {tree_canonical_form(t.tree) for t in trees}
    assert len(forms) == len(trees)
    for t in trees:
        for v in range(t.tree.n):
            assert t.tree.degree(v) in (1, 3)


def test_canonical_form_is_permutation_invariant():
    rng = random.Random(17)
    t = generate_31_trees(8)[0].tree
    base = tree_canonical_form(t)
    for _ in range(10):
        assert tree_canonical_form(_relabeled(rng, t)) == base


# ---------------------------------------------------------------------------
# the tight family


def test_tight_graph_shape():
    t = generate_31_trees(4)[0]
    built = build_tight_graph(t)
    g = built.result
    assert g.n == 1 + 3 * 5  # one internal vertex + 5 per leaf gadget
    assert classify_degrees(g).is_cubic
    assert is_connected(g)


def test_tight_graph_gadget_forts():
    for n in (4, 6):
        for t in generate_31_trees(n):
            built = build_tight_graph(t)
            for leaf, gpos in built.gadget_vertices.items():
                ab = (1 << gpos["a"]) | (1 << gpos["b"])
                cd = (1 << gpos["c"]) | (1 << gpos["d"])
                assert is_fort(built.result, ab)
                assert is_fort(built.result, cd)
                assert ab & cd == 0


def test_tight_family_equality_smallest():
    # K2 is a 3-1 tree too: its G_T is two leaf gadgets joined by an edge
    for t, value in ((as_31_tree(path_graph(2)), 5), (generate_31_trees(4)[0], 8)):
        rep = check_tight_family(t)
        assert rep.holds
        assert rep.bound_value == len(minimum_path_cover(t.tree)) + t.tree.n + 2
        assert rep.bound_value == value


# Census of the connected cubic graphs on n vertices: the histogram of
# Z - alpha, and the tight graphs (Z = alpha + 1) in enumeration order.  K4
# (Z - alpha = 2) is the one graph above the bound; tight graphs exist for
# every n from 6 to 12, below the 16 vertices of the smallest G_T.
TIGHT_CENSUS = {
    4: ({2: 1}, []),
    6: ({1: 2}, ["E{Sw", "Es\\o"]),
    8: ({0: 2, 1: 3}, ["G}GOW[", "G{O_ww", "GsXPGs"]),
    10: ({-1: 3, 0: 13, 1: 3}, ["I}KGGGB?w", "I}GOOOF@o", "IsP@PGXD_"]),
    12: ({-2: 6, -1: 42, 0: 34, 1: 3},
         ["K}KGGGA?_B_M", "K}GOOSC@GE?F", "K}GOOOE@OD?J"]),
    14: ({-3: 13, -2: 167, -1: 248, 0: 76, 1: 5},
         ["M}KGGGA?gA?H?K?B_", "M}KGGGA?_B?I?I?D_", "M}GOOOF@_A?A?B?B_",
          "Ms\\_gC@?O@?C?F?F?", "MsP@P?SCOO_g?`?I_"]),
}


def test_tight_cubic_census():
    for n, (histogram, tight) in TIGHT_CENSUS.items():
        gaps = Counter()
        found = []
        for g in cubic_graphs(n):
            gap = zero_forcing_number(g)[0] - maximum_independent_set(g).alpha
            gaps[gap] += 1
            if gap == 1:
                found.append(write_graph6(g).decode())
        assert (dict(gaps), found) == (histogram, tight), n


# SHA-256 of repr((graph6(result), vertex_map, gadget_vertices)) over
# _gadget_cases(); it pins the vertex numbering of every construction.
# cubify's gadget_vertices is hashed as {}.
GADGET_DIGEST = "5f72763bd41be45e5a0d09947b6f1884a9a878007d54c45ac000ca0f89187e37"


def _gadget_cases():
    """G_T for every 3-1 tree on 4..14 vertices and a seeded relabeling of
    each; cubify on paths and seeded connected subcubic graphs on 2..12
    vertices; each single gadget at every vertex of those graphs where it
    applies."""
    rng = random.Random(14)
    for n in range(4, 15, 2):
        for t in generate_31_trees(n):
            yield "gt", build_tight_graph(t)
            yield "gt", build_tight_graph(as_31_tree(_relabeled(rng, t.tree)))
    for n in range(2, 13):
        for g in [path_graph(n)] + [
                _relabeled(rng, _random_connected_subcubic(rng, n))
                for _ in range(15)]:
            yield "cubify", cubify(g)
            for v in range(n):
                builder = {1: replace_deg1, 2: replace_deg2,
                           3: replace_claw_center}[g.degree(v)]
                yield "single", builder(g, v)


def test_gadget_digest():
    h = hashlib.sha256()
    for kind, built in _gadget_cases():
        gadgets = {} if kind == "cubify" else built.gadget_vertices
        h.update(repr((write_graph6(built.result).decode(), built.vertex_map,
                       gadgets)).encode())
    assert h.hexdigest() == GADGET_DIGEST


# SHA-256 of repr((graph6, B)) for leaf_forcing_zfset over _leaf_forcing_cases();
# it pins which minimum set is returned, not only its size
LEAF_FORCING_DIGEST = (
    "f8b010cdb12b7f94d496cc49d77cf345f472ae609d10916f2a22b5b683192a6f")


def _leaf_forcing_cases():
    """Every 3-1 tree on 6..14 vertices, each followed by three seeded
    relabelings."""
    rng = random.Random(31)
    for n in range(6, 15, 2):
        for t in generate_31_trees(n):
            yield t.tree
            for _ in range(3):
                yield _relabeled(rng, t.tree)


def test_leaf_forcing_zfset():
    h = hashlib.sha256()
    for g in _leaf_forcing_cases():
        blue, record = leaf_forcing_zfset(g)
        assert blue.bit_count() == zero_forcing_number(g)[0]
        assert record.initial == blue
        assert record.replay_ok(g)
        forcers = {a for a, _ in record.steps}
        assert all(v in forcers for v in bits(blue) if g.degree(v) == 1)
        h.update(repr((write_graph6(g).decode(), blue)).encode())
    assert h.hexdigest() == LEAF_FORCING_DIGEST
