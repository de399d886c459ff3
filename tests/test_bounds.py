import hashlib
import random
import time

import pytest

from zfalpha.bounds import (_first_decycling_set, _linear_forest_paths,
                            check_small_z_bounds, decycling_number,
                            degree_alpha_construction, embeddability_report,
                            find_partition_one_face, find_partition_two_face,
                            forcing_set_from_decycling, minimum_path_cover,
                            path_complement_mis)
from zfalpha.forcing import (SolverBudgetExceeded, is_zero_forcing_set,
                             zero_forcing_number)
from zfalpha.gadgets import build_tight_graph, generate_31_trees
from zfalpha.graphs import (GraphError, bits, classify_degrees,
                            complete_bipartite, complete_graph, components,
                            connected_components, cycle_graph, disjoint_union,
                            graph_from_edges, induced_subgraph, is_acyclic,
                            mask_of, parse_graph6, path_graph, path_order,
                            petersen_graph, prism_graph, star_graph)
from zfalpha.independence import (IndependenceCertificate, is_independent,
                                  is_near_independent,
                                  maximum_independent_set)

from oracles import (brute_decycling, cubic_graphs,
                     first_decycling_set_by_combinations,
                     random_connected_bounded_degree_edges, random_cubic_edges,
                     random_edge_graph, random_forest_edges)


# ---------------------------------------------------------------------------
# path covers


def test_path_cover_small_cases():
    assert len(minimum_path_cover(path_graph(9))) == 1
    assert len(minimum_path_cover(star_graph(3))) == 2
    assert len(minimum_path_cover(star_graph(5))) == 4
    assert len(minimum_path_cover(graph_from_edges(3, []))) == 3
    assert minimum_path_cover(graph_from_edges(0, [])) == []
    for leaves in range(6, 20):
        assert len(minimum_path_cover(star_graph(leaves))) == leaves - 1


def test_linear_forest_paths_match_component_walks():
    rng = random.Random(808)
    for _ in range(400):
        n = rng.randint(0, 24)
        order = list(range(n))
        rng.shuffle(order)
        g = graph_from_edges(n, [(a, b) for a, b in zip(order, order[1:])
                                 if rng.random() < 0.7])
        within = rng.getrandbits(n) if n else 0
        adj = [row & within if within >> v & 1 else 0
               for v, row in enumerate(g.adj)]
        expected = [path_order(adj, comp)
                    for comp in components(adj, within)]
        assert _linear_forest_paths(adj, within) == expected


# SHA-256 of repr(minimum_path_cover(f)) over the forests below: it pins the
# greedy's paths, not just their count.
PATH_COVER_DIGEST = "3bed3f105d565dd7c3cc8af1f22b706d8159d9b30165b70ee86fe7a4b0c74708"


def test_path_cover_matches_golden_digest():
    rng = random.Random(4040)
    forests = []
    for _ in range(600):
        n = rng.randint(1, 40)
        perm = rng.sample(range(n), n)
        edges = random_forest_edges(n, rng, keep=rng.uniform(0.6, 1.0))
        forests.append(graph_from_edges(n, [(perm[a], perm[b])
                                            for a, b in edges]))
    forests += [star_graph(leaves) for leaves in range(1, 20)]
    h = hashlib.sha256()
    for f in forests:
        h.update(repr(minimum_path_cover(f)).encode() + b"\n")
    assert h.hexdigest() == PATH_COVER_DIGEST


def test_path_cover_rejects_cycles():
    with pytest.raises(GraphError):
        minimum_path_cover(cycle_graph(4))


def test_path_cover_is_valid_and_equals_z():
    rng = random.Random(55)
    for _ in range(150):
        n = rng.randint(1, 13)
        f = graph_from_edges(n, random_forest_edges(n, rng))
        cover = minimum_path_cover(f)
        used = 0
        for p in cover:
            m = 0
            for a, b in zip(p, p[1:]):
                assert f.has_edge(a, b)
            for v in p:
                assert not used >> v & 1
                m |= 1 << v
            # induced path: no chords
            for i, a in enumerate(p):
                for b in p[i + 2:]:
                    assert not f.has_edge(a, b)
            used |= m
        assert used == f.full_mask
        assert len(cover) == zero_forcing_number(f)[0]


# ---------------------------------------------------------------------------
# independent sets with all-path complements


def test_path_complement_mis_on_all_small_cubic():
    for n in (6, 8, 10):
        for g in cubic_graphs(n):
            a = path_complement_mis(g)
            assert a.bit_count() == maximum_independent_set(g).alpha
            assert is_independent(g, a)
            rest, _ = induced_subgraph(g, g.full_mask & ~a)
            assert is_acyclic(rest)
            assert classify_degrees(rest).max_degree <= 2


# Every cubic graph of the n <= 12 sweep and of the pairing-model graphs of
# seeds 0-9 and 84815620 (40 each, n = 18 and 20) on which the
# branch-and-bound maximum independent set leaves a cycle in G - A, except
# K4, which path_complement_mis rejects.
SWAP_GRAPHS = (
    "K}GWOKA?O@_F",
    "S?_@CO??_?h?L?C?W_AH??X??h@_O?Ca?",
    "S@C?COa@C?G@G?c??BaCC@GOCAAQ??C_G",
    "S@M?ADOAk??@_@@??_GCAO@?@GO?@P?CC",
    "SAA?_K?g?O??GII@G?__HPO?A_CP???oG",
    "QO__?_@C?G`O@E?oH?e@?S_?_`?",
    "Qi?GgA@A?@D?D_?E?HD?@?OO?SG",
    "SD??G?A?eO@?I?OGU??AaOO_CC?GGGB_?",
    "S__Og?P?@?DOoAOA?I??_@?O_?oQ_?@?o",
)


def test_path_complement_mis_swaps_out_cycles():
    for g6 in SWAP_GRAPHS:
        g = parse_graph6(g6)
        mis = maximum_independent_set(g)
        rest, _ = induced_subgraph(g, g.full_mask & ~mis.witness)
        assert not is_acyclic(rest), g6  # so the swap loop runs
        a = path_complement_mis(g, mis)
        assert a.bit_count() == mis.alpha and is_independent(g, a), g6
        rest, _ = induced_subgraph(g, g.full_mask & ~a)
        assert is_acyclic(rest), g6
        assert classify_degrees(rest).max_degree <= 2, g6


def _independent_sets(g, size):
    """Every independent set of g with ``size`` members, as ascending masks."""
    found = []

    def grow(candidates, chosen, left):
        if not left:
            found.append(chosen)
            return
        while candidates.bit_count() >= left:
            low = candidates & -candidates
            candidates ^= low
            grow(candidates & ~g.adj[low.bit_length() - 1], chosen | low,
                 left - 1)

    grow(g.full_mask, 0, size)
    return found


# SHA-256 of repr(path_complement_mis(g, mis)) from every maximum independent
# set of the cubic graphs with n <= 12 that leaves a cycle in g - A, then from
# the branch-and-bound sets of SWAP_GRAPHS and of the first seeded random
# cubic graphs that need a swap: it pins the swap chains taken (up to three
# vertices swapped at once on the n = 12 sets), not just alpha.
SWAP_DIGEST = "8bb5c88c7ac550ca2f3ddf0785d06ef5f47fc39f25447ade16fb330028f6e1ba"


def test_path_complement_mis_matches_golden_digest():
    cases = []
    for n in range(6, 13, 2):
        for g in cubic_graphs(n):
            alpha = maximum_independent_set(g).alpha
            cases += [(g, IndependenceCertificate(alpha, a, g.n - alpha,
                                                  g.full_mask & ~a))
                      for a in _independent_sets(g, alpha)
                      if not is_acyclic(g, g.full_mask & ~a)]
    rng = random.Random(2410)
    graphs = [parse_graph6(g6) for g6 in SWAP_GRAPHS]
    while len(graphs) < len(SWAP_GRAPHS) + 4:
        n = rng.randrange(16, 33, 2)
        g = graph_from_edges(n, random_cubic_edges(n, rng))
        if not is_acyclic(g, g.full_mask & ~maximum_independent_set(g).witness):
            graphs.append(g)
    cases += [(g, maximum_independent_set(g)) for g in graphs]
    h = hashlib.sha256()
    for g, mis in cases:
        h.update(repr(path_complement_mis(g, mis)).encode() + b"\n")
    assert len(cases) == 88
    assert h.hexdigest() == SWAP_DIGEST


def test_path_complement_mis_rejects_k4_and_noncubic():
    with pytest.raises(GraphError):
        path_complement_mis(complete_graph(4))
    with pytest.raises(GraphError):
        path_complement_mis(path_graph(4))


# ---------------------------------------------------------------------------
# forcing sets from decycling sets


def test_forcing_set_from_decycling_examples():
    rep = forcing_set_from_decycling(complete_graph(4), 0b0011)
    assert rep.holds and rep.bound_value == 3
    assert is_zero_forcing_set(complete_graph(4), rep.witness)
    rep = forcing_set_from_decycling(complete_bipartite(3, 3), 0b000111)
    assert rep.holds and rep.bound_value == 6


def test_forcing_set_from_decycling_all_small_cubic():
    for n in (6, 8, 10):
        for g in cubic_graphs(n):
            phi, s = decycling_number(g)
            rep = forcing_set_from_decycling(g, s)
            assert rep.holds
            assert is_zero_forcing_set(g, rep.witness)
            assert rep.witness.bit_count() <= rep.bound_value


def test_any_endpoints_of_any_path_cover_of_the_forest_force():
    # the lemma behind forcing_set_from_decycling: if g - S is a forest,
    # S plus any one endpoint of each path of any path cover of g - S by
    # edges of g - S forces g
    rng = random.Random(2172)
    for _ in range(5000):
        n = rng.randint(1, 14)
        g = graph_from_edges(n, random_connected_bounded_degree_edges(
            n, rng.randint(3, 5), rng.randint(0, 2 * n), rng))
        s = _random_decycling_mask(g, rng)
        f_mask = g.full_mask & ~s
        forest = [(u, v) for u, v in g.edges() if f_mask >> u & f_mask >> v & 1]
        adj = [0] * n
        for u, v in rng.sample(forest, len(forest)):
            if (adj[u].bit_count() < 2 and adj[v].bit_count() < 2
                    and rng.random() < 0.8):
                adj[u] |= 1 << v
                adj[v] |= 1 << u
        paths = _linear_forest_paths(adj, f_mask)
        for _ in range(4):
            ends = mask_of(rng.choice((p[0], p[-1])) for p in paths)
            assert is_zero_forcing_set(g, s | ends), (g.adj, s, paths, ends)


def test_forcing_set_from_decycling_rejects_cyclic_remainder():
    with pytest.raises(GraphError):
        forcing_set_from_decycling(complete_graph(4), 0b0001)


# SHA-256 of repr(forcing_set_from_decycling(g, s, mis)) over the inputs of
# test_decycling_construction_matches_golden_digest, followed by the repr of
# maximum_independent_set on sparse random graphs.  It pins the edge cover,
# the path split and the endpoint choice, not just the bound they certify.
CONSTRUCTION_DIGEST = "5fc4671f07ea3b7812400577b703f0b4a2abbfda7827de03f56434f0620fc8e9"


def _random_decycling_mask(g, rng):
    """Random S with g - S a forest: grow a sparse random set until it
    decycles g, then drop, in random order, each member whose removal keeps
    g - S a forest.  Minimal sets leave big forests, with adjacent degree-3
    vertices."""
    s = rng.getrandbits(g.n) & rng.getrandbits(g.n)
    for v in rng.sample(range(g.n), g.n):
        if is_acyclic(g, g.full_mask & ~s):
            break
        s |= 1 << v
    for v in rng.sample(list(bits(s)), s.bit_count()):
        if is_acyclic(g, g.full_mask & ~s | 1 << v):
            s &= ~(1 << v)
    return s


def test_decycling_construction_matches_golden_digest():
    rng = random.Random(61)
    cases = []
    for n in range(4, 13, 2):
        for g in cubic_graphs(n):
            phi, s = decycling_number(g)
            cases += [(g, s), (g, _first_decycling_set(g, phi + 1))]
    for n in range(14, 25, 2):
        for _ in range(3):
            g = graph_from_edges(n, random_cubic_edges(n, rng))
            cases += [(g, _random_decycling_mask(g, rng)) for _ in range(5)]
            cases.append((g, g.full_mask & ~path_complement_mis(g)))
    h = hashlib.sha256()
    for g, s in cases:
        rep = forcing_set_from_decycling(g, s, maximum_independent_set(g))
        h.update(repr(rep).encode() + b"\n")
    for _ in range(200):
        n = rng.randint(1, 24)
        if rng.random() < 0.5:
            g = random_edge_graph(graph_from_edges, n, rng.random() * 3 / n, rng)
        else:
            g = graph_from_edges(n, random_connected_bounded_degree_edges(
                n, rng.randint(2, 3), rng.randint(0, n), rng))
        h.update(repr(maximum_independent_set(g)).encode() + b"\n")
    assert h.hexdigest() == CONSTRUCTION_DIGEST


# ---------------------------------------------------------------------------
# decycling and embeddability


def test_decycling_matches_oracle():
    rng = random.Random(77)
    # disjoint unions and the one cubic graph with n <= 12 that is not upper
    # embeddable (phi = 4 > 3) start the search below phi
    graphs = [complete_graph(4), petersen_graph(), prism_graph(),
              cycle_graph(6), path_graph(5),
              disjoint_union(complete_graph(4), complete_graph(4)),
              disjoint_union(petersen_graph(), cycle_graph(5)),
              parse_graph6("I}KGGGB?w")]
    for _ in range(40):
        n = rng.randint(1, 9)
        edges = random_connected_bounded_degree_edges(n, 4, rng.randint(0, 4),
                                                      rng) if n > 1 else []
        graphs.append(graph_from_edges(n, edges))
    for g in graphs:
        phi, witness = decycling_number(g)
        assert phi == brute_decycling(g)
        rest, _ = induced_subgraph(g, g.full_mask & ~witness)
        assert is_acyclic(rest)
        assert witness.bit_count() == phi


def test_first_decycling_set_matches_combinations_order():
    graphs = [g for n in range(4, 13, 2) for g in cubic_graphs(n)]
    # G_T on 16 and 22 vertices, phi = 6 and 8
    graphs += [build_tight_graph(generate_31_trees(leaves)[0]).result
               for leaves in (4, 6)]
    for g in graphs:
        phi, _ = decycling_number(g)
        for size in (phi - 1, phi, phi + 1):
            got = _first_decycling_set(g, size)
            assert got == first_decycling_set_by_combinations(g, size)
            assert (got is None) == (size < phi)
    rng = random.Random(4)
    for _ in range(40):
        n = rng.randint(2, 10)
        g = graph_from_edges(n, random_connected_bounded_degree_edges(
            n, 4, rng.randint(0, 6), rng))
        for size in range(n + 1):
            assert (_first_decycling_set(g, size)
                    == first_decycling_set_by_combinations(g, size)), (g, size)
    # G_T on 22 and 28 vertices: pinned, since the combinations scan takes
    # seconds and minutes on them
    gt = [build_tight_graph(t).result for leaves in (6, 8)
          for t in generate_31_trees(leaves)]
    assert [g.n for g in gt] == [22, 28]
    assert decycling_number(gt[0]) == (8, 1217700)
    assert decycling_number(gt[1]) == (10, 77932872)


def test_decycling_deadline():
    with pytest.raises(SolverBudgetExceeded):
        decycling_number(petersen_graph(), time.monotonic() - 1)
    # acyclic input needs no search
    assert decycling_number(path_graph(5), time.monotonic() - 1) == (0, 0)
    assert decycling_number(petersen_graph(), time.monotonic() + 60) == \
        decycling_number(petersen_graph())


def test_embeddability_known_graphs():
    er = embeddability_report(petersen_graph())
    assert er.phi == 3 and er.upper_embeddable and er.one_face
    assert er.max_genus == 10 // 2 + 1 - 3
    er = embeddability_report(complete_graph(4))
    assert er.phi == 2 and er.upper_embeddable
    assert not er.one_face and er.two_face
    er = embeddability_report(complete_bipartite(3, 3))
    assert er.phi == 2 and er.upper_embeddable and er.one_face


def test_partition_structure():
    # the finders label decycling_number's witness without re-checking it;
    # re-derive every label here
    for n in range(4, 13, 2):
        for g in cubic_graphs(n):
            decycling = phi, witness = decycling_number(g)
            p1 = find_partition_one_face(g)
            p2 = find_partition_two_face(g)
            assert (p1, p2) == (find_partition_one_face(g, decycling),
                                find_partition_two_face(g, decycling))
            assert p1 is None or p2 is None
            part = p1 or p2
            assert (part is not None) == (phi == (n + 5) // 4)
            if part is None:
                continue
            assert part.s_mask == witness
            assert part.s_mask | part.r_mask == g.full_mask
            assert part.s_mask & part.r_mask == 0
            s_class = ("independent" if is_independent(g, part.s_mask) else
                       "near_independent"
                       if is_near_independent(g, part.s_mask) else "other")
            rest, _ = induced_subgraph(g, part.r_mask)
            assert is_acyclic(rest)
            r_class = {1: "tree", 2: "forest_2_components"}.get(
                len(connected_components(rest)), "other")
            assert (part.s_class, part.r_class) == (s_class, r_class)
            if p1 is not None:
                assert (s_class, r_class) == ("independent", "tree")
                assert p1.s_mask.bit_count() == (n + 2) // 4
            else:
                assert (s_class, r_class) in {
                    ("near_independent", "tree"),
                    ("independent", "forest_2_components")}
                assert p2.s_mask.bit_count() == (n + 4) // 4


# ---------------------------------------------------------------------------
# the headline bounds


def test_degree_alpha_construction():
    for g in (petersen_graph(), complete_bipartite(3, 3), prism_graph(),
              star_graph(4)):
        rep = degree_alpha_construction(g)
        assert rep.holds
        assert is_zero_forcing_set(g, rep.witness)
        delta = classify_degrees(g).max_degree
        alpha = maximum_independent_set(g).alpha
        assert rep.witness.bit_count() <= (delta - 1) * alpha


def test_degree_alpha_random_sweep():
    rng = random.Random(404)
    for _ in range(60):
        n = rng.randint(5, 11)
        maxd = rng.choice((3, 4, 5))
        g = graph_from_edges(n, random_connected_bounded_degree_edges(
            n, maxd, rng.randint(1, n), rng))
        if classify_degrees(g).max_degree < 3:
            continue
        rep = degree_alpha_construction(g)
        assert rep.holds, g.edges()


def test_degree_alpha_rejects_complete_and_low_degree():
    with pytest.raises(GraphError):
        degree_alpha_construction(complete_graph(5))
    with pytest.raises(GraphError):
        degree_alpha_construction(cycle_graph(5))


def test_small_z_bounds():
    first, second = check_small_z_bounds(path_graph(9))
    assert first.holds and first.bound_value == 5
    assert second.holds and second.applicable  # Z=1 <= 3 = sqrt(9)
    first, second = check_small_z_bounds(complete_graph(4))
    assert first.holds and first.bound_value == 1
    assert not second.applicable  # Z=3 > 2 = sqrt(4)
