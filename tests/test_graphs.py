import hashlib
import random

import networkx as nx
import pytest

from zfalpha.graphs import (Graph, Graph6Error, GraphError,
                            IsolatedVertexError, bits, bipartition,
                            bridge_blocks, bridges, claw_centers,
                            classify_degrees, complete_bipartite,
                            complete_graph, components, connected_components,
                            cycle_graph, disjoint_union, graph_from_edges,
                            induced_subgraph, is_acyclic, is_complete,
                            is_connected, mask_of, maximum_matching_bipartite,
                            minimum_edge_cover, parse_graph6, path_graph,
                            path_order, petersen_graph, prism_graph,
                            star_graph, write_graph6)

from oracles import (brute_is_acyclic, nx_graph, random_bipartite_no_isolated,
                     random_edge_graph, random_forest_edges, random_tree_edges)


def test_graph_validation():
    with pytest.raises(GraphError):
        Graph(2, (0b10, 0b00))  # asymmetric
    with pytest.raises(GraphError):
        Graph(1, (0b1,))  # self loop
    with pytest.raises(GraphError):
        graph_from_edges(2, [(0, 2)])  # endpoint out of range
    with pytest.raises(GraphError):
        graph_from_edges(2, [(1, 1)])


def test_bits_and_masks():
    assert list(bits(0b10110)) == [1, 2, 4]
    assert mask_of([0, 3]) == 0b1001
    assert list(bits(0)) == []


def test_basic_accessors():
    g = graph_from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert g.degree(1) == 2
    assert g.has_edge(0, 1) and not g.has_edge(0, 2)
    assert g.edges() == [(0, 1), (1, 2), (2, 3)]
    assert g.full_mask == 0b1111


def test_graph6_known_encodings():
    assert write_graph6(complete_graph(4)) == b"C~"
    assert write_graph6(path_graph(3)) == b"Bg"
    assert parse_graph6("C~").edges() == complete_graph(4).edges()
    # the optional format prefix is accepted
    assert parse_graph6(">>graph6<<C~").n == 4


def test_graph6_round_trip_vs_networkx():
    rng = random.Random(42)
    for _ in range(100):
        n = rng.randint(1, 20)
        g = random_edge_graph(graph_from_edges, n, rng.random(), rng)
        encoded = write_graph6(g)
        # cross-check the encoding against an independent implementation
        expect = nx.to_graph6_bytes(nx_graph(g), header=False).strip()
        assert encoded == expect
        back = parse_graph6(encoded)
        assert back.n == g.n and back.adj == g.adj


def test_graph6_rejects_bad_input():
    with pytest.raises(Graph6Error):
        parse_graph6("")
    with pytest.raises(Graph6Error):
        parse_graph6("~???")  # long form
    with pytest.raises(Graph6Error):
        parse_graph6("C")  # truncated payload
    with pytest.raises(Graph6Error):
        parse_graph6("C~~")  # trailing bytes
    with pytest.raises(Graph6Error):
        parse_graph6("C" + chr(20))  # byte out of range
    with pytest.raises(Graph6Error, match="empty"):
        parse_graph6(">>graph6<<")  # header only
    with pytest.raises(Graph6Error, match="non-ASCII"):
        parse_graph6("Cé")
    with pytest.raises(Graph6Error, match="non-ASCII"):
        parse_graph6(b"C\xe9")


def test_components_and_connectivity():
    g = disjoint_union(path_graph(3), cycle_graph(4))
    comps = connected_components(g)
    assert len(comps) == 2
    assert comps[0] == 0b0000111
    assert not is_connected(g)
    assert is_connected(petersen_graph())
    empty = graph_from_edges(3, [])
    assert len(connected_components(empty)) == 3


def test_acyclicity_matches_dfs_oracle():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 12)
        g = random_edge_graph(graph_from_edges, n, rng.uniform(0, 0.3), rng)
        assert is_acyclic(g) == brute_is_acyclic(g)
        # masked form: agrees with building G[m] and asking the oracle
        for _ in range(5):
            m = rng.getrandbits(n)
            sub, keep = induced_subgraph(g, m)
            assert is_acyclic(g, m) == brute_is_acyclic(sub)
            expect = [mask_of(keep[i] for i in bits(c))
                      for c in connected_components(sub)]
            assert components(g.adj, m) == expect


def test_bridges_match_networkx():
    rng = random.Random(19)
    cases = [graph_from_edges(0, []), graph_from_edges(1, []), path_graph(2),
             cycle_graph(5), petersen_graph(), star_graph(6),
             disjoint_union(path_graph(4), cycle_graph(4))]
    for _ in range(300):  # random graphs, sparse enough to have bridges
        n = rng.randint(1, 16)
        cases.append(random_edge_graph(graph_from_edges, n,
                                       rng.uniform(0, 0.4), rng))
    for _ in range(100):  # trees, where every edge is a bridge
        n = rng.randint(1, 40)
        cases.append(graph_from_edges(n, random_tree_edges(n, rng)))
    for _ in range(100):  # forests and unions of a forest with a cyclic graph
        n = rng.randint(1, 20)
        forest = graph_from_edges(n, random_forest_edges(n, rng, keep=0.6))
        cases.append(forest)
        cases.append(disjoint_union(forest, random_edge_graph(
            graph_from_edges, rng.randint(1, 10), rng.uniform(0.2, 0.6), rng)))
    for g in cases:
        expect = sorted(tuple(sorted(e)) for e in nx.bridges(nx_graph(g)))
        assert bridges(g) == expect, g.edges()
        # the blocks are the components of g minus its bridges
        h = nx_graph(g)
        h.remove_edges_from(expect)
        blocks = sorted((mask_of(c) for c in nx.connected_components(h)),
                        key=lambda m: m & -m)
        assert bridge_blocks(g, expect) == (
            blocks, {v: i for i, m in enumerate(blocks) for v in bits(m)})
    assert bridges(star_graph(6)) == [(0, v) for v in range(1, 7)]
    assert bridges(cycle_graph(5)) == []


def test_induced_subgraph():
    g = cycle_graph(5)
    sub, keep = induced_subgraph(g, 0b01011)
    assert keep == [0, 1, 3]
    assert sub.edges() == [(0, 1)]


def test_degree_profile():
    p = classify_degrees(petersen_graph())
    assert p.is_cubic and p.is_subcubic and p.max_degree == 3
    q = classify_degrees(path_graph(4))
    assert not q.is_cubic and q.is_subcubic
    assert classify_degrees(complete_graph(5)).max_degree == 4


def test_claw_centers():
    assert claw_centers(star_graph(3)) == 0b0001
    assert claw_centers(complete_graph(4)) == 0
    # every vertex of K_{3,3} is a claw center
    assert claw_centers(complete_bipartite(3, 3)) == 0b111111
    assert claw_centers(prism_graph()) == 0


def test_bipartition():
    left, right = bipartition(complete_bipartite(2, 3))
    assert left == 0b00011 and right == 0b11100
    from zfalpha.graphs import NotBipartiteError
    with pytest.raises(NotBipartiteError):
        bipartition(cycle_graph(5))


def test_matching_and_edge_cover_vs_networkx():
    rng = random.Random(13)
    for _ in range(100):
        nl, nr = rng.randint(1, 6), rng.randint(1, 6)
        edges = [(u, nl + v) for u in range(nl) for v in range(nr)
                 if rng.random() < 0.5]
        # edge cover needs no isolated vertices
        for u in range(nl):
            if not any(e[0] == u for e in edges):
                edges.append((u, nl))
        for v in range(nl, nl + nr):
            if not any(e[1] == v for e in edges):
                edges.append((0, v))
        g = graph_from_edges(nl + nr, sorted(set(edges)))
        matching = maximum_matching_bipartite(g)
        expect = len(nx.max_weight_matching(nx_graph(g), maxcardinality=True))
        assert len(matching) == expect
        cover = minimum_edge_cover(g)
        assert len(cover) == g.n - expect  # Gallai
        covered = set()
        for a, b in cover:
            assert g.has_edge(a, b)
            covered.update((a, b))
        assert covered == set(range(g.n))
        # masked calls agree with the unmasked call on the induced subgraph,
        # relabelled back: the same edges, not just the same sizes
        within = rng.getrandbits(g.n)
        sub, keep = induced_subgraph(g, within)

        def back(edges):
            return frozenset((keep[a], keep[b]) for a, b in edges)

        assert bipartition(g, within) == tuple(
            mask_of(keep[i] for i in bits(side)) for side in bipartition(sub))
        matching = maximum_matching_bipartite(g, within)
        assert matching == back(maximum_matching_bipartite(sub))
        if all(sub.adj):
            cover = minimum_edge_cover(g, within)
            assert cover == back(minimum_edge_cover(sub))
            # Gallai completion: an unmatched vertex takes its lowest edge
            matched = mask_of(v for e in matching for v in e)
            for v in bits(within & ~matched):
                u = next(bits(g.adj[v] & within))
                assert (min(u, v), max(u, v)) in cover
        else:
            with pytest.raises(IsolatedVertexError):
                minimum_edge_cover(g, within)


# SHA-256 of the bipartition, maximum matching and minimum edge cover of the
# inputs below, with and without ``within``: it pins the sides, Kuhn's
# matching and the Gallai completion, not just their sizes.
BIPARTITE_DIGEST = "fd3446857de70b5482b34f528a0089f0ffa00b38df391e2fcb54a6a3417e839a"


def test_bipartite_helpers_match_golden_digest():
    rng = random.Random(2207)
    h = hashlib.sha256()
    for _ in range(300):
        if rng.random() < 0.5:
            n, edges = random_bipartite_no_isolated(
                rng.randint(1, 8), rng.randint(1, 8), rng.uniform(0.1, 0.6), rng)
        else:
            n = rng.randint(1, 20)
            edges = random_forest_edges(n, rng, keep=rng.uniform(0.5, 1.0))
        perm = rng.sample(range(n), n)
        g = graph_from_edges(n, [(perm[a], perm[b]) for a, b in edges])
        if rng.random() < 0.2:  # an odd cycle, unless within misses it
            a, b, c = (rng.randrange(n) for _ in range(3))
            if len({a, b, c}) == 3:
                g = graph_from_edges(n, set(g.edges()) | {
                    (min(a, b), max(a, b)), (min(b, c), max(b, c)),
                    (min(a, c), max(a, c))})
        for within in (None, rng.getrandbits(n)):
            try:
                row = [bipartition(g, within),
                       sorted(maximum_matching_bipartite(g, within))]
            except GraphError as exc:
                row = [type(exc).__name__]
            try:
                row.append(sorted(minimum_edge_cover(g, within)))
            except GraphError as exc:
                row.append(type(exc).__name__)
            h.update(repr(row).encode() + b"\n")
    assert h.hexdigest() == BIPARTITE_DIGEST


def test_minimum_edge_cover_rejects_isolated():
    with pytest.raises(IsolatedVertexError):
        minimum_edge_cover(graph_from_edges(3, [(0, 1)]))


def test_path_order_on_scrambled_paths_and_cycles():
    rng = random.Random(29)
    for _ in range(60):
        n = rng.randint(1, 9)
        label = rng.sample(range(12), n)
        walk = label if rng.random() < 0.5 or n < 3 else label + label[:1]
        g = graph_from_edges(12, list(zip(walk, walk[1:])))
        got = path_order(g.adj, mask_of(label))
        if walk is label:  # a path, from its lowest endpoint
            expect = label if label[0] < label[-1] else label[::-1]
        else:  # a cycle, from its lowest vertex toward its lower neighbour
            i = label.index(min(label))
            expect = label[i:] + label[:i]
            if expect[-1] < expect[1]:
                expect = expect[:1] + expect[:0:-1]
        assert got == expect
    assert path_order(graph_from_edges(5, []).adj, 0b00100) == [2]


def test_is_complete():
    assert is_complete(complete_graph(5))
    assert is_complete(graph_from_edges(0, []))
    assert not is_complete(cycle_graph(4))
    c4 = cycle_graph(4)
    assert is_complete(c4, 0b0011) and not is_complete(c4, 0b0101)
    assert is_complete(c4, 0b0100) and is_complete(c4, 0)
    g = disjoint_union(complete_graph(4), complete_graph(3))
    assert [is_complete(g, c) for c in connected_components(g)] == [True, True]
    assert not is_complete(g)


def test_named_graphs():
    assert petersen_graph().n == 10
    assert prism_graph().edges() == graph_from_edges(
        6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
            (0, 3), (1, 4), (2, 5)]).edges()
    assert star_graph(5).degree(0) == 5
    assert cycle_graph(3).edges() == complete_graph(3).edges()
