import hashlib
import importlib
import os
import random
import time

import pytest

from zfalpha.forcing import SolverBudgetExceeded
from zfalpha.gadgets import build_tight_graph, generate_31_trees
from zfalpha.graphs import (complete_bipartite, complete_graph, cycle_graph,
                            disjoint_union, graph_from_edges, induced_subgraph,
                            parse_graph6, path_graph, petersen_graph, prism_graph,
                            star_graph)
from zfalpha.independence import (_clique_cover, induced_edge_count,
                                  is_independent, is_near_independent,
                                  maximum_independent_set)

from oracles import (brute_alpha, cubic_graphs, random_cubic_edges,
                     random_edge_graph, unpruned_mis)


def test_predicates():
    c5 = cycle_graph(5)
    assert is_independent(c5, 0b00101)
    assert not is_independent(c5, 0b00011)
    assert is_independent(c5, 0)
    assert induced_edge_count(c5, 0b00111) == 2
    assert is_near_independent(c5, 0b00011)
    assert not is_near_independent(c5, 0b00101)
    assert not is_near_independent(c5, 0b00111)


def test_known_values():
    assert maximum_independent_set(petersen_graph()).alpha == 4
    assert maximum_independent_set(complete_graph(6)).alpha == 1
    assert maximum_independent_set(complete_bipartite(3, 4)).alpha == 4
    assert maximum_independent_set(cycle_graph(7)).alpha == 3
    assert maximum_independent_set(path_graph(7)).alpha == 4
    assert maximum_independent_set(prism_graph()).alpha == 2
    assert maximum_independent_set(star_graph(5)).alpha == 5
    assert maximum_independent_set(graph_from_edges(0, [])).alpha == 0


def test_matches_brute_oracle():
    rng = random.Random(101)
    for _ in range(200):
        n = rng.randint(1, 9)
        g = random_edge_graph(graph_from_edges, n, rng.random(), rng)
        cert = maximum_independent_set(g)
        assert cert.alpha == brute_alpha(g)
        assert cert.witness.bit_count() == cert.alpha
        assert is_independent(g, cert.witness)
        # vertex cover complement
        assert cert.beta == g.n - cert.alpha
        assert cert.cover_witness == g.full_mask & ~cert.witness
        for u, v in g.edges():
            assert cert.cover_witness >> u & 1 or cert.cover_witness >> v & 1


def test_clique_cover_bounds_alpha():
    rng = random.Random(103)
    for _ in range(300):
        n = rng.randint(1, 9)
        g = random_edge_graph(graph_from_edges, n, rng.random(), rng)
        for mask in (0, g.full_mask, rng.getrandbits(n),
                     rng.getrandbits(n) & rng.getrandbits(n)):
            cover = _clique_cover(g.adj, mask)
            assert brute_alpha(induced_subgraph(g, mask)[0]) <= cover, (
                g.edges(), mask)
            assert cover <= mask.bit_count(), (g.edges(), mask)


def test_clique_cover_prune_keeps_the_witness():
    # the bound cuts only subtrees that cannot beat the best set strictly, so
    # the search must end on the same first maximum set as with the count
    # alone; degree_alpha and the decycling rows are built from that witness
    graphs = [g for n in range(4, 13, 2) for g in cubic_graphs(n)]
    graphs += [build_tight_graph(t).result for n in (4, 6, 8)
               for t in generate_31_trees(n)]
    rng = random.Random(107)
    graphs += [graph_from_edges(n, random_cubic_edges(n, rng))
               for n in range(14, 31, 2) for _ in range(5)]
    # dense graphs hold cliques larger than triangles for the greedy growth
    graphs += [random_edge_graph(graph_from_edges, rng.randint(1, 20),
                                 rng.uniform(0.05, 0.8), rng)
               for _ in range(300)]
    for g in graphs:
        assert maximum_independent_set(g) == unpruned_mis(g), g.edges()


def test_sparse_components_solved_directly():
    # unions of paths and cycles exercise the degree <= 2 fast path
    g = disjoint_union(disjoint_union(path_graph(5), cycle_graph(6)),
                       cycle_graph(5))
    cert = maximum_independent_set(g)
    assert cert.alpha == 3 + 3 + 2
    assert is_independent(g, cert.witness)


def test_deterministic_witness():
    g = petersen_graph()
    first = maximum_independent_set(g).witness
    for _ in range(3):
        assert maximum_independent_set(g).witness == first


def test_budget_exceeded():
    rng = random.Random(1)
    g = random_edge_graph(graph_from_edges, 30, 0.3, rng)
    with pytest.raises(SolverBudgetExceeded):
        maximum_independent_set(g, deadline=time.monotonic() - 1)


# SHA-256 of repr((alpha, witness)) over the cubic graphs with n <= 12, G_T
# for the 3-1 trees on 4, 6 and 8 vertices (16-28 vertices), the seed-0
# random_cubic benchmark inputs and 300 seeded G(n, p) graphs with n <= 20,
# in that order.  The certificate rows read the witness only through the
# constructions built from it; this pins the search order itself.
ALPHA_DIGEST = (
    "31fb2a3f91bd6bcab07e76cc012138f8c96d9fd94cfcec5f74e6579ff8274704")


def test_alpha_witnesses_match_golden_digest(monkeypatch, tmp_path):
    bench = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "bench")
    monkeypatch.syspath_prepend(bench)  # imported read-only
    path = importlib.import_module("workloads").RandomCubic().setup(
        0, str(tmp_path))["path"]
    with open(path, "rb") as fh:
        drawn = [parse_graph6(ln) for ln in fh.read().split()]
    graphs = [g for n in range(4, 13, 2) for g in cubic_graphs(n)]
    graphs += [build_tight_graph(t).result for n in (4, 6, 8)
               for t in generate_31_trees(n)]
    graphs += drawn
    rng = random.Random(113)
    graphs += [random_edge_graph(graph_from_edges, rng.randint(1, 20),
                                 rng.random(), rng) for _ in range(300)]
    h = hashlib.sha256()
    for g in graphs:
        cert = maximum_independent_set(g)
        h.update(repr((cert.alpha, cert.witness)).encode() + b"\n")
    assert len(drawn) == 40
    assert h.hexdigest() == ALPHA_DIGEST
