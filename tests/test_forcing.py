import hashlib
import random
import time
from collections import Counter

import networkx as nx
import pytest

from zfalpha import forcing
from zfalpha.bounds import minimum_path_cover
from zfalpha.forcing import (ForcingRecord, NotForcingSetError,
                             SolverBudgetExceeded, _wavefront,
                             chronological_forces, closure,
                             enumerate_minimal_forts, is_fort,
                             is_zero_forcing_set, min_zfset_avoiding,
                             zero_forcing_number)
from zfalpha.gadgets import build_tight_graph, generate_31_trees
from zfalpha.graphs import (GraphError, bits, bridge_blocks, bridges,
                            classify_degrees, complete_bipartite,
                            complete_graph, components, cycle_graph,
                            disjoint_union, graph_from_edges, induced_subgraph,
                            is_connected, path_graph, petersen_graph,
                            prism_graph, star_graph)
from zfalpha.independence import maximum_independent_set

from oracles import (_is_fort_without, _packing, _shrink_fort,
                     bridged_random_cubic, brute_closure, brute_zero_forcing,
                     brute_zero_forcing_avoiding, cubic_graphs,
                     fort_search_zero_forcing, random_block_tree_edges,
                     random_connected_bounded_degree_edges, random_cubic_edges,
                     random_edge_graph, random_forest_edges, random_tree_edges,
                     unpruned_wavefront)


def test_closure_matches_set_oracle():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(1, 10)
        g = random_edge_graph(graph_from_edges, n, rng.random(), rng)
        blue = rng.getrandbits(n)
        expect = brute_closure(g, bits(blue))
        assert set(bits(closure(g, blue))) == expect


def test_closure_from_closed_subset_matches_full_closure():
    rng = random.Random(13)
    for _ in range(300):
        n = rng.randint(1, 12)
        g = random_edge_graph(graph_from_edges, n, rng.random(), rng)
        closed = closure(g, rng.getrandbits(n) & rng.getrandbits(n))
        blue = closed | rng.getrandbits(n) & rng.getrandbits(n)
        assert closure(g, blue, closed) == closure(g, blue)


def test_closure_is_order_independent():
    # run the rule in reversed vertex order and compare fixpoints
    def closure_reversed(g, blue):
        changed = True
        while changed:
            changed = False
            for v in reversed(list(bits(blue))):
                white = g.adj[v] & ~blue
                if white and white & (white - 1) == 0:
                    blue |= white
                    changed = True
        return blue

    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 10)
        g = random_edge_graph(graph_from_edges, n, rng.random(), rng)
        blue = rng.getrandbits(n)
        assert closure(g, blue) == closure_reversed(g, blue)


def test_is_zero_forcing_set():
    p = path_graph(5)
    assert is_zero_forcing_set(p, 0b00001)
    assert not is_zero_forcing_set(cycle_graph(5), 0b00001)
    assert is_zero_forcing_set(cycle_graph(5), 0b00011)


def test_chronological_forces_record():
    p = path_graph(4)
    rec = chronological_forces(p, 0b0001)
    assert rec.steps == ((0, 1), (1, 2), (2, 3))
    assert rec.chains == ((0, 1, 2, 3),)
    assert rec.replay_ok(p)
    # chains partition the vertex set
    seen = [v for chain in rec.chains for v in chain]
    assert sorted(seen) == list(range(p.n))


def test_chronological_forces_lowest_forcer_first():
    k = complete_graph(4)
    rec = chronological_forces(k, 0b0111)
    assert rec.steps == ((0, 3),)


def test_chronological_forces_stall():
    with pytest.raises(NotForcingSetError):
        chronological_forces(cycle_graph(4), 0b0001)


def test_replay_rejects_tampered_record():
    p = path_graph(3)
    bad = ForcingRecord(0b001, ((0, 2),), ((0, 2), (1,)))
    assert not bad.replay_ok(p)


def test_forts():
    c4 = cycle_graph(4)
    assert is_fort(c4, 0b0101)  # the two antipodal vertices
    assert not is_fort(c4, 0b0001)
    assert is_fort(c4, 0b1111)
    with pytest.raises(Exception):
        is_fort(c4, 0)


# the helpers of tests/oracles.py:fort_search_zero_forcing, the reference
# that test_wavefront_matches_exact_solver_on_cubic_graphs compares against


def _random_forts(rng, count):
    """(graph, fort) pairs: the full vertex set, where fort shrinking starts
    when no small fort is known, and stalled white sets of random blue sets."""
    for _ in range(count):
        n = rng.randint(1, 12)
        g = random_edge_graph(graph_from_edges, n, rng.random(), rng)
        yield g, g.full_mask
        white = g.full_mask & ~closure(g, rng.getrandbits(n) & rng.getrandbits(n))
        if white:
            yield g, white


def test_local_fort_check_matches_is_fort():
    rng = random.Random(41)
    checked = 0
    for g, fort in _random_forts(rng, 300):
        assert is_fort(g, fort)
        for v in bits(fort):
            smaller = fort & ~(1 << v)
            if smaller:
                assert _is_fort_without(g, fort, v) == is_fort(g, smaller)
                checked += 1
    assert checked > 1000


def test_shrink_fort_matches_greedy_is_fort_removal():
    def shrink_by_is_fort(g, members):
        shrunk = True
        while shrunk:
            shrunk = False
            for v in bits(members):
                candidate = members & ~(1 << v)
                if candidate and is_fort(g, candidate):
                    members = candidate
                    shrunk = True
        return members

    rng = random.Random(43)
    for g, fort in _random_forts(rng, 200):
        shrunk = _shrink_fort(g, fort)
        assert shrunk == shrink_by_is_fort(g, fort)
        assert shrunk & ~fort == 0 and is_fort(g, shrunk)


def test_every_zfset_hits_every_fort():
    rng = random.Random(23)
    for _ in range(50):
        n = rng.randint(2, 9)
        g = random_edge_graph(graph_from_edges, n, rng.random(), rng)
        z, witness = zero_forcing_number(g)
        for fort in enumerate_minimal_forts(g, cap=30):
            assert witness & fort, (g.edges(), witness, fort)


def test_minimal_forts_are_minimal():
    g = petersen_graph()
    for fort in enumerate_minimal_forts(g, cap=20):
        assert is_fort(g, fort)
        for v in bits(fort):
            smaller = fort & ~(1 << v)
            assert smaller == 0 or not is_fort(g, smaller)


def test_max_size_keeps_the_smaller_minimal_forts():
    rng = random.Random(29)
    for _ in range(40):
        n = rng.randint(1, 8)
        g = random_edge_graph(graph_from_edges, n, rng.random(), rng)
        every = enumerate_minimal_forts(g)
        for k in (1, 2, 3):
            small = [f for f in every if f.bit_count() <= k]
            assert enumerate_minimal_forts(g, max_size=k) == small
        assert enumerate_minimal_forts(g, cap=2) == every[:2]


def test_packing_counts_disjoint_forts_in_order():
    forts = [0b0011, 0b0110, 0b1000, 0b10000, 0b100000]
    assert _packing(forts) == 4  # 0b0110 meets 0b0011
    assert _packing(forts[1:]) == 4
    # counting stops at the first size above the limit
    assert [_packing(forts, limit) for limit in range(5)] == [1, 2, 3, 4, 4]
    assert _packing([]) == 0


def _has_nested_forts(forts):
    return any(a != b and a & b == a for a in forts for b in forts)


def test_exact_search_forts_are_not_nested():
    # the fort-search oracle's fort list; two isolated vertices: {2} and {3}
    # are forts, so {2, 3} is not minimal
    _, forts = fort_search_zero_forcing(graph_from_edges(4, [(0, 1)]))
    assert 0b0100 in forts and 0b1000 in forts
    assert not _has_nested_forts(forts), forts
    isolated = [(g, forbidden) for g, forbidden in _search_digest_cases()
                if sum(1 for v in range(g.n) if not g.adj[v]) >= 2]
    assert len(isolated) == 14
    for g, forbidden in isolated:
        try:
            _, forts = fort_search_zero_forcing(g, forbidden)
        except GraphError:  # no forcing set avoids ``forbidden``
            continue
        assert not _has_nested_forts(forts), (g.edges(), forbidden, forts)


def test_zero_forcing_known_values():
    assert zero_forcing_number(path_graph(6))[0] == 1
    assert zero_forcing_number(cycle_graph(7))[0] == 2
    assert zero_forcing_number(complete_graph(5))[0] == 4
    assert zero_forcing_number(complete_bipartite(3, 3))[0] == 4
    assert zero_forcing_number(petersen_graph())[0] == 5
    assert zero_forcing_number(prism_graph())[0] == 3
    assert zero_forcing_number(star_graph(4))[0] == 3
    assert zero_forcing_number(graph_from_edges(1, []))[0] == 1
    assert zero_forcing_number(graph_from_edges(0, []))[0] == 0


def test_zero_forcing_matches_brute_oracle():
    rng = random.Random(31)
    for _ in range(150):
        n = rng.randint(1, 8)
        g = random_edge_graph(graph_from_edges, n, rng.random(), rng)
        z, witness = zero_forcing_number(g)
        assert z == brute_zero_forcing(g)
        assert witness.bit_count() == z
        assert is_zero_forcing_set(g, witness)


def test_zero_forcing_on_forests():
    # Z of a forest is its path cover number; every edge is a bridge, so the
    # bridge-tree program settles these without a wavefront
    rng = random.Random(37)
    forests = []
    for _ in range(100):
        n = rng.randint(1, 14)
        forests.append(graph_from_edges(n, random_forest_edges(n, rng)))
    for _ in range(20):  # leafy trees with n = 36..40, with and without Δ ≤ 3
        n = rng.randint(36, 40)
        forests.append(graph_from_edges(n, random_tree_edges(n, rng)))
        forests.append(graph_from_edges(n, random_connected_bounded_degree_edges(
            n, 3, 0, rng)))
    for g in forests:
        z, witness = zero_forcing_number(g)
        assert z == witness.bit_count() == len(minimum_path_cover(g)), g.edges()
        assert is_zero_forcing_set(g, witness), g.edges()


def test_disconnected_graphs():
    g = disjoint_union(path_graph(3), cycle_graph(4))
    assert zero_forcing_number(g)[0] == 1 + 2


def test_min_zfset_avoiding():
    c5 = cycle_graph(5)
    for v in range(5):
        witness = min_zfset_avoiding(c5, v)
        assert witness.bit_count() == 2
        assert not witness >> v & 1
        assert is_zero_forcing_set(c5, witness)
    g = petersen_graph()
    witness = min_zfset_avoiding(g, 0)
    assert witness.bit_count() == 5 and not witness & 1
    for outside in (10, 12, -1):
        with pytest.raises(GraphError):
            min_zfset_avoiding(g, outside)
    rng = random.Random(67)
    checked = 0
    while checked < 40:  # every vertex of seeded random connected graphs
        n = rng.randint(2, 9)
        g = random_edge_graph(graph_from_edges, n, rng.uniform(0.2, 0.8), rng)
        if not is_connected(g):
            continue
        z = brute_zero_forcing(g)
        for v in range(n):
            witness = min_zfset_avoiding(g, v)
            assert witness.bit_count() == z, (g.edges(), v, witness)
            assert not witness >> v & 1, (g.edges(), v, witness)
            assert is_zero_forcing_set(g, witness), (g.edges(), v, witness)
        checked += 1


def test_wavefront_avoids_forbidden_vertices():
    rng = random.Random(61)
    infeasible = 0
    for _ in range(400):
        n = rng.randint(1, 9)
        g = random_edge_graph(graph_from_edges, n, rng.random(), rng)
        forbidden = rng.getrandbits(n) & rng.getrandbits(n)
        want = brute_zero_forcing_avoiding(g, forbidden)
        if want is None:
            with pytest.raises(GraphError, match="forbidden"):
                _wavefront(g, forbidden)
            infeasible += 1
            continue
        witness = _wavefront(g, forbidden)
        assert witness.bit_count() == want, (g.edges(), forbidden, witness)
        assert not witness & forbidden, (g.edges(), forbidden, witness)
        assert is_zero_forcing_set(g, witness), (g.edges(), forbidden, witness)
    assert infeasible >= 20


def test_budget_exceeded():
    g = petersen_graph()
    with pytest.raises(SolverBudgetExceeded) as info:
        zero_forcing_number(g, deadline=time.monotonic() - 1)
    assert "zero-forcing" in str(info.value) and "0.0s" not in str(info.value)


# SHA-256 of repr(_wavefront(g, forbidden)) over the inputs of
# test_exact_search_matches_golden_digest.  It pins the search itself: a
# change to the twin start, the moves, the forced neighbour, the order of
# expansion or the stop rule shows here even where Z and the certificates
# stay the same.
SEARCH_DIGEST = "919ddd984b279d8be964664bb4a26f64ec750b2a7d1c5d4831bb2c5e2298047e"
# closure calls that _wavefront makes over the same inputs: the bound skip,
# the unrecorded states and the duplicate-move skip each remove some, so a
# change that drops one shows here even though the digest holds
SEARCH_CLOSURES = 5254


def _relabeled(g, rng):
    perm = rng.sample(range(g.n), g.n)
    return graph_from_edges(g.n, [(perm[a], perm[b]) for a, b in g.edges()])


def _search_digest_cases():
    """The (graph, forbidden) inputs of SEARCH_DIGEST, in order."""
    rng = random.Random(47)
    cases = []
    for n in (4, 6, 8):
        for t in generate_31_trees(n):
            g = build_tight_graph(t).result
            cases.append((g, 0))
            if n < 8:
                cases += [(_relabeled(g, rng), 0) for _ in range(3)]
    for n in (18, 20):
        for _ in range(5):
            g = graph_from_edges(n, random_cubic_edges(n, rng))
            cases += [(g, 0), (g, 1 << rng.randrange(n))]
    for _ in range(40):
        n = rng.randint(1, 10)
        g = random_edge_graph(graph_from_edges, n, rng.random(), rng)
        cases += [(g, 0), (g, rng.getrandbits(n) & rng.getrandbits(n))]
    return cases


def test_exact_search_matches_golden_digest():
    h = hashlib.sha256()
    for g, forbidden in _search_digest_cases():
        try:
            result = repr(_wavefront(g, forbidden))
        except GraphError:  # no forcing set avoids ``forbidden``
            result = "GraphError"
        h.update(result.encode() + b"\n")
    assert h.hexdigest() == SEARCH_DIGEST


def test_exact_search_closure_count(monkeypatch):
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return closure(*args)

    monkeypatch.setattr(forcing, "closure", counted)
    for g, forbidden in _search_digest_cases():
        try:
            _wavefront(g, forbidden)
        except GraphError:
            pass
    assert calls == SEARCH_CLOSURES


def _check_wavefront(g, z):
    witness = _wavefront(g)
    assert witness.bit_count() == z, (g.edges(), witness, z)
    assert is_zero_forcing_set(g, witness), (g.edges(), witness)
    assert _wavefront(g) == witness, g.edges()


def test_wavefront_matches_brute_oracle():
    rng = random.Random(53)
    for _ in range(150):
        n = rng.randint(0, 8)
        g = random_edge_graph(graph_from_edges, n, rng.random(), rng)
        _check_wavefront(g, brute_zero_forcing(g))
    for _ in range(50):
        n = rng.randint(1, 8)
        g = graph_from_edges(n, random_forest_edges(n, rng))
        _check_wavefront(g, brute_zero_forcing(g))
    for _ in range(50):
        n = rng.randint(2, 8)
        g = graph_from_edges(n, random_connected_bounded_degree_edges(
            n, rng.randint(2, 4), rng.randint(0, n), rng))
        _check_wavefront(g, brute_zero_forcing(g))


def test_wavefront_matches_exact_solver_on_cubic_graphs():
    graphs = [g for n in range(4, 13, 2) for g in cubic_graphs(n)]
    # the digest inputs include G_T for the 3-1 trees on 4, 6 and 8 vertices
    graphs += [g for g, forbidden in _search_digest_cases()
               if not forbidden and classify_degrees(g).is_cubic]
    graphs += [build_tight_graph(t).result for t in generate_31_trees(10)]
    rng = random.Random(71)
    for _ in range(40):
        n = rng.randint(12, 24)
        graphs.append(graph_from_edges(n, random_connected_bounded_degree_edges(
            n, rng.randint(3, 5), rng.randint(n // 2, n), rng)))
    for g in graphs:
        witness, _ = fort_search_zero_forcing(g)
        _check_wavefront(g, witness.bit_count())


def test_wavefront_stop_rule_keeps_the_witness():
    # _wavefront stops once no move can lower the full set's cost; its
    # witness must be the one the search run until the full set's pop gives
    graphs = [g for n in range(4, 13, 2) for g in cubic_graphs(n)]
    graphs += [build_tight_graph(t).result for n in (4, 6, 8)
               for t in generate_31_trees(n)]
    rng = random.Random(59)
    graphs += [graph_from_edges(n, random_cubic_edges(n, rng))
               for n in range(14, 23, 2) for _ in range(20)]
    # larger cubic graphs, where the bound skip removes most closures
    graphs += [graph_from_edges(n, random_cubic_edges(n, rng))
               for n in (24, 26, 28) for _ in range(4)]
    # non-cubic graphs, many with false twins, so a nonempty start
    graphs += [graph_from_edges(n, random_connected_bounded_degree_edges(
        n, rng.randint(3, 5), rng.randint(0, n), rng))
        for n in range(6, 17, 2) for _ in range(10)]
    for g in graphs:
        assert _wavefront(g) == unpruned_wavefront(g), g.edges()


def test_wavefront_matches_unpruned_oracle_with_forbidden_vertices():
    # random graphs (many with triangles) plus false twins of some vertices,
    # so forbidden vertices meet twin classes and moves of different v with
    # the same S | N[v] but different forced neighbours
    rng = random.Random(67)
    feasible = 0
    for _ in range(2000):
        base = rng.randint(1, 7)
        edges = random_edge_graph(graph_from_edges, base, rng.random(), rng).edges()
        n = base
        for _ in range(rng.randint(0, 2)):
            twin = rng.randrange(n)
            edges += [(u, n) for u in range(n)
                      if (u, twin) in edges or (twin, u) in edges]
            n += 1
        g = graph_from_edges(n, edges)
        forbidden = rng.getrandbits(n) & rng.getrandbits(n)
        try:
            want = unpruned_wavefront(g, forbidden)
        except GraphError:
            with pytest.raises(GraphError, match="forbidden"):
                _wavefront(g, forbidden)
            continue
        assert _wavefront(g, forbidden) == want, (g.edges(), forbidden)
        feasible += 1
    assert feasible >= 1200


def test_wavefront_when_the_start_forces_everything():
    # the twin start's closure is the whole graph, so the start is returned
    # at the first expansion; n = 1 starts empty and takes one move
    deadline = time.monotonic() + 10
    assert _wavefront(graph_from_edges(0, []), deadline=deadline) == 0
    assert _wavefront(complete_bipartite(3, 3), deadline=deadline) == 0b011011
    assert _wavefront(star_graph(5), deadline=deadline) == 0b011110
    assert _wavefront(graph_from_edges(1, []), deadline=deadline) == 0b1


def _leafy_cycle(length, leaves):
    """C_length with ``leaves`` pendant vertices on each cycle vertex."""
    edges = [(v, (v + 1) % length) for v in range(length)]
    edges += [(v, length + leaves * v + k)
              for v in range(length) for k in range(leaves)]
    return graph_from_edges(length * (1 + leaves), edges)


def test_twin_classes_start_blue():
    # false twins (the leaves of a star, a side of K2,20, the pendant leaves
    # at one vertex) start blue but one per class; without that start the
    # wavefront does not finish K1,40.  K2,20 on 1..22 with a pendant vertex
    # 0 is one block behind a bridge, so its wavefront runs with the bridge
    # end blue (``pre``), and the twins outside ``pre`` must still start blue
    star_plus = graph_from_edges(17, star_graph(16).edges() + [(1, 2)])
    k220 = [(a, b) for a in (1, 2) for b in range(3, 23)]
    for g, z in ((star_graph(40), 39), (complete_bipartite(2, 20), 20),
                 (star_plus, 14), (_leafy_cycle(8, 2), 8),
                 (graph_from_edges(23, k220 + [(0, 3)]), 20),
                 (graph_from_edges(23, k220 + [(0, 1)]), 20)):
        found, witness = zero_forcing_number(g, time.monotonic() + 10)
        assert found == witness.bit_count() == z, (g.edges(), witness)
        assert is_zero_forcing_set(g, witness), (g.edges(), witness)


def test_wavefront_with_pre_blue_vertices():
    # the least S avoiding F such that S and the blue set P force g; the
    # false twins added to some graphs make a twin start wrong under P
    rng = random.Random(73)
    feasible = 0
    for _ in range(1500):
        base = rng.randint(1, 7)
        edges = random_edge_graph(graph_from_edges, base, rng.random(), rng).edges()
        n = base
        for _ in range(rng.randint(0, 2)):
            twin = rng.randrange(n)
            edges += [(u, n) for u in range(n)
                      if (u, twin) in edges or (twin, u) in edges]
            n += 1
        g = graph_from_edges(n, edges)
        forbidden = rng.getrandbits(n) & rng.getrandbits(n)
        pre = rng.getrandbits(n) & rng.getrandbits(n) & ~forbidden
        want = brute_zero_forcing_avoiding(g, forbidden, pre)
        if want is None:
            with pytest.raises(GraphError, match="forbidden"):
                _wavefront(g, forbidden, pre=pre)
            continue
        witness = _wavefront(g, forbidden, pre=pre)
        assert witness.bit_count() == want, (g.edges(), forbidden, pre, witness)
        assert not witness & (forbidden | pre), (g.edges(), forbidden, pre)
        assert closure(g, witness | pre) == g.full_mask, (g.edges(), forbidden, pre)
        feasible += 1
    assert feasible >= 900


def _check_bridge_program(g, z=None):
    """zero_forcing_number, and the bridge-tree program on its own at any
    size, against the wavefront on the whole graph: the same Z, and a
    witness of that size that forces g."""
    want = _wavefront(g).bit_count() if z is None else z
    found, witness = zero_forcing_number(g)
    assert found == witness.bit_count() == want, (g.edges(), witness, want)
    assert is_zero_forcing_set(g, witness), (g.edges(), witness)
    witness = forcing._bridge_tree_zfs(g, bridge_blocks(g), None)
    assert witness.bit_count() == want, (g.edges(), witness, want)
    assert is_zero_forcing_set(g, witness), (g.edges(), witness)


def _block_tree_cases():
    """The seeded random block trees of the bridge-program checks, in order."""
    rng = random.Random(79)
    return [graph_from_edges(*random_block_tree_edges(rng.randint(2, 5), 5, rng))
            for _ in range(1500)]


def _tight_cases():
    """(G_T, its Z when the tree is large) for every 3-1 tree with 4-14
    vertices, each followed by its seeded relabelings, in order."""
    rng = random.Random(83)
    cases = []
    for n in range(4, 15, 2):
        for t in generate_31_trees(n):
            g = build_tight_graph(t).result
            z = len(minimum_path_cover(t.tree)) + n + 2  # Z(G_T) = Z(T) + n + 2
            for h in [g] + [_relabeled(g, rng) for _ in range(3 if n <= 10 else 1)]:
                cases.append((h, z if n > 10 else None))
    return cases


def test_bridge_program_matches_wavefront_on_block_trees():
    bridged = 0
    for g in _block_tree_cases():
        bridged += bool(bridges(g))
        _check_bridge_program(g)
    assert bridged >= 1300


def test_bridge_program_on_tight_and_bridged_cubic_graphs():
    for h, z in _tight_cases():
        _check_bridge_program(h, z)
    cubic = [g for n in range(4, 13, 2) for g in cubic_graphs(n) if bridges(g)]
    assert len(cubic) == 5  # one at n = 10, four at n = 12
    drawn = bridged_random_cubic()  # the bridged random_cubic benchmark inputs
    assert len(drawn) == 70 and len({seed for seed, _, _ in drawn}) == 60
    for g in cubic + [g for _, _, g in drawn]:
        assert bridges(g)
        _check_bridge_program(g)


# SHA-256 of repr(zero_forcing_number(g)) over every G_T of
# _tight_cases, the 70 bridged random_cubic inputs and _block_tree_cases,
# in that order.  No certificate field reads Z's witness, so this is what
# pins the witness that the bridge-tree program returns.
BRIDGE_WITNESS_DIGEST = (
    "fc4ced2fa9a53a68cfcbe94c64a70a1381499c9fe8ae4843cf9f4d4c19fd9f24")


def test_bridge_witnesses_match_golden_digest():
    h = hashlib.sha256()
    for g in _bridge_digest_graphs():
        h.update(repr(zero_forcing_number(g)).encode() + b"\n")
    assert h.hexdigest() == BRIDGE_WITNESS_DIGEST


def _cold_memo():
    """Empty the bridge program's block memo, so that the next bridged call
    runs its block wavefronts again."""
    forcing._block_memo.clear()


def _bridge_digest_graphs():
    """The inputs of BRIDGE_WITNESS_DIGEST, in order."""
    graphs = [h for h, _ in _tight_cases()]
    return graphs + [g for _, _, g in bridged_random_cubic()] + _block_tree_cases()


def test_bridge_witnesses_match_golden_digest_with_a_cold_and_a_warm_memo():
    # each entry of the memo is a function of its key, so the witnesses are
    # the same whether the memo is emptied before every graph or kept
    graphs = _bridge_digest_graphs()
    for cold in (True, False):
        _cold_memo()
        h = hashlib.sha256()
        for g in graphs:
            if cold:
                _cold_memo()
            h.update(repr(zero_forcing_number(g)).encode() + b"\n")
        assert h.hexdigest() == BRIDGE_WITNESS_DIGEST, cold


def test_bridge_program_runs_no_wavefront_on_the_whole_graph(monkeypatch):
    # a tree's blocks are single vertices, so its wavefronts run on B*, a
    # vertex with a pendant per child bridge whose side has bit 1.  After
    # them, G_T runs the wavefront only on its 5-vertex gadget, once per
    # state of the gadget's bridge to the tree: none, in (one vertex blue)
    # and out (a forbidden leaf).  Every G_T has that one gadget shape, and
    # its tree vertices' B* are those of the trees, so only the first G_T
    # runs them; the memo serves every later G_T
    calls = []

    def recorded(g, forbidden=0, deadline=None, pre=0):
        calls.append((g.n, forbidden.bit_count(), pre.bit_count()))
        return _wavefront(g, forbidden, deadline, pre)

    _cold_memo()
    monkeypatch.setattr(forcing, "_wavefront", recorded)
    rng = random.Random(89)
    for _ in range(10):
        n = rng.randint(20, 40)
        g = graph_from_edges(n, random_tree_edges(n, rng))
        assert zero_forcing_number(g)[0] == len(minimum_path_cover(g))
        assert all(size < n for size, _, _ in calls), (n, calls)
        calls.clear()
    first = True
    for n in range(6, 15, 2):
        for t in generate_31_trees(n):
            zero_forcing_number(build_tight_graph(t).result)
            assert sorted(calls) == (
                [(5, 0, 0), (5, 0, 1), (6, 1, 0)] if first else []), n
            first = False
            calls.clear()
    assert not first


def test_bridge_program_stores_nothing_from_a_wavefront_past_its_deadline(
        monkeypatch):
    # the one G_T from a 3-1 tree on 8 vertices, with its pinned witness:
    # its first block wavefront runs out of time, so nothing is stored, and
    # the next call solves every block and gives the witness
    g = build_tight_graph(generate_31_trees(8)[0]).result
    calls = []

    def first_over_budget(g, forbidden=0, deadline=None, pre=0):
        calls.append(g.n)
        if len(calls) == 1:
            raise SolverBudgetExceeded("zero-forcing")
        return _wavefront(g, forbidden, deadline, pre)

    _cold_memo()
    monkeypatch.setattr(forcing, "_wavefront", first_over_budget)
    with pytest.raises(SolverBudgetExceeded):
        zero_forcing_number(g)
    assert forcing._block_memo == {}
    assert zero_forcing_number(g) == (13, 86854481)
    assert sorted(calls) == [2, 3, 3, 5, 5, 5, 6]


def test_block_memo_stays_within_its_limit():
    # seeded block trees whose pieces have up to 7 vertices carry more
    # distinct block shapes than the memo holds; it is emptied when full,
    # never grows past its limit, and Z stays the wavefront's throughout
    _cold_memo()
    limit = forcing._BLOCK_MEMO_LIMIT
    rng = random.Random(97)
    shapes, cleared, size = set(), 0, 0
    for _ in range(5000):  # 1761 graphs reach both
        if len(shapes) > limit and cleared:
            break
        g = graph_from_edges(*random_block_tree_edges(rng.randint(2, 4), 7, rng))
        _check_bridge_program(g)
        assert len(forcing._block_memo) <= limit
        cleared += len(forcing._block_memo) < size
        size = len(forcing._block_memo)
        shapes.update(key[0] for key in forcing._block_memo)
    assert len(shapes) > limit and cleared


def test_bridge_program_runs_on_every_bridged_graph(monkeypatch):
    # a cycle with a pendant vertex at k of its vertices: the cycle block
    # has k bridges, and the program solves it whatever k, here 7 on an
    # 18-cycle and 6 on a 40-cycle.  The 16-vertex G_T, the smallest, runs
    # the wavefront only on its blocks' B*, never on the whole graph
    for cycle, pendants in ((18, 7), (40, 6)):
        g = graph_from_edges(cycle + pendants,
                             [(v, (v + 1) % cycle) for v in range(cycle)]
                             + [(v, cycle + v) for v in range(pendants)])
        found, witness = zero_forcing_number(g)
        assert witness == forcing._bridge_tree_zfs(g, bridge_blocks(g), None)
        assert found == _wavefront(g).bit_count() == witness.bit_count()
        assert is_zero_forcing_set(g, witness)
    g = build_tight_graph(generate_31_trees(4)[0]).result
    assert g.n == 16 and bridges(g)
    calls = []

    def recorded(g, forbidden=0, deadline=None, pre=0):
        calls.append((g.n, forbidden.bit_count(), pre.bit_count()))
        return _wavefront(g, forbidden, deadline, pre)

    _cold_memo()
    monkeypatch.setattr(forcing, "_wavefront", recorded)
    found, witness = zero_forcing_number(g)
    assert sorted(calls) == [(4, 0, 0), (5, 0, 0), (5, 0, 1), (6, 1, 0)]
    assert witness == forcing._bridge_tree_zfs(g, bridge_blocks(g), None)
    assert found == witness.bit_count() == 8 and is_zero_forcing_set(g, witness)


def test_block_memo_key_names_b_star_alone(monkeypatch):
    # B* hangs a pendant vertex only at a child with bit 1, so a child side
    # with bit 0 is not part of the key: an 8-cycle with a pendant vertex at
    # 0 and the same graph with a P3 hung by its centre at 4 (Z(P3) = 1 =
    # Z(P3 | centre), so bit 0) share the cycle block's entry
    calls = []

    def recorded(g, forbidden=0, deadline=None, pre=0):
        calls.append(g.n)
        return _wavefront(g, forbidden, deadline, pre)

    cycle = [(v, (v + 1) % 8) for v in range(8)]
    _cold_memo()
    monkeypatch.setattr(forcing, "_wavefront", recorded)
    assert zero_forcing_number(graph_from_edges(9, cycle + [(0, 8)]))[0] == 2
    assert 9 in calls
    calls.clear()
    g = graph_from_edges(12, cycle + [(0, 8), (4, 9), (9, 10), (9, 11)])
    found, witness = zero_forcing_number(g)
    assert found == _wavefront(g).bit_count() == 3
    assert is_zero_forcing_set(g, witness)
    assert calls and max(calls) < 8, calls
    # every G_T from a 3-1 tree with 4-14 vertices: 3 entries for the gadget
    # in its three states and 9 for tree vertices
    _cold_memo()
    for n in range(4, 15, 2):
        for t in generate_31_trees(n):
            zero_forcing_number(build_tight_graph(t).result)
    assert len(forcing._block_memo) == 12


def test_leafy_cycle_keeps_the_deadline():
    # a 46-cycle with a pendant vertex at each of 0, 2, ..., 30: one block
    # with 16 bridges whose B* is the whole graph, a search of minutes and
    # hundreds of MiB; the wavefront checks the deadline at every state
    g = graph_from_edges(62, [(v, (v + 1) % 46) for v in range(46)]
                         + [(2 * k, 46 + k) for k in range(16)])
    start = time.monotonic()
    with pytest.raises(SolverBudgetExceeded):
        zero_forcing_number(g, deadline=start + 0.3)
    assert time.monotonic() - start < 1


def test_bridge_program_keeps_the_deadline():
    for g in (build_tight_graph(generate_31_trees(8)[0]).result, path_graph(30)):
        with pytest.raises(SolverBudgetExceeded):
            zero_forcing_number(g, deadline=time.monotonic() - 1)


def test_bridge_program_settles_leafy_graphs_in_time():
    # the slowest of 20 seeded trees plus one edge, and of 20 plus two
    # edges, with n = 36 for the whole-graph wavefront: about 1.0 and 0.8 s
    # there, and about 6 and 10 ms through the program with a cold memo
    # (2 vCPU, Python 3.11.7), so the 0.15 s deadline is at least 15 times
    # the program's time and at most a fifth of the wavefront's
    for extra, index in ((1, 3), (2, 14)):
        rng = random.Random(36)
        for _ in range(index + 1):
            g = graph_from_edges(36, random_connected_bounded_degree_edges(
                36, 3, extra, rng))
        _cold_memo()
        found, witness = zero_forcing_number(g, time.monotonic() + 0.15)
        assert found == _wavefront(g).bit_count(), extra
        assert is_zero_forcing_set(g, witness), extra


def test_a_forbidden_leaf_costs_one_more_than_a_blue_end():
    # Z(H + leaf@w) = Z(H | w) + 1 and Z(H | w) is Z(H) or Z(H) - 1, on
    # every rooted graph of the atlas with 1-6 vertices: the identity and
    # the bit that let a gadget with Z = 1 stand in for a child side
    rooted = 0
    for h in nx.graph_atlas_g():
        n = h.number_of_nodes()
        if not 1 <= n <= 6:
            continue
        g = graph_from_edges(n, list(h.edges()))
        z = brute_zero_forcing(g)
        for w in range(n):
            blue_end = brute_zero_forcing_avoiding(g, 0, 1 << w)
            plus = graph_from_edges(n + 1, list(h.edges()) + [(w, n)])
            assert brute_zero_forcing_avoiding(plus, 1 << n) == blue_end + 1
            assert z - blue_end in (0, 1), (list(h.edges()), w)
            rooted += 1
    assert rooted == 1167


def _rooted_atlas(largest):
    """(n, edges, root, Z, delta) of each connected atlas graph with 1 to
    ``largest`` vertices and each of its roots up to automorphism, where
    delta = Z(H) - Z(H | root), both by brute force."""
    same_root = nx.algorithms.isomorphism.categorical_node_match("root", False)
    rooted = []
    for h in nx.graph_atlas_g():
        n = h.number_of_nodes()
        if not 1 <= n <= largest or not nx.is_connected(h):
            continue
        g = graph_from_edges(n, list(h.edges()))
        z = brute_zero_forcing(g)
        seen = []
        for w in range(n):
            marked = h.copy()
            nx.set_node_attributes(marked, {v: v == w for v in h}, "root")
            if any(nx.is_isomorphic(marked, other, node_match=same_root)
                   for other in seen):
                continue
            seen.append(marked)
            blue_end = brute_zero_forcing_avoiding(g, 0, 1 << w)
            rooted.append((n, list(h.edges()), w, z, z - blue_end))
    return rooted


def test_a_child_side_with_no_bit_decouples_from_its_block():
    # a child side (s, y) with delta(s, y) = 0 joined to any rooted graph
    # (B, x) by the bridge xy costs Z(B) + Z(s): no force across the bridge
    # is optimal, so B* leaves such a child out.  Every rooted connected
    # graph of the atlas with 1-5 vertices on both sides, by brute force
    rooted = _rooted_atlas(5)
    assert len(rooted) == 74
    pairs = 0
    for nb, edges_b, x, zb, _ in rooted:
        for ns, edges_s, y, zs, delta in rooted:
            if delta:
                continue
            g = graph_from_edges(nb + ns, edges_b + [(x, nb + y)] + [
                (nb + u, nb + v) for u, v in edges_s])
            assert brute_zero_forcing(g) == zb + zs, (edges_b, x, edges_s, y)
            pairs += 1
    assert pairs == 740


def _piece_class(g, members, w):
    """(d, delta, epsilon) of the side of g on the vertex mask ``members``,
    rooted at its bridge end w: Z - alpha, Z - Z(H | w), alpha - alpha(H - w)."""
    h, keep = induced_subgraph(g, members)
    root = 1 << keep.index(w)
    z = zero_forcing_number(h)[0]
    alpha = maximum_independent_set(h).alpha
    rest = induced_subgraph(h, h.full_mask & ~root)[0]
    return (z - alpha, z - _wavefront(h, pre=root).bit_count(),
            alpha - maximum_independent_set(rest).alpha)


def test_piece_lemma_on_the_bridged_cubic_graphs_to_14_vertices():
    # every bridge side H rooted at w of a cubic graph with n <= 14 has
    # d <= 1, and d = 1 only with (delta, epsilon) = (1, 0); across each
    # bridge Z - alpha = d1 + d2 - delta1 * delta2 + epsilon1 * epsilon2
    cubic = [g for n in range(4, 15, 2) for g in cubic_graphs(n) if bridges(g)]
    assert len(cubic) == 34
    classes = Counter()
    for g in cubic:
        gap = zero_forcing_number(g)[0] - maximum_independent_set(g).alpha
        for u, v in bridges(g):
            adj = list(g.adj)
            adj[u] &= ~(1 << v)
            adj[v] &= ~(1 << u)
            sides = [_piece_class(g, m, u if m >> u & 1 else v)
                     for m in components(adj, g.full_mask)]
            (d1, delta1, eps1), (d2, delta2, eps2) = sides
            assert gap == d1 + d2 - delta1 * delta2 + eps1 * eps2, (g.adj, u, v)
            classes.update(sides)
    assert all(d < 1 or (d, delta, eps) == (1, 1, 0)
               for d, delta, eps in classes)
    assert classes == {(1, 1, 0): 34, (0, 1, 1): 17, (0, 1, 0): 14,
                       (-1, 1, 1): 4, (-1, 1, 0): 1}
