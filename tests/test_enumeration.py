import hashlib
import math
import random

import networkx as nx
import pytest

from zfalpha import enumeration
from zfalpha.enumeration import enumerate_connected_cubic
from zfalpha.graphs import GraphError, classify_degrees, is_connected

from oracles import (automorphism_count, count_labeled_connected_cubic,
                     cubic_graphs, is_canonical_by_columns, nx_graph)

# SHA-256 of repr([g.adj for g in enumerate_connected_cubic(n)]): the list
# and its order, as the column-string search produced them
ENUM_DIGEST = {
    4: "67c784f9d48b22ba6db5fa70cb11325c280c90e22760bdb96ee5c17b59e25b11",
    6: "bfd4f621f340870cc209fa1da192ba3fc03eee7e389d8815c0c50bf1decca691",
    8: "8993948d79d9e1591d86037a6e3d695b31a263fa94194069a3824a63b0e36bf4",
    10: "1e9a4bc69638bbc6021e71510890868e74779aac9f589b5d83e1d2c9bb8bfa78",
    12: "733291f17c62b7558855bfab5fe9001d32e71f964a7bc0423f5657f2a06e8211",
    14: "71db65b014822d4f58f8dad114454879e248c0f86588b6f9701e29798ea75357",
}


def test_known_counts():
    assert len(enumerate_connected_cubic(4)) == 1
    assert len(enumerate_connected_cubic(6)) == 2
    assert len(enumerate_connected_cubic(8)) == 5
    assert len(enumerate_connected_cubic(10)) == 19
    assert len(enumerate_connected_cubic(12)) == 85
    assert len(cubic_graphs(14)) == 509  # OEIS A002851


def test_counts_match_labeled_oracle():
    # sum of n!/|Aut(G)| over the classes counts the labeled graphs; with
    # the classes pairwise non-isomorphic (checked below), a missing class
    # would leave the sum short
    for n in (4, 6, 8):
        labeled = sum(math.factorial(n) // automorphism_count(g)
                      for g in enumerate_connected_cubic(n))
        assert labeled == count_labeled_connected_cubic(n)


def test_enumeration_matches_golden_digest():
    for n, digest in ENUM_DIGEST.items():
        adjs = [g.adj for g in cubic_graphs(n)]
        assert hashlib.sha256(repr(adjs).encode()).hexdigest() == digest


def _tested_partial_graphs(monkeypatch, sizes):
    """(tested, dropped) on these sizes, as (adj, k, verdict) triples with
    the column search's verdict: every partial graph the enumerator tests
    with ``_is_canonical``, and every candidate that the swap test drops
    before that test.  The column search decides which branches it takes."""
    tested, dropped = [], []
    beaten_by_swap = enumeration._beaten_by_swap

    def record(adj, k):
        verdict = is_canonical_by_columns(adj, k)
        tested.append((tuple(adj), k, verdict))
        return verdict

    def record_drop(adj, col):
        beaten = beaten_by_swap(adj, col)
        if beaten:
            k = len(adj)
            new = [row | 1 << k if col >> u & 1 else row
                   for u, row in enumerate(adj)] + [col]
            dropped.append((tuple(new), k + 1,
                            is_canonical_by_columns(new, k + 1)))
        return beaten

    with monkeypatch.context() as patch:
        patch.setattr(enumeration, "_is_canonical", record)
        patch.setattr(enumeration, "_beaten_by_swap", record_drop)
        for n in sizes:
            enumerate_connected_cubic(n)
    return tested, dropped


def _relabeled(adj, k, rng):
    perm = list(range(k))
    rng.shuffle(perm)
    out = [0] * k
    for v in range(k):
        for u in range(k):
            if adj[v] >> u & 1:
                out[perm[v]] |= 1 << perm[u]
    return out


def _random_graph(k, max_degree, rng):
    adj = [0] * k
    p = rng.uniform(0.2, 0.7)
    for u in range(k):
        for v in range(u + 1, k):
            if (rng.random() < p and adj[u].bit_count() < max_degree
                    and adj[v].bit_count() < max_degree):
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return adj


def test_swap_test_drops_only_non_canonical_graphs(monkeypatch):
    tested, dropped = _tested_partial_graphs(monkeypatch, (4, 6, 8, 10))
    assert dropped
    assert not [(adj, k) for adj, k, verdict in dropped if verdict]
    # the prune pinned as work: without the swap test, _is_canonical runs
    # 5,066 times here and accepts the same 612
    assert len(tested) == 1208
    assert sum(verdict for _, _, verdict in tested) == 612


def test_is_canonical_matches_column_search(monkeypatch):
    # every partial graph the enumerator tests up to n = 10, accepted or
    # not, and every one the swap test drops before that test
    tested, dropped = _tested_partial_graphs(monkeypatch, (4, 6, 8, 10))
    partial = tested + dropped
    assert len(partial) >= 5066  # all that run without the swap test
    assert {verdict for _, _, verdict in partial} == {True, False}
    for adj, k, verdict in partial:
        assert enumeration._is_canonical(adj, k) == verdict, (adj, k)
    # and relabelings of them, and random graphs of maximum degree 4
    rng = random.Random(17)
    cases = [_relabeled(adj, k, rng) for adj, k, _ in rng.sample(partial, 600)]
    cases += [_random_graph(rng.randint(1, 9), 4, rng) for _ in range(600)]
    for adj in cases:
        k = len(adj)
        assert enumeration._is_canonical(adj, k) == \
            is_canonical_by_columns(adj, k), (adj, k)


def test_outputs_are_cubic_connected_and_distinct():
    for n in (6, 8, 10):
        graphs = enumerate_connected_cubic(n)
        for g in graphs:
            assert g.n == n
            assert classify_degrees(g).is_cubic
            assert is_connected(g)
        # pairwise non-isomorphic, checked independently
        nxg = [nx_graph(g) for g in graphs]
        for i in range(len(nxg)):
            for j in range(i + 1, len(nxg)):
                assert not nx.is_isomorphic(nxg[i], nxg[j])


def test_enumeration_is_deterministic():
    a = [g.adj for g in enumerate_connected_cubic(8)]
    b = [g.adj for g in enumerate_connected_cubic(8)]
    assert a == b


def test_rejects_bad_n():
    with pytest.raises(GraphError):
        enumerate_connected_cubic(7)
    with pytest.raises(GraphError):
        enumerate_connected_cubic(2)
    with pytest.raises(GraphError):
        enumerate_connected_cubic(16)
