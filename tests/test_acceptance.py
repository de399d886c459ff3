"""End-to-end acceptance checks.

Each test prints exactly one PASS/FAIL line (straight to the real stdout so
it shows under pytest's capture) and asserts the same condition.  The cubic
sweep over n in {4, 6, 8, 10, 12, 14} is shared across several checks via a
module-scoped fixture; only criterion 1 reads n = 14.
"""

import itertools
import random
import sys
import time

import pytest

from zfalpha.bounds import (check_small_z_bounds, degree_alpha_construction,
                            minimum_path_cover)
from zfalpha.forcing import SolverBudgetExceeded, is_zero_forcing_set, \
    zero_forcing_number
from zfalpha.gadgets import (build_tight_graph, check_tight_family,
                             generate_31_trees, replace_claw_center,
                             replace_deg1, replace_deg2)
from zfalpha.graphs import (classify_degrees, graph_from_edges, star_graph)
from zfalpha.harness import verify_batch
from zfalpha.independence import maximum_independent_set

from oracles import (brute_alpha, brute_zero_forcing, cubic_graphs,
                     random_bipartite_no_isolated,
                     random_connected_bounded_degree_edges, random_edge_graph,
                     random_forest_edges)

EXPECTED_COUNTS = {4: 1, 6: 2, 8: 5, 10: 19, 12: 85, 14: 509}

# (graph, Z, alpha) triples accumulated by the other checks; the
# counting bounds are re-verified over all of them at the end
PROCESSED = []


def _report(num, ok, desc):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {desc}",
          file=sys.__stdout__, flush=True)
    assert ok, f"criterion {num} failed: {desc}"


def _note(g, z, alpha):
    PROCESSED.append((g, z, alpha))


@pytest.fixture(scope="module")
def sweep():
    results = {}
    for n in sorted(EXPECTED_COUNTS):
        summary, certs = verify_batch(cubic_graphs(n))
        results[n] = (summary, certs)
        if n <= 12:
            for cert, g in zip(certs, cubic_graphs(n)):
                _note(g, cert.z, cert.alpha)
    return results


def test_criterion_1_cubic_sweep(sweep):
    ok = True
    for n in (6, 8, 10, 12, 14):
        summary, certs = sweep[n]
        if len(certs) != EXPECTED_COUNTS[n]:
            ok = False
        for cert in certs:
            conj = [b for b in cert.bounds
                    if b.bound_name == "z_le_alpha_plus_1"][0]
            if not (conj.applicable and conj.holds):
                ok = False
    _report(1, ok, "all 620 connected cubic graphs on 6..14 vertices "
                   "(counts 2/5/19/85/509) satisfy Z <= alpha + 1")


def test_criterion_2_smallest_tight_graph():
    built = build_tight_graph(generate_31_trees(4)[0])
    z, witness = zero_forcing_number(built.result)
    alpha = maximum_independent_set(built.result).alpha
    _note(built.result, z, alpha)
    _report(2, z == 8 and alpha == 7,
            f"claw-gadget graph on 16 vertices has Z = {z} (want 8) and "
            f"alpha = {alpha} (want 7)")


def test_criterion_3_tight_family():
    ok = True
    for n in (4, 6, 8, 10, 12):
        for t in generate_31_trees(n):
            deadline = time.monotonic() + 60.0
            try:
                rep = check_tight_family(t, deadline)
            except SolverBudgetExceeded:
                ok = False
                continue
            if not rep.holds:
                ok = False
    _report(3, ok, "Z = Z(T) + n + 2 = alpha + 1 for every degree-{1,3} "
                   "tree on 4..12 vertices, each within the 60 s budget")


def test_criterion_4_decycling_construction(sweep):
    ok = True
    for n in (6, 8, 10, 12):
        _, certs = sweep[n]
        for cert in certs:
            face = [b for b in cert.bounds
                    if b.bound_name in ("one_face_forcing", "two_face_forcing")]
            if cert.one_face or cert.two_face:
                if not face or not face[0].holds:
                    ok = False
                limit = cert.alpha + (1 if cert.one_face else 2)
                if face and face[0].witness.bit_count() > limit:
                    ok = False
    _report(4, ok, "every decycling partition yields a verified forcing set "
                   "of size <= alpha + 1 (one face) or alpha + 2 (two faces)")


def test_criterion_5_three_alpha(sweep):
    ok = True
    for n in (6, 8, 10, 12):
        _, certs = sweep[n]
        for cert in certs:
            rep = [b for b in cert.bounds
                   if b.bound_name == "three_alpha_minus_half_n"]
            if not rep or not rep[0].holds or cert.z > rep[0].bound_value:
                ok = False
    _report(5, ok, "Z <= 3*alpha - n/2 on the full cubic sweep (K4 excluded)")


def test_criterion_6_gadget_deltas():
    rng = random.Random(1006)
    counts = {"deg1": 0, "deg2": 0, "claw": 0}
    ok = True
    for _ in range(100):
        n = rng.randint(3, 12)
        g = graph_from_edges(n, random_connected_bounded_degree_edges(
            n, 3, rng.randint(0, 3), rng))
        z = zero_forcing_number(g)[0]
        alpha = maximum_independent_set(g).alpha
        _note(g, z, alpha)
        by_degree = {g.degree(v): v for v in reversed(range(n))}
        if 1 in by_degree:
            counts["deg1"] += 1
            step = replace_deg1(g, by_degree[1])
            if (zero_forcing_number(step.result)[0] != z + 2
                    or maximum_independent_set(step.result).alpha != alpha + 2):
                ok = False
        if 2 in by_degree:
            counts["deg2"] += 1
            step = replace_deg2(g, by_degree[2])
            if (zero_forcing_number(step.result)[0] != z + 1
                    or maximum_independent_set(step.result).alpha != alpha + 1):
                ok = False
        if 3 in by_degree and not (n == 4 and g.edge_count() == 6):
            counts["claw"] += 1
            step = replace_claw_center(g, by_degree[3])
            if (maximum_independent_set(step.result).alpha > alpha + 1
                    or zero_forcing_number(step.result)[0] < z):
                ok = False
    ok = ok and all(c >= 40 for c in counts.values())
    _report(6, ok, "vertex replacements on 100 random subcubic graphs: "
                   f"degree-1 {counts['deg1']}x (+2/+2), degree-2 "
                   f"{counts['deg2']}x (+1/+1), degree-3 {counts['claw']}x "
                   "(alpha up by <= 1, Z never drops)")


def test_criterion_7_forest_identity():
    rng = random.Random(1007)
    ok = True
    for _ in range(500):
        n = rng.randint(1, 16)
        f = graph_from_edges(n, random_forest_edges(n, rng))
        z = zero_forcing_number(f)[0]
        if z != len(minimum_path_cover(f)):
            ok = False
        _note(f, z, maximum_independent_set(f).alpha)
    _report(7, ok, "Z equals the minimum path cover size on 500 random "
                   "forests with up to 16 vertices")


def test_criterion_8_bipartite_edge_cover():
    from zfalpha.graphs import minimum_edge_cover
    rng = random.Random(1008)
    ok = True
    for _ in range(200):
        nl = rng.randint(1, 7)
        nr = rng.randint(1, 14 - nl if nl < 13 else 1)
        n, edges = random_bipartite_no_isolated(nl, min(nr, 14 - nl), 0.4, rng)
        g = graph_from_edges(n, edges)
        alpha = maximum_independent_set(g).alpha
        if len(minimum_edge_cover(g)) != alpha:
            ok = False
    _report(8, ok, "minimum edge cover size equals alpha on 200 random "
                   "bipartite graphs without isolated vertices")


def test_criterion_9_degree_alpha_construction():
    rng = random.Random(1009)
    ok = True
    built = 0
    while built < 100:
        n = rng.randint(5, 12)
        maxd = rng.choice((3, 4, 5))
        g = graph_from_edges(n, random_connected_bounded_degree_edges(
            n, maxd, rng.randint(1, n), rng))
        profile = classify_degrees(g)
        if profile.max_degree < 3:
            continue
        if all(g.degree(v) == g.n - 1 for v in range(g.n)):
            continue
        built += 1
        rep = degree_alpha_construction(g)
        alpha = maximum_independent_set(g).alpha
        if (not rep.holds or not is_zero_forcing_set(g, rep.witness)
                or rep.witness.bit_count() > (profile.max_degree - 1) * alpha):
            ok = False
        _note(g, zero_forcing_number(g)[0], alpha)
    _report(9, ok, "explicit forcing sets of size <= (max_degree - 1)*alpha "
                   "on 100 random connected non-complete graphs")


def test_criterion_11_embeddability(sweep):
    ok = True
    fractions = {}
    for n in (4, 6, 8, 10):
        summary, certs = sweep[n]
        fractions[n] = summary.upper_embeddable_fraction.get(n, 0.0)
        for cert in certs:
            if cert.phi is None:
                ok = False
                continue
            expected_upper = cert.phi == -(-(n + 2) // 4)
            if bool(cert.upper_embeddable) != expected_upper:
                ok = False
            if cert.upper_embeddable and cert.z > cert.alpha + 2:
                ok = False
    frac_text = ", ".join(f"n={n}: {fractions[n]:.2f}" for n in sorted(fractions))
    _report(11, ok, "upper-embeddable classification matches the decycling "
                    "ceiling and implies Z <= alpha + 2; fractions "
                    f"[{frac_text}]")


def test_criterion_12_oracle_agreement():
    ok = True
    small_cubic = [g for n in (4, 6, 8) for g in cubic_graphs(n)]
    rng = random.Random(1012)
    randoms = [random_edge_graph(graph_from_edges, rng.randint(1, 8),
                                 rng.random(), rng) for _ in range(200)]
    for g in small_cubic + randoms:
        z = zero_forcing_number(g)[0]
        alpha = maximum_independent_set(g).alpha
        if z != brute_zero_forcing(g) or alpha != brute_alpha(g):
            ok = False
        _note(g, z, alpha)
    _report(12, ok, "fast solvers agree with full subset enumeration on the "
                    "small cubic catalogue plus 200 random graphs")


def test_criterion_10_counting_bounds(sweep):
    # runs last: PROCESSED now holds every graph touched by the other checks
    assert len(PROCESSED) > 900
    ok = True
    for g, z, alpha in PROCESSED:
        if g.n == 0:
            continue
        first, second = check_small_z_bounds(g, z, alpha)
        if not first.holds:
            ok = False
        if second.applicable and not second.holds:
            ok = False
    _report(10, ok, f"ceil(n/(Z+1)) <= alpha on all {len(PROCESSED)} graphs "
                    "processed by the suite, and Z <= alpha whenever "
                    "Z <= sqrt(n)")
