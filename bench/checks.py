"""Output checks written for the benchmark, independent of the zfalpha solvers.

Each check returns a list of reasons a graph failed; an empty list means the
graph passed.  A graph fails if its result is incomplete, reports a violated
bound, or disagrees with these checks.  Nothing here runs inside a timed
region.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

# Failures that are known defects of the program, by the exact reason that
# ``_row_problems`` gives.  They still count as failed graphs in ``failed``
# and ``fail_frac``; they only keep ``correct`` true, so that a new failure
# stands out.  degree_alpha_construction sometimes returns a witness that does
# not force the graph, and the certificate then reports the row with
# holds=False: on K}GWOKA?O@_F at n = 12 (a 7-vertex witness, mask 1001), and
# on about one seed in 25 of random_cubic, on a graph of 18 or 20 vertices.
KNOWN_DEFECTS = {"degree_alpha: violated bound, witness does not force"}

CUBIC_CLASS_COUNTS = {4: 1, 6: 2, 8: 5, 10: 19, 12: 85}

# Z(G_T) = Z(T) + n + 2 = alpha(G_T) + 1 for the 3-1 tree T on n vertices
TIGHT_Z = {4: 8, 6: 10, 8: 13}


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def closure(adj, blue):
    """Fixpoint of the color change rule: a blue vertex with exactly one white
    neighbor turns it blue."""
    changed = True
    while changed:
        changed = False
        for v in _bits(blue):
            white = adj[v] & ~blue
            if white and white & (white - 1) == 0:
                blue |= white
                changed = True
    return blue


def forces(adj, blue):
    return closure(adj, blue) == (1 << len(adj)) - 1


def independence_number(adj):
    """alpha by plain branching: take a vertex of degree <= 1, else branch on a
    vertex of maximum degree (leave it out, or take it and drop its
    neighbors)."""
    @lru_cache(maxsize=None)
    def alpha(mask):
        if not mask:
            return 0
        degs = [((adj[v] & mask).bit_count(), v) for v in _bits(mask)]
        d, v = min(degs)
        if d <= 1:
            return 1 + alpha(mask & ~adj[v] & ~(1 << v))
        d, v = max(degs)
        return max(alpha(mask & ~(1 << v)),
                   1 + alpha(mask & ~adj[v] & ~(1 << v)))
    return alpha((1 << len(adj)) - 1)


def zero_forcing_number(adj):
    """Z by subset search in ascending size; for graphs on at most 12 vertices."""
    for k in range(len(adj) + 1):
        for combo in itertools.combinations(range(len(adj)), k):
            if forces(adj, sum(1 << v for v in combo)):
                return k
    raise AssertionError("unreachable: the full vertex set forces")


def claw_center_count(adj):
    count = 0
    for nbrs in (list(_bits(a)) for a in adj):
        if any(not (adj[a] >> b & 1 or adj[a] >> c & 1 or adj[b] >> c & 1)
               for a, b, c in itertools.combinations(nbrs, 3)):
            count += 1
    return count


def _is_k4(adj):
    return len(adj) == 4 and all(a.bit_count() == 3 for a in adj)


_NON_K4_ROWS = {"z_le_alpha_plus_1", "three_alpha_minus_half_n",
                "z_le_alpha_plus_1_plus_claw_centers",
                "alpha_at_least_n_over_z_plus_1",
                "z_at_most_alpha_when_z_small", "degree_alpha"}


def _row_problems(row, z, alpha, adj, claws):
    """Reasons one bound row of a cubic graph's certificate is wrong."""
    n = len(adj)
    w = row.witness
    ok = w != 0 and forces(adj, w)
    expected = {
        "z_le_alpha_plus_1": (alpha + 1, z <= alpha + 1),
        "one_face_forcing": (alpha + 1, ok and w.bit_count() <= alpha + 1),
        "two_face_forcing": (alpha + 2, ok and w.bit_count() <= alpha + 2),
        # the construction's own size bound needs beta(G[S]) and c, which the
        # row does not carry: a row that holds must have a forcing witness
        "three_alpha_minus_half_n": (3 * alpha - n // 2,
                                     row.holds and ok and z <= 3 * alpha - n // 2),
        "z_le_alpha_plus_1_plus_claw_centers": (alpha + 1 + claws,
                                                z <= alpha + 1 + claws),
        "alpha_at_least_n_over_z_plus_1": (-(-n // (z + 1)),
                                           -(-n // (z + 1)) <= alpha),
        "z_at_most_alpha_when_z_small": (alpha, z <= alpha),
        "degree_alpha": (2 * alpha, ok and w.bit_count() <= 2 * alpha),
    }
    if row.bound_name not in expected:
        return [f"{row.bound_name}: unknown bound row"]
    value, holds = expected[row.bound_name]
    if row.bound_name == "z_le_alpha_plus_1" and _is_k4(adj):
        holds = True
    if row.bound_name == "z_at_most_alpha_when_z_small" and z * z > n:
        holds = True
    problems = []
    if row.bound_value != value:
        problems.append(f"{row.bound_name}: value {row.bound_value}, expected {value}")
    if row.holds != holds:
        problems.append(f"{row.bound_name}: holds={row.holds}, re-check says {holds}")
    if row.applicable and not row.holds:
        cause = ", witness does not force" if w and not ok else ""
        problems.append(f"{row.bound_name}: violated bound{cause}")
    return problems


def check_certificate(cert, g, exact_z):
    """Reasons the certificate of cubic graph ``g`` fails.

    Re-checks alpha with ``independence_number``, Z by subset search when
    ``exact_z`` (small graphs only), every forcing-set witness by
    ``closure``, and every bound row against the certificate's z and alpha.
    """
    adj = g.adj
    if cert.incomplete:
        return [f"incomplete: {', '.join(cert.incomplete)}"]
    problems = []
    if cert.n != len(adj):
        problems.append(f"n={cert.n}, expected {len(adj)}")
    alpha = independence_number(adj)
    if cert.alpha != alpha:
        problems.append(f"alpha={cert.alpha}, re-check says {alpha}")
    if exact_z:
        z = zero_forcing_number(adj)
        if cert.z != z:
            problems.append(f"z={cert.z}, re-check says {z}")
    claws = claw_center_count(adj)
    if cert.claw_center_count != claws:
        problems.append(f"claw_center_count={cert.claw_center_count}, "
                        f"re-check says {claws}")
    names = {row.bound_name for row in cert.bounds}
    need = {"z_le_alpha_plus_1"} if _is_k4(adj) else _NON_K4_ROWS
    if not need <= names:
        problems.append(f"missing bound rows: {sorted(need - names)}")
    for row in cert.bounds:
        problems += _row_problems(row, cert.z, cert.alpha, adj, claws)
    return problems


def check_tight(tree_n, gt, report):
    """Reasons a tight-family report for the 3-1 tree on ``tree_n`` vertices,
    whose G_T is ``gt``, fails: Z = Z(T) + n + 2 = alpha + 1 with the known
    values, and the witness must force G_T."""
    if report is None:
        return ["incomplete: budget exceeded"]
    z = TIGHT_Z[tree_n]
    problems = []
    if report.bound_value != z:
        problems.append(f"value {report.bound_value}, expected {z}")
    if not report.holds:
        problems.append("violated bound: Z(G_T) != Z(T) + n + 2 or != alpha + 1")
    if report.witness.bit_count() != z or not forces(gt.adj, report.witness):
        problems.append(f"witness {report.witness} is not a forcing set of size {z}")
    alpha = independence_number(gt.adj)
    if alpha != z - 1:
        problems.append(f"alpha(G_T)={alpha}, expected {z - 1}")
    return problems


def is_known(problems):
    """True if every problem is a known defect of the program."""
    return bool(problems) and all(p in KNOWN_DEFECTS for p in problems)
