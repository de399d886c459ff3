"""Zero forcing: closure, chronological forces, forts, and two exact solvers.

``closure`` is one worklist kernel: only a blue vertex whose white
neighbourhood has just shrunk can gain a force, so a closure that extends
an already-closed set starts from the new vertices and their blue
neighbours.

On cubic input ``zero_forcing_number`` runs the closure dynamic program
("wavefront") of Brimkov, Fast & Hicks (EJOR 2019).  Its states are closed
blue sets, expanded in order of cost.  One move picks a vertex v, makes v
and all but one of its white neighbours blue (v then forces the last one)
and takes the closure.  The search stops at the first popped state whose
cost + 1 reaches the full set's best cost: every move costs at least 1, so
no later move can lower that cost, and it is Z.  The number of states can
grow exponentially on graphs with many leaves (a star, a tree), so every
other graph, and every search that must avoid given vertices, uses the
fort solver.

The fort solver runs an implicit hitting-set loop over forts: every zero
forcing set must intersect every fort, so a minimum hitting set of any fort
collection is a lower bound.  Whenever a candidate hitting set stalls, the
white complement of its closure is itself a fort and is added to the
collection, so the loop makes strict progress until the lower bound is
certified by a set that actually forces.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass

from .graphs import GraphError, bits, classify_degrees, is_connected, mask_of


class NotForcingSetError(GraphError):
    """The given blue set does not force the whole graph."""


class SolverBudgetExceeded(RuntimeError):
    """An exact solver ran past its deadline."""

    def __init__(self, solver):
        super().__init__(f"{solver} exceeded its time budget")
        self.solver = solver


def _check_deadline(deadline, solver):
    if deadline is not None and time.monotonic() > deadline:
        raise SolverBudgetExceeded(solver)


def closure(g, blue, closed=0):
    """Fixpoint of the color change rule starting from ``blue``.

    ``closed`` is a subset of ``blue`` that is already its own closure.  A
    vertex of it can force only once a neighbour outside it is blue, so the
    worklist starts from ``blue & ~closed`` and those neighbours; by default
    it starts from every blue vertex.  The result does not depend on the
    order forces are applied in (confluence is asserted by the test suite).
    """
    adj = g.adj
    todo = blue & ~closed
    if closed:
        new = todo
        while new:
            low = new & -new
            new ^= low
            todo |= adj[low.bit_length() - 1]
        todo &= blue
    while todo:  # bits(todo) inlined: todo grows while it is walked
        low = todo & -todo
        todo ^= low
        white = adj[low.bit_length() - 1] & ~blue
        if white and white & (white - 1) == 0:
            blue |= white
            todo |= adj[white.bit_length() - 1] & blue | white
    return blue


def is_zero_forcing_set(g, blue):
    return closure(g, blue) == g.full_mask


@dataclass(frozen=True)
class ForcingRecord:
    """A chronological list of forces plus the derived forcing chains."""

    initial: int
    steps: tuple  # ordered (forcer, forced) pairs
    chains: tuple  # vertex tuples partitioning V

    def replay_ok(self, g):
        """Validate every step against the color change rule."""
        blue = self.initial
        for forcer, forced in self.steps:
            if not blue & (1 << forcer):
                return False
            white = g.adj[forcer] & ~blue
            if white != 1 << forced:
                return False
            blue |= 1 << forced
        return blue == g.full_mask


def _chains_from_steps(initial, steps):
    succ = {forcer: forced for forcer, forced in steps}
    chains = []
    for head in bits(initial):
        chain = [head]
        while chain[-1] in succ:
            chain.append(succ[chain[-1]])
        chains.append(tuple(chain))
    return tuple(chains)


def _force_steps(g, blue):
    """Apply one force at a time, lowest-index eligible forcer first, until
    none applies; returns the (forcer, forced) steps and the final blue set."""
    steps = []
    while True:
        for v in bits(blue):
            white = g.adj[v] & ~blue
            if white and white & (white - 1) == 0:
                steps.append((v, white.bit_length() - 1))
                blue |= white
                break
        else:
            return steps, blue


def chronological_forces(g, blue):
    """Canonical chronological record: lowest-index eligible forcer acts first."""
    initial = blue
    steps, blue = _force_steps(g, blue)
    if blue != g.full_mask:
        raise NotForcingSetError(
            f"closure stalled with {blue.bit_count()} of {g.n} vertices blue")
    return ForcingRecord(initial, tuple(steps), _chains_from_steps(initial, steps))


# ---------------------------------------------------------------------------
# forts


def is_fort(g, members):
    """True iff no outside vertex has exactly one neighbor inside ``members``."""
    if members == 0:
        raise GraphError("a fort must be nonempty")
    outside = g.full_mask & ~members
    for v in bits(outside):
        inside = g.adj[v] & members
        if inside and inside & (inside - 1) == 0:
            return False
    return True


def _is_fort_without(g, fort, v):
    """True iff ``fort`` minus ``v`` is a fort, given that ``fort`` is one.

    Removing v changes the inside count only of v and of its neighbours, so
    only those outside vertices can newly see exactly one inside neighbour.
    """
    adj = g.adj
    candidate = fort & ~(1 << v)
    check = (adj[v] & ~fort) | (1 << v)
    while check:  # bits(check) inlined: this runs for every vertex tried
        low = check & -check
        inside = adj[low.bit_length() - 1] & candidate
        if inside and inside & (inside - 1) == 0:
            return False
        check ^= low
    return True


def _shrink_fort(g, members):
    """Greedy element removal while the set remains a fort; ``members``
    must be a fort."""
    shrunk = True
    while shrunk:
        shrunk = False
        for v in bits(members):
            candidate = members & ~(1 << v)
            if candidate and _is_fort_without(g, members, v):
                members = candidate
                shrunk = True
    return members


def enumerate_minimal_forts(g, cap=None, max_size=None):
    """Inclusion-minimal forts by subset search in ascending size: at most
    ``cap`` of them, on at most ``max_size`` vertices (None: no limit)."""
    if cap is not None and cap < 1:
        raise GraphError("cap must be at least 1")
    found = []
    largest = g.n if max_size is None else min(max_size, g.n)
    for size in range(1, largest + 1):
        for combo in itertools.combinations(range(g.n), size):
            members = mask_of(combo)
            if any(f & ~members == 0 for f in found):
                continue
            if is_fort(g, members):
                found.append(members)
                if len(found) == cap:
                    return found
    return found


def _packing(forts, limit=None):
    """Size of the greedy packing of pairwise disjoint forts, taken in list
    order: a lower bound on every set that hits them all.  Counting stops
    once the size exceeds ``limit``."""
    used = 0
    size = 0
    for f in forts:
        if not f & used:
            used |= f
            size += 1
            if limit is not None and size > limit:
                break
    return size


# ---------------------------------------------------------------------------
# exact solver


def _greedy_forcing_set(g, forbidden=0):
    """Upper-bound witness: grow by maximum closure gain, then prune greedily."""
    blue = 0
    closed = 0
    allowed = g.full_mask & ~forbidden
    while closed != g.full_mask:
        best_v, best_gain = -1, -1
        for v in bits(allowed & ~blue):
            # the closure of blue + v is that of closed + v
            gain = closure(g, closed | 1 << v, closed).bit_count()
            if gain > best_gain:
                best_v, best_gain = v, gain
        if best_v < 0:
            raise GraphError("no forcing set avoids the forbidden vertices")
        blue |= 1 << best_v
        closed = closure(g, closed | 1 << best_v, closed)
    for v in bits(blue):
        candidate = blue & ~(1 << v)
        if candidate and closure(g, candidate) == g.full_mask:
            blue = candidate
    return blue


def _solve_exact(g, forbidden=0, deadline=None):
    """Minimum zero forcing set avoiding ``forbidden``; returns (witness, forts).

    Iterative-deepening search over vertex sets.  Each node branches on an
    unhit fort; when every known fort is hit but the closure stalls, the
    stalled white set yields a new fort and the search continues against it.
    Infeasible (set, budget) states are memoized across depths.  The greedy
    upper-bound witness avoids ``forbidden`` and forces, so it hits every
    fort: no fort lies inside ``forbidden`` and no branch set is empty.

    The seeds are the minimal forts on at most three vertices (two when
    n > 40), from ``enumerate_minimal_forts``.  ``forts`` is kept in
    generation order (the seeds sorted by size, then value).  A node sees
    its unhit forts ordered by size, ties in generation order; it builds
    that list from its parent's, filtered by the one vertex added, plus the
    forts generated since the parent's list was built.
    """
    if g.n == 0:
        return 0, []
    full = g.full_mask
    allowed = full & ~forbidden
    ub_witness = _greedy_forcing_set(g, forbidden)
    forts = enumerate_minimal_forts(g, max_size=3 if g.n <= 40 else 2)
    if not forts:
        forts = [_shrink_fort(g, full)]
    forts.sort(key=lambda f: (f.bit_count(), f))
    seen = {}

    def dfs(chosen, budget, unhit, known):
        # unhit: the forts among the first ``known`` that the parent's set
        # misses, in the order the parent saw them
        _check_deadline(deadline, "zero-forcing")
        if seen.get(chosen, -1) >= budget:
            return None
        unhit = [f for f in unhit if not f & chosen]
        if known < len(forts):
            # newer forts go after the older ones of their size (stable sort)
            unhit += [f for f in forts[known:] if not f & chosen]
            unhit.sort(key=int.bit_count)
        known = len(forts)
        if unhit:
            # branch on the first unhit fort with the fewest allowed vertices;
            # without forbidden vertices that is the first
            if forbidden:
                branch = min(unhit, key=lambda f: (f & allowed).bit_count())
                branch &= allowed
            else:
                branch = unhit[0]
            if _packing(unhit, budget) > budget:
                seen[chosen] = budget
                return None
        else:
            closed = closure(g, chosen)
            if closed == full:
                return chosen
            new_fort = _shrink_fort(g, full & ~closed)
            forts.append(new_fort)
            branch = new_fort & allowed
        if budget == 0:
            seen[chosen] = 0
            return None
        for v in bits(branch):
            result = dfs(chosen | (1 << v), budget - 1, unhit, known)
            if result is not None:
                return result
        seen[chosen] = budget
        return None

    try:
        for size in range(max(_packing(forts), 1), ub_witness.bit_count()):
            found = dfs(0, size, [], 0)
            if found is not None:
                return found, forts
        return ub_witness, forts
    finally:
        # dfs refers to itself, so without this the cycle would hold ``seen``
        # until the next full garbage collection
        del dfs


# ---------------------------------------------------------------------------
# wavefront


def _wavefront(g, deadline=None):
    """Minimum zero forcing set by the closure dynamic program.

    States are closed blue sets, expanded in Dijkstra order of
    ``(cost, mask)``.  The move at vertex v turns v and each white neighbour
    of v but the highest blue, at cost ``max(|N[v] \\ S| - 1, 1)``; v then
    forces the highest, so the next state is the closure of ``S | N[v]``.
    Each state keeps the ``(parent, added)`` move that first reached it at
    its least cost, and the witness is the union of the ``added`` masks on
    the path to the full set.

    The search stops at the first popped state whose cost + 1 reaches the
    full set's best cost.  Every move costs at least 1 and only a strictly
    cheaper move replaces a state's record, so no later move can change the
    full set's record; the states on its path were all popped already, so
    theirs are final too.  The witness is therefore the one that expanding
    until the full set itself is popped would give.
    """
    full = g.full_mask
    adj = g.adj
    best = {0: 0}  # the empty set is closed
    move = {}
    heap = [(0, 0)]
    while True:  # every vertex can be made blue, so the full set is reached
        cost, blue = heapq.heappop(heap)
        if cost > best[blue]:
            continue  # a cheaper entry for this state was expanded already
        _check_deadline(deadline, "zero-forcing")
        if cost + 1 >= best.get(full, cost + 2):
            witness, state = 0, full
            while state:
                state, added = move[state]
                witness |= added
            return witness
        for v in range(g.n):
            white_nbrs = adj[v] & ~blue
            new = (white_nbrs | 1 << v) & ~blue
            if not new:
                continue
            added = new
            if white_nbrs:  # v forces its highest white neighbour
                added ^= 1 << white_nbrs.bit_length() - 1
            reached = closure(g, blue | new, blue)
            reached_cost = cost + (new.bit_count() - 1 or 1)
            if reached_cost < best.get(reached, reached_cost + 1):
                best[reached] = reached_cost
                move[reached] = (blue, added)
                heapq.heappush(heap, (reached_cost, reached))


def zero_forcing_number(g, deadline=None):
    """Exact Z(g) with a minimum witness set.

    Cubic graphs go through the wavefront, every other graph through the
    fort solver; the witness is a minimum zero forcing set either way.
    """
    if classify_degrees(g).is_cubic:
        witness = _wavefront(g, deadline)
    else:
        witness, _ = _solve_exact(g, deadline=deadline)
    return witness.bit_count(), witness


def min_zfset_avoiding(g, v, deadline=None):
    """A minimum zero forcing set of a connected nontrivial graph avoiding ``v``."""
    if g.n < 2 or not is_connected(g):
        raise GraphError("requires a connected graph on at least 2 vertices")
    if not 0 <= v < g.n:
        raise GraphError(f"vertex {v} is not in the graph (0..{g.n - 1})")
    z, _ = zero_forcing_number(g, deadline)
    witness, _ = _solve_exact(g, forbidden=1 << v, deadline=deadline)
    if witness.bit_count() != z:
        raise GraphError(
            f"no minimum zero forcing set avoids vertex {v}; "
            "this contradicts a known property of connected graphs")
    return witness
