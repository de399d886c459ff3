"""Zero forcing: closure, chronological forces, forts, and the exact search.

``closure`` is one worklist kernel: only a blue vertex whose white
neighbourhood has just shrunk can gain a force, so a closure that extends
an already-closed set starts from the new vertices and their blue
neighbours.

``zero_forcing_number`` and ``min_zfset_avoiding`` run one exact search on
every graph: the closure dynamic program ("wavefront") of Brimkov, Fast &
Hicks (EJOR 2019) over closed blue sets in order of cost, started with all
members but one of each class of false twins blue and stopped once the full
set's cost is settled (see ``_wavefront``).  The start is a symmetry
argument in the sense of McKay & Piperno (2014): swapping two false twins
is an automorphism.  Without it the number of states blows up on stars and
other graphs with many leaves.

``is_fort`` and ``enumerate_minimal_forts`` serve ``compute --forts``:
every zero forcing set meets every fort.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass

from .graphs import GraphError, bits, is_connected, mask_of


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


# ---------------------------------------------------------------------------
# wavefront


def _wavefront(g, forbidden=0, deadline=None):
    """Minimum zero forcing set avoiding ``forbidden``, by the closure
    dynamic program.

    Two false twins (vertices with the same open neighbourhood) form a fort,
    and swapping them is an automorphism that fixes every other vertex.  So
    some minimum forcing set that avoids ``forbidden`` holds all members but
    one of each twin class: the forbidden member if the class has one (it
    has at most one, since two would be a fort inside ``forbidden``), else
    the highest.  The search starts from the closure of those members, R,
    at cost |R|.

    States are closed blue sets, expanded in Dijkstra order of
    ``(cost, mask)``.  The move at vertex v turns v and each white neighbour
    of v but one blue, at cost ``max(|N[v] \\ S| - 1, 1)``; v then forces
    the one left white, which is a forbidden neighbour if v has one, else
    the highest.  The next state is the closure of ``S | N[v]`` either way,
    and a move whose blued vertices meet ``forbidden`` is skipped.  Each
    state keeps the ``(parent, added)`` move that first reached it at its
    least cost, and the witness is R plus the ``added`` masks on the path to
    the full set.

    The search stops at the first popped state whose cost + 1 reaches the
    full set's best cost.  Every move costs at least 1 and only a strictly
    cheaper move replaces a state's record, so no later move can change the
    full set's record; the states on its path were all popped already, so
    theirs are final too.  The witness is therefore the one that expanding
    until the full set itself is popped would give.
    """
    full = g.full_mask
    adj = g.adj
    if closure(g, full & ~forbidden) != full:
        raise GraphError("no forcing set avoids the forbidden vertices")
    twins = {}
    for v in range(g.n):
        twins[adj[v]] = twins.get(adj[v], 0) | 1 << v
    start = 0
    for members in twins.values():
        left_out = members & forbidden or members
        start |= members ^ 1 << left_out.bit_length() - 1
    origin = closure(g, start)
    best = {origin: start.bit_count()}
    move = {}
    heap = [(start.bit_count(), origin)]
    while True:  # V \ forbidden forces, so the full set is reached
        cost, blue = heapq.heappop(heap)
        if cost > best[blue]:
            continue  # a cheaper entry for this state was expanded already
        _check_deadline(deadline, "zero-forcing")
        if cost + 1 >= best.get(full, cost + 2):
            witness, state = start, full
            while state != origin:
                state, added = move[state]
                witness |= added
            return witness
        for v in range(g.n):
            white_nbrs = adj[v] & ~blue
            new = (white_nbrs | 1 << v) & ~blue
            if not new:
                continue
            added = new
            if white_nbrs:  # v forces a forbidden white neighbour, else its highest
                added ^= 1 << (white_nbrs & forbidden or white_nbrs).bit_length() - 1
            if added & forbidden:
                continue
            reached = closure(g, blue | new, blue)
            reached_cost = cost + (new.bit_count() - 1 or 1)
            if reached_cost < best.get(reached, reached_cost + 1):
                best[reached] = reached_cost
                move[reached] = (blue, added)
                heapq.heappush(heap, (reached_cost, reached))


def zero_forcing_number(g, deadline=None):
    """Exact Z(g) with a minimum witness set, from the wavefront."""
    witness = _wavefront(g, deadline=deadline)
    return witness.bit_count(), witness


def min_zfset_avoiding(g, v, deadline=None):
    """A minimum zero forcing set of a connected nontrivial graph avoiding ``v``."""
    if g.n < 2 or not is_connected(g):
        raise GraphError("requires a connected graph on at least 2 vertices")
    if not 0 <= v < g.n:
        raise GraphError(f"vertex {v} is not in the graph (0..{g.n - 1})")
    z, _ = zero_forcing_number(g, deadline)
    witness = _wavefront(g, 1 << v, deadline)
    if witness.bit_count() != z:
        raise GraphError(
            f"no minimum zero forcing set avoids vertex {v}; "
            "this contradicts a known property of connected graphs")
    return witness
