"""Zero forcing: closure, chronological forces, forts, and the exact search.

The exact search is the closure dynamic program ("wavefront") of Brimkov,
Fast & Hicks (EJOR 2019) over closed blue sets, expanded one cost level at
a time, started with all members but one of each class of false twins blue
and stopped once the full set's cost is settled.  A move that the full
set's best cost already rules out is skipped before its closure is taken,
and so is a move that repeats an earlier move's blue set from the same
state (see ``_wavefront``).  The start is a symmetry argument in the sense
of McKay & Piperno (2014): swapping two false twins is an automorphism.
Without it the number of states blows up on stars and other graphs with
many leaves.  ``min_zfset_avoiding`` runs it on the whole graph.

``zero_forcing_number`` runs it on the whole graph when the graph has no
bridge or fewer than ``MIN_BRIDGE_PROGRAM_VERTICES`` vertices.  Otherwise
it combines the blocks, the components of G minus its bridges, by a
dynamic program over the bridge forest: the cut-vertex technique of Row
(Linear Algebra Appl. 2012), applied to bridges.  For a bridge uv with
sides G1 ∋ u and G2 ∋ v, write H + leaf@x for H with a new pendant vertex
at x that may not be in the set, and Z(H | x) for the least |S| such that
S and a blue x force H.  Then

    Z(G) = min(Z(G1) + Z(G2), Z(G1 + leaf@u) + Z(G2 | v),
               Z(G1 | u) + Z(G2 + leaf@v)).

Proof sketch: a vertex forces at most once, so in any forcing process the
bridge carries no force ("none"), u forces v ("out" seen from u) or v
forces u ("in").  Restrict the process to one side.  With no force across,
the side forces itself, since u losing the neighbour v only helps it
force.  When u forces v, u has forced nothing before (v was white) and
nothing after, so G1's forces with u → leaf in place of u → v force G1 +
leaf@u with the leaf white, and G2's forces with v blue from the start
force G2.  Conversely, sets for the two sides of any one case force G: a
side's process waits on the other only at the bridge, where the case fixes
which end goes first.  Every argument holds with vertices that must stay
out of the set and vertices that are blue from the start, so the rule
applies bridge by bridge.  A block's cost for one state of each of its
bridges is therefore ``_wavefront`` on the block plus a forbidden leaf at
each out-end, with each in-end blue at no cost (``pre``).  Two out-ends at
one vertex are infeasible (the two leaves are forbidden twins); two in-ends
at one vertex are harmless (the later force finds the vertex blue).  Each
tree of blocks is rooted at its lowest block and solved from the leaves up,
over every state vector of a block's child bridges.  A one-vertex block
costs 0 with an in-end and 1 without one, so its children combine by
counts; a larger block with more than ``MAX_BLOCK_BRIDGES`` bridges sends
the whole graph to the wavefront.  Blocks are solved in block labels (each
vertex's rank in its block) and keyed by shape (the adjacency in those
labels), so a call pays once per distinct shape: one wavefront per (shape,
out-ends, in-ends) and one table per (shape, parent end, children's ends
and costs), which a childless block computes once per (shape, parent end);
the gadgets of G_T share one shape.  The top-down pass maps to G only the
block witnesses of the states it picks; their union, re-checked by
``closure`` on G, is the witness.

``is_fort`` and ``enumerate_minimal_forts`` serve ``compute --forts``:
every zero forcing set meets every fort.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

from .graphs import (Graph, GraphError, bits, bridge_blocks, bridges,
                     is_connected, mask_of)


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


def _wavefront(g, forbidden=0, deadline=None, pre=0):
    """Minimum zero forcing set avoiding ``forbidden``, by the closure
    dynamic program; with ``pre``, the least set S avoiding ``forbidden``
    such that S together with the blue vertices ``pre`` forces g.

    Two false twins (vertices with the same open neighbourhood) form a fort,
    and swapping them is an automorphism that fixes every other vertex.  So
    some minimum forcing set that avoids ``forbidden`` holds all members but
    one of each twin class: the forbidden member if the class has one (it
    has at most one, since two would be a fort inside ``forbidden``), else
    the highest.  The search starts from the closure of those members, R,
    at cost |R|.  With ``pre`` the twin classes are taken among the
    vertices outside ``pre``, since only a swap of two of those fixes
    ``pre``, and the start is the closure of R and ``pre``.

    States are closed blue sets, kept in one list per cost and expanded
    level by level, each level in ascending order of mask: the order of
    ``(cost, mask)``.  Every move costs at least 1, so a level is complete
    once the search reaches it.  The move at vertex v turns v and each white
    neighbour of v but one blue, at cost ``max(|N[v] \\ S| - 1, 1)``; v then
    forces the one left white, which is a forbidden neighbour if v has one,
    else the highest.  The next state is the closure of ``S | N[v]`` either
    way, and a move whose blued vertices meet ``forbidden`` is skipped.  Only
    white vertices and their neighbours have a move, and they are tried in
    ascending order.  Each state keeps the ``(parent, added)`` move that
    first reached it at its least cost, and the witness is R plus the
    ``added`` masks on the path to the full set.

    ``bound`` is the full set's best cost so far (n + 1 before it is
    reached).  The search stops at the first expanded state whose cost + 1
    reaches it.  Every move costs at least 1 and only a strictly cheaper
    move replaces a state's record, so no later move can change the full
    set's record; the states on its path were all expanded already, so
    theirs are final too.  The witness is therefore the one that expanding
    until the full set itself is taken would give.  By the same rule three
    kinds of move are dropped without changing any record that the witness
    reads: a move whose cost reaches ``bound`` is skipped before its closure
    is taken, a state other than the full set reached at ``bound - 1`` or
    more is not recorded (the search stops before it would be expanded),
    and a move whose ``S | N[v]`` repeats that of an earlier move from the
    same state is skipped, since it reaches the same closure at the same
    cost.  A move skipped for ``forbidden`` does not count as tried: a
    higher v with the same ``S | N[v]`` may force a different neighbour.
    """
    full = g.full_mask
    adj = g.adj
    if closure(g, full & ~forbidden | pre) != full:
        raise GraphError("no forcing set avoids the forbidden vertices")
    twins = {}
    for v in bits(full & ~pre):
        twins[adj[v]] = twins.get(adj[v], 0) | 1 << v
    start = 0
    for members in twins.values():
        left_out = members & forbidden or members
        start |= members ^ 1 << left_out.bit_length() - 1
    origin = closure(g, start | pre)
    start_cost = start.bit_count()
    best = {origin: start_cost}
    move = {}
    bound = start_cost if origin == full else g.n + 1
    levels = [[] for _ in range(g.n + 1)]  # a state's cost is at most n
    levels[start_cost].append(origin)
    for cost in range(start_cost, g.n + 1):
        for blue in sorted(levels[cost]):
            if cost > best[blue]:
                continue  # a cheaper record of this state was expanded already
            _check_deadline(deadline, "zero-forcing")
            if cost + 1 >= bound:
                witness, state = start, full
                while state != origin:
                    state, added = move[state]
                    witness |= added
                return witness
            white = full & ~blue
            active = white
            rest = white
            while rest:  # bits(rest) inlined: this runs for every state
                low = rest & -rest
                rest ^= low
                active |= adj[low.bit_length() - 1]
            tried = set()
            while active:
                low = active & -active
                active ^= low
                white_nbrs = adj[low.bit_length() - 1] & white
                new = white_nbrs | low & white
                if new in tried:
                    continue
                added = new
                if white_nbrs:  # v forces a forbidden white neighbour, else its highest
                    added ^= 1 << (white_nbrs & forbidden or white_nbrs).bit_length() - 1
                if added & forbidden:
                    continue
                tried.add(new)
                reached_cost = cost + (new.bit_count() - 1 or 1)
                if reached_cost >= bound:
                    continue
                reached = closure(g, blue | new, blue)
                if reached == full:
                    bound = reached_cost
                elif (reached_cost + 1 >= bound  # the stop rule comes first
                      or reached_cost >= best.get(reached, bound)):
                    continue
                best[reached] = reached_cost
                move[reached] = (blue, added)
                levels[reached_cost].append(reached)
    raise RuntimeError("the wavefront ran out of states before the full set")


# ---------------------------------------------------------------------------
# the bridge tree


# a bridge's state seen from one end x: no force across it, x forces the
# other end, or the other end forces x
_NONE, _OUT, _IN = 0, 1, 2
_FLIP = (_NONE, _IN, _OUT)  # the same state seen from the other end
# a block of two or more vertices with more bridges than this sends the
# whole graph to the wavefront.  A block with b bridges takes up to
# 3^(b+1) block wavefronts, about 4 times more per bridge; 6 is the largest
# b at which the program took no longer in total than the whole-graph
# wavefront on seeded trees plus one or two edges (n = 24-36) and on cubic
# graphs with one large block (timings in CHANGES.md)
MAX_BLOCK_BRIDGES = 6
# the program runs on graphs of at least this many vertices: on smaller
# ones its per-block set-up costs more than the whole-graph wavefront (the
# median time ratio on seeded bridged graphs crosses 1 at n = 18; timings
# in CHANGES.md)
MIN_BRIDGE_PROGRAM_VERTICES = 18


def _bridge_tree_zfs(g, cut, deadline):
    """Minimum zero forcing set of g from the bridge-tree dynamic program
    over the bridges ``cut`` (see the module docstring), or None when a
    block of two or more vertices has more than ``MAX_BLOCK_BRIDGES``."""
    blocks, block_of = bridge_blocks(g, cut)
    ends = [[] for _ in blocks]  # (own end, other end) of each bridge at a block
    for u, v in cut:
        ends[block_of[u]].append((u, v))
        ends[block_of[v]].append((v, u))
    if any(members & members - 1 and len(at) > MAX_BLOCK_BRIDGES
           for members, at in zip(blocks, ends)):
        return None

    # root each tree of blocks at its lowest block; parents precede children
    parent, order = {}, []  # block -> (own end, parent's end), None at a root
    children = [[] for _ in blocks]  # the ends at a block, less its parent's
    for root in range(len(blocks)):
        if root in parent:
            continue
        parent[root], tree = None, [root]
        for i in tree:  # breadth first: the loop walks what it appends
            for x, y in ends[i]:
                if block_of[y] not in parent:
                    parent[block_of[y]] = (y, x)
                    children[i].append((x, y))
                    tree.append(block_of[y])
        order += tree
    roots = [i for i in order if parent[i] is None]

    # block labels and shapes; a block of consecutive vertices is shifted
    keep, label = [[] for _ in blocks], [0] * g.n
    for v in range(g.n):  # each block's vertices in ascending order
        label[v] = len(keep[block_of[v]])
        keep[block_of[v]].append(v)
    shapes = [tuple((g.adj[v] & members) >> vs[0] if len(vs) > vs[-1] - vs[0]
                    else mask_of(label[u] for u in bits(g.adj[v] & members))
                    for v in vs) for members, vs in zip(blocks, keep)]
    solved = {}  # (shape, out-ends, in-ends) -> witness, in block labels
    tables = {}  # (shape, parent end, children's ends and costs) -> table

    def solve(shape, outs, ins):
        """Least S in the block ``shape`` such that S and the blue ``ins``
        force it plus a white pendant leaf at each vertex of ``outs``."""
        if (shape, outs, ins) not in solved:
            rows = list(shape)
            for k in bits(outs):
                rows[k] |= 1 << len(rows)
                rows.append(1 << k)
            leaves = (1 << len(rows)) - (1 << len(shape))
            solved[shape, outs, ins] = _wavefront(
                Graph(len(rows), tuple(rows)), leaves, deadline, ins)
        return solved[shape, outs, ins]

    # table[i][s]: (least cost of block i's side, its children's states, the
    # block's own witness in its labels) with the parent bridge in state s
    # seen from block i; costs[i]: those costs.  A table reads only its
    # children's costs, so blocks that agree on its key share it
    table, costs = [None] * len(blocks), [None] * len(blocks)
    for i in reversed(order):
        _check_deadline(deadline, "zero-forcing")
        end = None if parent[i] is None else label[parent[i][0]]
        kids = tuple((label[x], costs[block_of[y]]) for x, y in children[i])
        key = shapes[i], end, kids
        if key not in tables:
            entries = [
                _best_block_states(shapes[i], end, state, kids, solve)
                if len(shapes[i]) > 1 else _best_vertex_states(state, kids)
                for state in ((_NONE,) if end is None else (_NONE, _OUT, _IN))]
            tables[key] = entries, tuple(e[0] for e in entries)
        table[i], costs[i] = tables[key]

    witness, todo = 0, [(root, _NONE) for root in roots]
    while todo:
        i, state = todo.pop()
        _, states, own = table[i][state]
        for k in bits(own):
            witness |= 1 << keep[i][k]
        todo += [(block_of[y], _FLIP[s]) for (_, y), s in zip(children[i], states)]
    if (closure(g, witness) != g.full_mask
            or witness.bit_count() != sum(table[r][_NONE][0] for r in roots)):
        raise RuntimeError("the bridge dynamic program built a set that does "
                           "not force the graph or does not match its cost")
    return witness


def _best_block_states(shape, end, state, kids, solve):
    """Least cost over the states of a block's child bridges, in block labels:
    its block wavefront plus each child's cost in the matching state.  Every
    state vector is tried, in ``itertools.product`` order; a vector is
    dropped before its wavefront when the children alone reach the best."""
    best = (float("inf"), None, 0)
    own = {_OUT: 0, _IN: 0, state: 0 if state == _NONE else 1 << end}
    for states in itertools.product((_NONE, _OUT, _IN), repeat=len(kids)):
        rest = sum(costs[_FLIP[s]] for (_, costs), s in zip(kids, states))
        if rest >= best[0]:
            continue
        outs, ins = own[_OUT], own[_IN]
        for (x, _), s in zip(kids, states):
            if s == _OUT:
                if outs >> x & 1:
                    break  # x would force two vertices
                outs |= 1 << x
            elif s == _IN:
                ins |= 1 << x
        else:
            found = solve(shape, outs, ins)
            if found.bit_count() + rest < best[0]:
                best = (found.bit_count() + rest, states, found)
    return best


def _best_vertex_states(state, kids):
    """``_best_block_states`` for a one-vertex block, in closed form: x
    forces at most one neighbour, is free once any neighbour forces it and
    costs 1 otherwise.  So the children combine by counts, in one pass over
    (out-ends so far, any in-end so far), with no cap on them."""
    reach = {(int(state == _OUT), state == _IN): (0, ())}
    for _, (none, out, into) in kids:  # the child's costs, seen from it
        step = {}
        for (outs, any_in), (cost, states) in reach.items():
            for s, key, total in ((_NONE, (outs, any_in), cost + none),
                                  (_OUT, (1, any_in), cost + into),
                                  (_IN, (outs, True), cost + out)):
                if (s != _OUT or not outs) and (
                        key not in step or total < step[key][0]):
                    step[key] = (total, states + (s,))
        reach = step
    best = (float("inf"), None, 0)
    for (_, any_in), (cost, states) in reach.items():
        if cost + (not any_in) < best[0]:
            best = (cost + (not any_in), states, int(not any_in))
    return best


def zero_forcing_number(g, deadline=None):
    """Exact Z(g) with a minimum witness set: the bridge-tree dynamic
    program on a graph with a bridge and at least
    ``MIN_BRIDGE_PROGRAM_VERTICES`` vertices, else (or past its bridge cap)
    the wavefront."""
    cut = bridges(g) if g.n >= MIN_BRIDGE_PROGRAM_VERTICES else None
    witness = _bridge_tree_zfs(g, cut, deadline) if cut else None
    if witness is None:
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
