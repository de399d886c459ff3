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
bridge.  Otherwise it combines the blocks, the components of G minus its
bridges, by a dynamic program over the bridge forest: the cut-vertex
technique of Row (Linear Algebra Appl. 2012), applied to bridges.  For a
graph H and a vertex x of it, write H + leaf@x for H with a new pendant
vertex at x that may not be in the set, and Z(H | x) for the least |S|
such that S and a blue x force H.

A bridge uv with sides G1 ∋ u and G2 ∋ v carries no force ("none"), or
one end forces the other, since a vertex forces at most once.  Restrict a
forcing process of G to one side: with no force across, the side forces
itself (u losing the neighbour v only helps it force); when u forces v, G1
is forced with u → leaf in place of u → v, and G2 with v blue from the
start.  Conversely, sets for the two sides of any one case force G, since
a side's process waits on the other only at the bridge.  So a side G2
costs Z(G2), Z(G2 | v) or Z(G2 + leaf@v) in the three cases, and the
argument holds with forbidden and pre-blue vertices, bridge by bridge.

Two facts reduce a side to one bit.  First, Z(H + leaf@x) = Z(H | x) + 1,
by the reversal theorem (Barioli et al., Linear Algebra Appl. 2010: the
vertices that end the chains of a forcing process form a zero forcing set,
whose reversed process runs the chains backwards).  (≥) In a process from
a minimum set of H + leaf@x, x forces the leaf, which forces nothing and so
ends a chain; the reversal is a set of the same size that holds the leaf,
and dropping the leaf and making x blue forces H.  (≤) If T with a blue x
forces H, then T plus the leaf forces H + leaf@x, the leaf forcing x
first; the leaf starts a chain, so the reversal has the same size and
avoids it.  Second, Z(H | x) is Z(H) or
Z(H) - 1, since a blue x saves at most x itself.  So with the bit
δ = Z(H) - Z(H | x), the side costs Z(H), Z(H) - δ and Z(H) - δ + 1.  A
pendant vertex costs 1, 0 and 1: up to the constant Z(H) - 1, it is a side
with δ = 1.  A side s with δ = 0, joined at its end y to the rest B of the
graph at x, needs no stand-in, since no force across is then optimal: with
none the pair costs Z(B) + Z(s); when x forces y, Z(B + leaf@x) + Z(s | y)
= Z(B | x) + 1 + Z(s) ≥ Z(B) + Z(s); when y forces x, Z(B | x) +
Z(s + leaf@y) = Z(B | x) + Z(s) + 1 ≥ Z(B) + Z(s).

Each tree of blocks is rooted at its lowest block.  Bottom-up, block i
becomes B*, the block plus a pendant vertex at the child's end there for
each child bridge whose side has δ = 1; then Z(side) = Z(B*) plus, over the
children, Z(child side) - δ(child side), and below a root δ(side) = Z(B*) -
Z(B* | x), where x is the block's end of its parent bridge.  Top-down,
``_wavefront`` runs on B* in the state the parent picked: none as is, in
with x in ``pre``, out with a forbidden leaf at x.  A minimum set of B* is
minimum over every state vector of the child bridges, so each pendant's
share of it is its cost in its state, and that child's state is read from
``_force_steps`` on it: the block's end forces the pendant (in), the pendant
forces the block's end (out), or neither (none); a child with δ = 0 is in
state none.  The union of the blocks' shares, re-checked by ``closure`` on
G, is the witness.  ``graphs.bridge_blocks`` finds the bridges and the
blocks in one lowlink search.

Blocks are solved in block labels (each vertex's rank in its block) and
keyed by shape (the adjacency in those labels), the parent end, the
children's ends and bits (sorted), δ = 0 ones included, and the state; B*
in state none does not depend on the parent end, so that key leaves it
out.  Each entry is a function of its key, so one memo serves the whole
process; it is emptied whenever it reaches ``_BLOCK_MEMO_LIMIT`` (1024)
entries.  The bottom-up pass keeps each block's entries for states none and
in, so the top-down pass looks one up only for a block in state out.  The
gadgets of G_T share one shape and its tree vertices few keys, so a process
runs their wavefronts once, not once per G_T.

``is_fort`` and ``enumerate_minimal_forts`` serve ``compute --forts``:
every zero forcing set meets every fort.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

from .graphs import (Graph, GraphError, bits, bridge_blocks, is_connected,
                     mask_of)


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


# a child bridge's state seen from the child's end y: no force across it,
# the block forces y, or y forces the block
_NONE, _IN, _OUT = 0, 1, 2
# the bridge program's memo for the process (see the module docstring):
# (shape, parent end, children's ends and bits, state) -> (Z of B* in that
# state, B*'s witness on the block, the children's states), in block labels.
# An entry of a graph on 62 vertices takes at most about 4.8 kB (a vertex
# with 61 children), so a full memo about 5 MiB; the G_T from every 3-1
# tree with 4-14 vertices make 15 entries in all, 3 of them for the gadget
_block_memo = {}
_BLOCK_MEMO_LIMIT = 1024


def _solve_block(key, deadline):
    """The memo entry for ``key``: ``_wavefront`` on B*, the block ``shape``
    plus a pendant vertex at each child end with bit 1, in ``state`` at the
    parent ``end``; those children's states are read from the chronology of
    forces from the witness, and the others' are none."""
    shape, end, kids, state = key
    if state == _NONE:  # B* is the same whatever its parent end
        key = shape, None, kids, state
    found = _block_memo.get(key)
    if found is None:
        rows = list(shape)

        def hang(k):  # a new vertex adjacent to vertex k
            rows[k] |= 1 << len(rows)
            rows.append(1 << k)
            return len(rows) - 1

        tops = [hang(x) if bit else None for x, bit in kids]
        forbidden = 1 << hang(end) if state == _OUT else 0
        pre = 1 << end if state == _IN else 0
        star = Graph(len(rows), tuple(rows))
        witness = _wavefront(star, forbidden, deadline, pre)
        steps = set(_force_steps(star, witness | pre)[0])
        states = tuple(_IN if (x, t) in steps else _OUT if (t, x) in steps
                       else _NONE for (x, _), t in zip(kids, tops))
        if len(_block_memo) >= _BLOCK_MEMO_LIMIT:
            _block_memo.clear()
        found = _block_memo[key] = (witness.bit_count(),
                                    witness & (1 << len(shape)) - 1, states)
    return found


def _bridge_tree_zfs(g, split, deadline):
    """Minimum zero forcing set of g from the bridge-tree dynamic program
    over ``split``, the bridges, blocks and block of each vertex that
    ``graphs.bridge_blocks`` gives (see the module docstring)."""
    cut, blocks, block_of = split
    ends = [[] for _ in blocks]  # (own end, other end) of each bridge at a block
    for u, v in cut:
        ends[block_of[u]].append((u, v))
        ends[block_of[v]].append((v, u))

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

    # bottom-up: Z of each block's side and, below a root, its bit; its
    # entries in states none and in are kept for the way down
    side, bit = [0] * len(blocks), [0] * len(blocks)
    keys, solved = [None] * len(blocks), [None] * len(blocks)
    for i in reversed(order):
        _check_deadline(deadline, "zero-forcing")
        end = None if parent[i] is None else label[parent[i][0]]
        kids = children[i]
        if len(kids) > 1:
            kids.sort(key=lambda e: (label[e[0]], bit[block_of[e[1]]]))
        keys[i] = shapes[i], end, tuple(
            (label[x], bit[block_of[y]]) for x, y in kids)
        none = _solve_block(keys[i] + (_NONE,), deadline)
        side[i] = none[0] + sum(side[block_of[y]] - bit[block_of[y]]
                                for _, y in kids)
        blue = (none if end is None
                else _solve_block(keys[i] + (_IN,), deadline))
        bit[i] = none[0] - blue[0]  # 0 at a root
        solved[i] = none, blue  # by state: none, in

    # top-down: each block's witness in the state its parent picked
    witness, todo = 0, [(root, _NONE) for root in roots]
    while todo:
        i, state = todo.pop()
        _, own, states = (solved[i][state] if state != _OUT
                          else _solve_block(keys[i] + (_OUT,), deadline))
        for k in bits(own):
            witness |= 1 << keep[i][k]
        todo += [(block_of[y], s) for (_, y), s in zip(children[i], states)]
    if (closure(g, witness) != g.full_mask
            or witness.bit_count() != sum(side[r] for r in roots)):
        raise RuntimeError("the bridge dynamic program built a set that does "
                           "not force the graph or does not match its cost")
    return witness


def zero_forcing_number(g, deadline=None):
    """Exact Z(g) with a minimum witness set: the bridge-tree dynamic
    program on a graph with a bridge, else the wavefront."""
    split = bridge_blocks(g)
    if split[0]:
        witness = _bridge_tree_zfs(g, split, deadline)
    else:
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
