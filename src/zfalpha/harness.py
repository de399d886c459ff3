"""Batch verification: certificates, bound sweeps, and forcing traces.

A certificate records the exact invariants of one graph together with every
bound check that applies to it.  Serialization deliberately omits wall-clock
timings so that identical inputs produce byte-identical certificate files.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from .bounds import (BoundReport, check_small_z_bounds, decycling_number,
                     degree_alpha_construction, find_partition_one_face,
                     find_partition_two_face, forcing_set_from_decycling,
                     path_complement_mis)
from .forcing import (SolverBudgetExceeded, _force_steps, closure,
                      zero_forcing_number)
from .graphs import (GraphError, bits, claw_centers, classify_degrees,
                     is_complete, is_connected, parse_graph6, write_graph6)
from .independence import maximum_independent_set


@dataclass(frozen=True)
class RunConfig:
    """Knobs for a verification run: per-solver time budget and worker count."""

    budget_secs: float = 60.0
    workers: int = 1

    def __post_init__(self):
        if not self.budget_secs > 0:  # also rejects NaN, which never expires
            raise ValueError("budget_secs must be positive")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")


@dataclass(frozen=True, slots=True)
class Certificate:
    graph6: str
    n: int
    z: int
    alpha: int
    phi: object  # int for cubic graphs, else None
    upper_embeddable: object
    one_face: object
    two_face: object
    claw_center_count: int
    bounds: tuple  # BoundReport entries
    incomplete: tuple  # solver names that exceeded the time budget
    timings: dict = field(default_factory=dict, compare=False)

    @property
    def violations(self):
        return tuple(b for b in self.bounds if b.applicable and not b.holds)

    def to_json(self):
        payload = {name: getattr(self, name) for name in SCALAR_FIELDS}
        payload["bounds"] = [
            {"name": b.bound_name, "value": b.bound_value, "holds": b.holds,
             "witness": b.witness, "applicable": b.applicable}
            for b in self.bounds]
        payload["incomplete"] = list(self.incomplete)
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, line):
        d = json.loads(line)
        return cls(
            **{name: d[name] for name in SCALAR_FIELDS},
            bounds=tuple(BoundReport(b["name"], b["value"], b["holds"],
                                     b["witness"], b["applicable"])
                         for b in d["bounds"]),
            incomplete=tuple(d["incomplete"]))


# the certificate's scalar fields, in CSV column order
SCALAR_FIELDS = ("graph6", "n", "z", "alpha", "phi", "upper_embeddable",
                 "one_face", "two_face", "claw_center_count")
CSV_COLUMNS = SCALAR_FIELDS + ("violations",)


def verify_graph(g, cfg=None):
    """Certificate with exact Z and alpha plus every applicable bound check.

    A stage that runs past the per-stage budget (Z, alpha or, on cubic
    graphs, the decycling search) is listed in ``incomplete``; the
    remaining checks still run.  Without Z or alpha no bound is checked;
    without the decycling search phi and the face flags stay None and the
    one-face and two-face rows are left out.  A graph that graph6 cannot
    encode (n > 62) raises ``Graph6Error`` before any solver runs.
    """
    if not is_connected(g):
        raise GraphError("verify_graph requires a connected graph")
    graph6 = write_graph6(g).decode("ascii")  # n > 62 fails before any solver
    cfg = cfg or RunConfig()
    timings = {}
    incomplete = []

    def timed(name, solver):
        deadline = time.monotonic() + cfg.budget_secs
        start = time.perf_counter()
        try:
            return solver(g, deadline)
        except SolverBudgetExceeded:
            incomplete.append(name)
            return None
        finally:
            timings[name] = time.perf_counter() - start

    def construction_row(name, value, s_mask):
        # the decycling construction on S, checked against the row's value
        rep = forcing_set_from_decycling(g, s_mask, alpha_result)
        return BoundReport(name, value,
                           rep.holds and rep.witness.bit_count() <= value,
                           rep.witness)

    z_result = timed("zero_forcing", zero_forcing_number)
    alpha_result = timed("independence", maximum_independent_set)
    z = z_result[0] if z_result else None
    alpha = alpha_result.alpha if alpha_result else None

    profile = classify_degrees(g)
    claws = claw_centers(g).bit_count()
    bounds = []
    phi = upper = one = two = None

    if z_result and alpha_result:
        complete = is_complete(g)
        k4 = complete and g.n == 4
        if profile.is_cubic:
            bounds.append(BoundReport("z_le_alpha_plus_1", alpha + 1,
                                      k4 or z <= alpha + 1, 0,
                                      applicable=not k4))
            # one search gives phi and its witness; the partitions label it
            decycling = timed("decycling", decycling_number)
            if decycling:
                phi = decycling[0]
                one = find_partition_one_face(g, decycling) is not None
                two = find_partition_two_face(g, decycling) is not None
                upper = one or two
            if upper:
                name, value = (("one_face_forcing", alpha + 1) if one
                               else ("two_face_forcing", alpha + 2))
                bounds.append(construction_row(name, value, decycling[1]))
            if not k4:
                # S = A: g - A is a linear forest with c = 2 alpha - n/2
                # paths and beta(G[A]) = 0, so alpha + beta + c = 3 alpha - n/2
                bounds.append(construction_row(
                    "three_alpha_minus_half_n", 3 * alpha - g.n // 2,
                    path_complement_mis(g, alpha_result)))

        if profile.is_subcubic and not k4:
            bounds.append(BoundReport(
                "z_le_alpha_plus_1_plus_claw_centers", alpha + 1 + claws,
                z <= alpha + 1 + claws, 0))

        bounds.extend(check_small_z_bounds(g, z, alpha))

        if profile.max_degree >= 3 and not complete:
            bounds.append(degree_alpha_construction(g, alpha_result))

    return Certificate(
        graph6=graph6, n=g.n, z=z, alpha=alpha, phi=phi,
        upper_embeddable=upper, one_face=one, two_face=two,
        claw_center_count=claws, bounds=tuple(bounds),
        incomplete=tuple(incomplete), timings=timings)


def _verify_worker(args):
    g6, cfg = args
    return verify_graph(parse_graph6(g6), cfg)


@dataclass(frozen=True)
class BatchSummary:
    graphs_checked: int
    violation_certs: tuple  # graph6 strings with at least one failed bound
    incomplete_certs: tuple
    upper_embeddable_fraction: dict  # n -> fraction among cubic graphs
    one_face_fraction: dict
    claw_free_checked: int
    claw_free_holds: int

    @property
    def ok(self):
        return not self.violation_certs


# (executor, factory, workers) of the pool kept across verify_batch calls
_pool = None


def _shared_pool(workers):
    """The kept pool, replaced when ``workers`` or the module's
    ``ProcessPoolExecutor`` binding differs from the one that built it."""
    global _pool
    if _pool is not None and (_pool[1] is not ProcessPoolExecutor
                              or _pool[2] != workers):
        _pool[0].shutdown()
        _pool = None
    if _pool is None:
        _pool = (ProcessPoolExecutor(max_workers=workers),
                 ProcessPoolExecutor, workers)
    return _pool[0]


def verify_batch(graphs, cfg=None, out_path=None, csv_path=None):
    """Run verify_graph over a graph stream; returns (summary, certificates).

    Certificates are written to ``out_path`` (one JSON object per line) in
    input order regardless of worker count, so output is deterministic.

    With more than one worker the graphs go to a process pool that is kept
    across calls, so its workers are forked once.  A call with another
    worker count, or after ``harness.ProcessPoolExecutor`` was rebound,
    shuts the kept pool down and forks a new one; a call whose work raises
    drops it without waiting for the queued graphs.  Workers run the code
    as it was when they were forked: a name patched later in the parent is
    not seen by them.  ``concurrent.futures`` joins them at interpreter exit.
    """
    global _pool
    cfg = cfg or RunConfig()
    graphs = list(graphs)
    if cfg.workers > 1 and len(graphs) > 1:
        jobs = [(write_graph6(g).decode("ascii"), cfg) for g in graphs]
        # multiprocessing.Pool.map's default chunk size; a chunk's results
        # are pickled together, so they share one copy of each bound name
        chunksize = -(-len(jobs) // (4 * cfg.workers))
        pool = _shared_pool(cfg.workers)
        try:
            certs = list(pool.map(_verify_worker, jobs, chunksize=chunksize))
        except BaseException:  # a worker's error, BrokenProcessPool, ^C
            pool.shutdown(wait=False, cancel_futures=True)
            _pool = None
            raise
    else:
        certs = [verify_graph(g, cfg) for g in graphs]

    violations = tuple(c.graph6 for c in certs if c.violations)
    incomplete = tuple(c.graph6 for c in certs if c.incomplete)
    upper, one, claw_checked, claw_holds = {}, {}, 0, 0
    per_n = {}
    for c in certs:
        if c.phi is not None:
            per_n.setdefault(c.n, []).append(c)
        if c.claw_center_count == 0 and c.phi is not None:
            conj = [b for b in c.bounds if b.bound_name == "z_le_alpha_plus_1"
                    and b.applicable]
            if conj:
                claw_checked += 1
                claw_holds += conj[0].holds
    for n, group in per_n.items():
        upper[n] = sum(bool(c.upper_embeddable) for c in group) / len(group)
        one[n] = sum(bool(c.one_face) for c in group) / len(group)

    if out_path is not None:
        with open(out_path, "w") as fh:
            for c in certs:
                fh.write(c.to_json() + "\n")
    if csv_path is not None:
        with open(csv_path, "w") as fh:
            fh.write(",".join(CSV_COLUMNS) + "\n")
            for c in certs:
                row = [getattr(c, name) for name in SCALAR_FIELDS]
                row.append(len(c.violations))
                fh.write(",".join("" if x is None else str(x) for x in row)
                         + "\n")

    summary = BatchSummary(
        graphs_checked=len(certs), violation_certs=violations,
        incomplete_certs=incomplete, upper_embeddable_fraction=upper,
        one_face_fraction=one, claw_free_checked=claw_checked,
        claw_free_holds=claw_holds)
    return summary, certs


# ---------------------------------------------------------------------------
# forcing traces


def trace_forcing(g, blue, dot=False):
    """Human-readable forcing trace, or a stall report if ``blue`` is not a
    zero forcing set.  With ``dot=True`` returns DOT source instead: members
    of the initial set are filled, chain edges are directed."""
    initial = blue
    steps, blue = _force_steps(g, blue)
    stalled = blue != g.full_mask
    if dot:
        chain = {(a, b) for a, b in steps}
        lines = ["graph forcing {"]
        for v in range(g.n):
            style = ' [style=filled fillcolor=lightblue]' if initial >> v & 1 \
                else ("" if blue >> v & 1 else ' [style=dashed]')
            lines.append(f"  {v}{style};")
        for a, b in g.edges():
            if (a, b) in chain or (b, a) in chain:
                lines.append(f"  {a} -- {b} [dir=forward penwidth=2];")
            else:
                lines.append(f"  {a} -- {b};")
        lines.append("}")
        return "\n".join(lines)
    if stalled:
        still_blue = sorted(bits(closure(g, initial)))
        return (f"stalled: blue = {{{', '.join(map(str, still_blue))}}}, "
                f"{g.n - len(still_blue)} vertices never forced")
    if not steps:
        return "no forces needed: every vertex starts blue"
    return ", ".join(f"{a}→{b}" for a, b in steps)
