"""The three benchmark workloads: seeded inputs, one timed pass, output checks.

A workload's ``setup(seed, outdir)`` builds its inputs; their ``digest`` is
the same for the same seed.  ``run_pass(inputs, tracer)`` is the timed region
and returns a ``Pass``; ``check(inputs, pass)`` runs afterwards and returns,
per graph, the reasons it failed.  The program receives only the generated
graphs.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import random
import time
from dataclasses import dataclass, field

from zfalpha import enumeration, gadgets, graphs, harness
from zfalpha.forcing import SolverBudgetExceeded

import checks
import speed
import tracing

BUDGET_SECS = 60.0  # the harness default per-stage budget


@dataclass
class Pass:
    """One timed pass.  Times are raw seconds; ``wall_s`` and ``batch_s``
    leave out the reference bursts run in this process."""

    wall_s: float
    graphs: list  # the inputs the program received, in order
    graph_s: list  # time per graph, in input order
    graph_ref: list  # reference burst time around each graph (speed.timed)
    results: list  # certificates or tight-family reports, in input order
    segments: list  # (seconds, reference) of every timed call, graphs included
    burst_s: float = 0.0  # time this process spent on bursts
    outputs: tuple = ()  # certificate files written by the pass
    batch_s: float = 0.0  # wall time of verify_batch, 0 if not used
    workers: int = 1
    worker_rss_kib: dict = field(default_factory=dict)  # pid -> peak RSS
    incomplete: int = 0  # stages that ran past the budget

    def scaled_graph_s(self):
        return [speed.scale(t, r) for t, r in zip(self.graph_s, self.graph_ref)]

    def speed_factor(self):
        """Scaled over raw time of the pass's timed calls: the factor for
        times, such as the wall time, that no bursts enclose."""
        return (sum(speed.scale(t, r) for t, r in self.segments)
                / sum(t for t, _ in self.segments))


def file_digest(*paths):
    h = hashlib.sha256()
    for p in paths:
        with open(p, "rb") as fh:
            h.update(fh.read())
    return h.digest()


def _batch(found, workers, outdir, tracer):
    """verify_batch with JSONL and CSV output, as ``zfalpha verify`` runs it."""
    out, csv = os.path.join(outdir, "certs.jsonl"), os.path.join(outdir, "certs.csv")
    cfg = harness.RunConfig(workers=workers)
    start = time.perf_counter()
    _, certs = tracer.span("harness.verify_batch", harness.verify_batch)(
        found, cfg, out_path=out, csv_path=csv)
    batch_s = time.perf_counter() - start
    if tracer.enabled:
        batch_span = tracer.spans[-1][0]
        for c in certs:
            tracer.adopt(c, batch_span)
    used = workers if workers > 1 and len(certs) > 1 else 1
    graph_s = [c.timings[tracing.GRAPH_S] for c in certs]
    graph_ref = [c.timings[tracing.REF_S] for c in certs]
    rss = {}
    if used > 1:  # serial certificates came from this process
        for c in certs:
            pid = c.timings[tracing.PID]
            rss[pid] = max(rss.get(pid, 0), c.timings[tracing.RSS_KIB])
    own = sum(c.timings[tracing.BURST_S] for c in certs) if used == 1 else 0.0
    return Pass(wall_s=0.0, graphs=found, graph_s=graph_s, graph_ref=graph_ref,
                results=certs, segments=list(zip(graph_s, graph_ref)), burst_s=own,
                outputs=(out, csv), batch_s=batch_s - own,
                workers=used, worker_rss_kib=rss,
                incomplete=sum(len(c.incomplete) for c in certs))


class CubicSweep:
    """Every connected cubic graph on ``ns`` vertices, enumerated inside the
    timed region as ``zfalpha verify --enumerate-n`` does, then verify_batch
    with one worker.  The seed does not change the inputs."""

    name = "cubic_sweep"

    def __init__(self, ns=(4, 6, 8, 10, 12)):
        self.ns = ns

    def setup(self, seed, outdir):
        return {"ns": self.ns, "outdir": outdir}

    def digest(self, inputs):
        return hashlib.sha256(repr(inputs["ns"]).encode()).hexdigest()

    def run_pass(self, inputs, tracer):
        start = time.perf_counter()
        found, segments, spent = [], [], 0.0
        for n in inputs["ns"]:
            gs, seconds, ref, burst_s = speed.timed(
                enumeration.enumerate_connected_cubic, n)
            segments.append((seconds, ref))
            spent += burst_s
            tracer.count("enumeration.graphs", len(gs))
            found += gs
        p = _batch(found, 1, inputs["outdir"], tracer)
        p.segments += segments
        p.burst_s += spent
        p.wall_s = time.perf_counter() - start - p.burst_s
        return p

    def check(self, inputs, p):
        problems = {}
        for n in inputs["ns"]:
            count = sum(g.n == n for g in p.graphs)
            if count != checks.CUBIC_CLASS_COUNTS[n]:
                problems[f"n={n}"] = [f"{count} classes, expected "
                                      f"{checks.CUBIC_CLASS_COUNTS[n]}"]
        for g, cert in zip(p.graphs, p.results):
            problems[cert.graph6] = checks.check_certificate(cert, g, exact_z=True)
        return problems


def random_connected_cubic(rng, n):
    """Pairing model: match 3n points at random, rejecting loops, multi-edges
    and disconnected results."""
    while True:
        points = [v for v in range(n) for _ in range(3)]
        rng.shuffle(points)
        adj = [0] * n
        for a, b in zip(points[::2], points[1::2]):
            if a == b or adj[a] >> b & 1:
                break
            adj[a] |= 1 << b
            adj[b] |= 1 << a
        else:
            g = graphs.Graph(n, tuple(adj))
            if graphs.is_connected(g):
                return g


class RandomCubic:
    """Seeded random connected cubic graphs, written to a graph6 file, read
    back and verified with ``workers = min(2, nproc)``, as
    ``zfalpha verify --input F --workers 2`` does.

    10 graphs on 18 vertices and 30 on 20: an n = 20 graph takes about five
    times as long as an n = 18 graph, so with three times as many of the
    larger ones the median falls well inside one size class, not between the
    two.
    """

    name = "random_cubic"

    def __init__(self, sizes=((18, 10), (20, 30)), workers=None):
        self.sizes = sizes
        self.workers = workers or min(2, len(os.sched_getaffinity(0)))

    def setup(self, seed, outdir):
        rng = random.Random(seed)
        lines = [graphs.write_graph6(random_connected_cubic(rng, n))
                 for n, count in self.sizes for _ in range(count)]
        path = os.path.join(outdir, "input.g6")
        with open(path, "wb") as fh:
            fh.write(b"".join(line + b"\n" for line in lines))
        return {"path": path, "outdir": outdir}

    def digest(self, inputs):
        return file_digest(inputs["path"]).hex()

    def run_pass(self, inputs, tracer):
        start = time.perf_counter()

        def read_input(path):
            with open(path) as fh:
                text = fh.read()
            tracer.count("harness.io.bytes", len(text))
            return text

        text = tracer.span("harness.io.read_input", read_input)(inputs["path"])
        found = [graphs.parse_graph6(ln) for ln in map(str.strip, text.splitlines())
                 if ln and not ln.startswith("#")]
        p = _batch(found, self.workers, inputs["outdir"], tracer)
        p.wall_s = time.perf_counter() - start - p.burst_s
        return p

    def check(self, inputs, p):
        return {f"{i}:{c.graph6}": checks.check_certificate(c, g, exact_z=False)
                for i, (g, c) in enumerate(zip(p.graphs, p.results))}


def _check_tight(t):
    """check_tight_family under the harness's default budget; None if the
    exact solvers ran past it."""
    try:
        return gadgets.check_tight_family(t, time.monotonic() + BUDGET_SECS)
    except SolverBudgetExceeded:
        return None


class TightFamily:
    """check_tight_family on seeded vertex relabelings of every 3-1 tree on
    4, 6 and 8 vertices (G_T on 16, 22 and 28 vertices), in process.

    Relabeling the tree relabels G_T, which changes the order of the exact-Z
    search: the time of one 28-vertex graph varies by about 12% between
    relabelings, and the relative order of the tree's internal vertices
    accounts for 40% of that variance.  So every order of the internal
    vertices gets the same number of relabelings, and only the rest is drawn
    from the seed.  With 16, 32 and 18 relabelings the median falls in the
    middle of the 22-vertex graphs and the tail percentile (ten graphs beyond
    it) in the middle of the 28-vertex graphs, away from the extremes of
    either.
    """

    name = "tight_family"

    def __init__(self, relabelings=((4, 16), (6, 32), (8, 18))):
        self.relabelings = relabelings

    def setup(self, seed, outdir):
        rng = random.Random(seed)
        items = []
        for n, count in self.relabelings:
            for tree in gadgets.generate_31_trees(n):
                orders = list(itertools.permutations(graphs.bits(tree.internal)))
                for k in range(count):
                    perm = rng.sample(range(n), n)
                    order = orders[k % len(orders)]
                    for v, label in zip(order, sorted(perm[v] for v in order)):
                        perm[v] = label
                    edges = sorted(tuple(sorted((perm[a], perm[b])))
                                   for a, b in tree.tree.edges())
                    t = gadgets.as_31_tree(graphs.graph_from_edges(n, edges))
                    label = f"T{n}.{k}:{graphs.write_graph6(t.tree).decode()}"
                    items.append((label, n, t))
        return {"items": items, "outdir": outdir}

    def digest(self, inputs):
        return hashlib.sha256("\n".join(
            label for label, _, _ in inputs["items"]).encode()).hexdigest()

    def run_pass(self, inputs, tracer):
        start = time.perf_counter()
        times, refs, reports, spent = [], [], [], 0.0
        for label, _, t in inputs["items"]:
            tracer.graph = label
            rep, seconds, ref, burst_s = speed.timed(_check_tight, t)
            times.append(seconds)
            refs.append(ref)
            reports.append(rep)
            spent += burst_s
        return Pass(wall_s=time.perf_counter() - start - spent,
                    graphs=inputs["items"], graph_s=times, graph_ref=refs,
                    results=reports, segments=list(zip(times, refs)),
                    burst_s=spent, incomplete=reports.count(None))

    def check(self, inputs, p):
        return {label: checks.check_tight(n, gadgets.build_tight_graph(t).result, rep)
                for (label, n, t), rep in zip(p.graphs, p.results)}


WORKLOADS = {w.name: w for w in (CubicSweep(), TightFamily(), RandomCubic())}
