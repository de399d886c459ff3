"""Spans and counters recorded where one zfalpha module calls into another.

Nothing under ``src/`` is edited: each hook rebinds the name that the calling
module imported (``harness.decycling_number``, ``bounds.closure`` and so on)
to a wrapper that records the call.  ``verify_graph`` decides which stages get
a deadline by function identity, from the ``harness`` globals at call time, so
rebinding the ``harness`` names keeps the deadline passed.

Untraced runs install a single hook: the one around ``verify_graph`` that
stores the per-graph time (with the reference bursts around it, see
``speed.py``, and the worker's pid and peak RSS) in the returned certificate's
``timings`` dict, which ``to_json`` omits and equality ignores.
That dict is also how spans recorded in pool workers reach the parent.
"""

from __future__ import annotations

import functools
import os
import resource
import time
from collections import Counter
from contextlib import contextmanager

from zfalpha import bounds, enumeration, gadgets, graphs, harness, independence

import speed

# keys added to Certificate.timings by the verify_graph hook
GRAPH_S = "bench.graph_s"
REF_S = "bench.ref_s"  # mean of the reference bursts around the graph
BURST_S = "bench.burst_s"  # time spent on those bursts
PID = "bench.pid"
RSS_KIB = "bench.rss_kib"
SPANS = "bench.spans"
COUNTS = "bench.counts"

# (module, imported name, span name): calls between modules that get a span
SPAN_HOOKS = [
    (enumeration, "enumerate_connected_cubic",
     "enumeration.enumerate_connected_cubic"),
    (harness, "zero_forcing_number", "forcing.zero_forcing_number"),
    (bounds, "zero_forcing_number", "forcing.zero_forcing_number"),
    (gadgets, "zero_forcing_number", "forcing.zero_forcing_number"),
    (harness, "maximum_independent_set", "independence.maximum_independent_set"),
    (bounds, "maximum_independent_set", "independence.maximum_independent_set"),
    # check_tight_family imports it from the module at call time
    (independence, "maximum_independent_set",
     "independence.maximum_independent_set"),
    (harness, "decycling_number", "bounds.decycling_number"),
    (harness, "find_partition_one_face", "bounds.find_partition_one_face"),
    (harness, "find_partition_two_face", "bounds.find_partition_two_face"),
    (harness, "forcing_set_from_decycling", "bounds.forcing_set_from_decycling"),
    (harness, "path_complement_mis", "bounds.path_complement_mis"),
    (harness, "degree_alpha_construction", "bounds.degree_alpha_construction"),
    (harness, "check_small_z_bounds", "bounds.check_small_z_bounds"),
    (gadgets, "check_tight_family", "gadgets.check_tight_family"),
    (gadgets, "build_tight_graph", "gadgets.build_tight_graph"),
    (gadgets, "generate_31_trees", "gadgets.generate_31_trees"),
    (harness, "write_graph6", "harness.io.write_graph6"),
    (harness, "parse_graph6", "harness.io.parse_graph6"),
    (graphs, "parse_graph6", "harness.io.parse_graph6"),
]

# (module, imported name, counter name): hot primitives that only get counted
COUNT_HOOKS = [
    (bounds, "closure", "forcing.closure.calls"),
    (bounds, "is_zero_forcing_set", "forcing.closure.calls"),
    (harness, "closure", "forcing.closure.calls"),
    (bounds, "induced_subgraph", "graphs.induced_subgraph.calls"),
    (bounds, "is_acyclic", "graphs.is_acyclic.calls"),
]

_active = None  # the tracer whose hooks are installed in this process


class NullTracer:
    """Records nothing; used for the untraced passes."""

    enabled = False
    graph = None

    def span(self, name, fn):
        return fn

    def count(self, name, k=1):
        pass


class Tracer:
    """Spans kept in memory as (id, name, start, end, parent id, graph id).

    Ids are (pid, sequence number), so spans from pool workers stay distinct.
    Times come from ``time.perf_counter``, a system-wide monotonic clock on
    Linux, so worker spans share the parent's time axis.
    """

    enabled = True

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.graph = None
        self.in_worker = False
        self._stack = []
        self._pid = os.getpid()
        self._seq = 0

    def span(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = (self._pid, self._seq)
            self._seq += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((sid, name, start, end, parent, self.graph))
        return wrapper

    def counter(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def count(self, name, k=1):
        self.counts[name] += k

    def become_worker(self):
        """Forget what the parent recorded before the fork; ship from now on."""
        self.spans, self.counts, self._stack = [], Counter(), []
        self._pid, self._seq, self.in_worker = os.getpid(), 0, True

    def adopt(self, cert, parent):
        """Move the spans and counts a pool worker attached to ``cert`` into
        this tracer, hanging the worker's root spans under ``parent``."""
        for sid, name, start, end, par, graph in cert.timings.pop(SPANS, ()):
            self.spans.append((sid, name, start, end,
                               parent if par is None else par, graph))
        self.counts.update(cert.timings.pop(COUNTS, {}))


class _CountingFile:
    """File proxy for ``harness.open``: each write is an I/O span."""

    def __init__(self, fh, tracer):
        self._fh = fh
        self._tracer = tracer
        self.write = tracer.span("harness.io.write", self._write)

    def _write(self, text):
        self._tracer.count("harness.io.bytes", len(text.encode()))
        return self._fh.write(text)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._tracer.span("harness.io.close", self._fh.close)()
        return False


def _verify_hook(tracer, verify_graph):
    inner = tracer.span("harness.verify_graph", verify_graph)
    write_graph6 = graphs.write_graph6

    @functools.wraps(verify_graph)
    def wrapper(g, cfg=None):
        if tracer.enabled:
            tracer.graph = write_graph6(g).decode("ascii")
        cert, seconds, ref, spent = speed.timed(inner, g, cfg)
        cert.timings[GRAPH_S] = seconds
        cert.timings[REF_S] = ref
        cert.timings[BURST_S] = spent
        cert.timings[PID] = os.getpid()
        cert.timings[RSS_KIB] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer.enabled and tracer.in_worker:
            cert.timings[SPANS] = tracer.spans
            cert.timings[COUNTS] = dict(tracer.counts)
            tracer.spans, tracer.counts = [], Counter()
        return cert
    return wrapper


def _init_worker(traced):
    """Pool initializer.  A forked worker inherits the parent's hooks; a
    spawned one starts from a fresh import and installs its own."""
    if _active is None:
        install(Tracer() if traced else NullTracer())
    if _active.enabled:
        _active.become_worker()


_MISSING = object()


def install(tracer):
    """Install the hooks for ``tracer``; returns a function that removes them."""
    global _active
    saved = []

    def rebind(owner, name, value):
        saved.append((owner, name, owner.__dict__.get(name, _MISSING)))
        setattr(owner, name, value)

    rebind(harness, "verify_graph", _verify_hook(tracer, harness.verify_graph))
    rebind(harness, "ProcessPoolExecutor", functools.partial(
        harness.ProcessPoolExecutor, initializer=_init_worker,
        initargs=(tracer.enabled,)))
    if tracer.enabled:
        for module, name, span in SPAN_HOOKS:
            rebind(module, name, tracer.span(span, getattr(module, name)))
        for module, name, counter in COUNT_HOOKS:
            rebind(module, name, tracer.counter(counter, getattr(module, name)))
        rebind(harness.Certificate, "to_json", tracer.span(
            "harness.io.to_json", harness.Certificate.to_json))
        rebind(harness, "open", lambda *a, **k: _CountingFile(
            tracer.span("harness.io.open", open)(*a, **k), tracer))
    _active = tracer

    def uninstall():
        global _active
        for owner, name, value in reversed(saved):
            if value is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, value)
        _active = None
    return uninstall


@contextmanager
def installed(tracer):
    uninstall = install(tracer)
    try:
        yield tracer
    finally:
        uninstall()


# ---------------------------------------------------------------------------
# aggregation


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def span_table(spans):
    """Per span name: calls, busy seconds and self seconds.

    Self time is a span's duration minus the part of it that its child spans
    cover (children in two pool workers may overlap).  Busy time sums only
    spans with no ancestor of the same name, so recursion is not counted twice.
    """
    by_id = {s[0]: s for s in spans}
    children = {}
    for s in spans:
        children.setdefault(s[4], []).append((s[2], s[3]))
    table = {}
    for sid, name, start, end, parent, _ in spans:
        row = table.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += (end - start) - _covered(children.get(sid, ()), start, end)
        anc = by_id.get(parent)
        while anc is not None and anc[1] != name:
            anc = by_id.get(anc[4])
        if anc is None:
            row["busy_s"] += end - start
    return table


def _sum(table, names, key):
    return sum(table.get(n, {}).get(key, 0) for n in names)


IO_SPANS = ("harness.io.to_json", "harness.io.write", "harness.io.open",
            "harness.io.close", "harness.io.write_graph6",
            "harness.io.parse_graph6", "harness.io.read_input")
CONSTRUCTIONS = ("bounds.forcing_set_from_decycling", "bounds.path_complement_mis",
                 "bounds.degree_alpha_construction", "bounds.check_small_z_bounds")
GADGETS = ("gadgets.check_tight_family", "gadgets.build_tight_graph",
           "gadgets.generate_31_trees")
Z = ("forcing.zero_forcing_number",)
ALPHA = ("independence.maximum_independent_set",)


def layer_metrics(table, counts):
    """Per-layer metrics from one set of traced passes (not yet per pass)."""
    return {
        "enumeration.busy_s": _sum(table, ("enumeration.enumerate_connected_cubic",),
                                   "busy_s"),
        "enumeration.graphs": counts["enumeration.graphs"],
        "forcing.z.busy_s": _sum(table, Z, "busy_s"),
        "forcing.z.calls": _sum(table, Z, "calls"),
        "forcing.closure.calls": counts["forcing.closure.calls"],
        "independence.alpha.busy_s": _sum(table, ALPHA, "busy_s"),
        "independence.alpha.calls": _sum(table, ALPHA, "calls"),
        "bounds.decycling.busy_s": _sum(table, ("bounds.decycling_number",),
                                        "busy_s"),
        "bounds.partition.busy_s": _sum(
            table, ("bounds.find_partition_one_face",
                    "bounds.find_partition_two_face"), "busy_s"),
        "bounds.constructions.self_s": _sum(table, CONSTRUCTIONS, "self_s"),
        "graphs.induced_subgraph.calls": counts["graphs.induced_subgraph.calls"],
        "graphs.is_acyclic.calls": counts["graphs.is_acyclic.calls"],
        "gadgets.self_s": _sum(table, GADGETS, "self_s"),
        "harness.verify_graph.self_s": _sum(table, ("harness.verify_graph",),
                                            "self_s"),
        "harness.io.busy_s": _sum(table, IO_SPANS, "busy_s"),
        "harness.io.bytes": counts["harness.io.bytes"],
    }
