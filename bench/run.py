"""zfalpha benchmark: certify graphs end to end and time each module.

Run from the repository root:

    python3 bench/run.py --workload cubic_sweep --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all

A run sets up the workload's inputs from ``--seed``, then repeats whole passes
over them for ``--seconds``, then checks the outputs.  Times are scaled to a
fixed machine speed by reference bursts around each timed call (speed.py).
With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
runs untraced passes for half the time and traced passes for the other half
and reports the per-layer metrics and the tracing overhead.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--workload all`` runs each workload in its own
process and prints a table.
"""

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
NAMES = ("cubic_sweep", "tight_family", "random_cubic")
SETUP_SAMPLES = 11  # set-ups per run: this process plus ten fresh interpreters

END_TO_END_UNITS = {"graphs_per_s": "graphs/s", "graph_s.p50": "s",
                    "graph_s.tail": "s", "ok_frac": "ratio", "setup_s": "s",
                    "peak_rss_mb": "MiB"}
PER_LAYER_UNITS = {
    "enumeration.busy_s": "s", "enumeration.graphs": "graphs",
    "forcing.z.busy_s": "s", "forcing.z.calls": "count",
    "forcing.closure.calls": "count",
    "independence.alpha.busy_s": "s", "independence.alpha.calls": "count",
    "bounds.decycling.busy_s": "s", "bounds.partition.busy_s": "s",
    "bounds.constructions.self_s": "s",
    "graphs.induced_subgraph.calls": "count", "graphs.is_acyclic.calls": "count",
    "gadgets.self_s": "s", "harness.verify_graph.self_s": "s",
    "harness.io.busy_s": "s", "harness.io.bytes": "bytes",
    "harness.pool.efficiency": "ratio", "harness.pool.idle_s": "s",
    "harness.incomplete": "count", "trace.overhead_s": "s",
}


def tail_rank(n):
    """(percentile, 1-based nearest rank) of the highest integer percentile
    with at least ten samples beyond it; the median when n <= 10."""
    for p in range(99, 0, -1):
        rank = max(1, math.ceil(p * n / 100))
        if n - rank >= 10:
            return p, rank
    return 50, max(1, math.ceil(n / 2))


def run_passes(wl, inputs, tracer, seconds):
    """Whole passes over the inputs for ``seconds``: at least one, and no
    further pass once the last one's duration would carry past ``seconds``.
    Returns the passes and the digest of each pass's output files."""
    import tracing
    import workloads

    passes, files = [], []
    start = time.perf_counter()
    with tracing.installed(tracer):
        while True:
            passes.append(wl.run_pass(inputs, tracer))
            files.append(workloads.file_digest(*passes[-1].outputs))
            elapsed = time.perf_counter() - start
            if elapsed + passes[-1].wall_s > seconds:
                return passes, files


def setup_probes(name, seed, digest, count):
    """Set-up times of ``count`` fresh interpreters; each must build the same
    inputs as this process."""
    times, problems = [], []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--setup-probe"], capture_output=True, text=True, cwd=ROOT,
            timeout=120, check=True)
        probe = json.loads(proc.stdout.splitlines()[-1])
        times.append(probe["setup_s"])
        if probe["digest"] != digest:
            problems.append("a fresh set-up built different inputs from the same seed")
    return times, problems


def measure(wl, inputs, seed, seconds, trace, setup_times, setup_problems=()):
    """Run, check and summarize one workload; returns (report lines, result)."""
    import checks
    import tracing

    plain, files = run_passes(wl, inputs, tracing.NullTracer(),
                              seconds / 2 if trace else seconds)
    traced = []
    if trace:
        tracer = tracing.Tracer()
        traced, more = run_passes(wl, inputs, tracer, seconds / 2)
        files += more
    everything = plain + traced

    problems = wl.check(inputs, everything[-1])
    if (any(p.results != everything[0].results for p in everything)
            or len(set(files)) > 1):
        problems["determinism"] = ["passes over the same inputs gave different output"]
    if setup_problems:
        problems["setup"] = list(setup_problems)
    bad = {k: v for k, v in problems.items() if v}
    known = {k for k, v in bad.items() if checks.is_known(v)}
    per_pass = len(everything[0].results)
    attempted = per_pass * len(everything)
    failed = min(len(bad), per_pass) * len(everything)

    # times scaled to the reference machine speed (speed.py)
    scale = [p.speed_factor() for p in plain]
    walls = [p.wall_s * f for p, f in zip(plain, scale)]
    per_graph = [statistics.median(ts)
                 for ts in zip(*(p.scaled_graph_s() for p in plain))]
    ordered = sorted(per_graph)
    pct, rank = tail_rank(len(ordered))
    worker_kib = max(sum(p.worker_rss_kib.values()) for p in plain)
    self_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "graphs_per_s": per_pass / statistics.median(walls),
        "graph_s.p50": statistics.median(ordered),
        "graph_s.tail": ordered[rank - 1],
        "ok_frac": 1 - failed / attempted,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": (self_kib + worker_kib) / 1024,
    }
    lines = [
        f"workload {wl.name}: seed {seed}, {len(plain)} untraced and "
        f"{len(traced)} traced passes of {per_pass} graphs",
        f"  graphs_per_s   {metrics['graphs_per_s']:.4f} graphs/s  (unscaled "
        f"{per_pass / statistics.median(p.wall_s for p in plain):.4f}; "
        f"speed factor {statistics.median(scale):.3f})",
        f"  graph_s.p50    {metrics['graph_s.p50']:.6f} s",
        f"  graph_s.tail   {metrics['graph_s.tail']:.6f} s  "
        f"(p{pct} of {len(ordered)} graphs, {len(ordered) - rank} beyond)",
        f"  fail_frac      {failed / attempted:.6f} ratio  ({failed}/{attempted})",
        f"  ok_frac        {metrics['ok_frac']:.6f} ratio",
        f"  setup_s        {metrics['setup_s']:.4f} s  "
        f"(median of {len(setup_times)} set-ups)",
        f"  peak_rss_mb    {metrics['peak_rss_mb']:.2f} MiB",
    ]
    for key, reasons in sorted(bad.items()):
        tag = "known defect" if key in known else "FAILED"
        lines.append(f"  {tag}: {key}: {'; '.join(reasons)}")

    if trace:
        table = tracing.span_table(tracer.spans)
        tscale = (sum(p.wall_s * p.speed_factor() for p in traced)
                  / sum(p.wall_s for p in traced))
        layers = {k: v / len(traced) * (tscale if PER_LAYER_UNITS[k] == "s" else 1)
                  for k, v in tracing.layer_metrics(table, tracer.counts).items()}
        busy = sum(sum(p.scaled_graph_s()) for p in plain if p.batch_s)
        capacity = sum(p.workers * p.batch_s * f for p, f in zip(plain, scale))
        layers["harness.pool.efficiency"] = busy / capacity if capacity else 0.0
        layers["harness.pool.idle_s"] = (capacity - busy) / len(plain)
        layers["harness.incomplete"] = sum(p.incomplete for p in plain) / len(plain)
        plain_wall = statistics.median(walls)
        layers["trace.overhead_s"] = statistics.median(
            p.wall_s * p.speed_factor() for p in traced) - plain_wall
        lines.append(f"  per layer, per pass (tracing overhead "
                     f"{layers['trace.overhead_s'] / plain_wall:+.1%} of "
                     f"{plain_wall:.3f} s):")
        lines += [f"    {k:32s} {v:.6g} {PER_LAYER_UNITS[k]}"
                  for k, v in layers.items()]
        lines.append(f"  spans, per pass: {'name':38s} {'calls':>9s} "
                     f"{'busy_s':>10s} {'self_s':>10s}")
        for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
            lines.append(f"    {name:52s} {row['calls'] / len(traced):9.1f} "
                         f"{row['busy_s'] * tscale / len(traced):10.5f} "
                         f"{row['self_s'] * tscale / len(traced):10.5f}")
        write_spans(os.path.join(inputs["outdir"], "spans.jsonl"), tracer.spans)
        units, values = PER_LAYER_UNITS, layers
    else:
        units, values = END_TO_END_UNITS, metrics

    result = {"correct": len(bad) == len(known), "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()}}
    return lines, result


def write_spans(path, spans):
    with open(path, "w") as fh:
        for sid, span, start, end, parent, graph in spans:
            fh.write(json.dumps({"id": sid, "name": span, "start": start,
                                 "end": end, "parent": parent, "graph": graph})
                     + "\n")


def run_all(args):
    """Each workload in its own process; prints a table of every metric."""
    rows, total = {}, {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT, check=True)
        out = proc.stdout.splitlines()
        print("\n".join(out[:-1]))
        rows[name] = json.loads(out[-1])
        total["correct"] &= rows[name]["correct"]
        total["attempted"] += rows[name]["attempted"]
        total["failed"] += rows[name]["failed"]
        for k, m in rows[name]["metrics"].items():
            total["metrics"][f"{name}.{k}"] = m
    metrics = list(rows[NAMES[0]]["metrics"])
    print(f"{'metric':34s} {'unit':9s}" + "".join(f"{n:>15s}" for n in NAMES))
    for k in metrics:
        print(f"{k:34s} {rows[NAMES[0]]['metrics'][k]['unit']:9s}"
              + "".join(f"{rows[n]['metrics'][k]['value']:15.6g}" for n in NAMES))
    print("fail_frac".ljust(34) + " ratio    " + "".join(
        f"{rows[n]['failed'] / rows[n]['attempted']:15.6g}" for n in NAMES))
    print(json.dumps(total))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "zfalpha", "__init__.py")):
        print(f"error: no zfalpha sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(OUT, "tmp"), exist_ok=True)
    os.environ["TMPDIR"] = os.path.join(OUT, "tmp")
    os.environ.pop("ZFW_WORKERS", None)  # the workloads fix their worker counts
    if args.workload == "all":
        return run_all(args)

    sys.path[:0] = [SRC, HERE]
    import speed

    bursts = [speed.burst() for _ in range(8)]
    start = time.perf_counter()
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    outdir = os.path.join(OUT, wl.name)
    os.makedirs(outdir, exist_ok=True)
    inputs = wl.setup(args.seed, outdir)
    setup_s = time.perf_counter() - start
    bursts += [speed.burst() for _ in range(8)]
    setup_s *= speed.factor(bursts)
    digest = wl.digest(inputs)
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s, "digest": digest}))
        return 0
    times, problems = setup_probes(wl.name, args.seed, digest, SETUP_SAMPLES - 1)
    lines, result = measure(wl, inputs, args.seed, args.seconds, args.trace,
                            [setup_s] + times, problems)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
