"""Command-line front end.

Subcommands: compute (invariants of one or more graphs), verify (batch bound
checking with certificates), construct (gadget/family builders), trace
(forcing traces).  Exit codes: 0 success / no violations, 1 at least one
bound violation, 2 usage, input or I/O errors.
"""

from __future__ import annotations

import argparse
import sys

from .bounds import decycling_number
from .enumeration import check_order, enumerate_connected_cubic
from .forcing import enumerate_minimal_forts, zero_forcing_number
from .gadgets import (build_tight_graph, cubify, generate_31_trees,
                      replace_claw_center, replace_deg1, replace_deg2)
from .graphs import (Graph6Error, bits, classify_degrees, parse_graph6,
                     write_graph6)
from .harness import RunConfig, trace_forcing, verify_batch
from .independence import maximum_independent_set


def _load_graphs(source):
    """Graphs from a literal graph6 string or a file of graph6 lines.

    In files, blank lines and lines starting with ``#`` are ignored.  A file
    is read as bytes, so a byte that is not graph6 (not even UTF-8) is
    reported by ``parse_graph6`` with its ``file:line``.
    """
    try:
        return [parse_graph6(source)]
    except Graph6Error:
        pass
    try:
        with open(source, "rb") as fh:
            lines = [ln.strip() for ln in fh]
    except OSError as exc:
        raise ValueError(f"cannot read {source}: {exc.strerror}") from exc
    graphs = []
    for number, ln in enumerate(lines, 1):
        if not ln or ln.startswith(b"#"):
            continue
        try:
            graphs.append(parse_graph6(ln))
        except Graph6Error as exc:
            raise Graph6Error(f"{source}:{number}: {exc}") from exc
    return graphs


def _vset(mask):
    return "{" + ",".join(str(v) for v in bits(mask)) + "}"


def _cmd_compute(args):
    # a bad option is reported before any graph is loaded or solved
    if args.fort_cap < 1:
        raise ValueError("--fort-cap must be at least 1")
    want_all = not (args.z or args.alpha or args.phi or args.forts)
    for g in _load_graphs(args.graph):
        g6 = write_graph6(g).decode("ascii")
        print(f"graph {g6} n={g.n}")
        if args.z or want_all:
            z, witness = zero_forcing_number(g)
            print(f"  Z = {z}  witness {_vset(witness)}")
        if args.alpha or want_all:
            cert = maximum_independent_set(g)
            print(f"  alpha = {cert.alpha}  witness {_vset(cert.witness)}")
        if args.phi:
            if not classify_degrees(g).is_cubic:
                print("  phi: skipped (graph is not cubic)")
            else:
                phi, witness = decycling_number(g)
                print(f"  phi = {phi}  witness {_vset(witness)}")
        if args.forts:
            forts = enumerate_minimal_forts(g, cap=args.fort_cap)
            print(f"  minimal forts ({len(forts)}, cap {args.fort_cap}):")
            for f in forts:
                print(f"    {_vset(f)}")
    return 0


def _cmd_verify(args):
    # bad options are reported before any file is made or graph enumerated
    cfg = RunConfig(budget_secs=args.budget_secs, workers=args.workers)
    if args.enumerate_n is not None:
        check_order(args.enumerate_n)
    for path in (args.out, args.csv):
        if path is not None:
            # report an unwritable path before any work; append mode creates
            # a missing file but never truncates an existing one
            open(path, "a").close()
    if args.enumerate_n is not None:
        graphs = enumerate_connected_cubic(args.enumerate_n)
    else:
        graphs = _load_graphs(args.input)
    summary, _ = verify_batch(graphs, cfg, out_path=args.out, csv_path=args.csv)
    print(f"graphs checked: {summary.graphs_checked}")
    print(f"violations: {len(summary.violation_certs)}")
    for g6 in summary.violation_certs:
        print(f"  COUNTEREXAMPLE: {g6}")
    for g6 in summary.incomplete_certs:
        print(f"  incomplete (budget exceeded): {g6}")
    for n in sorted(summary.upper_embeddable_fraction):
        print(f"n={n}: upper-embeddable fraction "
              f"{summary.upper_embeddable_fraction[n]:.3f}, "
              f"one-face fraction {summary.one_face_fraction[n]:.3f}")
    if summary.claw_free_checked:
        print(f"claw-free cubic: {summary.claw_free_holds}/"
              f"{summary.claw_free_checked} satisfy Z <= alpha + 1")
    return 0 if summary.ok else 1


def _cmd_construct(args):
    if args.gt is not None:
        for t in generate_31_trees(args.gt):
            built = build_tight_graph(t)
            t6 = write_graph6(t.tree).decode("ascii")
            print(f"# tree {t6}")
            print(write_graph6(built.result).decode("ascii"))
    elif args.cubify is not None:
        for g in _load_graphs(args.cubify):
            print(write_graph6(cubify(g).result).decode("ascii"))
    else:
        if args.input is None or args.vertex is None:
            raise ValueError("--gadget requires --input and --vertex")
        builder = {"g1": replace_deg1, "g2": replace_deg2,
                   "g3": replace_claw_center}[args.gadget]
        for g in _load_graphs(args.input):
            print(write_graph6(builder(g, args.vertex).result).decode("ascii"))
    return 0


def _cmd_trace(args):
    g = parse_graph6(args.graph)
    blue = 0
    if args.blue:
        for tok in args.blue.split(","):
            if not (tok.strip().isdecimal() and int(tok) < g.n):
                raise ValueError(f"--blue: {tok!r} is not a vertex number "
                                 f"below {g.n}")
            blue |= 1 << int(tok)
    print(trace_forcing(g, blue, dot=args.dot))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="zfalpha",
        description="Zero forcing vs independence: exact solvers, "
                    "constructions, and batch bound verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="invariants of a graph or file of graphs")
    p.add_argument("graph", help="graph6 string or path to a graph6 file")
    p.add_argument("--z", action="store_true", help="zero forcing number")
    p.add_argument("--alpha", action="store_true", help="independence number")
    p.add_argument("--phi", action="store_true", help="decycling number (cubic)")
    p.add_argument("--forts", action="store_true", help="minimal forts")
    p.add_argument("--fort-cap", type=int, default=50,
                   help="max forts listed (default 50)")
    p.set_defaults(run=_cmd_compute)

    p = sub.add_parser("verify", help="batch bound verification")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--enumerate-n", type=int,
                     help="all connected cubic graphs on this many vertices "
                          "(even, 4 to 14)")
    src.add_argument("--input", help="graph6 file, one graph per line")
    p.add_argument("--out", help="certificate output path (JSON lines)")
    p.add_argument("--csv", help="optional CSV projection of scalar columns")
    p.add_argument("--budget-secs", type=float, default=60.0,
                   help="time budget in seconds for each of the Z, alpha and "
                        "decycling stages of a graph (default 60)")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes")
    p.set_defaults(run=_cmd_verify)

    p = sub.add_parser("construct", help="build gadget graphs and families")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--gt", type=int,
                      help="tight cubic graphs from all 3-1 trees on this "
                           "many vertices")
    mode.add_argument("--cubify", metavar="FILE",
                      help="grow each subcubic graph in FILE to a cubic one")
    mode.add_argument("--gadget", choices=("g1", "g2", "g3"),
                      help="single vertex replacement (needs --input/--vertex)")
    p.add_argument("--input", help="graph6 string or file for --gadget")
    p.add_argument("--vertex", type=int, help="vertex to replace for --gadget")
    p.set_defaults(run=_cmd_construct)

    p = sub.add_parser("trace", help="chronological forcing trace")
    p.add_argument("graph", help="graph6 string")
    p.add_argument("--blue", default="",
                   help="comma-separated initial blue vertices")
    p.add_argument("--dot", action="store_true", help="emit DOT source")
    p.set_defaults(run=_cmd_trace)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)  # usage errors exit 2
    try:
        return args.run(args)
    except (ValueError, OSError) as exc:  # GraphError is a ValueError too
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
