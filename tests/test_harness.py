import functools
import hashlib
import importlib
import json
import os
import random
import subprocess
import sys

import pytest

from zfalpha import cli, gadgets, harness
from zfalpha.cli import main
from zfalpha.forcing import is_zero_forcing_set
from zfalpha.gadgets import build_tight_graph, generate_31_trees
from zfalpha.graphs import (Graph6Error, GraphError, complete_bipartite,
                            complete_graph, cycle_graph, disjoint_union,
                            graph_from_edges, parse_graph6, path_graph,
                            petersen_graph, write_graph6)
from zfalpha.harness import (Certificate, RunConfig, trace_forcing,
                             verify_batch, verify_graph)

from oracles import cubic_graphs, random_cubic_edges


def test_runconfig_validation():
    with pytest.raises(ValueError):
        RunConfig(budget_secs=0)
    with pytest.raises(ValueError):
        # a NaN deadline never expires: time.monotonic() > now + nan is False
        RunConfig(budget_secs=float("nan"))
    with pytest.raises(ValueError):
        RunConfig(workers=0)


def test_verify_graph_k4():
    cert = verify_graph(complete_graph(4))
    assert cert.z == 3 and cert.alpha == 1
    conj = [b for b in cert.bounds if b.bound_name == "z_le_alpha_plus_1"]
    assert len(conj) == 1 and not conj[0].applicable
    assert not cert.violations


def test_verify_graph_petersen():
    cert = verify_graph(petersen_graph())
    assert cert.z == 5 and cert.alpha == 4
    conj = [b for b in cert.bounds if b.bound_name == "z_le_alpha_plus_1"][0]
    assert conj.applicable and conj.holds  # 5 <= 5
    assert cert.phi == 3 and cert.upper_embeddable and cert.one_face
    assert cert.claw_center_count == 10
    assert not cert.violations


def test_verify_graph_k33():
    cert = verify_graph(complete_bipartite(3, 3))
    assert cert.z == 4 and cert.alpha == 3
    assert not cert.violations


def test_verify_graph_noncubic():
    cert = verify_graph(path_graph(5))
    assert cert.z == 1 and cert.alpha == 3
    assert cert.phi is None and cert.upper_embeddable is None
    claw = [b for b in cert.bounds
            if b.bound_name == "z_le_alpha_plus_1_plus_claw_centers"]
    assert claw and claw[0].holds


def test_verify_graph_requires_connected():
    with pytest.raises(GraphError):
        verify_graph(disjoint_union(path_graph(2), path_graph(2)))


def test_verify_graph_rejects_n_over_62_before_solving(monkeypatch):
    from zfalpha import harness

    def never(*args):
        raise AssertionError("zero_forcing_number ran")

    monkeypatch.setattr(harness, "zero_forcing_number", never)
    with pytest.raises(Graph6Error):
        verify_graph(cycle_graph(63))


def test_three_alpha_witness_is_small_forcing_set():
    # the row runs the decycling construction on S = A: A plus one endpoint
    # of each of the 2 alpha - n/2 paths of g - A (K4, n = 4, has no row)
    rng = random.Random(1214)
    graphs = [g for n in range(6, 13, 2) for g in cubic_graphs(n)]
    graphs += [graph_from_edges(n, random_cubic_edges(n, rng))
               for n in range(14, 25, 2) for _ in range(3)]
    graphs += [build_tight_graph(t).result for k in (4, 6, 8)
               for t in generate_31_trees(k)]
    for g in graphs:
        cert = verify_graph(g)
        (row,) = [b for b in cert.bounds
                  if b.bound_name == "three_alpha_minus_half_n"]
        assert row.bound_value == 3 * cert.alpha - g.n // 2
        assert row.holds and is_zero_forcing_set(g, row.witness)
        assert row.witness.bit_count() <= row.bound_value, write_graph6(g)


def test_certificate_json_round_trip():
    # two non-cubic certificates (phi is None) and a cubic one
    for g in (cycle_graph(6), path_graph(5), petersen_graph()):
        cert = verify_graph(g)
        assert (cert.phi is None) == (g.n != 10)
        line = cert.to_json()
        back = Certificate.from_json(line)
        assert back.to_json() == line
        assert back == cert


def test_certificate_graph6_reparses():
    cert = verify_graph(petersen_graph())
    again = verify_graph(parse_graph6(cert.graph6))
    assert (again.z, again.alpha, again.phi) == (cert.z, cert.alpha, cert.phi)


def test_alpha_solved_once_per_certificate(monkeypatch):
    from zfalpha import bounds, harness, independence
    sizes = []

    def counted(g, *args):
        sizes.append(g.n)
        return independence.maximum_independent_set(g, *args)

    monkeypatch.setattr(harness, "maximum_independent_set", counted)
    monkeypatch.setattr(bounds, "maximum_independent_set", counted)
    g = petersen_graph()
    cert = verify_graph(g)
    assert cert.one_face and not cert.violations
    # alpha on g once; beta on G[S] for the face row and on G[A] for the
    # three-alpha row
    assert sizes.count(g.n) == 1 and len(sizes) == 3


def test_decycling_searched_once_per_certificate(monkeypatch):
    from zfalpha import bounds
    search = bounds._first_decycling_set
    sizes = []

    def counted(g, size, *args):
        sizes.append(size)
        return search(g, size, *args)

    monkeypatch.setattr(bounds, "_first_decycling_set", counted)
    # phi = 4 on this 10-vertex graph: not upper-embeddable, so the scan
    # passes size (n+2)/4 = 3 once on its way to 4
    for g6, want in (("I}KGGGB?w", [3, 4]),
                     (write_graph6(petersen_graph()).decode(), [3])):
        g = parse_graph6(g6)
        for run in (verify_graph, bounds.embeddability_report):
            sizes.clear()
            run(g)
            assert sizes == want, (g6, run.__name__)


def test_decycling_overrun_recorded(monkeypatch):
    import time
    from zfalpha import bounds, harness

    def overrun(g, deadline):
        return bounds.decycling_number(g, time.monotonic() - 1)

    g = petersen_graph()
    full = verify_graph(g)
    monkeypatch.setattr(harness, "decycling_number", overrun)
    cert = verify_graph(g)
    assert cert.incomplete == ("decycling",)
    assert (cert.z, cert.alpha) == (full.z, full.alpha)
    assert (cert.phi, cert.upper_embeddable, cert.one_face,
            cert.two_face) == (None, None, None, None)
    assert full.one_face and "one_face_forcing" in [
        b.bound_name for b in full.bounds]
    assert cert.bounds == tuple(b for b in full.bounds
                                if b.bound_name != "one_face_forcing")


def test_budget_exhaustion_recorded(tmp_path):
    big = cubic_graphs(12)[0]
    cert = verify_graph(big, RunConfig(budget_secs=1e-6))
    assert "zero_forcing" in cert.incomplete
    assert cert.z is None


def test_verify_batch_writes_certificates(tmp_path):
    out = tmp_path / "certs.jsonl"
    csv = tmp_path / "certs.csv"
    graphs = cubic_graphs(6)
    summary, certs = verify_batch(graphs, out_path=str(out), csv_path=str(csv))
    assert summary.graphs_checked == 2
    assert summary.ok and not summary.violation_certs
    assert summary.upper_embeddable_fraction == {6: 1.0}
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    for line, g in zip(lines, graphs):
        row = json.loads(line)
        assert row["graph6"] == write_graph6(g).decode("ascii")
    header, *rows = csv.read_text().splitlines()
    assert header.startswith("graph6,n,z,alpha")
    assert len(rows) == 2


def test_verify_batch_deterministic(tmp_path):
    graphs = cubic_graphs(6)
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    verify_batch(graphs, out_path=str(a))
    verify_batch(graphs, out_path=str(b))
    assert a.read_bytes() == b.read_bytes()


def test_verify_batch_workers_match_serial(tmp_path):
    graphs = cubic_graphs(8)
    a, b = tmp_path / "serial.jsonl", tmp_path / "pool.jsonl"
    verify_batch(graphs, RunConfig(), out_path=str(a))
    verify_batch(graphs, RunConfig(workers=2), out_path=str(b))
    assert a.read_bytes() == b.read_bytes()


def test_verify_batch_keeps_one_pool(tmp_path, monkeypatch):
    graphs = cubic_graphs(8)
    serial = tmp_path / "serial.jsonl"
    verify_batch(graphs, RunConfig(), out_path=str(serial))

    def pooled(name, workers=2):
        out = tmp_path / f"{name}.jsonl"
        verify_batch(graphs, RunConfig(workers=workers), out_path=str(out))
        assert out.read_bytes() == serial.read_bytes()
        return harness._pool[0]

    first = pooled("first")
    assert pooled("second") is first

    def assert_shut_down(pool):
        with pytest.raises(RuntimeError, match="shutdown"):
            pool.submit(int)

    third = pooled("three workers", workers=3)
    assert third is not first
    assert_shut_down(first)
    # bench/tracing.py rebinds the name to install a worker initializer
    monkeypatch.setattr(harness, "ProcessPoolExecutor", functools.partial(
        harness.ProcessPoolExecutor))
    rebound = pooled("rebound", workers=3)
    assert rebound is not third
    assert_shut_down(third)


def test_verify_batch_drops_a_pool_whose_work_raised(tmp_path):
    split = disjoint_union(cycle_graph(3), cycle_graph(3))
    with pytest.raises(GraphError, match="connected"):
        verify_batch([petersen_graph(), split], RunConfig(workers=2))
    assert harness._pool is None
    summary, _ = verify_batch(cubic_graphs(6), RunConfig(workers=2))
    assert summary.graphs_checked == 2 and summary.ok


def test_pool_workers_exit_with_the_interpreter():
    code = ("import multiprocessing\n"
            "from zfalpha.graphs import petersen_graph, prism_graph\n"
            "from zfalpha.harness import RunConfig, verify_batch\n"
            "verify_batch([petersen_graph(), prism_graph()],"
            " RunConfig(workers=2))\n"
            "print(*(p.pid for p in multiprocessing.active_children()))\n")
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=src))
    assert done.returncode == 0, done.stderr
    pids = [int(pid) for pid in done.stdout.split()]
    assert len(pids) == 2
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


# SHA-256 of the certificate file, and of the CSV summary, for every connected
# cubic graph on 4..12 vertices; any change to a certificate, its witness, a
# column or the order shows here
SWEEP_DIGEST = "9b46b046bda5eddd95d2305f5429fe7b8b1ea56935cd8db4d7435124d5c0798a"
SWEEP_CSV_DIGEST = "dab0fdff97535ffa3ab05fc4ef92c8b2a143baef58bf422f5cced727720b2280"


def test_sweep_certificates_match_golden_digest(tmp_path):
    out, csv = tmp_path / "sweep.jsonl", tmp_path / "sweep.csv"
    graphs = [g for n in range(4, 13, 2) for g in cubic_graphs(n)]
    verify_batch(graphs, RunConfig(), out_path=str(out), csv_path=str(csv))
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SWEEP_DIGEST
    assert hashlib.sha256(csv.read_bytes()).hexdigest() == SWEEP_CSV_DIGEST


def test_trace_examples():
    assert trace_forcing(path_graph(3), 0b001) == "0→1, 1→2"
    assert trace_forcing(complete_graph(4), 0b0111) == "0→3"
    stall = trace_forcing(cycle_graph(4), 0b0001)
    assert stall.startswith("stalled") and "{0}" in stall
    dot = trace_forcing(path_graph(3), 0b001, dot=True)
    assert dot.startswith("graph forcing {") and "0 -- 1" in dot


# ---------------------------------------------------------------------------
# CLI


def test_cli_compute(capsys):
    rc = main(["compute", write_graph6(petersen_graph()).decode("ascii"),
               "--z", "--alpha"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "Z = 5" in out and "alpha = 4" in out


def test_cli_compute_file_with_comments(tmp_path, capsys):
    path = tmp_path / "graphs.g6"
    path.write_text("# a comment line\n\nC~\nBg\n")
    rc = main(["compute", str(path), "--z"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("Z =") == 2


def test_cli_verify_exit_codes(tmp_path, capsys):
    out = tmp_path / "certs.jsonl"
    rc = main(["verify", "--enumerate-n", "6", "--out", str(out)])
    text = capsys.readouterr().out
    assert rc == 0
    assert "violations: 0" in text
    assert "upper-embeddable fraction" in text
    assert out.exists()

    rc = main(["verify", "--enumerate-n", "4", "--budget-secs", "nan"])
    assert rc == 2
    assert "budget_secs" in capsys.readouterr().err


def test_cli_construct_and_trace(capsys):
    rc = main(["construct", "--gt", "4"])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    built = parse_graph6([ln for ln in out if not ln.startswith("#")][0])
    assert built.n == 16

    rc = main(["trace", "Bg", "--blue", "0"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "0→1, 1→2"

    rc = main(["trace", "Bg", "--blue", "0", "--dot"])
    assert rc == 0
    assert "graph forcing {" in capsys.readouterr().out


def test_cli_trace_names_a_bad_blue_vertex(capsys):
    # a token that is not a vertex of the graph names the option and itself
    for blue, token in (("0,", "''"), ("a", "'a'"), ("0,3", "'3'"),
                        ("-1", "'-1'"), ("1.0", "'1.0'")):
        assert main(["trace", "Bg", "--blue", blue]) == 2, blue
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: --blue: {token} is not a vertex "
                                "number below 3\n"), blue
    assert main(["trace", "Bg", "--blue", " 2, 0"]) == 0
    assert capsys.readouterr().out.strip() == "0→1"  # spaces are allowed


def test_cli_gadget_requires_input(capsys):
    rc = main(["construct", "--gadget", "g2"])
    assert rc == 2


def test_cli_gadget_vertex_out_of_range(capsys):
    for vertex in ("3", "-1"):  # Bg is the path on 3 vertices
        rc = main(["construct", "--gadget", "g1", "--input", "Bg",
                   "--vertex", vertex])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert f"vertex {vertex} is not in the graph" in captured.err


def test_cli_bad_graph6(capsys):
    rc = main(["compute", "/nonexistent/file.g6"])
    assert rc == 2


def test_cli_malformed_line_names_file_and_line(tmp_path, capsys):
    path = tmp_path / "graphs.g6"
    path.write_text("# a comment line\nBg\nbad!\n")
    rc = main(["compute", str(path), "--z"])
    assert rc == 2
    assert f"error: {path}:3: " in capsys.readouterr().err


def test_cli_input_errors_exit_2(tmp_path, capsys):
    # a bad graph6 input is an input error: exit 2 with one ``error:`` line,
    # never a traceback or the exit 1 that means a bound was violated
    valid = tmp_path / "grafos_é.g6"
    valid.write_text(write_graph6(petersen_graph()).decode("ascii") + "\n")
    header_only = tmp_path / "header.g6"
    header_only.write_text("Bg\n>>graph6<<\n")
    accented = tmp_path / "accented.g6"
    accented.write_text("Bg\nCé\n", encoding="utf-8")
    latin1 = tmp_path / "latin1.g6"  # 0xe9 alone is not UTF-8
    latin1.write_bytes(b"Bg\nC\xe9\n")
    # each bad source with what compute and verify report for it; a literal
    # that is not graph6 is tried as a file name
    bad = {">>graph6<<": "cannot read", "Cé": "cannot read",
           "C": "cannot read", "C~~": "cannot read", "!~": "cannot read",
           str(header_only): f"{header_only}:2: empty graph6 record",
           str(accented): f"{accented}:2: non-ASCII",
           str(latin1): f"{latin1}:2: non-ASCII"}
    for command in (["compute"], ["verify", "--input"], ["trace"]):
        for source, message in bad.items():
            rc = main([*command, source])
            err = capsys.readouterr().err
            assert rc == 2, (command, source)
            assert err.startswith("error: ") and err.count("\n") == 1, err
            if command != ["trace"]:
                assert message in err, (command, source, err)
        rc = main([*command, str(valid)])
        capsys.readouterr()
        assert rc == (2 if command == ["trace"] else 0), command
    assert main(["trace", ">>graph6<<"]) == 2
    assert capsys.readouterr().err == "error: empty graph6 record\n"


def test_cli_unwritable_output(tmp_path, capsys, monkeypatch):
    # the output paths are checked before any graph is enumerated or verified
    calls = []

    def counted(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper

    for module, name in ((cli, "enumerate_connected_cubic"),
                         (harness, "verify_graph")):
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    missing = tmp_path / "missing"
    for flag in ("--out", "--csv"):
        rc = main(["verify", "--enumerate-n", "4", flag,
                   str(missing / "certs")])
        assert rc == 2
        assert "error: " in capsys.readouterr().err
    assert calls == []


def test_cli_bad_options_fail_before_any_work(tmp_path, capsys, monkeypatch):
    def refuse(n):
        raise AssertionError("graphs were enumerated")

    monkeypatch.setattr(cli, "enumerate_connected_cubic", refuse)
    out, csv = tmp_path / "certs.jsonl", tmp_path / "certs.csv"
    for flags in (["--enumerate-n", "12", "--workers", "0"],
                  ["--enumerate-n", "12", "--budget-secs", "nan"],
                  ["--enumerate-n", "16"], ["--enumerate-n", "7"]):
        rc = main(["verify", "--out", str(out), "--csv", str(csv), *flags])
        assert rc == 2
        assert "error: " in capsys.readouterr().err
        assert not out.exists() and not csv.exists()


def test_cli_usage_error():
    with pytest.raises(SystemExit) as info:
        main(["verify"])  # missing required source
    assert info.value.code == 2


# ---------------------------------------------------------------------------
# benchmark hooks


def _bench_tracing(monkeypatch):
    bench = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "bench")
    monkeypatch.syspath_prepend(bench)
    return importlib.import_module("tracing")


def test_bench_hooked_names_exist(monkeypatch):
    # bench/tracing.py rebinds these imported names; a refactor that drops one
    # would crash every traced benchmark run
    tracing = _bench_tracing(monkeypatch)
    for module, name, _ in tracing.SPAN_HOOKS + tracing.COUNT_HOOKS:
        assert hasattr(module, name), (module.__name__, name)


def test_traced_batch_matches_untraced(tmp_path, monkeypatch):
    # the tracer's file proxy has only write, __enter__ and __exit__, and its
    # spans come from the module globals it rebinds, so a harness that calls
    # another file method, or gadgets that stop calling a hooked name, show here
    tracing = _bench_tracing(monkeypatch)
    graphs = [g for n in (4, 6, 8) for g in cubic_graphs(n)]

    def run(name):
        out, csv = tmp_path / f"{name}.jsonl", tmp_path / f"{name}.csv"
        verify_batch(graphs, out_path=str(out), csv_path=str(csv))
        return out.read_bytes(), csv.read_bytes()

    plain = run("plain")
    with tracing.installed(tracing.Tracer()) as tracer:
        assert run("traced") == plain
        gadgets.check_tight_family(generate_31_trees(4)[0])
    names = {sid: name for sid, name, *_ in tracer.spans}
    assert ("gadgets.build_tight_graph", "gadgets.check_tight_family") in {
        (name, names.get(parent)) for _, name, _, _, parent, _ in tracer.spans}
