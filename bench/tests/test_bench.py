"""Tests of the benchmark itself, at the smallest sizes.

Run from the repository root:  python3 -m pytest bench/tests -q
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from zfalpha import RunConfig, harness, parse_graph6, petersen_graph  # noqa: E402


def small(name):
    return {"cubic_sweep": workloads.CubicSweep(ns=(4, 6, 8)),
            "tight_family": workloads.TightFamily(relabelings=((4, 2), (6, 2))),
            "random_cubic": workloads.RandomCubic(sizes=((8, 3), (10, 3)),
                                                  workers=2)}[name]


def measure(wl, tmp_path, trace=0, seed=0):
    inputs = wl.setup(seed, str(tmp_path))
    return run.measure(wl, inputs, seed, 0, trace, [0.1])


def test_benchmark_json_matches_the_script():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS


@pytest.mark.parametrize("name", run.NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(name, trace, tmp_path):
    lines, result = measure(small(name), tmp_path, trace)
    units = run.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
    assert result["correct"] and result["failed"] == 0
    assert {k: m["unit"] for k, m in result["metrics"].items()} == units
    text = "\n".join(lines)
    for k, unit in units.items():
        assert f"{k} " in text and f" {unit}" in text
    for k in ("graphs_per_s", "graph_s.p50", "graph_s.tail", "fail_frac",
              "setup_s", "peak_rss_mb"):
        assert f"  {k} " in text
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


def test_traced_run_gets_spans_from_pool_workers(tmp_path):
    wl = small("random_cubic")
    _, result = measure(wl, tmp_path, trace=1)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    graphs = sum(count for _, count in wl.sizes)
    assert m["forcing.z.calls"] == graphs  # recorded only inside the workers
    assert m["independence.alpha.calls"] > graphs
    assert m["graphs.induced_subgraph.calls"] > 0
    assert 0 < m["harness.pool.efficiency"] <= 1
    with open(tmp_path / "spans.jsonl") as fh:
        spans = [json.loads(line) for line in fh]
    pids = {s["id"][0] for s in spans}
    assert len(pids) >= 2
    roots = [s for s in spans if s["name"] == "harness.verify_graph"]
    batch = {tuple(s["id"]) for s in spans if s["name"] == "harness.verify_batch"}
    assert roots and all(tuple(s["parent"]) in batch for s in roots)
    assert all(s["graph"] for s in roots)


def test_hooks_keep_the_deadline_and_uninstall():
    original = harness.zero_forcing_number
    with tracing.installed(tracing.Tracer()):
        cert = harness.verify_graph(petersen_graph(), RunConfig(budget_secs=1e-9))
    assert "zero_forcing" in cert.incomplete
    assert harness.zero_forcing_number is original
    assert "open" not in vars(harness)


class _Mutating:
    """Wraps a workload so each pass returns one mutated result."""

    def __init__(self, wl, mutate):
        self._wl, self._mutate = wl, mutate
        self.name = wl.name

    def setup(self, seed, outdir):
        return self._wl.setup(seed, outdir)

    def check(self, inputs, p):
        return self._wl.check(inputs, p)

    def run_pass(self, inputs, tracer):
        p = self._wl.run_pass(inputs, tracer)
        p.results = [self._mutate(r) if i == 1 else r
                     for i, r in enumerate(p.results)]
        return p


def _clear_witness_bit(cert):
    """Clear one witness bit that the witness needs in order to force."""
    adj = parse_graph6(cert.graph6).adj
    rows = list(cert.bounds)
    i, w = next((i, r.witness & ~(1 << v)) for i, r in enumerate(rows)
                for v in range(cert.n)
                if r.witness >> v & 1 and not checks.forces(adj, r.witness & ~(1 << v)))
    rows[i] = dataclasses.replace(rows[i], witness=w)
    return dataclasses.replace(cert, bounds=tuple(rows))


@pytest.mark.parametrize("name,mutate", [
    ("cubic_sweep", lambda c: dataclasses.replace(c, z=c.z + 1)),
    ("cubic_sweep", _clear_witness_bit),
    ("random_cubic", lambda c: dataclasses.replace(c, alpha=c.alpha - 1)),
    ("random_cubic", _clear_witness_bit),
    ("tight_family", lambda r: dataclasses.replace(r, witness=r.witness & (r.witness - 1))),
    ("tight_family", lambda r: dataclasses.replace(r, bound_value=r.bound_value + 1)),
])
def test_a_mutated_result_counts_in_fail_frac(name, mutate, tmp_path):
    lines, result = measure(_Mutating(small(name), mutate), tmp_path)
    assert not result["correct"]
    assert result["failed"] == 1  # one mutated graph in the single pass
    assert result["metrics"]["ok_frac"]["value"] == 1 - 1 / result["attempted"]
    assert any(line.startswith("  FAILED: ") for line in lines)


KNOWN = "degree_alpha: violated bound, witness does not force"


def test_known_defect_counts_as_failed_but_keeps_correct():
    g = parse_graph6("K}GWOKA?O@_F")
    assert checks.check_certificate(harness.verify_graph(g), g, exact_z=True) == [KNOWN]
    assert checks.is_known([KNOWN])
    assert not checks.is_known([KNOWN, "z=5, re-check says 4"])
    assert not checks.is_known(["degree_alpha: violated bound"])
    assert not checks.is_known(["degree_alpha: holds=True, re-check says False"])
    assert not checks.is_known([])


def test_known_defect_shows_on_a_random_cubic_graph():
    # graph 22 of random_cubic's inputs for seed 84815620
    from zfalpha.bounds import degree_alpha_construction
    g = parse_graph6("SD??G?A?eO@?I?OGU??AaOO_CC?GGGB_?")
    row = degree_alpha_construction(g)
    alpha = checks.independence_number(g.adj)
    claws = checks.claw_center_count(g.adj)
    assert checks._row_problems(row, 0, alpha, g.adj, claws) == [KNOWN]


@pytest.mark.parametrize("name", ["tight_family", "random_cubic"])
def test_seeds_give_identical_or_different_inputs(name, tmp_path):
    wl = small(name)

    def inputs(seed, sub):
        d = tmp_path / sub
        d.mkdir()
        got = wl.setup(seed, str(d))
        return wl.digest(got), got

    a, first = inputs(7, "a")
    b, _ = inputs(7, "b")
    c, _ = inputs(8, "c")
    assert a == b != c
    if name == "random_cubic":
        assert (tmp_path / "a" / "input.g6").read_bytes() == \
            (tmp_path / "b" / "input.g6").read_bytes()
        with open(first["path"]) as fh:
            lines = fh.read().split()
        from zfalpha import is_connected
        for line in lines:
            g = parse_graph6(line)
            assert is_connected(g) and all(g.degree(v) == 3 for v in range(g.n))


def test_cubic_sweep_inputs_ignore_the_seed(tmp_path):
    wl = small("cubic_sweep")
    assert wl.digest(wl.setup(1, str(tmp_path))) == wl.digest(wl.setup(2, str(tmp_path)))


def test_tail_rank_leaves_ten_samples_beyond():
    assert run.tail_rank(112) == (91, 102)
    assert run.tail_rank(40) == (75, 30)
    assert run.tail_rank(48) == (79, 38)
    assert run.tail_rank(66) == (84, 56)
    assert run.tail_rank(5) == (50, 3)


def test_independent_checks_agree_with_known_values():
    from zfalpha import complete_graph, cycle_graph
    assert checks.independence_number(petersen_graph().adj) == 4
    assert checks.zero_forcing_number(petersen_graph().adj) == 5
    assert checks.zero_forcing_number(complete_graph(4).adj) == 3
    assert checks.independence_number(cycle_graph(7).adj) == 3
    assert checks.claw_center_count(petersen_graph().adj) == 10


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cubic_sweep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
