"""The benchmark's own output checks, run where a wrong exact Z would show:
every ``tight_family`` input of seeds 0-9, and the ``random_cubic`` inputs
that have a bridge (Z = alpha + 1 on some of them, so an overestimate turns
``z_le_alpha_plus_1`` into a violation).  The benchmark also fails a run
whose passes give different output, so the bridge program's block memo,
which later passes read warm, must give the same reports as a cold one.

``bench/workloads.py`` and ``bench/checks.py`` are imported read-only, as
``test_harness`` imports ``bench/tracing.py``.
"""

import hashlib
import importlib
import json
import os

import pytest

from zfalpha import forcing, gadgets
from zfalpha.graphs import bridges, parse_graph6
from zfalpha.harness import verify_graph

from oracles import bridged_random_cubic

HERE = os.path.dirname(os.path.abspath(__file__))

# (seed, index) of five bridged random_cubic inputs; seed 2's #4 is tight
# (Z = 8 = alpha + 1), and seed 8 also holds two known-defect graphs
BRIDGED = ((1, 2), (1, 11), (2, 4), (2, 10), (8, 14))
# SHA-256 of their certificates' to_json lines, one per line, computed with
# the wavefront alone as exact Z: no certificate field reads Z's witness, so
# the bridge-tree program must leave every byte as it was
BRIDGED_CERT_DIGEST = (
    "2b99566150ce01872bb06bfa157dc2b8158f0c44cd9ad67372f2d738aad1fc38")


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(HERE), "bench"))
    return importlib.import_module("workloads"), importlib.import_module("checks")


def test_tight_family_passes_the_benchmark_check(bench, tmp_path):
    workloads, checks = bench
    for seed in range(10):
        items = workloads.TightFamily().setup(seed, str(tmp_path))["items"]
        assert len(items) == 66
        for label, n, t in items:
            report = gadgets.check_tight_family(t)
            gt = gadgets.build_tight_graph(t).result
            assert checks.check_tight(n, gt, report) == [], (seed, label)


def test_bridged_random_cubic_certificates_are_unchanged(bench, tmp_path):
    workloads, checks = bench
    listed = {(seed, index): g for seed, index, g in bridged_random_cubic()}
    h = hashlib.sha256()
    for seed in sorted({seed for seed, _ in BRIDGED}):
        path = workloads.RandomCubic().setup(seed, str(tmp_path))["path"]
        with open(path, "rb") as fh:
            drawn = [parse_graph6(ln) for ln in fh.read().split()]
        for index in [i for s, i in BRIDGED if s == seed]:
            g = drawn[index]
            assert bridges(g) and listed[seed, index] == g, (seed, index)
            cert = verify_graph(g)
            assert checks.check_certificate(cert, g, exact_z=False) == []
            h.update(cert.to_json().encode() + b"\n")
    assert h.hexdigest() == BRIDGED_CERT_DIGEST


def test_block_memo_gives_the_same_reports_cold_warm_and_reversed(bench, tmp_path):
    # the benchmark fails a run whose passes disagree, and every pass after
    # the first reads block solutions that earlier passes left in the memo:
    # an entry that is not a function of its key would show here as reports
    # that depend on what ran before
    workloads, checks = bench
    for seed in range(20):
        items = workloads.TightFamily().setup(seed, str(tmp_path))["items"]
        forcing._block_memo.clear()
        cold = [gadgets.check_tight_family(t) for _, _, t in items]
        warm = [gadgets.check_tight_family(t) for _, _, t in items]
        backwards = [gadgets.check_tight_family(t) for _, _, t in items[::-1]]
        assert cold == warm == backwards[::-1], seed
        for (label, n, t), report in zip(items, cold):
            gt = gadgets.build_tight_graph(t).result
            assert checks.check_tight(n, gt, report) == [], (seed, label)
    drawn = [g for _, _, g in bridged_random_cubic()]
    cold = []
    for g in drawn:
        forcing._block_memo.clear()
        cold.append((forcing.zero_forcing_number(g), verify_graph(g).to_json()))
    assert cold == [(forcing.zero_forcing_number(g), verify_graph(g).to_json())
                    for g in drawn]
    for g, ((z, _), line) in zip(drawn, cold):
        assert z == json.loads(line)["z"] == forcing._wavefront(g).bit_count()
