"""Tests of the benchmark itself: its manifest, its checks and its span
file.  Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py

The span tests make one short traced run per workload (about 20 s each).
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import spec  # noqa: E402
from tracing import OPERATION, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    ForestBelief,
    agree,
    blanket_posterior,
    enumerate_probability,
    markov_blanket,
    perturbed,
    unit_query,
)

from cnfbelief import CnfFormula, engine, gen_network, gen_query, graphs, transforms  # noqa: E402

SEED = 3
# operations per round, and how many of them fail (the fixed underflow probe)
BATCH = {"forest-belief": (4, 1), "wide-tables": (12, 0), "det-propagation": (16, 0)}
# share of operation time that no layer span may leave uncovered
UNACCOUNTED_SHARE = 0.05


def test_manifest_is_current():
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == spec.manifest()
    assert list(WORKLOADS) == list(spec.WORKLOADS)


def test_closed_form_matches_enumeration():
    net = gen_network(12, 3, 0.0, 5)
    rng = random.Random(1)
    for var in (0, 5, 11):
        blanket = markov_blanket(net, var)
        observed = {u: rng.randrange(2) for u in blanket}
        evidence = CnfFormula([c for u, b in observed.items() for c in unit_query(u, b == 1).clauses])
        joint = [enumerate_probability(net, evidence.conjoin(unit_query(var, b))) for b in (False, True)]
        want = (joint[0] / sum(joint), joint[1] / sum(joint))
        got = blanket_posterior(net, var, observed)
        assert all(agree(w, g) for w, g in zip(want, got))


def test_checks_flag_a_perturbed_result():
    wl = ForestBelief()
    net = gen_network(40, 2, 0.0, 2)
    op = wl._query(net, random.Random(0), "t", k=(5, 10))
    assert wl.judge(op, op.expected) is None
    assert wl.judge(op, (perturbed(op.expected[0]), op.expected[1])) == "wrong"
    assert wl.judge(op, None) == "undefined"
    small = gen_network(10, 4, 0.0, 1)
    p = enumerate_probability(small, gen_query(small, 3, 1, 2))
    assert agree(p, p) and not agree(p, perturbed(p)) and not agree(0.0, perturbed(0.0))


def test_tracer_times_the_programs_own_calls_and_restores_them():
    originals = (transforms.evaluate, transforms.belief_given_cnf, engine._execute,
                 engine.min_degree_order, graphs.min_degree_order)
    net = gen_network(30, 2, 0.0, 1)
    phi = gen_query(net, 0, 5, 2)
    var = min(set(range(net.n)) - phi.variables())
    tr = Tracer()
    with tr.installed(), tr.operation("t"):
        traced = transforms.belief_given_cnf(net, phi, var)
    assert (transforms.evaluate, transforms.belief_given_cnf, engine._execute,
            engine.min_degree_order, graphs.min_degree_order) == originals
    assert traced == transforms.belief_given_cnf(net, phi, var)
    names = [s["name"] for s in tr.spans]
    assert names.count("transforms.belief_given_cnf") == 1
    for name in ("transforms.evaluate", "engine.execute", "graphs.augmented_graph",
                 "graphs.min_degree_order", "engine.eliminate"):
        assert names.count(name) == 2, name
    assert tr.counts[0]["engine.buckets_summed"] + tr.counts[0]["engine.buckets_observed"] > 0


def test_launcher_refuses_a_tree_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "wide-tables",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.fixture(scope="module", params=list(spec.WORKLOADS))
def traced_run(request):
    name = request.param
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", name, "--seed",
                           str(SEED), "--seconds", "1", "--trace", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    path = HERE / "out" / f"spans-{name}-seed{SEED}.jsonl"
    spans = [json.loads(line) for line in path.read_text().splitlines()]
    return name, result, spans


def test_result_line(traced_run):
    name, result, _ = traced_run
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"]
    assert set(result["metrics"]) == {n for n, _, _ in spec.PER_LAYER}
    # a fixed number of rounds: untraced and traced pairs, plus the
    # tracemalloc round; only the underflow probe fails, once per round
    rounds = 2 * spec.traced_pairs(name, 1) + 1
    ops, failing = BATCH[name]
    assert (result["attempted"], result["failed"]) == (rounds * ops, rounds * failing)


def test_spans_nest(traced_run):
    _, _, spans = traced_run
    by_id = {s["id"]: s for s in spans}
    assert len(by_id) == len(spans)
    for s in spans:
        assert s["start"] <= s["end"]
        if s["parent"] is None:
            assert s["name"] == OPERATION
            continue
        parent = by_id[s["parent"]]
        assert parent["op"] == s["op"] and parent["round"] == s["round"]
        assert parent["start"] <= s["start"] and s["end"] <= parent["end"]
    # siblings do not overlap
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)
    for group in children.values():
        group.sort(key=lambda s: s["start"])
        for a, b in zip(group, group[1:]):
            assert a["end"] <= b["start"]


def test_unaccounted_time_is_small(traced_run):
    _, result, spans = traced_run
    ops = [s for s in spans if s["name"] == OPERATION]
    per_round = len({s["round"] for s in ops})
    op_time = sum(s["end"] - s["start"] for s in ops) / per_round
    assert result["metrics"]["unaccounted_s"]["value"] <= UNACCOUNTED_SHARE * op_time
