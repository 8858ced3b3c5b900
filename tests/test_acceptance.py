"""End-to-end acceptance checks.

Each test records one line, ``ACCEPTANCE <k> (<label>): PASS|FAIL``,
echoed in the terminal summary after the run (and printed immediately
when capture is off).  The randomized suites are seeded and therefore
reproducible.
"""

import csv
import json
import math
import random
import statistics
import sys
from contextlib import contextmanager
from functools import lru_cache
from time import perf_counter

from cnfbelief import (
    CnfFormula,
    EngineConfig,
    Ordering,
    belief_given_cnf,
    brute_force_cpe,
    conditional_cnf_probability,
    elim_cpe,
    elim_cpe_d,
    elim_hidden,
    evaluate,
    extract_clauses,
    gen_network,
    gen_query,
    run_trace,
)
from cnfbelief.cli import BENCH_COLUMNS, run_cli

import conftest
from conftest import clause, close_enough, formula


def _report(number: int, label: str, verdict: str) -> None:
    line = f"ACCEPTANCE {number} ({label}): {verdict}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line, file=sys.__stderr__, flush=True)


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        _report(number, label, "FAIL")
        raise
    _report(number, label, "PASS")


@lru_cache(maxsize=1)
def suite_one():
    """200 seeded instances spanning positive, mixed, and deterministic
    networks with clause and observation queries of varying size."""
    instances = []
    for k in range(200):
        rng = random.Random(1000 + k)
        n = rng.randint(4, 12)
        f = rng.randint(2, 4)
        d = rng.choice([0.0, 0.5, 0.9])
        c = rng.randint(0, 6)
        e = rng.randint(0, 3)
        net = gen_network(n, f, d, seed=2000 + k)
        phi = gen_query(net, c, e, seed=3000 + k)
        instances.append((k, c, net, phi))
    return tuple(instances)


def test_criterion_1_oracle_equivalence():
    with criterion(1, "oracle equivalence on 200 instances"):
        runners = [
            ("cpe(0)", lambda net, phi: elim_cpe(net, phi)[0]),
            ("cpe(2)", lambda net, phi: elim_cpe(net, phi, cfg=EngineConfig(i_bound=2))[0]),
            ("cpe(unbounded)",
             lambda net, phi: elim_cpe(net, phi, cfg=EngineConfig(i_bound=None))[0]),
            ("cpe-d", lambda net, phi: elim_cpe_d(net, phi)[0]),
            ("hidden", lambda net, phi: elim_hidden(net, phi)[0]),
        ]
        started = perf_counter()
        failures = []
        for k, _, net, phi in suite_one():
            want = brute_force_cpe(net, phi)
            for name, runner in runners:
                got = runner(net, phi)
                if not close_enough(got, want):
                    failures.append((k, name, want, got))
        elapsed = perf_counter() - started
        assert not failures, failures[:5]
        assert elapsed < 60.0, f"suite took {elapsed:.1f}s"


def test_criterion_2_trace_scopes(pos_net, phi42, d1):
    with criterion(2, "six-variable example trace scopes"):
        _, _, trace = run_trace(pos_net, phi42, ordering=d1)
        assert [t.bucket for t in trace] == [5, 4, 3, 1, 2, 0]
        assert [t.scope for t in trace] == [
            (4, 3),      # lambda over F,D
            (1, 2, 3),   # lambda over B,C,D
            (0, 1, 2),   # lambda over A,B,C
            (0, 2),      # lambda over A,C
            (0,),        # lambda over A
            (),          # final scalar
        ]
        assert all(t.action == "sum" for t in trace)


def test_criterion_3_unit_propagation_shrinks_tables(hyb_net, query_not_g, d1):
    with criterion(3, "derived units shrink the hybrid run"):
        prob_d, stats_d, trace = run_trace(
            hyb_net, query_not_g.conjoin(extract_clauses(hyb_net)), ordering=d1)
        derived = {c for t in trace for c in t.derived}
        assert clause(-5) in derived    # not F
        assert clause(-4) in derived    # not D
        assert stats_d.derived_units >= 2
        assert stats_d.mf == 2
        prob, stats = elim_cpe(hyb_net, query_not_g, ordering=d1)
        assert stats.mf == 3
        assert close_enough(prob_d, prob)
        assert close_enough(prob, 0.35395)


def test_criterion_4_faster_than_hidden_embedding():
    with criterion(4, "clause propagation beats hidden embedding"):
        cpe_times, hidden_times, units = [], [], []
        for k in range(50):
            net = gen_network(n=30, f=4, d=0.0, seed=5000 + k)
            phi = gen_query(net, c=30, e=9, seed=6000 + k)
            p_cpe, s_cpe = elim_cpe(net, phi)
            p_hid, s_hid = elim_hidden(net, phi)
            assert close_enough(p_cpe, p_hid), k
            cpe_times.append(s_cpe.elapsed)
            hidden_times.append(s_hid.elapsed)
            units.append(s_cpe.derived_units)
        assert statistics.median(cpe_times) <= statistics.median(hidden_times), (
            statistics.median(cpe_times), statistics.median(hidden_times))
        assert statistics.mean(units) >= 1.0, statistics.mean(units)


def test_criterion_5_extraction_pays_on_deterministic_networks():
    with criterion(5, "extraction shrinks tables on deterministic networks"):
        mf_d, mf_plain, extracted = [], [], []
        for k in range(50):
            net = gen_network(n=30, f=4, d=0.75, seed=7000 + k)
            phi = gen_query(net, c=0, e=6, seed=8000 + k)
            p_d, s_d = elim_cpe_d(net, phi)
            p, s = elim_cpe(net, phi)
            assert close_enough(p_d, p), k
            mf_d.append(s_d.mf)
            mf_plain.append(s.mf)
            extracted.append(s_d.extracted)
        assert statistics.median(mf_d) < statistics.median(mf_plain), (
            statistics.median(mf_d), statistics.median(mf_plain))
        assert statistics.mean(extracted) > 0.0


def test_criterion_6_extracted_clauses_are_certain():
    with criterion(6, "extracted clauses hold with probability 1"):
        for k, _, net, _ in suite_one():
            for one in extract_clauses(net).clauses:
                p = brute_force_cpe(net, CnfFormula([one]))
                assert abs(p - 1.0) <= 1e-12, (k, str(one), p)


def test_criterion_7_width_bounds_table_sizes():
    with criterion(7, "mf bounded by the static induced width"):
        cfg = EngineConfig(dynamic_reorder=False)
        for k, c, net, _ in suite_one():
            phi = gen_query(net, c=c, e=0, seed=3000 + k)
            _, stats = elim_cpe(net, phi, cfg=cfg)
            assert stats.mf <= stats.width_static, (
                k, stats.mf, stats.width_static)


def test_criterion_8_cli_determinism(tmp_path):
    with criterion(8, "generator and benchmark are seed-deterministic"):
        gen_args = ["gen", "--vars", "9", "--max-family", "3", "--det-frac",
                    "0.5", "--clauses", "3", "--obs", "2", "--seed", "17",
                    "--out-prefix"]
        assert run_cli(gen_args + [str(tmp_path / "a")]) == 0
        assert run_cli(gen_args + [str(tmp_path / "b")]) == 0
        assert (tmp_path / "a.net").read_bytes() == (tmp_path / "b.net").read_bytes()
        assert (tmp_path / "a.cnf").read_bytes() == (tmp_path / "b.cnf").read_bytes()

        spec = {
            "batches": [{"name": "acc", "n": 6, "f": 3, "d": 0.5, "c": 2,
                         "e": 1, "seeds": [11, 12, 13]}],
            "algorithms": [{"alg": "cpe"}, {"alg": "cpe-d", "i_bound": 2},
                           {"alg": "hidden"}, {"alg": "brute"}],
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        tables = []
        for name in ("one.csv", "two.csv"):
            out = tmp_path / name
            assert run_cli(["bench", "--spec", str(spec_path),
                            "--csv", str(out)]) == 0
            with open(out, newline="") as handle:
                tables.append(list(csv.reader(handle)))
        drop = BENCH_COLUMNS.index("time_s")
        stripped = [[row[:drop] + row[drop + 1:] for row in table]
                    for table in tables]
        assert stripped[0] == stripped[1]
        assert tables[0][0] == BENCH_COLUMNS


def test_criterion_9_point_values(net2):
    with criterion(9, "two-node fixture point values"):
        a_or_b = formula(clause(1, 2))
        for alg in ("cpe", "cpe-d", "hidden", "brute"):
            p, _ = evaluate(net2, a_or_b, alg)
            assert close_enough(p, 0.68), alg
            dist = belief_given_cnf(net2, a_or_b, 0, alg=alg)
            assert dist is not None
            assert math.isclose(dist[1], 0.882353, abs_tol=1e-6), (alg, dist)
            cond = conditional_cnf_probability(
                net2, formula(clause(2)), formula(clause(1)), alg=alg)
            assert close_enough(cond, 0.9), alg
