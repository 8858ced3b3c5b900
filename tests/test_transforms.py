import itertools
import math
import random
from typing import Optional

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cnfbelief import (
    BeliefNetwork,
    Clause,
    CnfFormula,
    Cpt,
    EngineConfig,
    Literal,
    ModelError,
    Ordering,
    TraceEntry,
    augmented_graph,
    belief_given_cnf,
    brute_force_cpe,
    close_enough,
    conditional_cnf_probability,
    elim_cpe,
    elim_cpe_d,
    elim_hidden,
    evaluate,
    extract_clauses,
    hidden_embed,
    run_trace,
)
from cnfbelief import engine, transforms
from cnfbelief.cli import run_cli
from cnfbelief.fileio import parse_dimacs, parse_network, serialize_network
from cnfbelief.generator import gen_network, gen_query
from cnfbelief.model import EXTRACTED
from cnfbelief.transforms import ALGORITHMS

from conftest import A, B, C, D, F, clause, formula
from test_golden_runs import CONFIGS as GOLDEN_CONFIGS


def reference_primes(cpt):
    """One CPT's prime implicants by the definition, child 1 first, each
    in (size, positions, values) order: a cube implies when every row it
    covers equals the child value exactly, and is prime when dropping no
    one fixed parent still implies."""
    k, rows = len(cpt.parents), cpt.table
    want = []
    for child_value in (1, 0):
        def implies(fixed):
            return all(rows[r] == child_value for r in range(1 << k)
                       if all((r >> (k - 1 - p)) & 1 == v for p, v in fixed.items()))
        for size in range(k + 1):
            for positions in itertools.combinations(range(k), size):
                for values in itertools.product((0, 1), repeat=size):
                    fixed = dict(zip(positions, values))
                    if implies(fixed) and not any(
                            implies({q: w for q, w in fixed.items() if q != p})
                            for p in fixed):
                        want.append(Clause(
                            [Literal(cpt.parents[p], v == 0) for p, v in fixed.items()]
                            + [Literal(cpt.child, child_value == 1)]))
    return want


class TestExtractClauses:
    def test_positive_network_yields_nothing(self, pos_net):
        assert extract_clauses(pos_net).clauses == ()

    def test_hybrid_fixture(self, hyb_net):
        ext = extract_clauses(hyb_net)
        assert list(ext.clauses) == [
            clause(1, 3),        # A=0 forces C=1
            clause(-5, 6),       # F=1 forces G=1
            clause(-4, 6),       # D=1 forces G=1
            clause(4, 5, -6),    # F=0, D=0 force G=0
        ]
        assert set(ext.provenance) == {EXTRACTED}

    def test_or_gate_is_minimized(self):
        net = BeliefNetwork(3, (
            Cpt(0, (), (0.5,)),
            Cpt(1, (), (0.5,)),
            Cpt(2, (0, 1), (0.0, 1.0, 1.0, 1.0)),
        ))
        ext = extract_clauses(net)
        # two binary implications plus one full row, never four full rows
        assert set(ext.clauses) == {clause(-1, 3), clause(-2, 3), clause(1, 2, -3)}

    def test_xor_gate_has_no_short_implicants(self):
        net = BeliefNetwork(3, (
            Cpt(0, (), (0.5,)),
            Cpt(1, (), (0.5,)),
            Cpt(2, (0, 1), (0.0, 1.0, 1.0, 0.0)),
        ))
        ext = extract_clauses(net)
        assert set(ext.clauses) == {
            clause(1, -2, 3), clause(-1, 2, 3),
            clause(1, 2, -3), clause(-1, -2, -3),
        }

    def test_deterministic_root_gives_unit(self):
        net = BeliefNetwork(2, (Cpt(0, (), (1.0,)), Cpt(1, (0,), (0.3, 0.6))))
        assert list(extract_clauses(net).clauses) == [clause(1)]
        net0 = BeliefNetwork(1, (Cpt(0, (), (0.0,)),))
        assert list(extract_clauses(net0).clauses) == [clause(-1)]

    def test_near_deterministic_rows_do_not_count(self):
        # 1e-17 is not 0, though 1 - 1e-17 rounds to 1
        for prior in (1.0 - 1e-12, 1e-17):
            net = BeliefNetwork(1, (Cpt(0, (), (prior,)),))
            assert extract_clauses(net).clauses == (), prior

    def test_prime_implicants_of_random_tables(self):
        # parents are shuffled so positions are not variables
        rng = random.Random(6061)
        for trial in range(90):
            k = trial % 6
            parents = tuple(rng.sample(range(k), k))
            rows = tuple(rng.choice((0.0, 1.0, 0.5)) for _ in range(1 << k))
            net = BeliefNetwork(k + 1, tuple(Cpt(i, (), (0.5,)) for i in range(k))
                                + (Cpt(k, parents, rows),))
            want = reference_primes(net.cpts[k])
            assert list(extract_clauses(net).clauses) == want, (parents, rows)

    @pytest.mark.parametrize("cells", [None, 30])
    @pytest.mark.parametrize("d", [0.5, 0.9])
    @pytest.mark.parametrize("f", range(1, 7))
    def test_prime_implicants_across_whole_networks(self, f, d, cells, monkeypatch):
        # CPTs of every parent count 0..f-1, interleaved, in the order
        # asked; with 30 cells a pass stacks at most 30 // 3**k tables
        if cells is not None:
            monkeypatch.setattr(transforms, "_PASS_CELLS", cells)
        rng = random.Random(f * 10 + int(d * 10))
        for s in range(4):
            net = gen_network(40, f, d, 7100 + s)
            assert {len(cpt.parents) for cpt in net.cpts} == set(range(f))
            subsets = [None] + [rng.sample(range(net.n), rng.randrange(1, net.n + 1))
                                for _ in range(3)]
            for vs in subsets:
                want = [c for v in (net.variables() if vs is None else vs)
                        for c in reference_primes(net.cpts[v])]
                assert list(extract_clauses(net, vs).clauses) == want, (s, vs)

    def test_mixed_table_partial_extraction(self):
        # child forced only when the parent is 1
        net = BeliefNetwork(2, (Cpt(0, (), (0.5,)), Cpt(1, (0,), (0.4, 1.0))))
        assert list(extract_clauses(net).clauses) == [clause(-1, 2)]

    def test_copy_gates_extract_distinct_implications(self):
        net = BeliefNetwork(3, (
            Cpt(0, (), (0.5,)),
            Cpt(1, (0,), (0.0, 1.0)),   # B copies A
            Cpt(2, (0,), (0.0, 1.0)),   # C copies A too
        ))
        ext = extract_clauses(net)
        assert set(ext.clauses) == {
            clause(-1, 2), clause(1, -2), clause(-1, 3), clause(1, -3),
        }

    def test_extracted_clauses_hold_with_certainty(self):
        for k in range(12):
            net = gen_network(n=7, f=3, d=0.9, seed=8800 + k)
            for one in extract_clauses(net).clauses:
                p = brute_force_cpe(net, CnfFormula([one]))
                assert close_enough(p, 1.0), (k, str(one))


class TestElimCpeD:
    def test_matches_plain_cpe(self, hyb_net, query_not_g, d1):
        p_d, stats = elim_cpe_d(hyb_net, query_not_g, ordering=d1)
        p, _ = elim_cpe(hyb_net, query_not_g, ordering=d1)
        assert close_enough(p_d, p)
        assert close_enough(p_d, 0.35395)
        assert stats.extracted == 4

    def test_propagation_shrinks_tables(self, hyb_net, query_not_g, d1):
        # the paper's cpe-d inside the buckets: cpe on phi plus the
        # extracted clauses, with no pre-pass
        extended = query_not_g.conjoin(extract_clauses(hyb_net))
        _, with_clauses, _ = run_trace(hyb_net, extended, d1)
        _, plain = elim_cpe(hyb_net, query_not_g, ordering=d1)
        assert with_clauses.derived_clauses == 2
        assert with_clauses.mf == 2
        assert plain.mf == 3
        assert with_clauses.derived_units == 2
        assert with_clauses.observed == 3
        assert plain.observed == 1

    def test_no_extraction_means_no_change(self, pos_net, phi42):
        p_d, stats = elim_cpe_d(pos_net, phi42)
        p, _ = elim_cpe(pos_net, phi42)
        assert close_enough(p_d, p)
        assert stats.extracted == 0

    def test_randomized_agreement_with_oracle(self):
        for k in range(15):
            net = gen_network(n=6 + k % 4, f=3, d=0.7, seed=3300 + k)
            phi = gen_query(net, c=k % 3, e=k % 2, seed=4300 + k)
            want = brute_force_cpe(net, phi)
            got, _ = elim_cpe_d(net, phi)
            assert close_enough(got, want), k


class TestPropagatedRun:
    """cpe-d propagates units over phi and the extracted clauses, folds
    every CPT whose family that fixes into a constant, and runs the
    engine on what is left, along the default or a given ordering."""

    @staticmethod
    def chain():
        # A (0.3) -> B, which A = 1 forces to 1; B -> C and B -> D; E a root
        return BeliefNetwork(5, (
            Cpt(0, (), (0.3,)),
            Cpt(1, (0,), (0.2, 1.0)),
            Cpt(2, (1,), (0.25, 0.6)),
            Cpt(3, (1,), (0.1, 0.35)),
            Cpt(4, (), (0.45,)),
        ))

    def test_a_conflict_answers_zero_without_a_run(self, monkeypatch):
        net = self.chain()
        phi = formula(clause(1), clause(-2))
        runs = []
        monkeypatch.setattr(transforms, "_execute",
                            lambda *args: runs.append(args) or engine._execute(*args))
        p, stats = evaluate(net, phi, "cpe-d", EngineConfig(i_bound=2))
        assert p == 0.0 and stats.log_result == -math.inf
        assert brute_force_cpe(net, phi) == 0.0 and runs == []
        assert stats.trace == [] and stats.width_posthoc is None
        assert (stats.mf, stats.derived_clauses, stats.derived_units, stats.observed,
                stats.width_static, stats.entries_static) == (0, 0, 0, 0, 0, 0)
        # F counts the ancestral set's extracted clauses: B's one
        assert stats.extracted == 1 and stats.forced >= 1
        # cpe meets the same conflict inside its run
        assert evaluate(net, phi, "cpe")[0] == 0.0

    def test_a_forced_family_contributes_its_entry(self):
        net = self.chain()
        # A, then B by extraction, and C are forced: three constants,
        # 0.3 * 1.0 * 0.6; D's CPT and E's stay, with B's unit
        phi = formula(clause(1), clause(3), clause(4, 5))
        p, stats = evaluate(net, phi, "cpe-d")
        assert stats.forced == 3
        assert close_enough(p, brute_force_cpe(net, phi))
        assert close_enough(p, 0.3 * 0.6 * (1 - 0.65 * 0.55))
        assert [(e.bucket, e.action) for e in stats.trace][0] == (1, "observe")
        assert {e.bucket for e in stats.trace} == {1, 3, 4}
        # only A, B and C forced, nothing left: the constant alone
        p, stats = evaluate(net, formula(clause(1), clause(3)), "cpe-d")
        assert stats.trace == [] and stats.forced == 3
        assert math.isclose(stats.log_result, math.log(0.3) + math.log(0.6), rel_tol=1e-15)
        assert close_enough(p, brute_force_cpe(net, formula(clause(1), clause(3))))

    def test_a_forced_entry_of_zero_answers_zero(self):
        # P(B = 1 | A = 1) = 0: the extracted clause (not A or not B)
        # meets the conflict first, and without it the constant is -inf
        net = BeliefNetwork(3, (Cpt(0, (), (0.3,)), Cpt(1, (0,), (0.2, 0.0)),
                                Cpt(2, (1,), (0.5, 0.4))))
        phi = formula(clause(1), clause(2), clause(3, -1))
        sigma, variables, residual, constant = transforms._propagate(net, (0, 1, 2), phi)
        assert constant == -math.inf and variables == () and len(residual) == 0
        assert sigma == {0: True, 1: True, 2: True}
        p, stats = evaluate(net, phi, "cpe-d")
        assert p == 0.0 and stats.trace == [] and brute_force_cpe(net, phi) == 0.0

    def test_a_given_ordering_runs_the_residual(self):
        # along a given ordering the pre-pass runs too: the engine
        # eliminates only what propagation leaves, in the given order
        net = gen_network(10, 3, 0.9, 71)
        phi = gen_query(net, c=2, e=1, seed=72)
        order = [6, 8, 9, 7, 5, 3, 0, 4, 1, 2]
        cfg = EngineConfig(i_bound=2)
        _, stats = evaluate(net, phi, "cpe-d", cfg, order)
        kept = transforms._ancestral(net, phi)
        sigma, variables, _, _ = transforms._propagate(
            net, kept, phi.conjoin(extract_clauses(net, kept)))
        assert stats.forced == len(sigma) == 6
        # the unforced CPTs' buckets, and the forced variables they
        # mention, observed
        mentioned = {u for v in variables for u in net.family(v) if u in sigma}
        assert [e.format() for e in stats.trace] == [
            "bucket=0 action=observe scope= derived=",
            "bucket=5 action=sum scope= derived=",
        ]
        assert all(e.bucket in mentioned if e.action == "observe" else e.bucket in variables
                   for e in stats.trace)
        counters = {k: v for k, v in stats.as_dict().items() if k not in ("time_s", "result")}
        assert counters == {"mf": 1, "C": 0, "U": 0, "F": 10, "O": 1,
                            "width_static": 1, "width_posthoc": 0}
        assert stats.entries_static == 2
        assert math.isclose(stats.result, 0.45711294383311285, rel_tol=1e-12)
        assert math.isclose(stats.log_result, -0.782824776755685, rel_tol=1e-12)
        _, default = evaluate(net, phi, "cpe-d", cfg)
        assert default.forced == stats.forced and default.extracted == 10
        assert math.isclose(default.log_result, stats.log_result, rel_tol=1e-12)

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(n=st.integers(1, 12), f=st.integers(1, 4), c=st.integers(0, 4),
           e=st.integers(0, 4), seed=st.integers(0, 10 ** 6),
           shuffle=st.none() | st.integers(0, 10 ** 6))
    @example(n=12, f=4, c=4, e=2, seed=0, shuffle=None)  # P = 0
    @example(n=12, f=4, c=1, e=0, seed=0, shuffle=None)  # P = 1
    @example(n=12, f=4, c=1, e=0, seed=0, shuffle=1)  # P = 1 along a given ordering
    def test_matches_the_oracle_in_log_space(self, n, f, c, e, seed, shuffle):
        net = gen_network(n, f, 0.9, seed)
        phi = gen_query(net, c=c if n >= 3 else 0, e=min(e, n), seed=seed + 1)
        order = None
        if shuffle is not None:  # a given ordering: a permutation of 0..n-1
            order = list(range(n))
            random.Random(shuffle).shuffle(order)
        want = brute_force_cpe(net, phi)
        for bound in (0, 2, None):
            for reorder in (True, False):
                p, stats = evaluate(net, phi, "cpe-d", EngineConfig(bound, reorder), order)
                if want == 0.0:
                    assert p == 0.0 and stats.log_result == -math.inf, (bound, reorder)
                else:
                    assert math.isclose(stats.log_result, math.log(want),
                                        rel_tol=1e-9, abs_tol=1e-12), (bound, reorder)
                    assert close_enough(p, want)


class TestHiddenEmbed:
    def test_embedding_shape(self, net2):
        phi = formula(clause(1, 2), clause(-2))
        embedded, evidence = hidden_embed(net2, phi)
        assert embedded.n == 4
        assert embedded.cpts[2] == Cpt(2, (0, 1), (0.0, 1.0, 1.0, 1.0))
        assert embedded.cpts[3] == Cpt(3, (1,), (1.0, 0.0))
        assert evidence == [Literal(2, True), Literal(3, True)]

    def test_original_cpts_untouched(self, net2):
        embedded, _ = hidden_embed(net2, formula(clause(1)))
        assert embedded.cpts[:2] == net2.cpts

    def test_no_clauses_no_growth(self, net2):
        embedded, evidence = hidden_embed(net2, CnfFormula([]))
        assert embedded.n == 2
        assert evidence == []

    def test_embedding_preserves_probability(self):
        for k in range(8):
            net = gen_network(n=5, f=3, d=0.4, seed=6600 + k)
            phi = gen_query(net, c=2, e=1, seed=7600 + k)
            embedded, evidence = hidden_embed(net, phi)
            units = CnfFormula([Clause([lit]) for lit in evidence])
            want = brute_force_cpe(net, phi)
            got = brute_force_cpe(embedded, units)
            assert close_enough(got, want), k


class TestElimHidden:
    def test_two_node_value_and_stats(self, net2):
        p, stats = elim_hidden(net2, formula(clause(1, 2)))
        assert close_enough(p, 0.68)
        assert stats.derived_clauses == 0
        assert stats.derived_units == 0
        assert stats.extracted == 0
        assert stats.observed == 1
        assert stats.mf == 2
        assert stats.width_static == 2
        assert stats.width_posthoc == 1

    def test_fixture_queries(self, pos_net, phi42, hyb_net, query_not_g):
        p, _ = elim_hidden(pos_net, phi42)
        assert close_enough(p, 0.3811715)
        q, _ = elim_hidden(hyb_net, query_not_g)
        assert close_enough(q, 0.35395)

    def test_randomized_agreement_with_oracle(self):
        for k in range(15):
            net = gen_network(n=6, f=3, d=0.5, seed=5500 + k)
            phi = gen_query(net=net, c=2, e=1, seed=6500 + k)
            want = brute_force_cpe(net, phi)
            got, _ = elim_hidden(net, phi)
            assert close_enough(got, want), k


class TestEvaluate:
    def test_all_algorithms_agree(self, hyb_net, query_not_g):
        values = {}
        for alg in ALGORITHMS:
            p, _ = evaluate(hyb_net, query_not_g, alg)
            values[alg] = p
        for alg, p in values.items():
            assert close_enough(p, 0.35395), alg

    def test_brute_stats_are_minimal(self, net2):
        p, stats = evaluate(net2, formula(clause(1, 2)), "brute")
        assert close_enough(p, 0.68)
        assert stats.mf == 0
        assert stats.width_static is None

    def test_unknown_algorithm(self, net2):
        with pytest.raises(ValueError):
            evaluate(net2, CnfFormula([]), "magic")

    def test_stats_carry_the_trace(self, hyb_net, query_not_g, d1):
        cfg = EngineConfig(i_bound=2)
        # not G forces F and D to 0 and folds G's CPT; D and F are
        # observed, then the rest is summed along d1
        _, stats = evaluate(hyb_net, query_not_g, "cpe-d", cfg, d1)
        assert [(e.bucket, e.action) for e in stats.trace] == [
            (D, "observe"), (F, "observe"), (B, "sum"), (C, "sum"), (A, "sum")]
        _, stats = evaluate(hyb_net, query_not_g, "hidden", cfg)
        assert len(stats.trace) == hyb_net.n + len(query_not_g)
        assert evaluate(hyb_net, query_not_g, "brute")[1].trace == []

    def test_f_counts_the_extracted_clauses_under_every_algorithm(self):
        net = gen_network(10, 3, 0.9, 71)
        phi = gen_query(net, 2, 1, 72).conjoin(extract_clauses(net))
        assert len(set(c for c, tag in phi.items() if tag == EXTRACTED)) == 13
        for alg in ("cpe", "cpe-d", "hidden"):
            assert evaluate(net, phi, alg)[1].extracted == 13, alg
            assert transforms._pruned_run(net, phi, alg, None, var=0).extracted == 13, alg

    def test_f_survives_a_conflict_met_while_loading(self):
        # the golden set's k = 4: the engine's run meets the conflict
        # before it has filed every clause
        net = gen_network(10, 3, 0.5, 3004)
        phi = gen_query(net, c=4, e=4, seed=4004).conjoin(extract_clauses(net))
        prob, stats, trace = run_trace(net, phi)
        assert prob == 0.0 and trace == [] and stats.width_posthoc is None
        assert stats.extracted == len(set(c for c, tag in phi.items() if tag == EXTRACTED)) == 10

    def test_result_is_the_exp_of_log_result(self, net2):
        # the golden set's instances, plus two answered 0 before any engine
        # run: the empty clause, and a conflict that propagation finds
        cases = [(net2, CnfFormula([clause(1), Clause([])])),
                 (net2, formula(clause(1), clause(-1, 2), clause(-2)))]
        for k in range(60):
            net = gen_network(6 + k % 30, 2 + k % 3, (0, .5, .9)[k % 3], 3000 + k)
            cases.append((net, gen_query(net, c=k % 7, e=k % 5, seed=4000 + k)))
        for k, (net, phi) in enumerate(cases):
            for cfg in GOLDEN_CONFIGS:
                for alg in ("cpe", "cpe-d", "hidden"):
                    for stats in (evaluate(net, phi, alg, cfg)[1],
                                  transforms._pruned_run(net, phi, alg, cfg, var=k % net.n)):
                        assert stats.result == math.exp(stats.log_result), (k, cfg, alg)
        # cpe-d answers the conflict in propagation: no graph and no trace
        stats = evaluate(net2, cases[1][1], "cpe-d")[1]
        assert stats.width_static == 0 and stats.trace == [] and stats.result == 0.0

    def test_ordering_refused_where_it_cannot_apply(self, net2, d1):
        ordering = Ordering((0, 1))
        for alg in ("hidden", "brute"):
            with pytest.raises(ValueError, match="ordering"):
                evaluate(net2, formula(clause(1, 2)), alg, ordering=ordering)
        for alg in ("cpe", "cpe-d"):
            p, _ = evaluate(net2, formula(clause(1, 2)), alg, ordering=ordering)
            assert close_enough(p, 0.68)


def _ancestors_by_fixpoint(net: BeliefNetwork, phi: CnfFormula) -> list[int]:
    """phi's variables and all their ancestors, ascending, grown over
    every CPT until nothing changes."""
    kept = phi.variables()
    grown = True
    while grown:
        grown = False
        for cpt in net.cpts:
            if cpt.child in kept and not kept.issuperset(cpt.parents):
                kept.update(cpt.parents)
                grown = True
    return sorted(kept)


def _renumber(clause_: Clause, number) -> Clause:
    return Clause(Literal(number[l.var], l.positive) for l in clause_)


def _ancestral_instance(net: BeliefNetwork, phi: CnfFormula):
    """The ancestral sub-network, renumbered 0..m-1 in ascending order,
    phi over it, and the kept variables."""
    kept = _ancestors_by_fixpoint(net, phi)
    new = {v: i for i, v in enumerate(kept)}
    sub = BeliefNetwork(len(kept), tuple(
        Cpt(new[v], tuple(new[p] for p in net.cpts[v].parents), net.cpts[v].table)
        for v in kept))
    return sub, CnfFormula([_renumber(c, new) for c in phi.clauses], phi.provenance), kept


class TestRelevancePruning:
    """Every entry point runs cpe, cpe-d and hidden on the query's
    ancestral sub-network; brute_force_cpe sees the whole network."""

    def test_agreement_on_networks_with_barren_variables(self):
        with_barren = 0
        for k in range(24):
            net = gen_network(n=8 + k % 5, f=3, d=(0.0, 0.5, 0.9)[k % 3], seed=9100 + k)
            phi = gen_query(net, c=1 + k % 2, e=k % 2, seed=9200 + k)
            with_barren += len(_ancestors_by_fixpoint(net, phi)) < net.n
            want = brute_force_cpe(net, phi)
            for cfg in GOLDEN_CONFIGS:
                direct, _ = elim_cpe(net, phi, cfg=cfg)
                assert close_enough(direct, want), (k, cfg)
                for alg in ("cpe", "cpe-d", "hidden"):
                    got, _ = evaluate(net, phi, alg, cfg)
                    assert close_enough(got, want), (k, cfg, alg)
            var = (5 * k) % net.n
            psi = gen_query(net, c=1, e=1, seed=9300 + k)
            p_psi = brute_force_cpe(net, psi)
            for alg in ("cpe", "cpe-d", "hidden"):
                dist = belief_given_cnf(net, phi, var, alg)
                if want == 0.0:
                    assert dist is None, (k, alg)
                else:
                    p1 = brute_force_cpe(net, phi.conjoin(formula(clause(var + 1))))
                    assert close_enough(dist[1], p1 / want), (k, alg)
                cond = conditional_cnf_probability(net, phi, psi, alg)
                if p_psi == 0.0:
                    assert cond is None, (k, alg)
                else:
                    joint = brute_force_cpe(net, phi.conjoin(psi))
                    assert close_enough(cond, joint / p_psi), (k, alg)
        assert with_barren >= 20, with_barren

    def test_every_entry_point_is_evaluate(self):
        def seen(prob, stats):
            fields = {k: v for k, v in stats.as_dict().items() if k != "time_s"}
            return prob, fields, stats.log_result, stats.trace

        with_barren = 0
        for k in range(12):
            net = gen_network(n=10 + k % 4, f=3, d=(0.0, 0.5, 0.9)[k % 3], seed=9800 + k)
            phi = gen_query(net, c=1 + k % 2, e=k % 3, seed=9900 + k)
            with_barren += len(_ancestors_by_fixpoint(net, phi)) < net.n
            order = None
            if k % 2:
                order = list(range(net.n))
                random.Random(k).shuffle(order)
            for cfg in GOLDEN_CONFIGS:
                prob, stats, trace = run_trace(net, phi, order, cfg)
                assert trace == stats.trace, k
                for alg, got in (("cpe", elim_cpe(net, phi, order, cfg)),
                                 ("cpe", (prob, stats)),
                                 ("cpe-d", elim_cpe_d(net, phi, order, cfg)),
                                 ("hidden", elim_hidden(net, phi, cfg))):
                    want = evaluate(net, phi, alg, cfg, None if alg == "hidden" else order)
                    assert seen(*got) == seen(*want), (k, cfg, alg)
        assert with_barren >= 10, with_barren

    def test_trace_is_the_sub_network_trace_in_caller_numbers(self):
        cfg = EngineConfig(i_bound=2)
        renumbered = {"bucket": 0, "scope": 0, "derived": 0, "fresh": 0}
        for k in range(12):
            net = gen_network(n=12, f=3, d=0.8, seed=9400 + k)
            phi = gen_query(net, c=2, e=1, seed=9500 + k)
            sub, sub_phi, kept = _ancestral_instance(net, phi)
            barren = set(range(net.n)) - set(kept)
            caller = kept + list(range(net.n, net.n + len(phi)))
            order = list(range(net.n))
            random.Random(k).shuffle(order)
            projected = Ordering(tuple(kept.index(v) for v in order if v in kept))
            embedded, evidence = hidden_embed(sub, sub_phi)
            units = CnfFormula([Clause([lit]) for lit in evidence])
            runs = (
                (evaluate(net, phi, "cpe", cfg, order),
                 run_trace(sub, sub_phi, projected, cfg)[2]),
                (evaluate(net, phi, "cpe-d", cfg, order),
                 evaluate(sub, sub_phi, "cpe-d", cfg, projected)[1].trace),
                (evaluate(net, phi, "hidden", cfg), run_trace(embedded, units, cfg=cfg)[2]),
            )
            for (_, stats), trace in runs:
                assert stats.trace == [
                    TraceEntry(caller[e.bucket], e.action, tuple(caller[v] for v in e.scope),
                               tuple(_renumber(c, caller) for c in e.derived))
                    for e in trace], k
                touched = {e.bucket for e in stats.trace}
                touched |= {v for e in stats.trace for v in e.scope}
                touched |= {v for e in stats.trace for c in e.derived for v in c.variables()}
                assert not touched & barren, k
                renumbered["bucket"] += sum(caller[e.bucket] != e.bucket for e in trace)
                renumbered["scope"] += sum(caller[v] != v for e in trace for v in e.scope)
                renumbered["derived"] += sum(caller[l.var] != l.var
                                             for e in trace for c in e.derived for l in c)
            (_, hidden_stats), _ = runs[2]
            renumbered["fresh"] += sum(e.bucket >= net.n for e in hidden_stats.trace)
        assert all(renumbered.values()), renumbered

    def test_front_door_checks_see_the_whole_network(self, pos_net, net2):
        # A's ancestral set is A alone; the checks still cover all six variables
        query = formula(clause(1))
        for alg in ("cpe", "cpe-d", "hidden"):
            for outside in (clause(-9), Clause([Literal(-1)])):
                with pytest.raises(ModelError, match="outside the network"):
                    evaluate(pos_net, query.conjoin(formula(outside)), alg)
        for alg in ("cpe", "cpe-d"):
            with pytest.raises(ModelError, match="covers 1 variables, network has 6"):
                evaluate(pos_net, query, alg, ordering=Ordering((0,)))
            with pytest.raises(ModelError):
                evaluate(net2, formula(clause(1)), alg, ordering=(1, 2))

    def test_empty_query_runs_on_the_empty_network(self, pos_net):
        for alg in ("cpe", "cpe-d", "hidden"):
            p, stats = evaluate(pos_net, CnfFormula([]), alg)
            assert type(p) is float and p == 1.0, alg
            assert type(stats.as_dict()["result"]) is float, alg
            assert stats.log_result == 0.0, alg
            assert stats.trace == [], alg

    def test_deterministic_instance_that_asked_for_a_gib(self):
        # on the whole network, cpe-d asks numpy for a 1 GiB table here;
        # on the ancestral set it ran at mf 10, and on what unit
        # propagation leaves of that set it runs at mf 7
        net = gen_network(400, 4, 0.9, 24)
        phi = gen_query(net, c=8, e=0, seed=25)
        p, _ = evaluate(net, phi, "cpe")
        for p_d, stats in (evaluate(net, phi, "cpe-d"), elim_cpe_d(net, phi)):
            assert stats.mf == 7
            assert close_enough(p_d, p)


OUTSIDE = 9  # no variable of net2, which has 0 and 1
OUTSIDE_QUERIES = {
    "(x or foreign)": "p cnf 10 1\n1 10 0\n",
    # the unit x satisfies the clause, so the check cannot wait for propagation
    "x and (x or foreign)": "p cnf 10 2\n1 0\n1 10 0\n",
    "x, belief of foreign": "p cnf 2 1\n1 0\n",
}


@pytest.mark.parametrize("entry, alg, query", [
    (entry, alg, query)
    for entry in ("evaluate", "belief", "conditional", "cnfbelief eval", "cnfbelief belief")
    for alg in ALGORITHMS for query in OUTSIDE_QUERIES
    if entry.endswith("belief") or "belief" not in query])
def test_outside_variable_is_refused_at_every_entry_point(entry, alg, query, net2,
                                                          tmp_path, capsys):
    # one type and one message, whichever path reads the variable first
    message = f"variable {OUTSIDE} outside the network"
    var = OUTSIDE if "belief" in query else 0
    text = OUTSIDE_QUERIES[query]
    if entry.startswith("cnfbelief"):
        net_path, cnf_path = tmp_path / "two.net", tmp_path / "query.cnf"
        net_path.write_text(serialize_network(net2))
        cnf_path.write_text(text)
        command = entry.split()[1]
        argv = [command, "--net", str(net_path), "--cnf", str(cnf_path), "--alg", alg]
        assert run_cli(argv + (["--var", str(var)] if command == "belief" else [])) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        return
    phi = parse_dimacs(text)
    call = {"evaluate": lambda: evaluate(net2, phi, alg),
            "belief": lambda: belief_given_cnf(net2, phi, var, alg),
            "conditional": lambda: conditional_cnf_probability(net2, phi, formula(clause(2)), alg)}
    with pytest.raises(ModelError, match=f"^{message}$"):
        call[entry]()


@pytest.mark.parametrize("where", ["low", "high"])
@pytest.mark.parametrize("function", [
    lambda net, variables: extract_clauses(net, variables),
    lambda net, variables: augmented_graph(net, CnfFormula([]), variables),
], ids=["extract_clauses", "augmented_graph"])
def test_public_variable_lists_are_refused_outside_the_network(function, where):
    # -1 used to read variable n-1's CPT from the end of the tuple, n
    # raised a bare IndexError
    net = gen_network(6, 3, 0.9, 1)
    v = -1 if where == "low" else net.n
    with pytest.raises(ModelError, match=f"^variable {v} outside the network$"):
        function(net, [0, v])


class TestCertifiedTag:
    """A caller's clause tagged extracted is exempt from gating sums only
    when one CPT makes it certain; otherwise it runs as a query clause."""

    def test_uncertain_extracted_clause_gates_the_sum(self):
        net = parse_network("vars 2\ncpt 0 0.5\ncpt 1 0.5\n")
        phi = parse_dimacs("p cnf 2 1\nc extracted\n1 2 0\n")
        for alg in ALGORITHMS:
            p, stats = evaluate(net, phi, alg)
            assert close_enough(p, 0.75), alg
            assert stats.extracted == 0, alg

    def test_certified_extracted_clause_keeps_its_tag(self):
        # B's CPT gives B = 0 probability 0 under A = 1, so (not A or B) is certain
        net = parse_network("vars 2\ncpt 0 0.5\nparents 1 0\ncpt 1 0.5 1.0\n")
        phi = parse_dimacs("p cnf 2 1\nc extracted\n-1 2 0\n")
        for alg in ("cpe", "cpe-d", "hidden"):
            p, stats = evaluate(net, phi, alg)
            assert close_enough(p, 1.0), alg
            assert stats.extracted == 1, alg

    def test_every_extracted_clause_is_certified(self):
        for seed in range(40):
            net = gen_network(12, 4, 0.9, seed)
            assert all(transforms._certified(net, c) for c in extract_clauses(net).clauses), seed


class TestBeliefGivenCnf:
    def test_two_node_posterior(self, net2):
        dist = belief_given_cnf(net2, formula(clause(1, 2)), 0)
        assert dist is not None
        p0, p1 = dist
        assert close_enough(p0, 0.08 / 0.68)
        assert close_enough(p1, 0.6 / 0.68)
        assert close_enough(p0 + p1, 1.0)

    def test_empty_condition_gives_marginal(self, net2):
        dist = belief_given_cnf(net2, CnfFormula([]), 1)
        assert close_enough(dist[1], 0.62)

    def test_zero_probability_condition(self, net2):
        assert belief_given_cnf(net2, formula(clause(1), clause(-1)), 0) is None

    def test_variable_out_of_range(self, net2):
        with pytest.raises(ValueError):
            belief_given_cnf(net2, CnfFormula([]), 5)

    def test_agrees_across_algorithms(self, hyb_net, query_not_g):
        reference = belief_given_cnf(hyb_net, query_not_g, 3, alg="brute")
        for alg in ("cpe", "cpe-d", "hidden"):
            dist = belief_given_cnf(hyb_net, query_not_g, 3, alg=alg)
            assert close_enough(dist[0], reference[0]), alg
            assert close_enough(dist[1], reference[1]), alg


def _belief_case(kind: str, n: int, f: int, d: float, seed: int):
    """A network, phi and var for one kind of belief query; parents come
    before children in generated networks, so n - 1 is no one's ancestor."""
    rng = random.Random(seed)
    net = gen_network(n, f, d, seed)
    phi = gen_query(net, c=rng.randint(0, 2) if n >= 3 else 0, e=rng.randint(0, min(n, 2)),
                    seed=seed + 1)
    var = rng.randrange(n)
    if kind == "inside" and len(phi):
        var = rng.choice(sorted(phi.variables()))
    elif kind == "outside":
        var = n - 1
        phi = CnfFormula([c for c in phi.clauses if var not in c.variables()])
    elif kind == "unit":
        phi = phi.conjoin(CnfFormula([Clause([Literal(var, rng.random() < 0.5)])]))
    elif kind in ("extracted", "zero"):
        # var's first row made deterministic, and phi sets its parents to
        # that row: cpe-d's extracted clause then forces var, and "zero"
        # asks for the other value, so P(phi) = 0
        cpt = net.cpts[var]
        forced = rng.random() < 0.5
        cpts = list(net.cpts)
        cpts[var] = Cpt(var, cpt.parents, (float(forced),) + cpt.table[1:])
        net = BeliefNetwork(n, tuple(cpts))
        units = [Clause([Literal(p, False)]) for p in cpt.parents]
        if kind == "zero":
            units.append(Clause([Literal(var, not forced)]))
            var = rng.choice((var,) + cpt.parents)
        phi = phi.conjoin(CnfFormula(units))
    return net, phi, var


class TestBeliefInOnePass:
    """belief_given_cnf runs the engine once, with var eliminated last."""

    def test_var_forced_where_phi_has_probability_zero(self):
        # P(x1=1 | x0=0) = 0, so phi = {not x0, x1} has probability 0
        net = BeliefNetwork(2, (Cpt(0, (), (0.5,)), Cpt(1, (0,), (0.0, 0.3))))
        phi = formula(clause(-1), clause(2))
        for alg in ("cpe", "cpe-d", "hidden"):
            assert belief_given_cnf(net, phi, 0, alg) is None, alg

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(kind=st.sampled_from(["inside", "outside", "unit", "extracted", "zero", "any"]),
           n=st.integers(1, 10), f=st.integers(1, 3), d=st.sampled_from([0.0, 0.5, 0.9]),
           seed=st.integers(0, 10 ** 6))
    def test_matches_the_oracle(self, kind, n, f, d, seed):
        net, phi, var = _belief_case(kind, n, f, d, seed)
        p_phi = brute_force_cpe(net, phi)
        if kind == "zero":
            assert p_phi == 0.0
        p1 = brute_force_cpe(net, phi.conjoin(formula(clause(var + 1))))
        for cfg in GOLDEN_CONFIGS:
            for alg in ("cpe", "cpe-d", "hidden"):
                dist = belief_given_cnf(net, phi, var, alg, cfg)
                if p_phi == 0.0:
                    assert dist is None, (cfg, alg)
                else:
                    assert close_enough(dist[1], p1 / p_phi), (cfg, alg)
                    assert close_enough(dist[0], 1.0 - p1 / p_phi), (cfg, alg)

    def test_one_engine_run_and_one_ordering_per_query(self, monkeypatch):
        execute, eliminate = transforms._execute, engine._eliminate
        runs, orders = [], []

        def counted_execute(*args, **kwargs):
            out = execute(*args, **kwargs)
            runs.append(out)
            return out

        def counted_eliminate(graph, tail, first, **kwargs):
            out = eliminate(graph, tail, first, **kwargs)
            orders.append((graph, tail, first, out[0]))
            return out

        monkeypatch.setattr(transforms, "_execute", counted_execute)
        monkeypatch.setattr(engine, "_eliminate", counted_eliminate)
        actions, outcomes = set(), set()
        for k in range(12):
            net = gen_network(30, 3, 0.3, seed=9600 + k)
            phi = gen_query(net, c=2, e=4, seed=9700 + k)
            var = (7 * k) % net.n
            if k % 3 == 0:
                phi = phi.conjoin(formula(clause(var + 1)))
            runs.clear()
            orders.clear()
            dist = belief_given_cnf(net, phi, var, "cpe")
            sigma = _unit_fixpoint(phi)
            if sigma is None or 0.0 in _fixed_entries(
                    net, sigma, transforms._ancestral(net, phi, var)).values():
                # propagation answers P(phi) = 0: no run and no ordering
                assert dist is None and runs == [] and orders == [], k
                outcomes.add("answered")
                continue
            assert len(runs) == 1 and len(orders) == 1, k
            # one greedy pass: the query pinned first, the units last, and
            # the greedy's choices between them
            graph, tail, first, ordering = orders[0]
            assert first == var and ordering.order[0] == var, k
            assert ordering.order[len(graph) - len(tail):] == tail, k
            _, stats, trace = runs[0]
            assert trace == stats.trace, k
            mine = [i for i, e in enumerate(trace) if e.bucket == var]
            if var in sigma:
                # var's own unit observes its bucket: the point mass at its
                # forced value unless the run finds P(phi) = 0
                assert [trace[i].action for i in mine] == ["observe"], k
                assert dist == ((0.0, 1.0) if sigma[var] else (1.0, 0.0)) or (
                    dist is None and max(stats.log_joint) == -math.inf), k
                outcomes.add("forced")
                actions.add("observe")
                continue
            assert len(tail) + 1 < len(graph), k
            outcomes.add("pinned")
            if dist is None:
                continue  # a contradiction may stop the run before var's bucket
            assert len(mine) == 1, k
            entry = trace[mine[0]]
            assert mine[0] == len(trace) - 1 or entry.action == "observe", k
            actions.add(entry.action)
        assert actions == {"belief", "observe"}, actions
        assert outcomes == {"answered", "forced", "pinned"}, outcomes


def _disjoint_union(near: BeliefNetwork, far: BeliefNetwork) -> BeliefNetwork:
    """The two networks side by side, far's variables shifted past near's."""
    shifted = tuple(Cpt(c.child + near.n, tuple(p + near.n for p in c.parents), c.table)
                    for c in far.cpts)
    return BeliefNetwork(near.n + far.n, near.cpts + shifted)


def _far_case(kind: str, seed: int):
    """A network, phi and var where var's part and a far part share no
    variable; every kind but "any" makes P(phi) = 0 through the far part
    alone, with evidence that no belief run on var's part sees."""
    rng = random.Random(seed)
    near = gen_network(rng.randint(1, 6), rng.randint(1, 3), rng.choice([0.0, 0.5]), seed)
    # "any" keeps the far part positive, so the shortcut can run
    far = gen_network(rng.randint(3, 6), rng.randint(1, 3),
                      0.0 if kind == "any" else rng.choice([0.0, 0.5, 0.9]), seed + 1)
    phi = gen_query(near, rng.randint(0, 2) if near.n >= 3 else 0, rng.randint(0, min(near.n, 2)),
                    seed + 2)

    def lit(v: int, positive: bool) -> Clause:  # a unit on far's variable v
        return Clause([Literal(near.n + v, positive)])

    if kind == "any":
        extra = [Clause(Literal(near.n + l.var, l.positive) for l in c.literals)
                 for c in gen_query(far, rng.randint(0, 2), rng.randint(0, 2), seed + 3).clauses]
    elif kind == "cpt":
        # a far 0/1 entry contradicted by the evidence
        w = rng.randrange(far.n)
        cpt = far.cpts[w]
        forced = rng.random() < 0.5
        cpts = list(far.cpts)
        cpts[w] = Cpt(w, cpt.parents, (float(forced),) + cpt.table[1:])
        far = BeliefNetwork(far.n, tuple(cpts))
        extra = [lit(p, False) for p in cpt.parents] + [lit(w, not forced)]
    elif kind == "clause":
        # a far clause every literal of which a unit falsifies
        falsified = Clause(Literal(near.n + v, rng.random() < 0.5)
                           for v in rng.sample(range(far.n), rng.randint(2, 3)))
        extra = [falsified] + [lit(l.var - near.n, not l.positive) for l in falsified.literals]
    elif kind == "opposing":
        w = rng.randrange(far.n)
        extra = [lit(w, True), lit(w, False)]
    else:  # "reduced": clauses the units shorten to y and not y
        x, y, z = (near.n + v for v in rng.sample(range(far.n), 3))
        extra = [Clause([Literal(x), Literal(y)]), Clause([Literal(z), Literal(y, False)]),
                 Clause([Literal(x, False)]), Clause([Literal(z, False)])]
    return _disjoint_union(near, far), phi.conjoin(CnfFormula(extra)), rng.randrange(near.n)


@pytest.fixture
def loaded(monkeypatch):
    """The variables of each ``_execute`` call, whose CPTs it loads."""
    execute, runs = transforms._execute, []

    def recorded(net, variables, *args, **kwargs):
        runs.append(variables)
        return execute(net, variables, *args, **kwargs)

    monkeypatch.setattr(transforms, "_execute", recorded)
    return runs


def _unit_fixpoint(phi: CnfFormula) -> Optional[dict[int, bool]]:
    """The literals unit propagation over phi forces, by whole passes
    until one forces nothing new: a clause that none of them satisfies
    and that has one literal left forces it.  None on a conflict, a
    clause with every literal falsified."""
    sigma: dict[int, bool] = {}
    grew = True
    while grew:
        grew = False
        for cl in phi.clauses:
            if any(sigma.get(l.var) == l.positive for l in cl.literals):
                continue
            left = [l for l in cl.literals if l.var not in sigma]
            if not left:
                return None
            if len(left) == 1:
                sigma[left[0].var] = left[0].positive
                grew = True
    return sigma


def _fixed_entries(net: BeliefNetwork, sigma: dict[int, bool], kept) -> dict[int, float]:
    """The entry at sigma of each kept CPT whose whole family sigma fixes."""
    entries = {}
    for v in kept:
        cpt = net.cpts[v]
        if set(net.family(v)) <= sigma.keys():
            p = cpt.table[sum(sigma[u] << i for i, u in enumerate(reversed(cpt.parents)))]
            entries[v] = p if sigma[v] else 1.0 - p
    return entries


def _hyperedge_walk(net: BeliefNetwork, phi: CnfFormula, sigma: dict[int, bool], var: int,
                    kept):
    """var's requisite part found without a graph, given the forced
    literals sigma: each kept family and each clause sigma leaves open
    is a hyperedge over its unforced variables, and var's part grows by
    every edge it meets until none is left.  Returns (the kept
    variables whose family it meets, the open clauses it meets, each
    shortened to its unforced literals)."""
    edges = {("cpt", v): {u for u in net.family(v) if u not in sigma} for v in kept}
    for c in phi.clauses:
        if not any(sigma.get(l.var) == l.positive for l in c.literals):
            free = Clause(l for l in c.literals if l.var not in sigma)
            edges[("clause", free)] = free.variables()
    part, met = {var}, set()
    while True:
        reached = {key for key, edge in edges.items() if key not in met and edge & part}
        if not reached:
            break
        met |= reached
        part.update(*(edges[key] for key in reached))
    return ({v for kind, v in met if kind == "cpt"},
            {c for kind, c in met if kind == "clause"})


def _det_case(kind: str, n: int, f: int, seed: int):
    """A network with 90% deterministic rows, phi and var for one kind
    of belief query.  "forced": a unit and a two-literal clause force
    var; "conflict": a unit and a two-literal clause force var against
    a third clause's unit; "fixed": var is z of six variables beside
    the network, w -> y, q -> r and z -> t, where phi observes w at its
    0/1 prior, y, r and t, so propagation fixes the families of w and y
    and only a cut leaves q and r out; "unsat": the same, but with r
    free and every two-literal clause over q and r, which no unit
    propagation refutes, so P(phi) = 0 and no cut may drop them."""
    rng = random.Random(seed)
    net = gen_network(n, f, 0.9, seed)
    phi = gen_query(net, c=rng.randint(0, 2) if n >= 3 else 0, e=rng.randint(0, min(n, 2)),
                    seed=seed + 1)
    var = rng.randrange(n)
    u = rng.choice([v for v in range(n) if v != var])
    value = rng.random() < 0.5
    if kind in ("forced", "conflict"):
        extra = [Clause([Literal(u)]), Clause([Literal(u, False), Literal(var, value)])]
        if kind == "conflict":
            extra.append(Clause([Literal(var, not value)]))
        phi = phi.conjoin(CnfFormula(extra))
    elif kind in ("fixed", "unsat"):
        m, prior = n, float(value)
        net = _disjoint_union(net, BeliefNetwork(6, (
            Cpt(0, (), (prior,)), Cpt(1, (0,), (0.3, 0.6)), Cpt(2, (), (0.5,)),
            Cpt(3, (2,), (0.1, 0.8)), Cpt(4, (), (0.45,)), Cpt(5, (4,), (0.2, 0.7)))))
        observed = (1, 3, 5) if kind == "fixed" else (1, 5)
        phi = CnfFormula([Clause([Literal(m, value)])] + [
            Clause([Literal(m + v, rng.random() < 0.5)]) for v in observed])
        if kind == "unsat":
            phi = phi.conjoin(CnfFormula(Clause([Literal(m + 2, a), Literal(m + 3, b)])
                                         for a in (False, True) for b in (False, True)))
        var = m + 4
    return net, phi, var


class TestRequisiteBelief:
    """Belief runs on var's requisite part: the component of var among
    the unobserved ancestral variables once phi's units are applied."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(n=st.integers(2, 30), f=st.integers(1, 4), d=st.sampled_from([0.0, 0.3, 0.9]),
           c=st.integers(0, 5), seed=st.integers(0, 10 ** 6))
    def test_matches_a_hyperedge_walk(self, n, f, d, c, seed):
        rng = random.Random(seed)
        net = gen_network(n, f, d, seed)
        phi = gen_query(net, c=c if n >= 3 else 0, e=rng.randint(0, n // 2), seed=seed + 1)
        var = rng.randrange(n)
        kept = transforms._ancestral(net, phi, var)
        sigma = _unit_fixpoint(phi)
        forced, variables, residual, constant = transforms._propagate(net, kept, phi)
        if sigma is None:  # a conflict
            assert constant == -math.inf and variables == () and len(residual) == 0
            return
        assert forced == sigma
        entries = _fixed_entries(net, sigma, kept)
        if 0.0 in entries.values():
            assert constant == -math.inf and variables == () and len(residual) == 0
            return
        assert math.isclose(constant, sum(map(math.log, entries.values())), abs_tol=1e-12)
        assert variables == tuple(v for v in kept if v not in entries)
        open_ = {Clause(l for l in cl.literals if l.var not in sigma) for cl in phi.clauses
                 if not any(sigma.get(l.var) == l.positive for l in cl.literals)}
        assert set(residual.clauses) == open_
        assert not any(cl.is_unit() for cl in residual.clauses)
        if var in sigma:
            return  # belief makes one run of the whole residual
        cpts, clauses = _hyperedge_walk(net, phi, sigma, var, variables)
        result = transforms._requisite(net, sigma, variables, residual, var)
        if result is None:
            # no witness that the dropped part is positive
            assert (any(p in (0.0, 1.0) for v in set(variables) - cpts for p in net.cpts[v].table)
                    or any(cl not in clauses for cl in open_))
            return
        loaded, passed = result
        assert loaded == tuple(v for v in variables if v in cpts)
        assert list(passed.items()) == [(cl, tag) for cl, tag in residual.items() if cl in clauses]

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(kind=st.sampled_from(["any", "cpt", "clause", "opposing", "reduced"]),
           seed=st.integers(0, 10 ** 6))
    def test_matches_the_oracle_when_the_far_part_is_zero(self, kind, seed):
        net, phi, var = _far_case(kind, seed)
        p_phi = brute_force_cpe(net, phi)
        if kind != "any":
            assert p_phi == 0.0
        p1 = brute_force_cpe(net, phi.conjoin(formula(clause(var + 1))))
        for cfg in GOLDEN_CONFIGS:
            for alg in ("cpe", "cpe-d", "hidden"):
                dist = belief_given_cnf(net, phi, var, alg, cfg)
                if p_phi == 0.0:
                    assert dist is None, (cfg, alg)
                else:
                    assert close_enough(dist[1], p1 / p_phi), (cfg, alg)
                    assert close_enough(dist[0], 1.0 - p1 / p_phi), (cfg, alg)

    @settings(derandomize=True, database=None, deadline=None, max_examples=40,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(kind=st.sampled_from(["any", "forced", "conflict", "fixed", "unsat"]),
           n=st.integers(2, 8),
           f=st.integers(1, 3), seed=st.integers(0, 10 ** 6))
    @example(kind="forced", n=8, f=3, seed=1)  # var forced through a two-literal clause
    @example(kind="conflict", n=8, f=3, seed=2)  # propagation meets a conflict
    @example(kind="fixed", n=8, f=3, seed=3)  # a dropped family fixed at a 0/1 entry
    @example(kind="unsat", n=8, f=3, seed=4)  # dropped clauses with no model
    def test_matches_the_oracle_on_deterministic_networks(self, loaded, kind, n, f, seed):
        net, phi, var = _det_case(kind, n, f, seed)
        p_phi = brute_force_cpe(net, phi)
        p1 = brute_force_cpe(net, phi.conjoin(formula(clause(var + 1))))
        for cfg in GOLDEN_CONFIGS:
            for alg in ("cpe", "cpe-d", "hidden"):
                loaded.clear()
                dist = belief_given_cnf(net, phi, var, alg, cfg)
                if p_phi == 0.0:
                    assert dist is None, (cfg, alg)
                else:
                    assert close_enough(dist[1], p1 / p_phi), (cfg, alg)
                    assert close_enough(dist[0], 1.0 - p1 / p_phi), (cfg, alg)
                # the CPTs each run loads; hidden's clause children left out
                cpts = [tuple(v for v in run if v < net.n) for run in loaded]
                if kind == "conflict":
                    assert p_phi == 0.0 and cpts == [], (cfg, alg)
                elif kind == "fixed":
                    # w and y are constants, and the cut leaves q and r out
                    assert cpts == [(var, var + 1)], (cfg, alg)
                elif kind == "unsat":
                    # the greedy finds no model of the clauses over q and
                    # r, so the whole residual runs
                    assert p_phi == 0.0 and cpts == [(var - 2, var - 1, var, var + 1)], (cfg, alg)
                else:
                    assert len(cpts) <= 1, (cfg, alg)

    @pytest.mark.parametrize("prior", [1.0, 0.0])
    def test_a_zero_one_entry_in_a_dropped_cpt_takes_the_full_pass(self, loaded, prior):
        # x0 -> x1 and x2 -> x3 with x1, x3 observed: var 0's part is
        # x0, x1; under cpe x2's prior is dropped, and a 0/1 prior there
        # is no witness that the dropped part is positive.  cpe-d's
        # extracted unit on x2 and the evidence on x3 fix both their
        # families, which become exact constants and need no witness
        net = BeliefNetwork(4, (Cpt(0, (), (0.3,)), Cpt(1, (0,), (0.2, 0.7)),
                                Cpt(2, (), (prior,)), Cpt(3, (2,), (0.4, 0.6))))
        phi = formula(clause(2), clause(4))
        p1 = brute_force_cpe(net, phi.conjoin(formula(clause(1)))) / brute_force_cpe(net, phi)
        for alg, want in (("cpe", (0, 1, 2, 3)), ("cpe-d", (0, 1))):
            loaded.clear()
            dist = belief_given_cnf(net, phi, 0, alg)
            assert loaded == [want], alg
            assert close_enough(dist[1], p1) and close_enough(dist[0], 1.0 - p1), alg

    def test_forest_query_loads_only_the_markov_blanket(self, loaded):
        for s in range(3):
            net = gen_network(2000, 2, 0, s)
            rng = random.Random(s)
            var = rng.choice([v for v in net.variables() if net.parents(v)
                              and sum(v in c.parents for c in net.cpts) >= 2])
            children = [c for c in net.cpts if var in c.parents]
            blanket = set(net.parents(var)).union(
                *({c.child, *c.parents} for c in children)) - {var}
            others = sorted(set(net.variables()) - blanket - {var})
            observed = sorted(blanket) + rng.sample(others, 200)
            values = {u: rng.randrange(2) for u in observed}
            free = [u for u in others if u not in values]
            clauses = [Clause(Literal(u, rng.random() < 0.5) for u in rng.sample(free, 3))
                       for _ in range(3)]
            phi = CnfFormula(clauses + [Clause([Literal(u, values[u] == 1)]) for u in observed])
            weights = []
            for x in (0, 1):
                values[var] = x
                weights.append(math.prod(_family_prob(cpt, values)
                                         for cpt in [net.cpts[var]] + children))
            for alg in ("cpe", "cpe-d", "hidden"):
                loaded.clear()
                dist = belief_given_cnf(net, phi, var, alg)
                # hidden also loads one CPT per passed clause, over variables n, n+1, ...
                cpts = [v for v in loaded[0] if v < net.n]
                assert len(loaded) == 1 and len(cpts) <= len(blanket) + 1, (s, alg)
                assert close_enough(dist[0], weights[0] / sum(weights)), (s, alg)
                assert close_enough(dist[1], weights[1] / sum(weights)), (s, alg)


# A (0) -> B (1) -> C (2), and two roots: X (3), certainly 1, and Z (4)
FAMILYLESS_NET = """vars 5
cpt 0 0.4
parents 1 0
cpt 1 0.3 0.8
parents 2 1
cpt 2 0.25 0.6
cpt 3 1.0
cpt 4 0.3
"""
# an extracted unit on B, and an extracted clause over B, X and Z, which
# share no family; it holds with probability 1, since X does
FAMILYLESS_CNF = """p cnf 5 2
c extracted
2 0
c extracted
-2 4 5 0
"""


class TestExtractedClauseOutsideFamilies:
    """A file may tag any clause extracted.  This one holds with
    probability 1 but shares no family, so no CPT certifies it and it
    runs as a query clause; the answers still match the oracle."""

    def test_eval_matches_the_oracle(self):
        net, phi = parse_network(FAMILYLESS_NET), parse_dimacs(FAMILYLESS_CNF)
        want = brute_force_cpe(net, phi)
        for alg in ("cpe", "cpe-d", "hidden"):
            for cfg in GOLDEN_CONFIGS:
                assert close_enough(evaluate(net, phi, alg, cfg)[0], want), (alg, cfg)

    def test_belief_matches_the_oracle(self):
        net, phi = parse_network(FAMILYLESS_NET), parse_dimacs(FAMILYLESS_CNF)
        # Z's requisite part is X and Z: propagation forces B, which
        # leaves the extracted clause (X or Z)
        sigma, variables, residual, _ = transforms._propagate(net, tuple(range(5)), phi)
        assert transforms._requisite(net, sigma, variables, residual, 4)[0] == (3, 4)
        for var in range(net.n):
            want = belief_given_cnf(net, phi, var, "brute")
            for alg in ("cpe", "cpe-d", "hidden"):
                for cfg in GOLDEN_CONFIGS:
                    got = belief_given_cnf(net, phi, var, alg, cfg)
                    assert all(map(close_enough, got, want)), (var, alg, cfg)


class TestConditionalCnfProbability:
    def test_two_node_conditional(self, net2):
        p = conditional_cnf_probability(net2, formula(clause(1)), formula(clause(1, 2)))
        assert close_enough(p, 0.6 / 0.68)

    def test_zero_probability_condition(self, net2):
        out = conditional_cnf_probability(
            net2, formula(clause(2)), formula(clause(1), clause(-1)))
        assert out is None

    def test_chain_rule_consistency(self):
        for k in range(8):
            net = gen_network(n=6, f=3, d=0.3, seed=2200 + k)
            phi = gen_query(net, c=1, e=0, seed=3200 + k)
            psi = gen_query(net, c=1, e=1, seed=4200 + k)
            p_psi, _ = elim_cpe(net, psi)
            if p_psi == 0.0:
                continue
            cond = conditional_cnf_probability(net, phi, psi)
            joint, _ = elim_cpe(net, phi.conjoin(psi))
            assert close_enough(cond * p_psi, joint), k


def _family_prob(cpt: Cpt, values: dict[int, int]) -> float:
    k = len(cpt.parents)
    row = sum(values[p] << (k - 1 - j) for j, p in enumerate(cpt.parents))
    p1 = cpt.table[row]
    return p1 if values[cpt.child] else 1.0 - p1


class TestUnderflow:
    """Joint probabilities far below the float64 range: answers come
    from RunStats.log_result, not from the underflowed product."""

    def test_belief_on_probe_matches_markov_blanket(self):
        net = gen_network(1200, 2, 0.0, seed=3)
        phi = gen_query(net, 0, 1199, seed=4)
        values = {c.unit_literal().var: int(c.unit_literal().positive) for c in phi.clauses}
        (var,) = set(range(net.n)) - set(values)
        weights = []
        for x in (0, 1):
            values[var] = x
            weights.append(math.prod(_family_prob(cpt, values) for cpt in net.cpts
                                     if cpt.child == var or var in cpt.parents))
        dist = belief_given_cnf(net, phi, var)
        assert dist is not None
        assert close_enough(dist[0], weights[0] / sum(weights))
        assert close_enough(dist[1], weights[1] / sum(weights))

    def test_log_result_of_independent_roots_is_sum_of_log_priors(self):
        net = gen_network(1200, 1, 0.0, seed=11)
        phi = gen_query(net, 0, net.n, seed=12)
        expected = math.fsum(
            math.log(_family_prob(net.cpts[c.unit_literal().var],
                                  {c.unit_literal().var: int(c.unit_literal().positive)}))
            for c in phi.clauses)
        assert math.exp(expected) == 0.0  # the plain product underflows here
        for alg in ("cpe", "cpe-d", "hidden"):
            _, stats = evaluate(net, phi, alg)
            assert math.isclose(stats.log_result, expected, rel_tol=1e-12), alg

    def test_log_result_is_minus_infinity_at_probability_zero(self, net2):
        for alg in ALGORITHMS:
            _, stats = evaluate(net2, formula(clause(1), clause(-1)), alg)
            assert stats.result == 0.0
            assert stats.log_result == -math.inf, alg

    def test_conditional_survives_underflow(self):
        net = gen_network(1200, 1, 0.0, seed=11)
        psi = gen_query(net, 0, net.n - 1, seed=12)
        (free,) = set(range(net.n)) - {c.unit_literal().var for c in psi.clauses}
        phi = formula(clause(free + 1))
        assert close_enough(conditional_cnf_probability(net, phi, psi),
                            net.cpts[free].table[0])
