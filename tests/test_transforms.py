import math

import pytest

from cnfbelief import (
    BeliefNetwork,
    Clause,
    CnfFormula,
    Cpt,
    EngineConfig,
    Literal,
    Ordering,
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
from cnfbelief.generator import gen_network, gen_query
from cnfbelief.model import EXTRACTED
from cnfbelief.transforms import ALGORITHMS

from conftest import clause, formula


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
        net = BeliefNetwork(1, (Cpt(0, (), (1.0 - 1e-12,)),))
        assert extract_clauses(net).clauses == ()

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
        _, with_clauses = elim_cpe_d(hyb_net, query_not_g, ordering=d1)
        _, plain = elim_cpe(hyb_net, query_not_g, ordering=d1)
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
        _, stats = evaluate(hyb_net, query_not_g, "cpe", cfg, d1)
        assert stats.trace == run_trace(hyb_net, query_not_g, d1, cfg)[2]
        _, stats = evaluate(hyb_net, query_not_g, "cpe-d", cfg, d1)
        extended = query_not_g.conjoin(extract_clauses(hyb_net))
        assert stats.trace == run_trace(hyb_net, extended, d1, cfg)[2]
        _, stats = evaluate(hyb_net, query_not_g, "hidden", cfg)
        assert len(stats.trace) == hyb_net.n + len(query_not_g)
        assert evaluate(hyb_net, query_not_g, "brute")[1].trace == []

    def test_ordering_refused_where_it_cannot_apply(self, net2, d1):
        ordering = Ordering((0, 1))
        for alg in ("hidden", "brute"):
            with pytest.raises(ValueError, match="ordering"):
                evaluate(net2, formula(clause(1, 2)), alg, ordering=ordering)
        for alg in ("cpe", "cpe-d"):
            p, _ = evaluate(net2, formula(clause(1, 2)), alg, ordering=ordering)
            assert close_enough(p, 0.68)


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
