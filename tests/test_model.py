import math

import numpy as np
import pytest

from cnfbelief import (
    BeliefNetwork,
    Clause,
    CnfFormula,
    Cpt,
    Factor,
    Literal,
    ModelError,
    Ordering,
    brute_force_cpe,
    close_enough,
    cpt_to_factor,
    extract_clauses,
    run_trace,
    validate_network,
)
from cnfbelief.model import EVIDENCE, QUERY

from conftest import clause, formula


class TestLiteral:
    def test_negation_flips_sign_only(self):
        lit = Literal(3, True)
        assert -lit == Literal(3, False)
        assert -(-lit) == lit

    def test_signed_round_trip(self):
        for code in (1, -1, 7, -12):
            assert Literal.from_signed(code).signed() == code

    def test_from_signed_rejects_zero(self):
        with pytest.raises(ModelError):
            Literal.from_signed(0)

    def test_satisfied_by(self):
        assert Literal(2, True).satisfied_by(1)
        assert not Literal(2, True).satisfied_by(0)
        assert Literal(2, False).satisfied_by(0)


class TestClause:
    def test_duplicate_literals_collapse(self):
        c = Clause([Literal(0, True), Literal(0, True), Literal(1, False)])
        assert len(c.sorted_literals()) == 2

    def test_tautology_rejected(self):
        with pytest.raises(ModelError):
            Clause([Literal(0, True), Literal(0, False)])

    def test_unit_detection(self):
        c = clause(-3)
        assert c.is_unit()
        assert c.unit_literal() == Literal(2, False)
        assert not clause(1, 2).is_unit()

    def test_str_is_signed_and_sorted(self):
        assert str(clause(3, -1)) == "(-1 3)"

    def test_variables(self):
        assert clause(2, -5).variables() == {1, 4}

    def test_equality_ignores_literal_order(self):
        assert clause(1, -2) == clause(-2, 1)


class TestClauseStatus:
    """A clause's status under the observed assignment, as the engine
    applies it: satisfied clauses vanish, violated ones make the query
    impossible, unit ones force their literal, the rest keep gating."""

    def test_satisfied(self, net2):
        p, stats, trace = run_trace(net2, formula(clause(1), clause(1, 2)), Ordering((0, 1)))
        assert [(t.bucket, t.action, t.scope) for t in trace] == [
            (0, "observe", ()), (1, "sum", ())]
        assert stats.derived_clauses == 0
        assert close_enough(p, 0.6)

    def test_violated(self, net2):
        phi = formula(clause(-1), clause(1, 2), clause(1, -2))
        p, stats, _ = run_trace(net2, phi, Ordering((0, 1)))
        assert p == 0.0 and stats.log_result == -math.inf

    def test_unit_returns_forced_literal(self, net2):
        p, _, trace = run_trace(net2, formula(clause(-1), clause(1, -2)), Ordering((0, 1)))
        assert (trace[1].bucket, trace[1].action) == (1, "observe")
        assert trace[1].derived == (clause(-2),)
        assert close_enough(p, 0.4 * 0.8)

    def test_undetermined(self, pos_net, d1):
        phi = formula(clause(-1), clause(1, 2, 3))
        p, _, trace = run_trace(pos_net, phi, ordering=d1)
        entry = next(t for t in trace if t.bucket == 1)
        assert entry.action == "sum"
        assert entry.derived == (clause(2, 3),)
        assert close_enough(p, brute_force_cpe(pos_net, phi))


class TestCnfFormula:
    def test_default_provenance_is_query(self):
        phi = formula(clause(1), clause(2, -1))
        assert phi.provenance == (QUERY, QUERY)

    def test_conjoin_concatenates(self):
        a = formula(clause(1))
        b = CnfFormula([clause(2)], [EVIDENCE])
        both = a.conjoin(b)
        assert both.clauses == (clause(1), clause(2))
        assert both.provenance == (QUERY, EVIDENCE)

    def test_has_empty_clause(self):
        assert CnfFormula([Clause([])]).has_empty_clause()
        assert not formula(clause(1)).has_empty_clause()

    def test_variables(self):
        assert formula(clause(1, -3), clause(2)).variables() == {0, 1, 2}

    def test_provenance_length_mismatch(self):
        with pytest.raises(ModelError):
            CnfFormula([clause(1)], [QUERY, QUERY])


class TestCpt:
    def test_row_index_first_parent_most_significant(self):
        f = cpt_to_factor(Cpt(5, (2, 0), (0.1, 0.2, 0.3, 0.4)))
        assert f.scope == (2, 0, 5)
        assert f.values[1, 0, 1] == 0.3  # parent 2 = 1, parent 0 = 0: row 2
        assert f.values[0, 1, 1] == 0.2  # parent 2 = 0, parent 0 = 1: row 1

    def test_lookup_complements(self):
        f = cpt_to_factor(Cpt(1, (0,), (0.2, 0.9)))
        assert f.values[1, 1] == 0.9
        assert close_enough(f.values[1, 0], 0.1)

    def test_classify(self):
        # only the 0/1 entries of a CPT become extracted clauses
        def extracted(*cpts):
            return set(extract_clauses(BeliefNetwork(len(cpts), cpts)).clauses)

        root = Cpt(0, (), (0.5,))
        assert extracted(Cpt(0, (), (0.4,))) == set()
        assert extracted(Cpt(0, (), (1.0,))) == {clause(1)}
        assert extracted(root, Cpt(1, (0,), (0.0, 0.5))) == {clause(1, -2)}
        assert extracted(root, Cpt(1, (0,), (1.0, 0.0))) == {clause(1, 2), clause(-1, -2)}


class TestValidateNetwork:
    def test_valid_network_passes(self, pos_net):
        validate_network(pos_net)

    def test_child_mismatch_rejected(self):
        with pytest.raises(ModelError):
            BeliefNetwork(2, (Cpt(1, (), (0.5,)), Cpt(0, (), (0.5,))))

    def test_parent_out_of_range(self):
        net = BeliefNetwork.__new__(BeliefNetwork)
        object.__setattr__(net, "n", 1)
        object.__setattr__(net, "cpts", (Cpt(0, (3,), (0.5, 0.5)),))
        with pytest.raises(ModelError):
            validate_network(net)

    def test_self_parent_rejected(self):
        net = BeliefNetwork.__new__(BeliefNetwork)
        object.__setattr__(net, "n", 1)
        object.__setattr__(net, "cpts", (Cpt(0, (0,), (0.5, 0.5)),))
        with pytest.raises(ModelError):
            validate_network(net)

    def test_table_length_must_match_parent_count(self):
        net = BeliefNetwork(2, (Cpt(0, (), (0.5,)), Cpt(1, (0,), (0.2, 0.9))))
        bad = BeliefNetwork.__new__(BeliefNetwork)
        object.__setattr__(bad, "n", 2)
        object.__setattr__(bad, "cpts", (net.cpts[0], Cpt(1, (0,), (0.2,))))
        with pytest.raises(ModelError):
            validate_network(bad)

    def test_probability_out_of_bounds(self):
        net = BeliefNetwork.__new__(BeliefNetwork)
        object.__setattr__(net, "n", 1)
        object.__setattr__(net, "cpts", (Cpt(0, (), (1.5,)),))
        with pytest.raises(ModelError):
            validate_network(net)

    def test_cycle_detected(self):
        net = BeliefNetwork.__new__(BeliefNetwork)
        object.__setattr__(net, "n", 2)
        object.__setattr__(net, "cpts", (
            Cpt(0, (1,), (0.5, 0.5)),
            Cpt(1, (0,), (0.5, 0.5)),
        ))
        with pytest.raises(ModelError):
            validate_network(net)


class TestFactor:
    def test_cpt_to_factor_agrees_with_lookup(self, pos_net):
        rng_rows = [(a, b) for a in (0, 1) for b in (0, 1)]
        cpt = pos_net.cpts[3]  # D given A,B
        f = cpt_to_factor(cpt)
        assert f.scope == (0, 1, 3)
        for a, b in rng_rows:
            for d in (0, 1):
                p_one = cpt.table[2 * a + b]
                want = p_one if d else 1.0 - p_one
                assert close_enough(f.values[a, b, d], want)

    def test_restrict_drops_axis(self):
        f = Factor((0, 2), np.array([[0.1, 0.9], [0.3, 0.7]]))
        g = f.restrict(2, 1)
        assert g.scope == (0,)
        np.testing.assert_allclose(g.values, [0.9, 0.7])

    def test_scalar_factor(self):
        f = Factor((), np.array(0.25))
        assert f.scalar() == 0.25
        assert f.arity == 0

    def test_shape_must_match_scope(self):
        with pytest.raises(ModelError):
            Factor((0, 1), np.zeros((2,)))


def test_close_enough_tolerances():
    assert close_enough(1.0, 1.0 + 1e-13)
    assert not close_enough(1.0, 1.001)
    assert close_enough(0.0, 1e-13)
    assert math.isclose(0.3 + 0.4, 0.7) and close_enough(0.3 + 0.4, 0.7)
