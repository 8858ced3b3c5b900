import pytest

from cnfbelief import (
    BeliefNetwork,
    CnfFormula,
    Cpt,
    ModelError,
    brute_force_cpe,
)
from cnfbelief.oracle import MAX_BRUTE_VARS

from conftest import clause, close_enough, formula


def test_empty_formula_sums_to_one(net2, pos_net):
    assert close_enough(brute_force_cpe(net2, CnfFormula([])), 1.0)
    assert close_enough(brute_force_cpe(pos_net, CnfFormula([])), 1.0)


def test_two_node_disjunction(net2):
    # P(A or B) = P(A=1) + P(A=0) P(B=1 | A=0) = 0.6 + 0.4 * 0.2
    assert close_enough(brute_force_cpe(net2, formula(clause(1, 2))), 0.68)


def test_two_node_marginal(net2):
    # P(B=1) = 0.6 * 0.9 + 0.4 * 0.2
    assert close_enough(brute_force_cpe(net2, formula(clause(2))), 0.62)


def test_six_node_query_value(pos_net, phi42):
    assert close_enough(brute_force_cpe(pos_net, phi42), 0.3811715)


def test_hybrid_query_value(hyb_net, query_not_g):
    assert close_enough(brute_force_cpe(hyb_net, query_not_g), 0.35395)


def test_unsatisfiable_query_is_zero(net2):
    phi = formula(clause(1), clause(-1))
    assert brute_force_cpe(net2, phi) == 0.0


def test_complement_pair_sums_to_one(pos_net):
    p = brute_force_cpe(pos_net, formula(clause(4)))
    q = brute_force_cpe(pos_net, formula(clause(-4)))
    assert close_enough(p + q, 1.0)


def test_size_guard():
    n = MAX_BRUTE_VARS + 1
    net = BeliefNetwork(n, tuple(Cpt(i, (), (0.5,)) for i in range(n)))
    with pytest.raises(ValueError):
        brute_force_cpe(net, CnfFormula([]))


def test_foreign_clause_variable_rejected(net2):
    with pytest.raises(ModelError, match="^variable 8 outside the network$"):
        brute_force_cpe(net2, formula(clause(9)))
    # before the size guard, so a large network names the variable too
    with pytest.raises(ModelError, match="^variable 30 outside the network$"):
        brute_force_cpe(_uniform(MAX_BRUTE_VARS + 1), formula(clause(1, -31)))


def _uniform(n: int) -> BeliefNetwork:
    return BeliefNetwork(n, tuple(Cpt(v, (), (0.5,)) for v in range(n)))


class TestEnumerateModels:
    """The oracle's enumeration of models: on a uniform network P(phi)
    is the model count over 2^n."""

    def test_disjunction_models(self):
        assert close_enough(brute_force_cpe(_uniform(2), formula(clause(1, 2))), 3 / 4)

    def test_variable_order_is_respected(self):
        # assignment bits map to variables by id, not by clause position
        net = BeliefNetwork(2, (Cpt(0, (), (0.9,)), Cpt(1, (), (0.2,))))
        assert close_enough(brute_force_cpe(net, formula(clause(-2, 1))), 0.9 + 0.1 * 0.8)
        assert close_enough(brute_force_cpe(net, formula(clause(2), clause(-1))), 0.1 * 0.2)

    def test_empty_formula_lists_everything(self):
        assert close_enough(brute_force_cpe(_uniform(3), CnfFormula([])), 1.0)
        assert close_enough(brute_force_cpe(_uniform(3), formula(clause(1), clause(2))), 2 / 8)

    def test_missing_variable_rejected(self):
        with pytest.raises(ValueError):
            brute_force_cpe(_uniform(2), formula(clause(3)))
