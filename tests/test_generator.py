import pytest

from cnfbelief import BeliefNetwork
from cnfbelief.generator import RNG_ALGORITHM, gen_network, gen_query
from cnfbelief.model import EVIDENCE, QUERY

from conftest import clause


class TestGenNetwork:
    def test_same_seed_same_network(self):
        assert gen_network(10, 3, 0.5, seed=77) == gen_network(10, 3, 0.5, seed=77)

    def test_different_seeds_differ(self):
        assert gen_network(10, 3, 0.5, seed=1) != gen_network(10, 3, 0.5, seed=2)

    def test_frozen_instance(self):
        """Pin the draw order: changing it would silently break every
        recorded benchmark seed."""
        net = gen_network(5, 3, 0.5, seed=42)
        shapes = [(c.parents, len(c.table)) for c in net.cpts]
        assert shapes == [((), 1), ((), 1), ((0, 1), 4), ((2,), 2), ((2,), 2)]
        assert net.cpts[0].table == (1.0,)
        assert net.cpts[1].table == (1.0,)
        assert net.cpts[2].table[:2] == (1.0, 0.0)
        assert round(net.cpts[2].table[2], 5) == 0.71602
        assert round(net.cpts[3].table[1], 6) == 0.159659
        assert net.cpts[4].table[0] == 1.0

    def test_networks_are_valid(self):
        for n, f, d, seed in [(1, 1, 0.0, 0), (4, 2, 1.0, 3), (12, 4, 0.5, 9),
                              (8, 3, 0.25, 11)]:
            net = gen_network(n, f, d, seed)
            assert BeliefNetwork(n, net.cpts) == net

    def test_parents_precede_children(self):
        net = gen_network(15, 4, 0.3, seed=5)
        for cpt in net.cpts:
            assert all(p < cpt.child for p in cpt.parents)
            assert len(cpt.parents) <= 3
            assert cpt.parents == tuple(sorted(cpt.parents))

    def test_family_cap(self):
        net = gen_network(20, 1, 0.0, seed=8)
        assert all(cpt.parents == () for cpt in net.cpts)

    def test_fully_deterministic(self):
        net = gen_network(10, 3, 1.0, seed=4)
        assert all(v in (0.0, 1.0) for cpt in net.cpts for v in cpt.table)

    def test_no_deterministic_rows_at_zero(self):
        net = gen_network(12, 4, 0.0, seed=6)
        assert all(0.0 < v < 1.0 for cpt in net.cpts for v in cpt.table)

    def test_deterministic_fraction_is_respected(self):
        net = gen_network(40, 4, 0.75, seed=7)
        rows = [v for cpt in net.cpts for v in cpt.table]
        frac = sum(1 for v in rows if v in (0.0, 1.0)) / len(rows)
        assert 0.65 <= frac <= 0.85

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            gen_network(0, 3, 0.5, seed=0)
        with pytest.raises(ValueError):
            gen_network(5, 0, 0.5, seed=0)
        with pytest.raises(ValueError):
            gen_network(5, 3, 1.5, seed=0)

    @pytest.mark.parametrize("args", [
        ("8", 3, 0.5, 0), (8.0, 3, 0.5, 0), (True, 3, 0.5, 0), (8, "3", 0.5, 0),
        (8, 3, "0.5", 0), (8, 3, True, 0), (8, 3, None, 0), (8, 3, 0.5, "1"),
        (8, 3, 0.5, 1.0), (8, 3, 0.5, False),
    ])
    def test_parameter_types(self, args):
        with pytest.raises(ValueError, match="must be an int"):
            gen_network(*args)


class TestGenQuery:
    def test_same_seed_same_query(self):
        net = gen_network(8, 3, 0.5, seed=13)
        assert gen_query(net, 3, 2, seed=5) == gen_query(net, 3, 2, seed=5)

    def test_frozen_query(self):
        net = gen_network(5, 3, 0.5, seed=42)
        phi = gen_query(net, 2, 1, seed=43)
        assert [str(c) for c in phi.clauses] == ["(-1 -3 4)", "(1 3 4)", "(-3)"]
        assert phi.provenance == (QUERY, QUERY, EVIDENCE)

    def test_clause_shape(self):
        net = gen_network(9, 3, 0.0, seed=21)
        phi = gen_query(net, 4, 0, seed=22)
        assert len(phi.clauses) == 4
        for c in phi.clauses:
            assert len(c) == 3
            assert len(c.variables()) == 3

    def test_observations_are_distinct_units(self):
        net = gen_network(9, 3, 0.0, seed=31)
        phi = gen_query(net, 0, 4, seed=32)
        units = [c.unit_literal() for c in phi.clauses]
        assert len({l.var for l in units}) == 4
        assert all(tag == EVIDENCE for tag in phi.provenance)

    def test_empty_query(self):
        net = gen_network(4, 2, 0.0, seed=1)
        phi = gen_query(net, 0, 0, seed=2)
        assert len(phi) == 0

    def test_parameter_validation(self):
        net = gen_network(4, 2, 0.0, seed=1)
        with pytest.raises(ValueError):
            gen_query(net, -1, 0, seed=0)
        with pytest.raises(ValueError):
            gen_query(net, 0, 5, seed=0)
        tiny = gen_network(2, 2, 0.0, seed=1)
        with pytest.raises(ValueError):
            gen_query(tiny, 1, 0, seed=0)

    @pytest.mark.parametrize("args", [("1", 0, 0), (1, 0.0, 0), (False, 0, 0), (1, 0, "2")])
    def test_parameter_types(self, args):
        net = gen_network(4, 2, 0.0, seed=1)
        with pytest.raises(ValueError, match="must be an int"):
            gen_query(net, *args)


def test_rng_identifier_is_stable():
    # recorded in generated files; renaming it would orphan old headers
    assert RNG_ALGORITHM == "python-random-mt19937"
