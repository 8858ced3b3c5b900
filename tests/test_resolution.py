import pytest

from cnfbelief import ModelError, Ordering, bdr_step, resolve, run_trace

from conftest import clause, close_enough, formula, row


class TestApplyUnit:
    """Reducing clauses by an observed unit, through run_trace on the
    two-node network (A=0, B=1)."""

    def test_satisfied_clause_vanishes(self, net2):
        p, stats, trace = run_trace(net2, formula(clause(2), clause(1, 2)), Ordering((0, 1)))
        assert (trace[0].bucket, trace[0].action, trace[0].derived) == (1, "observe", ())
        assert stats.derived_clauses == 0
        assert close_enough(p, 0.62)

    def test_unrelated_clause_unchanged(self, pos_net, d1):
        # observing G leaves (B or C) to gate bucket B as it was
        _, stats, trace = run_trace(pos_net, formula(clause(-6), clause(2, 3)), ordering=d1)
        entry = next(t for t in trace if t.bucket == 1)
        assert entry.action == "sum" and entry.derived == ()
        assert entry.scope == (0, 2)
        assert stats.derived_clauses == 0

    def test_falsified_literal_removed(self, net2):
        p, _, trace = run_trace(net2, formula(clause(-2), clause(1, 2)), Ordering((0, 1)))
        assert trace[0].derived == (clause(1),)
        assert close_enough(p, 0.6 * 0.1)

    def test_can_produce_empty_clause(self, net2):
        # A=0 and then B=1 falsify both literals of (A or not B)
        phi = formula(clause(-1), clause(1, -2), clause(2))
        p, _, trace = run_trace(net2, phi, Ordering((0, 1)))
        assert p == 0.0
        assert [(t.bucket, t.action) for t in trace] == [(0, "observe")]


class TestResolve:
    def test_basic_resolvent(self):
        assert resolve(row(1, 2), row(-2, 3), 1) == row(1, 3)

    def test_orientation_does_not_matter(self):
        assert resolve(row(-2, 3), row(1, 2), 1) == row(1, 3)

    def test_tautological_resolvent_is_none(self):
        assert resolve(row(1, 2), row(-2, -1), 1) is None

    def test_must_clash(self):
        with pytest.raises(ModelError):
            resolve(row(1, 2), row(3), 1)
        with pytest.raises(ModelError):
            resolve(row(1, 2), row(2, 3), 1)

    def test_resolving_units_gives_empty_clause(self):
        out = resolve(row(4), row(-4), 3)
        assert out is not None and len(out) == 0


class TestBdrStep:
    """bdr_step returns (resolvent, positive premise, negative premise)
    triples, the premises as input indices."""

    def test_two_clause_pivot(self):
        derived = bdr_step([row(1, 2), row(-2, 3)], 1, 2)
        assert derived == [(row(1, 3), 0, 1)]

    def test_bound_filters_long_resolvents(self):
        assert bdr_step([row(1, 2), row(-2, 3)], 1, 1) == []

    def test_bound_none_is_unlimited(self):
        derived = bdr_step([row(1, 2, 4), row(-2, 3, 5)], 1, None)
        assert derived == [(row(1, 3, 4, 5), 0, 1)]

    def test_deterministic_pair_order(self):
        pool = [row(1, 2), row(2, 3), row(-2, 4), row(-2, 5)]
        assert bdr_step(pool, 1, None) == [
            (row(1, 4), 0, 2), (row(1, 5), 0, 3),
            (row(3, 4), 1, 2), (row(3, 5), 1, 3),
        ]

    def test_resolvents_equal_to_inputs_are_dropped(self):
        pool = [row(1, 2), row(-2, 3), row(1, 3)]
        assert bdr_step(pool, 1, None) == []

    def test_duplicate_resolvents_collapse(self):
        pool = [row(1, 2), row(1, 2, 4), row(-2, 4), row(-2)]
        derived = bdr_step(pool, 1, None)
        # (1 4) arises twice and (1 2 4)x(-2 4) gives (1 4) as well;
        # each keeps the premises of its first derivation
        assert derived == [(row(1, 4), 0, 2), (row(1), 0, 3)]

    def test_tautologies_skipped(self):
        assert bdr_step([row(1, 2), row(-2, -1)], 1, None) == []

    def test_accepts_single_pass_iterables(self):
        derived = bdr_step(iter([row(1, 2), row(-2, 3)]), 1, 2)
        assert derived == [(row(1, 3), 0, 1)]

    def test_no_pairs_no_output(self):
        assert bdr_step([row(1, 2), row(2, 3)], 1, None) == []
