import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnfbelief import (
    ALGORITHMS,
    BeliefNetwork,
    Clause,
    CnfFormula,
    Cpt,
    Factor,
    Literal,
    ModelError,
    Ordering,
    brute_force_cpe,
    cpt_factors,
    evaluate,
    extract_clauses,
    parse_network,
    run_trace,
    serialize_network,
)
from cnfbelief.engine import EngineConfig, RunStats, _Run
from cnfbelief.model import EVIDENCE, QUERY, clause_of

from conftest import clause, close_enough, formula


class TestLiteral:
    def test_signed_codes(self):
        # DIMACS codes: 1-based, negative for a negated literal
        literals = (Literal(0), Literal(0, False), Literal(6), Literal(11, False))
        assert [Clause([lit]).codes for lit in literals] == [(1,), (-1,), (7,), (-12,)]

    def test_satisfied_by(self):
        assert Literal(2, True).satisfied_by(1)
        assert not Literal(2, True).satisfied_by(0)
        assert Literal(2, False).satisfied_by(0)

    def test_tuple_semantics(self):
        # a Literal is the tuple (var, positive): clause sets, sorting
        # and unpacking rely on it
        lit = Literal(1, True)
        assert lit == Literal(1, True) == (1, True)
        assert hash(lit) == hash(Literal(1, True)) == hash((1, True))
        assert lit != Literal(1, False) and lit != Literal(2, True)
        assert len({lit, Literal(1, True), Literal(1, False)}) == 2
        assert sorted([Literal(2, False), Literal(1, True), Literal(2, True),
                       Literal(1, False)]) == [Literal(1, False), Literal(1, True),
                                               Literal(2, False), Literal(2, True)]
        var, positive = lit
        assert (var, positive) == (lit.var, lit.positive) == (1, True)
        assert Literal(3).positive is True
        assert repr(lit) == "Literal(var=1, positive=True)"
        with pytest.raises(AttributeError):
            lit.var = 2


class TestClause:
    def test_duplicate_literals_collapse(self):
        c = Clause([Literal(0, True), Literal(0, True), Literal(1, False)])
        assert c.codes == (1, -2)

    def test_tautology_rejected(self):
        with pytest.raises(ModelError, match="^tautological clause on variable 0$"):
            Clause([Literal(0, True), Literal(0, False)])
        with pytest.raises(ModelError, match="^tautological clause on variable 4$"):
            Clause([Literal(1, True), Literal(4, False), Literal(4, True)])

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

    @settings(derandomize=True, database=None, max_examples=300)
    @given(lits=st.lists(st.builds(Literal, st.integers(0, 8), st.booleans()), max_size=8),
           data=st.data())
    def test_one_form_whatever_the_literal_order(self, lits, data):
        # the codes are the clause: distinct, sorted by variable, and
        # every view, comparison and printout follows from them
        row = [v + 1 if positive else -v - 1 for v, positive in lits]
        both = sorted(v for v, _ in lits if Literal(v, True) in lits and Literal(v, False) in lits)
        if both:
            for build in (lambda: Clause(lits), lambda: clause_of(row)):
                with pytest.raises(ModelError, match=f"^tautological clause on variable {both[0]}$"):
                    build()
            return
        c = Clause(lits)
        assert c.codes == tuple(sorted(set(row), key=abs))
        assert clause_of(row) == Clause(Literal(abs(s) - 1, s > 0) for s in row) == c
        assert Clause(lits + lits[::-1]) == c  # a repeated literal merges
        other = Clause(data.draw(st.permutations(lits)))
        shown = (hash(c), repr(c), str(c))
        assert other == c and (hash(other), repr(other), str(other)) == shown
        assert "literals" not in vars(c)
        assert c.literals == set(lits) and "literals" in vars(c)
        assert other == c and (hash(c), repr(c), str(c)) == shown


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

    def test_empty_clause_is_kept(self, net2):
        # allowed and unsatisfiable; the engine refuses it as it files it
        phi = CnfFormula([clause(1), Clause([])])
        assert [len(c) for c in phi.clauses] == [1, 0]
        assert str(phi.clauses[1]) == "()"
        assert brute_force_cpe(net2, phi) == 0.0

    def test_variables(self):
        assert formula(clause(1, -3), clause(2)).variables() == {0, 1, 2}

    def test_provenance_length_mismatch(self):
        with pytest.raises(ModelError):
            CnfFormula([clause(1)], [QUERY, QUERY])


class TestCpt:
    def test_tuple_semantics(self, pos_net):
        cpt = Cpt(1, (0,), (0.2, 0.9))
        assert cpt == Cpt(1, (0,), (0.2, 0.9)) == (1, (0,), (0.2, 0.9))
        assert cpt != Cpt(1, (0,), (0.2, 0.8))
        assert hash(cpt) == hash(Cpt(1, (0,), (0.2, 0.9)))
        child, parents, table = cpt
        assert (child, parents, table) == (cpt.child, cpt.parents, cpt.table)
        assert repr(cpt) == "Cpt(child=1, parents=(0,), table=(0.2, 0.9))"
        with pytest.raises(AttributeError):
            cpt.table = (0.5, 0.5)
        # a parsed copy of a network is equal to it, CPT by CPT
        copy = parse_network(serialize_network(pos_net))
        assert copy == pos_net and copy.cpts == pos_net.cpts

    def test_row_index_first_parent_most_significant(self):
        [f] = cpt_factors([Cpt(5, (2, 0), (0.1, 0.2, 0.3, 0.4))])
        assert f.scope == (2, 0, 5)
        assert f.values[1, 0, 1] == 0.3  # parent 2 = 1, parent 0 = 0: row 2
        assert f.values[0, 1, 1] == 0.2  # parent 2 = 0, parent 0 = 1: row 1

    def test_lookup_complements(self):
        [f] = cpt_factors([Cpt(1, (0,), (0.2, 0.9))])
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
        assert BeliefNetwork(pos_net.n, pos_net.cpts) == pos_net

    def test_child_mismatch_rejected(self):
        with pytest.raises(ModelError):
            BeliefNetwork(2, (Cpt(1, (), (0.5,)), Cpt(0, (), (0.5,))))

    def test_parent_out_of_range(self):
        with pytest.raises(ModelError):
            BeliefNetwork(1, (Cpt(0, (3,), (0.5, 0.5)),))

    def test_self_parent_rejected(self):
        with pytest.raises(ModelError):
            BeliefNetwork(1, (Cpt(0, (0,), (0.5, 0.5)),))

    def test_table_length_must_match_parent_count(self):
        with pytest.raises(ModelError):
            BeliefNetwork(2, (Cpt(0, (), (0.5,)), Cpt(1, (0,), (0.2,))))

    def test_probability_out_of_bounds(self):
        with pytest.raises(ModelError):
            BeliefNetwork(1, (Cpt(0, (), (1.5,)),))

    def test_cycle_detected(self):
        with pytest.raises(ModelError):
            BeliefNetwork(2, (Cpt(0, (1,), (0.5, 0.5)), Cpt(1, (0,), (0.5, 0.5))))

    def test_wrong_cpt_count_rejected(self):
        with pytest.raises(ModelError, match="expected 2 CPTs, got 1"):
            BeliefNetwork(2, (Cpt(0, (), (0.5,)),))

    def test_duplicate_parents_rejected(self):
        with pytest.raises(ModelError, match="duplicate parents for variable 1"):
            BeliefNetwork(2, (Cpt(0, (), (0.5,)), Cpt(1, (0, 0), (0.5,) * 4)))

    @pytest.mark.parametrize("cpts, message", [
        ((Cpt(0, (1, 1), (0.5,) * 4), Cpt(0, (), (0.5,))), "duplicate parents for variable 0"),
        ((Cpt(0, (), (0.5, 0.5)), Cpt(1, (3,), (0.5, 0.5))),
         "variable 0: table has 2 rows, expected 1"),
    ])
    def test_the_first_faulty_cpt_in_index_order_is_reported(self, cpts, message):
        # each CPT is checked whole before the next: cpts[1]'s fault
        # (wrong child, parent out of range) comes after cpts[0]'s
        with pytest.raises(ModelError) as exc:
            BeliefNetwork(len(cpts), cpts)
        assert str(exc.value) == message

    @pytest.mark.parametrize("n, cpts, message", [
        (1, (Cpt(0, (), (1.5,)),), "variable 0: probability 1.5 out of [0, 1]"),
        (1, (Cpt(0, (), (math.nan,)),), "variable 0: probability nan out of [0, 1]"),
        (2, (Cpt(0, (1,), (0.5, 0.5)), Cpt(1, (0,), (0.5, 0.5))), "cycle among variables [0, 1]"),
        (2, (Cpt(0, (), (0.5,)), Cpt(1, (-1,), (0.5, 0.5))), "parent -1 of 1 out of range"),
        (2, (Cpt(0, (), (0.5,)), Cpt(1, (0,), (0.2,))),
         "variable 1: table has 1 rows, expected 2"),
        (2, (Cpt(0, (), (0.5,)), Cpt(1, [0], (0.25, 0.75))),
         "variable 1: parents and table must be tuples"),
        (2, (Cpt(0, (), (0.5,)), Cpt(1, (0,), [0.25, 0.75])),
         "variable 1: parents and table must be tuples"),
        (1, [Cpt(0, (), (0.5,))], "cpts must be a tuple, got list"),
        (1.0, (Cpt(0, (), (0.5,)),), "n must be an int, got 1.0"),
        (1, (Cpt(0, (), ("0.5",)),), "variable 0: parents must be ints, entries numbers"),
        (1, (Cpt(0, (), (None,)),), "variable 0: parents must be ints, entries numbers"),
        (2, (Cpt(0, (), (0.5,)), Cpt(1, (0.0,), (0.5, 0.5))),
         "variable 1: parents must be ints, entries numbers"),
        (1, (Cpt(0.0, (), (0.5,)),), "cpts[0] has child 0.0"),
    ], ids=["prior-1.5", "prior-nan", "cycle", "parent-minus-1", "short-table",
            "list-parents", "list-table", "list-cpts", "float-n", "str-entry", "none-entry",
            "float-parent", "float-child"])
    def test_networks_the_evaluators_would_misread_are_refused(self, n, cpts, message):
        # unchecked, each reaches the evaluators: P(A=1) = 1.5 gives
        # answers above 1, a cycle gets an answer, a parent of -1 gets
        # different answers from cpe and brute, a short table an
        # IndexError, list parents a TypeError in cpe, cpe-d and hidden
        # (brute answers), and a list anywhere a mutable, unhashable
        # network; a float n or parent, or an entry that is no number,
        # failed in the constructor with a bare TypeError, and a float
        # child was built and then serialized as "cpt 0.0", which
        # parse_network refuses
        with pytest.raises(ModelError) as exc:
            BeliefNetwork(n, cpts)
        assert str(exc.value) == message

    def test_numpy_numbers_are_accepted(self):
        # operator.index takes numpy integers, so they pass where ints do,
        # and numpy floats pass as table entries; the answers are the same
        plain = BeliefNetwork(2, (Cpt(0, (), (0.5,)), Cpt(1, (0,), (0.25, 0.75))))
        mixed = BeliefNetwork(np.int64(2), (
            Cpt(np.int64(0), (), (np.float32(0.5),)),
            Cpt(np.int32(1), (np.int64(0),), (np.float64(0.25), np.float32(0.75)))))
        phi = CnfFormula([Clause([Literal(0, True), Literal(1, False)])])
        for alg in ALGORITHMS:
            assert close_enough(evaluate(mixed, phi, alg)[0], evaluate(plain, phi, alg)[0]), alg

    def test_reverse_numbered_chain_is_linear(self):
        # parents carry higher numbers than children, the worst case for
        # a sweep in index order
        n = 20_000
        lines = [f"vars {n}", f"cpt {n - 1} 0.5"]
        for v in range(n - 1):
            lines += [f"parents {v} {v + 1}", f"cpt {v} 0.25 0.75"]
        text = "\n".join(lines) + "\n"
        t0 = time.perf_counter()
        net = parse_network(text)
        assert time.perf_counter() - t0 < 2.0
        assert net.parents(0) == (1,)


# The fixpoint sweep the cycle check replaced, kept as the reference for
# the set of variables a cycle error must name.

def reference_cycle_remainder(parents: list[tuple[int, ...]]) -> list[int]:
    """``parents[v]`` is the parent tuple of variable v."""
    remaining = set(range(len(parents)))
    changed = True
    while changed and remaining:
        changed = False
        for v in sorted(remaining):
            if all(p not in remaining for p in parents[v]):
                remaining.discard(v)
                changed = True
    return sorted(remaining)


@st.composite
def relabelled_dags(draw):
    """(parents, label): a DAG whose variable k has parents among
    0..k-1, and a permutation that renames k to label[k]."""
    n = draw(st.integers(1, 10))
    parents = [draw(st.sets(st.integers(0, k - 1), max_size=3)) if k else set()
               for k in range(n)]
    label = draw(st.permutations(range(n)))
    return parents, label


def relabelled_cpts(parents, label) -> tuple[Cpt, ...]:
    cpts = [None] * len(parents)
    for k, ps in enumerate(parents):
        family = tuple(sorted(label[p] for p in ps))
        cpts[label[k]] = Cpt(label[k], family, (0.5,) * (1 << len(family)))
    return tuple(cpts)


class TestCycleCheckMatchesReference:
    @settings(derandomize=True, database=None, deadline=None)
    @given(relabelled_dags(), st.data())
    def test_dag_passes_and_back_edge_names_the_fixpoint_remainder(self, dag, data):
        parents, label = dag
        BeliefNetwork(len(parents), relabelled_cpts(parents, label))
        # walk down from a variable with children to one of its
        # descendants, then make that descendant its parent
        with_children = [k for k in range(len(parents)) if any(k in ps for ps in parents)]
        if not with_children:
            return
        top = data.draw(st.sampled_from(with_children))
        bottom = top
        while True:
            children = [k for k, ps in enumerate(parents) if bottom in ps]
            if not children or (bottom != top and data.draw(st.booleans())):
                break
            bottom = data.draw(st.sampled_from(children))
        parents[top] = parents[top] | {bottom}
        cpts = relabelled_cpts(parents, label)
        expected = reference_cycle_remainder([cpt.parents for cpt in cpts])
        assert label[top] in expected and label[bottom] in expected
        with pytest.raises(ModelError) as exc:
            BeliefNetwork(len(cpts), cpts)
        assert str(exc.value) == f"cycle among variables {expected}"


class TestNumbering:
    """The constructor skips its cycle pass when every parent is
    numbered below its child."""

    def test_an_acyclic_network_numbered_out_of_order_is_accepted(self):
        # 2 -> 0 -> 1: a parent above its child, and no cycle
        net = BeliefNetwork(3, (Cpt(0, (2,), (0.25, 0.75)), Cpt(1, (0,), (0.5, 1.0)),
                                Cpt(2, (), (0.5,))))
        assert evaluate(net, formula(clause(2)))[0] == brute_force_cpe(net, formula(clause(2)))

    @pytest.mark.parametrize("cpts, message", [
        # a cycle, and a faulty CPT after it: the CPT is reported
        ((Cpt(0, (1,), (0.5, 0.5)), Cpt(1, (0,), (0.5, 0.5)), Cpt(2, (), (2.0,))),
         "variable 2: probability 2.0 out of [0, 1]"),
        ((Cpt(0, (1,), (0.5, 0.5)), Cpt(1, (0,), (0.5, 0.5)), Cpt(2, (0.0,), (0.5, 0.5))),
         "variable 2: parents must be ints, entries numbers"),
        # every CPT passes: Kahn names the cycle and what hangs below it
        ((Cpt(0, (), (0.5,)), Cpt(1, (0, 3), (0.5,) * 4), Cpt(2, (1,), (0.5, 0.5)),
          Cpt(3, (2,), (0.5, 0.5)), Cpt(4, (3,), (0.5, 0.5))),
         "cycle among variables [1, 2, 3, 4]"),
        ((Cpt(0, (2,), (0.5, 0.5)), Cpt(1, (), (0.5,)), Cpt(2, (0,), (0.5, 0.5))),
         "cycle among variables [0, 2]"),
    ], ids=["cycle-then-entry", "cycle-then-float-parent", "cycle-with-descendant",
            "two-cycle"])
    def test_every_cycle_is_reported_after_the_cpts_pass(self, cpts, message):
        with pytest.raises(ModelError) as exc:
            BeliefNetwork(len(cpts), cpts)
        assert str(exc.value) == message


class TestFactor:
    def test_cpt_to_factor_agrees_with_lookup(self, pos_net):
        rng_rows = [(a, b) for a in (0, 1) for b in (0, 1)]
        cpt = pos_net.cpts[3]  # D given A,B
        [f] = cpt_factors([cpt])
        assert f.scope == (0, 1, 3)
        for a, b in rng_rows:
            for d in (0, 1):
                p_one = cpt.table[2 * a + b]
                want = p_one if d else 1.0 - p_one
                assert close_enough(f.values[a, b, d], want)

    def test_restrict_drops_axis(self):
        # the engine conditions a factor on its observed variables at once
        f = Factor((0, 2), np.array([[0.1, 0.9], [0.3, 0.7]]))
        run = _Run(Ordering((0, 1, 2)), EngineConfig(), RunStats())
        assert run._restrict(f) is f
        run.sigma[2] = 1
        g = run._restrict(f)
        assert g.scope == (0,)
        np.testing.assert_allclose(g.values, [0.9, 0.7])
        assert run.stats.mf == 1
        run.sigma[0] = 1
        assert float(run._restrict(f).values) == 0.7


@pytest.mark.parametrize("make, message", [
    (lambda: CnfFormula([clause(1)], ["guess"]), "^unknown provenance tag 'guess'$"),
    (lambda: clause(1, 2).unit_literal(), "^clause is not unit$"),
], ids=["provenance-tag", "unit-literal"])
def test_model_refusals(make, message):
    with pytest.raises(ModelError, match=message):
        make()


def test_close_enough_tolerances():
    assert close_enough(1.0, 1.0 + 1e-13)
    assert not close_enough(1.0, 1.001)
    assert close_enough(0.0, 1e-13)
    assert math.isclose(0.3 + 0.4, 0.7) and close_enough(0.3 + 0.4, 0.7)
