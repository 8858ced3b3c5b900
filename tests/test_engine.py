import itertools
import math
import random
import tracemalloc
import weakref

import numpy as np
import pytest

from cnfbelief import (
    BeliefNetwork,
    Clause,
    CnfFormula,
    Cpt,
    EngineConfig,
    Factor,
    ModelError,
    Ordering,
    ResourceLimitError,
    TraceEntry,
    brute_force_cpe,
    augmented_graph,
    belief_given_cnf,
    elim_cpe,
    engine,
    evaluate,
    extract_clauses,
    min_degree_order,
    parse_network,
    run_trace,
    serialize_network,
)
from cnfbelief.engine import _bucket_lambda
from cnfbelief.generator import gen_network, gen_query
from cnfbelief.graphs import _eliminate
from cnfbelief.model import EXTRACTED, QUERY
from cnfbelief.transforms import _ancestral, _pruned_run

from conftest import clause, close_enough, formula, row, rows_and_tags

P_PHI42 = 0.3811715
P_NOT_G_HYB = 0.35395


class TestEngineConfig:
    def test_defaults(self):
        cfg = EngineConfig()
        assert cfg.i_bound == 0
        assert cfg.dynamic_reorder

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError):
            EngineConfig(i_bound=-1)

    @pytest.mark.parametrize("bound", ["2", 1.5, True, False])
    def test_bound_must_be_an_int(self, bound):
        with pytest.raises(ValueError, match="i_bound must be"):
            EngineConfig(i_bound=bound)

    def test_none_means_unbounded(self):
        assert EngineConfig(i_bound=None).i_bound is None

    @pytest.mark.parametrize("flag", ["no", 1, 0, None])
    def test_reorder_must_be_a_bool(self, flag):
        with pytest.raises(ValueError, match="dynamic_reorder must be a bool"):
            EngineConfig(dynamic_reorder=flag)


class TestPartition:
    """Items are filed in the bucket of their latest variable and unit
    buckets are promoted; seen through run_trace."""

    def test_items_land_in_latest_buckets(self, pos_net, phi42, d1):
        p, _, trace = run_trace(pos_net, phi42, ordering=d1)
        assert close_enough(p, P_PHI42)
        # no unit clauses: processing order is simply last-to-first
        assert [t.bucket for t in trace] == [5, 4, 3, 1, 2, 0]
        scopes = {t.bucket: t.scope for t in trace}
        # bucket G: CPT (F, D, G) and clause (G or D)
        assert scopes[5] == (4, 3)
        # bucket D: CPT (A, B, D), clause (not D or not B), lambda (B, C, D)
        assert scopes[3] == (0, 1, 2)
        # bucket B: CPT (A, B), clause (B or C), lambda (A, B, C)
        assert scopes[1] == (0, 2)

    def test_unit_buckets_jump_to_front(self, pos_net, phi42, d1):
        phi = phi42.conjoin(formula(clause(1)))  # unit on A, earliest in d1
        p, _, trace = run_trace(pos_net, phi, ordering=d1)
        assert [t.bucket for t in trace] == [0, 5, 4, 3, 1, 2]
        assert trace[0].action == "observe"
        assert close_enough(p, brute_force_cpe(pos_net, phi))

    def test_promotion_follows_discovery_order(self, pos_net, d1):
        _, _, trace = run_trace(pos_net, formula(clause(-6), clause(2)), ordering=d1)
        assert [t.bucket for t in trace][:2] == [5, 1]
        _, _, trace = run_trace(pos_net, formula(clause(2), clause(-6)), ordering=d1)
        assert [t.bucket for t in trace][:2] == [1, 5]

    def test_empty_clause_contradicts(self, net2):
        p, stats, trace = run_trace(net2, CnfFormula([Clause([])]), Ordering((0, 1)))
        assert p == 0.0 and trace == []
        assert stats.log_result == float("-inf")

    def test_opposing_units_contradict(self, net2):
        p, _, trace = run_trace(net2, formula(clause(1), clause(-1)), Ordering((0, 1)))
        assert p == 0.0 and trace == []

    def test_foreign_variable_rejected(self, net2):
        with pytest.raises(ModelError):
            elim_cpe(net2, formula(clause(7)), Ordering((0, 1)))

    def test_short_ordering_rejected(self, pos_net, phi42):
        with pytest.raises(ModelError):
            elim_cpe(pos_net, phi42, Ordering((0, 1, 2)))


def _roots(*priors: float) -> BeliefNetwork:
    return BeliefNetwork(len(priors), tuple(Cpt(v, (), (p,)) for v, p in enumerate(priors)))


# P=0, Q=1, R=2 as independent roots; ordering (P, R, Q) sums Q first,
# with (P or Q) and (not Q or R) filed in its bucket
PQR_ORDER = Ordering((0, 2, 1))
PQR_CLAUSES = (clause(1, 2), clause(-2, 3))
PQR_ROWS = (row(1, 2), row(-2, 3))


class TestEliminateBucket:
    """Summing a bucket out, through run_trace on small networks."""

    def test_no_run_logs_a_resolve_entry(self):
        # each variable's CPT reaches its bucket before the variable is
        # summed, so no bucket is summed without a factor (the kernel
        # asserts it) and no bucket ends in clause work alone
        for k in range(30):
            net = gen_network(5 + k % 6, 3, (0.0, 0.5, 0.9)[k % 3], 8100 + k)
            phi = gen_query(net, c=2 + k % 4, e=k % 3, seed=9100 + k)
            phi = phi.conjoin(extract_clauses(net))
            for cfg in (EngineConfig(i_bound=None), EngineConfig(dynamic_reorder=False),
                        EngineConfig(i_bound=2)):
                _, _, trace = run_trace(net, phi, cfg=cfg)
                assert {t.action for t in trace} <= {"sum", "observe"}

    def test_factor_bucket_with_clause_gate(self, pos_net, d1):
        phi = formula(clause(6, 4))
        p, _, trace = run_trace(pos_net, phi, ordering=d1)
        assert (trace[0].bucket, trace[0].action) == (5, "sum")
        assert trace[0].scope == (4, 3)
        assert trace[0].derived == ()
        assert close_enough(p, brute_force_cpe(pos_net, phi))

    def test_bound_zero_derives_nothing(self):
        net = _roots(0.3, 0.6, 0.2)
        _, stats, trace = run_trace(net, formula(*PQR_CLAUSES), PQR_ORDER,
                                    EngineConfig(i_bound=0))
        assert trace[0].bucket == 1 and trace[0].derived == ()
        assert stats.derived_clauses == 0
        _, stats, trace = run_trace(net, formula(*PQR_CLAUSES), PQR_ORDER,
                                    EngineConfig(i_bound=2))
        assert trace[0].derived == (clause(1, 3),)
        assert stats.derived_clauses == 1

    def test_bound_one_filters_binary_resolvent(self):
        net = _roots(0.3, 0.6, 0.2)
        _, stats, trace = run_trace(net, formula(*PQR_CLAUSES), PQR_ORDER,
                                    EngineConfig(i_bound=1))
        assert trace[0].derived == ()
        assert stats.derived_clauses == 0

    def test_unit_bucket_refused(self, pos_net, d1):
        # a bucket holding a unit clause is observed, never summed
        _, _, trace = run_trace(pos_net, formula(clause(-4), clause(4, 6)), ordering=d1)
        assert [(t.bucket, t.action) for t in trace if t.bucket == 3] == [(3, "observe")]

    def test_empty_bucket(self, pos_net, phi42, d1):
        # no bucket is ever empty: each kept variable's CPT reaches its
        # bucket, so a completed run logs exactly one entry per variable
        # of the query's ancestral set
        for phi, kept in ((CnfFormula([]), []), (formula(clause(4)), [0, 1, 3]),
                          (phi42, list(range(6))),
                          (phi42.conjoin(formula(clause(-6))), list(range(6)))):
            _, _, trace = run_trace(pos_net, phi, ordering=d1)
            assert sorted(t.bucket for t in trace) == kept

    # The engine itself: the front door gives a caller's uncertain
    # clause tagged extracted the flag False, so it gates (TestCertifiedTag).
    def test_sum_exempt_clauses_resolve_but_do_not_gate(self):
        net = _roots(0.3, 0.6, 0.2)
        p, _, trace = engine._execute(net, (0, 1, 2), PQR_ROWS, (True, True),
                                      PQR_ORDER, EngineConfig(i_bound=2), engine.RunStats())
        assert trace[0].scope == ()
        assert trace[0].derived == (clause(1, 3),)
        # neither the inputs nor their exempt resolvent constrain the sum
        assert close_enough(p, 1.0)

    def test_query_copy_strips_the_exemption(self):
        # the same clauses filed exempt and not exempt gate the sum,
        # whichever occurrence is filed first
        net = _roots(0.3, 0.6, 0.2)
        for exempt in ((False, False, True, True), (True, True, False, False)):
            p, _, trace = engine._execute(net, (0, 1, 2), PQR_ROWS * 2, exempt, PQR_ORDER,
                                          EngineConfig(i_bound=2), engine.RunStats())
            assert trace[0].bucket == 1 and trace[0].scope == (0, 2)
            assert close_enough(p, brute_force_cpe(net, formula(*PQR_CLAUSES)))

    def test_opposing_units_block_summation(self, net2):
        p, _, trace = run_trace(net2, formula(clause(2), clause(-2)), Ordering((0, 1)))
        assert p == 0.0
        assert not any(t.action == "sum" for t in trace)

    def test_zero_rows_from_gating(self, net2):
        # (A or B) and (A or not B) zero both rows of bucket B under A=0
        phi = formula(clause(1, 2), clause(1, -2))
        p, _, trace = run_trace(net2, phi, Ordering((0, 1)))
        assert (trace[0].bucket, trace[0].scope) == (1, (0,))
        assert close_enough(p, 0.6)


class TestProcessObservedBucket:
    """Observing a bucket: restriction, unit resolution, contradiction."""

    def test_restrict_and_resolve(self):
        # P=0 root, Q=1 child of P, R=2 root; Q is processed first
        net = BeliefNetwork(3, (Cpt(0, (), (0.4,)), Cpt(1, (0,), (0.9, 0.7)),
                                Cpt(2, (), (0.5,))))
        phi = formula(clause(-2), clause(-2, 3), clause(2, 1))
        p, stats, trace = run_trace(net, phi, PQR_ORDER)
        assert (trace[0].bucket, trace[0].action) == (1, "observe")
        assert trace[0].derived == (clause(1),)
        assert (trace[1].bucket, trace[1].action) == (0, "observe")
        assert stats.mf == 1  # CPT (P, Q) restricted to (P,)
        assert close_enough(p, brute_force_cpe(net, phi))
        assert close_enough(p, 0.4 * 0.3)

    def test_contradiction_flag(self, net2):
        # observing A=0 then B=0 falsifies (A or B) in bucket B
        phi = formula(clause(-1), clause(-2), clause(1, 2))
        p, stats, trace = run_trace(net2, phi, Ordering((0, 1)))
        assert p == 0.0
        assert [(t.bucket, t.action) for t in trace] == [(0, "observe")]
        assert stats.width_posthoc is None

    def test_explicit_unit_parameter(self):
        # observing a root leaves its prior as a scalar
        p, stats, trace = run_trace(_roots(0.75), formula(clause(1)))
        assert p == 0.75
        assert [(t.bucket, t.action) for t in trace] == [(0, "observe")]
        assert stats.mf == 0

    def test_missing_unit_rejected(self, pos_net, phi42, d1):
        # without a unit clause no bucket is observed
        _, stats, trace = run_trace(pos_net, phi42, ordering=d1)
        assert stats.observed == 0
        assert all(t.action == "sum" for t in trace)


class TestElimCpeValues:
    def test_empty_formula_normalizes(self, net2, pos_net):
        p, _ = elim_cpe(net2, CnfFormula([]))
        assert close_enough(p, 1.0)
        p, _ = elim_cpe(pos_net, CnfFormula([]))
        assert close_enough(p, 1.0)

    def test_empty_network_gives_float_one(self):
        # no scalar falls out of the pass; the empty product is 1.0, not 1
        p, stats = elim_cpe(BeliefNetwork(0, ()), CnfFormula([]))
        assert type(p) is float and p == 1.0
        assert type(stats.as_dict()["result"]) is float
        assert stats.log_result == 0.0
        assert stats.mf == 0 and stats.width_static == 0 and stats.width_posthoc == 0

    def test_two_node_disjunction(self, net2):
        p, _ = elim_cpe(net2, formula(clause(1, 2)))
        assert close_enough(p, 0.68)

    def test_six_node_query(self, pos_net, phi42, d1):
        p, stats = elim_cpe(pos_net, phi42, ordering=d1)
        assert close_enough(p, P_PHI42)
        assert stats.width_static == 3
        assert stats.observed == 0
        assert stats.extracted == 0

    def test_hybrid_query(self, hyb_net, query_not_g, d1):
        p, stats = elim_cpe(hyb_net, query_not_g, ordering=d1)
        assert close_enough(p, P_NOT_G_HYB)
        assert stats.observed >= 1

    def test_unsatisfiable_query_returns_zero(self, net2):
        p, _ = elim_cpe(net2, formula(clause(1), clause(-1)))
        assert p == 0.0

    def test_empty_clause_returns_zero(self, net2):
        p, _ = elim_cpe(net2, CnfFormula([Clause([])]))
        assert p == 0.0

    @pytest.mark.parametrize("alg", ["cpe", "cpe-d", "hidden"])
    def test_empty_clause_ends_the_run_as_it_is_filed(self, alg):
        # filed after units, clauses and an extracted clause: no algorithm
        # counts, restricts, propagates or traces anything before the
        # empty clause is refused, hidden's compiling it into a child included
        net = gen_network(12, 3, 0.5, 3)
        query = gen_query(net, 3, 2, 4)
        extracted = extract_clauses(net).clauses[0]
        phi = query.conjoin(CnfFormula([extracted, Clause([])], [EXTRACTED, QUERY]))
        p, stats = evaluate(net, phi, alg)
        assert p == 0.0 and stats.log_result == -math.inf
        assert belief_given_cnf(net, phi, 0, alg) is None
        assert stats.trace == [] and stats.mf == 0
        assert stats.extracted == 0 and stats.forced == 0
        assert stats.width_posthoc is None

    def test_conditioning_by_units(self, pos_net):
        # P(not G and B) should match the oracle and observe two buckets
        phi = formula(clause(-6), clause(2))
        p, stats = elim_cpe(pos_net, phi)
        assert close_enough(p, brute_force_cpe(pos_net, phi))
        assert stats.observed == 2

    def test_result_is_ordering_invariant(self, pos_net, phi42):
        for perm in itertools.permutations(range(6)):
            p, _ = elim_cpe(pos_net, phi42, ordering=Ordering(perm))
            assert close_enough(p, P_PHI42), f"ordering {perm}"

    def test_result_is_bound_invariant(self, hyb_net, query_not_g, pos_net, phi42):
        for i_bound in (0, 1, 2, 3, None):
            cfg = EngineConfig(i_bound=i_bound)
            p, _ = elim_cpe(hyb_net, query_not_g, cfg=cfg)
            assert close_enough(p, P_NOT_G_HYB), f"i={i_bound}"
            q, _ = elim_cpe(pos_net, phi42, cfg=cfg)
            assert close_enough(q, P_PHI42), f"i={i_bound}"

    def test_result_ignores_reordering_flag(self, pos_net):
        phi = formula(clause(-6), clause(2, 3))
        want = brute_force_cpe(pos_net, phi)
        for flag in (True, False):
            p, _ = elim_cpe(pos_net, phi, cfg=EngineConfig(dynamic_reorder=flag))
            assert close_enough(p, want)

    def test_all_zero_summation_propagates(self):
        net = BeliefNetwork(2, (Cpt(0, (), (0.5,)), Cpt(1, (), (0.5,))))
        phi = formula(clause(1, 2), clause(1, -2), clause(-1, 2), clause(-1, -2))
        for i_bound in (0, None):
            p, _ = elim_cpe(net, phi, cfg=EngineConfig(i_bound=i_bound))
            assert p == 0.0

    def test_mismatched_ordering_rejected(self, pos_net, phi42):
        with pytest.raises(ModelError):
            elim_cpe(pos_net, phi42, ordering=Ordering((0, 1)))

    def test_stats_dict_keys(self, net2):
        _, stats = elim_cpe(net2, formula(clause(1, 2)))
        assert list(stats.as_dict()) == [
            "result", "time_s", "mf", "C", "U", "F", "O",
            "width_static", "width_posthoc",
        ]


class TestStaleClauseSweep:
    """An observation made in a promoted bucket must still reach clauses
    already filed in buckets that were partitioned earlier."""

    def test_unit_cascade_through_sweep(self, net2):
        # (A or B) files under bucket B; observing A in the promoted
        # bucket A leaves it stale until bucket B picks it back up
        phi = formula(clause(-1), clause(1, 2))
        p, stats = elim_cpe(net2, phi, ordering=Ordering((0, 1)))
        assert close_enough(p, 0.08)  # P(A=0, B=1)
        assert stats.observed == 2
        assert stats.derived_units == 1

    def test_without_reordering_the_gate_does_the_work(self, net2):
        phi = formula(clause(-1), clause(1, 2))
        p, stats = elim_cpe(net2, phi, ordering=Ordering((0, 1)),
                            cfg=EngineConfig(dynamic_reorder=False))
        assert close_enough(p, 0.08)
        assert stats.derived_units == 0
        assert stats.observed == 1

    def test_swept_query_clause_keeps_gating(self):
        # (A or B or X) is filed before the extracted (A or X); observing
        # B=0 reduces it to (A or X) in the sweep, and that query
        # occurrence must keep the merged clause gating the sum over X
        phi = CnfFormula([clause(1, 2, 3), clause(-2), clause(1, 3)],
                         (QUERY, QUERY, EXTRACTED))
        net = _roots(0.3, 0.6, 0.2)
        p, _, trace = run_trace(net, phi, Ordering((0, 1, 2)))
        assert [(t.bucket, t.action, t.scope) for t in trace] == [
            (1, "observe", ()), (2, "sum", (0,)), (0, "sum", ())]
        assert close_enough(p, brute_force_cpe(net, phi))

    def test_opposing_swept_units_count_once(self):
        # with A=0 and B=0 observed, the sweep of bucket X derives (X)
        # from (A or X), then (not X) from (B or not X), which ends the
        # run; the counters cover the kept unit only
        phi = formula(clause(-1), clause(-2), clause(1, 3), clause(2, -3))
        p, stats, trace = run_trace(_roots(0.3, 0.6, 0.2), phi, Ordering((0, 1, 2)))
        assert p == 0.0
        assert [(t.bucket, t.action) for t in trace] == [(0, "observe"), (1, "observe")]
        assert (stats.derived_clauses, stats.derived_units) == (1, 1)

    def test_swept_unit_appears_in_trace(self, net2):
        phi = formula(clause(-1), clause(1, 2))
        _, _, trace = run_trace(net2, phi, ordering=Ordering((0, 1)))
        assert [t.bucket for t in trace] == [0, 1]
        assert [t.action for t in trace] == ["observe", "observe"]
        assert trace[1].derived == (clause(2),)


class TestTrace:
    def test_entry_formatting(self):
        entry = TraceEntry(5, "sum", (4, 3), (clause(-4, -2), clause(1)))
        assert entry.format() == "bucket=5 action=sum scope=4,3 derived=-2,-4;1"

    def test_empty_fields_format_empty(self):
        assert TraceEntry(0, "observe", (), ()).format() == \
            "bucket=0 action=observe scope= derived="

    def test_pure_sum_run_scopes(self, pos_net, phi42, d1):
        _, _, trace = run_trace(pos_net, phi42, ordering=d1)
        assert [t.bucket for t in trace] == [5, 4, 3, 1, 2, 0]
        assert all(t.action == "sum" for t in trace)
        assert [t.scope for t in trace] == [
            (4, 3), (1, 2, 3), (0, 1, 2), (0, 2), (0,), (),
        ]
        assert trace[0].format() == "bucket=5 action=sum scope=4,3 derived="

    def test_chain_scopes_shrink(self):
        chain = BeliefNetwork(4, (
            Cpt(0, (), (0.3,)),
            Cpt(1, (0,), (0.2, 0.7)),
            Cpt(2, (1,), (0.4, 0.9)),
            Cpt(3, (2,), (0.5, 0.1)),
        ))
        # the clause holds the last two variables, so all four are kept
        _, _, trace = run_trace(chain, formula(clause(3, 4)), ordering=Ordering((0, 1, 2, 3)))
        assert [t.scope for t in trace] == [(2,), (1,), (0,), ()]

    def test_observation_entries(self, net2):
        p, _, trace = run_trace(net2, formula(clause(-2)))
        assert close_enough(p, 0.38)
        assert [t.bucket for t in trace] == [1, 0]
        assert trace[0].action == "observe"
        assert trace[0].scope == ()
        assert trace[1].action == "sum"

    def test_promoted_buckets_run_in_discovery_order(self, pos_net, d1):
        phi = formula(clause(-6), clause(2))
        _, _, trace = run_trace(pos_net, phi, ordering=d1)
        assert [t.bucket for t in trace] == [5, 1, 4, 3, 2, 0]
        assert trace[0].action == "observe"
        assert trace[1].action == "observe"

    def test_no_reorder_keeps_static_order(self, pos_net, d1):
        phi = formula(clause(-6), clause(2))
        _, _, trace = run_trace(pos_net, phi, ordering=d1,
                                cfg=EngineConfig(dynamic_reorder=False))
        assert [t.bucket for t in trace] == [5, 4, 3, 1, 2, 0]
        assert trace[0].action == "observe"
        assert trace[3].action == "observe"


class TestStatsAgainstOracle:
    def test_randomized_agreement(self):
        mismatches = []
        for k in range(25):
            net = gen_network(n=4 + k % 5, f=3, d=0.5 if k % 2 else 0.0,
                              seed=900 + k)
            phi = gen_query(net, c=k % 4, e=k % 3, seed=1900 + k)
            want = brute_force_cpe(net, phi)
            for cfg in (EngineConfig(), EngineConfig(i_bound=2),
                        EngineConfig(i_bound=None),
                        EngineConfig(dynamic_reorder=False)):
                got, _ = elim_cpe(net, phi, cfg=cfg)
                if not close_enough(got, want):
                    mismatches.append((k, cfg, want, got))
        assert not mismatches

    def test_monotone_under_conjunction(self):
        for k in range(10):
            net = gen_network(n=6, f=3, d=0.3, seed=700 + k)
            phi = gen_query(net, c=2, e=0, seed=1700 + k)
            psi = gen_query(net, c=1, e=1, seed=2700 + k)
            p_both, _ = elim_cpe(net, phi.conjoin(psi))
            p_phi, _ = elim_cpe(net, phi)
            assert p_both <= p_phi + 1e-12

    def test_unit_complement_sums_to_one(self):
        for k in range(10):
            net = gen_network(n=7, f=3, d=0.4, seed=500 + k)
            p1, _ = elim_cpe(net, formula(clause(3)))
            p0, _ = elim_cpe(net, formula(clause(-3)))
            assert close_enough(p1 + p0, 1.0)

    def test_width_posthoc_reported_on_success(self, pos_net, phi42, d1):
        _, stats = elim_cpe(pos_net, phi42, ordering=d1)
        assert stats.width_posthoc is not None
        assert stats.width_posthoc <= stats.width_static

    def test_mf_bounded_by_static_width(self):
        for k in range(15):
            net = gen_network(n=8, f=3, d=0.5, seed=4400 + k)
            phi = gen_query(net, c=3, e=1, seed=5400 + k)
            _, stats = elim_cpe(net, phi)
            assert stats.mf <= stats.width_static


class TestOrderingUnderEvidence:
    """The default ordering leaves phi's unit variables to the end, so
    they are observed before anything is summed, and width_static lets
    them add no fill."""

    def test_mf_bounded_by_static_width_without_reordering(self):
        # cpe and cpe-d along the default and three random orderings,
        # hidden along the default, at three bounds: 8,100 runs
        runs = 0
        for k in range(300):
            rng = random.Random(6600 + k)
            n = rng.randint(3, 30)
            net = gen_network(n, rng.randint(1, 4), rng.choice((0.0, 0.3, 0.9)), seed=6600 + k)
            phi = gen_query(net, rng.randint(0, n // 3), rng.randint(0, n // 2), seed=7600 + k)
            orders = [None] + [Ordering(tuple(rng.sample(range(n), n))) for _ in range(3)]
            runs_of = [("hidden", None)] + [(alg, o) for alg in ("cpe", "cpe-d") for o in orders]
            for bound in (0, 2, None):
                cfg = EngineConfig(i_bound=bound, dynamic_reorder=False)
                for alg, order in runs_of:
                    _, stats = evaluate(net, phi, alg, cfg, order)
                    assert stats.mf <= stats.width_static, (k, alg, bound, order)
                    runs += 1
        assert runs == 8100

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_same_answer_as_the_evidence_blind_ordering(self, seed):
        # the wide-tables structures, run along min-degree on the whole
        # augmented graph, units included, which was the default before
        net = gen_network(90, 4, 0, seed)
        phi = gen_query(net, c=30, e=10, seed=seed + 1)
        kept = _ancestral(net, rows_and_tags(phi)[0])
        blind = min_degree_order(augmented_graph(net, phi, kept)).order
        blind += tuple(v for v in net.variables() if v not in blind)
        p, stats = elim_cpe(net, phi)
        q, blind_stats = elim_cpe(net, phi, ordering=Ordering(blind))
        assert p > 0.0
        assert math.isclose(p, q, rel_tol=1e-12, abs_tol=0.0)
        assert math.isclose(stats.log_result, blind_stats.log_result, rel_tol=1e-12)

    def test_evidence_heavy_query_stays_narrow(self):
        # 2,000 of 4,000 variables observed: min-degree over the graph
        # with them in asked for a 28-variable table here
        net = gen_network(4000, 3, 0, 0)
        phi = gen_query(net, c=0, e=2000, seed=1)
        logs = []
        for alg, cfg in (("cpe", EngineConfig()), ("cpe", EngineConfig(dynamic_reorder=False)),
                         ("cpe-d", EngineConfig(i_bound=2))):
            _, stats = evaluate(net, phi, alg, cfg)
            assert stats.mf <= 12 and stats.width_static <= 12, (alg, cfg, stats)
            logs.append(stats.log_result)
        assert all(math.isclose(x, logs[0], rel_tol=0.0, abs_tol=1e-9) for x in logs), logs


def wide_instance(seed):
    """A wide-tables structure: its network, query, augmented graph and
    units."""
    net = gen_network(90, 4, 0.0, seed)
    phi = gen_query(net, c=30, e=10, seed=seed + 1)
    units = tuple(sorted({c.unit_literal().var for c in phi.clauses if c.is_unit()}))
    return net, phi, augmented_graph(net, phi, _ancestral(net, rows_and_tags(phi)[0])), units


class TestMinFillPass:
    """The engine runs a min-fill pass only when the min-degree order
    implies more than 2**_BLOCK_ARITY table entries per vertex, and
    keeps whichever order implies fewer."""

    @pytest.fixture
    def passes(self, monkeypatch):
        eliminate, calls = engine._eliminate, []

        def recorded(*args, **kwargs):
            out = eliminate(*args, **kwargs)
            calls.append((kwargs.get("min_fill", False), out))
            return out

        monkeypatch.setattr(engine, "_eliminate", recorded)
        return calls

    def test_wide_structure_0_takes_the_min_fill_order(self, passes):
        net, phi, aug, units = wide_instance(0)
        md_order, md_width, md_entries = _eliminate(aug, units, None, unfilled=units)
        assert md_width == 22 and md_entries > len(aug) << engine._BLOCK_ARITY
        passes.clear()
        p, stats = evaluate(net, phi, "cpe")
        assert [min_fill for min_fill, _ in passes] == [False, True]
        assert stats.width_static == 19 and stats.entries_static < md_entries
        # along the min-degree order, given: no greedy slot, so one pass
        passes.clear()
        given = tuple(v for v in net.variables() if v not in aug) + md_order.order
        q, md_stats = evaluate(net, phi, "cpe", ordering=Ordering(given))
        assert [min_fill for min_fill, _ in passes] == [False]
        assert (md_stats.width_static, md_stats.entries_static) == (md_width, md_entries)
        assert stats.mf < md_stats.mf
        assert math.isclose(p, q, rel_tol=1e-9, abs_tol=0.0)

    @pytest.mark.parametrize("seed", range(1, 12))
    def test_structures_below_the_threshold_keep_the_min_degree_order(self, passes, seed):
        net, phi, aug, units = wide_instance(seed)
        _, stats = evaluate(net, phi, "cpe")
        [(min_fill, (order, width, entries))] = passes
        assert not min_fill and entries <= len(aug) << engine._BLOCK_ARITY
        assert order == _eliminate(aug, units, None, unfilled=units)[0]
        assert (stats.width_static, stats.entries_static) == (width, entries)


class TestLoadedFactors:
    """The CPT factors a run loads, built one parent count at a time as
    views of one shared array."""

    def test_factors_match_each_table(self, monkeypatch):
        net = gen_network(30, 5, 0.5, 8123)
        assert {len(cpt.parents) for cpt in net.cpts} == set(range(5))
        variables = tuple(random.Random(8123).sample(range(net.n), net.n))
        loaded = []
        load = engine._Run.load

        def spy(run, factors, clauses, exempt):
            loaded.append(list(factors))
            return load(run, loaded[-1], clauses, exempt)

        monkeypatch.setattr(engine._Run, "load", spy)
        engine._execute(net, variables, [], (), None, None, engine.RunStats())
        [factors] = loaded
        assert [f.scope for f in factors] == [net.family(v) for v in variables]
        for v, f in zip(variables, factors):
            table = net.cpts[v].table
            want = np.empty((2,) * len(f.scope))
            for r, row in enumerate(itertools.product((0, 1), repeat=len(f.scope) - 1)):
                want[row] = (1.0 - table[r], table[r])
            np.testing.assert_array_equal(f.values, want)
            assert not f.values.flags.writeable

    @pytest.mark.parametrize("alg", ["cpe", "cpe-d", "hidden"])
    def test_evaluating_twice_gives_the_same_run(self, alg):
        net = parse_network(serialize_network(gen_network(40, 5, 0.5, 8124)))
        phi = gen_query(net, c=4, e=2, seed=8125)
        cfg = EngineConfig(i_bound=2)

        def summary(stats):
            counters = {k: v for k, v in stats.as_dict().items() if k != "time_s"}
            return (stats.log_result, stats.log_joint, counters,
                    [entry.format() for entry in stats.trace])

        runs = [summary(evaluate(net, phi, alg, cfg)[1]) for _ in range(2)]
        assert runs[0] == runs[1] and runs[0][0] > -math.inf
        for var in (0, 17, 39):
            beliefs = [belief_given_cnf(net, phi, var, alg, cfg) for _ in range(2)]
            assert beliefs[0] == beliefs[1]
            runs = [summary(_pruned_run(net, phi, alg, cfg, var=var)) for _ in range(2)]
            assert runs[0] == runs[1]


class TestResourceLimit:
    def test_allocation_failure_names_the_bucket(self, pos_net, phi42, d1, monkeypatch):
        def refuse(*args):
            raise MemoryError("cannot allocate")

        monkeypatch.setattr(engine, "_bucket_lambda", refuse)
        with pytest.raises(ResourceLimitError) as info:
            run_trace(pos_net, phi42, ordering=d1)
        # bucket 5 (G) is summed first, into a table over (E, D)
        assert (info.value.variable, info.value.arity) == (5, 2)
        assert "bucket 5" in str(info.value) and "2 remaining" in str(info.value)
        assert isinstance(info.value.__cause__, MemoryError)

    def test_a_clause_table_past_numpy_is_refused_before_it_is_built(self, monkeypatch):
        # hidden loads one clause over 70 fair roots as its table, which
        # would span more axes than numpy can address
        def built(*args):
            raise AssertionError("clause_table ran")

        monkeypatch.setattr(engine, "clause_table", built)
        net = BeliefNetwork(70, tuple(Cpt(v, (), (0.5,)) for v in range(70)))
        with pytest.raises(ResourceLimitError) as info:
            evaluate(net, formula(clause(*range(1, 71))), "hidden")
        assert 0 <= info.value.variable < 70 and info.value.arity == 69

    def test_a_clause_table_that_fails_to_allocate_names_a_clause_variable(
            self, net2, monkeypatch):
        def refuse(*args):
            raise MemoryError("cannot allocate")

        monkeypatch.setattr(engine, "clause_table", refuse)
        for run in (lambda: evaluate(net2, formula(clause(1, -2)), "hidden"),
                    lambda: belief_given_cnf(net2, formula(clause(1, -2)), 0, "hidden")):
            with pytest.raises(ResourceLimitError) as info:
                run()
            assert info.value.variable in (0, 1) and info.value.arity == 1
            assert isinstance(info.value.__cause__, MemoryError)


# The dense kernel this package used before the contraction kernel,
# kept verbatim as the reference: it builds the full product over the
# bucket scope plus the pivot, gates it with full-scope clause masks and
# sums the pivot axis.

def _aligned(factor: Factor, axis: dict[int, int], ndim: int) -> np.ndarray:
    """Transpose and reshape a factor's array to broadcast over the
    full bucket scope laid out by ``axis``."""
    perm = sorted(range(len(factor.scope)), key=lambda i: axis[factor.scope[i]])
    arr = factor.values.transpose(perm)
    shape = [1] * ndim
    for w in factor.scope:
        shape[axis[w]] = 2
    return arr.reshape(shape)


def _clause_mask(clause: frozenset[int], axis: dict[int, int], ndim: int) -> np.ndarray:
    sat = np.zeros((2,) * ndim, dtype=bool)
    for s in sorted(clause, key=abs):
        index: list = [slice(None)] * ndim
        index[axis[abs(s) - 1]] = 1 if s > 0 else 0
        sat[tuple(index)] = True
    return sat


def _reference_bucket_lambda(factors: list[Factor], constraints: list[frozenset[int]],
                             pivot: int, scope: tuple[int, ...]) -> np.ndarray:
    """Sum the gated factor product over the pivot variable.

    Returns the array over ``scope``.  Without factors the result is
    the 0/1 indicator that some pivot value satisfies every constraint.
    """
    full = scope + (pivot,)
    axis = {w: i for i, w in enumerate(full)}
    ndim = len(full)
    acc = None
    for f in factors:
        part = _aligned(f, axis, ndim)
        acc = part if acc is None else acc * part
    if constraints:
        mask = _clause_mask(constraints[0], axis, ndim)
        for c in constraints[1:]:
            mask &= _clause_mask(c, axis, ndim)
        if acc is None:
            return mask.any(axis=-1).astype(float)
        acc = np.broadcast_to(acc, (2,) * ndim) * mask
    else:
        acc = np.broadcast_to(acc, (2,) * ndim)
    return acc.sum(axis=-1)


def _random_bucket(rng: np.random.Generator, pivot_only: bool):
    """A bucket as the engine hands it to the kernel: every factor and
    clause contains the pivot; scopes are in random order."""
    pivot = int(rng.integers(12))
    others = [w for w in range(12) if w != pivot]
    factors = []
    for _ in range(int(rng.integers(1, 7))):
        arity = 1 if pivot_only else int(rng.integers(1, 11))
        scope = [pivot] + [int(w) for w in rng.choice(others, arity - 1, replace=False)]
        rng.shuffle(scope)
        values = rng.random((2,) * arity)
        values[rng.random(values.shape) < 0.1] = 0.0
        factors.append(Factor(tuple(scope), values))
    constraints = []
    for _ in range(int(rng.integers(0, 5))):
        size = 1 if pivot_only else int(rng.integers(1, 4))
        chosen = [pivot] + [int(w) for w in rng.choice(others, size - 1, replace=False)]
        constraints.append(frozenset(w + 1 if rng.integers(2) else -w - 1 for w in chosen))
    variables = ({w for f in factors for w in f.scope}
                 | {abs(s) - 1 for c in constraints for s in c})
    scope = [w for w in variables if w != pivot]
    rng.shuffle(scope)
    return factors, constraints, pivot, tuple(scope)


def _blocked(shared, a_only, b_only, layout, clauses, block=None):
    """A test_blocked_buckets case; ``block`` None keeps _BLOCK_ARITY,
    and the case's id names the block arity only when it is set."""
    name = f"{shared}-{a_only}-{b_only}-{layout}-{clauses}"
    return pytest.param(shared, a_only, b_only, layout, clauses, block,
                        id=name if block is None else f"{name}-block{block}")


class TestKernelMatchesReference:
    def test_random_buckets(self):
        rng = np.random.default_rng(20031)
        empty_scopes = 0
        for k in range(240):
            factors, constraints, pivot, scope = _random_bucket(rng, pivot_only=k % 8 == 0)
            got = _bucket_lambda(factors, constraints, pivot, scope)
            want = _reference_bucket_lambda(factors, constraints, pivot, scope)
            assert got.shape == (2,) * len(scope), k
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0, err_msg=f"bucket {k}")
            empty_scopes += not scope
        assert empty_scopes >= 30

    # (shared, a-only, b-only) variable counts, B's layout and the block
    # arity.  B, over the pivot, the shared and the b-only variables, has
    # 17-20 variables, so the kernel reads it in blocks: each fixes B's
    # first arity - 16 shared variables, then b-only ones once those run
    # out.  A's a-only variables are fixed only once A has more than a
    # block's worth of them, which at 16 needs a result of 32 variables
    # to fix b-only ones too, so those cases shrink the block to 2**4 or
    # 2**5 entries; their comments give what a block fixes.
    @pytest.mark.parametrize("shared, a_only, b_only, layout, clauses, block", [
        _blocked(4, 1, 13, "transposed", False),  # blocks over shared variables only
        _blocked(3, 2, 13, "read-only", True),    # as cpt_factors gives B; a gating clause
        _blocked(2, 1, 15, "transposed", False),  # every shared variable fixed, no b-only one
        _blocked(2, 1, 17, "transposed", False),  # over shared, then b-only variables
        _blocked(1, 0, 17, "read-only", False),   # the same from a read-only B
        _blocked(0, 0, 16, "transposed", False),  # no shared variable: over b-only ones
        _blocked(0, 0, 18, "alone", False),       # B is the only operand
        _blocked(6, 2, 1, "transposed", False, 4),  # A is the larger: 5 shared
        _blocked(2, 5, 3, "transposed", False, 4),  # 2 shared, 2 a-only
        _blocked(2, 5, 3, "read-only", True, 4),    # the same, read-only B, a clause
        _blocked(2, 5, 6, "transposed", False, 4),  # 2 shared, 2 a-only, 3 b-only
        _blocked(0, 6, 5, "read-only", True, 4),    # 3 a-only, 2 b-only
        _blocked(3, 6, 6, "transposed", True, 5),   # 3 shared, 2 a-only, 2 b-only
    ])
    def test_blocked_buckets(self, shared, a_only, b_only, layout, clauses, block, monkeypatch):
        if block is not None:
            monkeypatch.setattr(engine, "_BLOCK_ARITY", block)
        rng = np.random.default_rng(20032 + 100 * shared + b_only)
        factors, constraints, pivot, scope = _wide_bucket(rng, shared, a_only, b_only, layout,
                                                          clauses)
        assert len(factors[0].scope) > engine._BLOCK_ARITY
        got = _bucket_lambda(factors, constraints, pivot, scope)
        want = _reference_bucket_lambda(factors, constraints, pivot, scope)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def _wide_bucket(rng: np.random.Generator, shared: int, a_only: int, b_only: int,
                 layout: str, clauses: bool):
    """A bucket whose largest factor B holds the pivot, ``shared``
    variables the smaller factors also hold and ``b_only`` of its own.
    B's values are a transposed (non-contiguous) view, or a read-only
    row of a stacked array as ``cpt_factors`` gives; with layout
    "alone" B is the only operand."""
    pivot, *rest = (int(w) for w in rng.permutation(1 + shared + a_only + b_only))
    common, own, b_own = rest[:shared], rest[shared:shared + a_only], rest[shared + a_only:]
    b_scope = [pivot] + common + b_own
    rng.shuffle(b_scope)
    arity = len(b_scope)
    if layout == "read-only":
        stack = rng.random((2,) * (arity + 1))
        stack.flags.writeable = False
        values = stack[1]
    else:
        values = rng.random((2,) * arity).transpose(rng.permutation(arity))
    factors = [Factor(tuple(b_scope), values)]
    if layout != "alone":
        half = (shared + a_only) // 2
        for part in ((common + own)[:half], (common + own)[half:]):
            factors.append(Factor((pivot, *part), rng.random((2,) * (1 + len(part)))))
    constraints = [row(pivot + 1, *(-w - 1 for w in common[:2]))] if clauses else []
    scope = list(rest)
    rng.shuffle(scope)
    return factors, constraints, pivot, tuple(scope)


class TestBoundedMemory:
    def test_blocked_sum_copies_no_whole_table(self):
        # B over 20 variables (8 MB) is a transposed view, so each
        # block is copied into the matmul layout; A is over the pivot,
        # the 2 shared and the 1 a-only variables, the result over 20
        rng = np.random.default_rng(20033)
        factors, _, pivot, scope = _wide_bucket(rng, 2, 1, 17, "transposed", False)
        tracemalloc.start()
        try:
            got = _bucket_lambda(factors, [], pivot, scope)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        a_bytes, block = 2 ** 4 * 8, 2 ** engine._BLOCK_ARITY * 8
        assert got.nbytes == 8 << 20
        assert peak < got.nbytes + a_bytes + 2 * block, peak

    def test_sum_blocks_the_smaller_operands(self):
        # the widest bucket of the wide-tables benchmark's structure 4: B
        # over the pivot and 16 variables (a transposed view), smaller
        # operands of arity 3, 13 and 15 over the pivot, those 16 and 3
        # more, so A over 20 variables (8 MB) would be twice the result
        # over 19 (4 MB).  A sum holds one A block and one B block.
        rng = np.random.default_rng(20036)
        pivot, *rest = (int(w) for w in rng.permutation(20))
        common, own = rest[:16], rest[16:]
        factors = [Factor((pivot, *common), rng.random((2,) * 17).transpose(rng.permutation(17)))]
        for vs in (common[:2], common[2:12] + own[:2], common[5:] + own):
            factors.append(Factor((pivot, *vs), rng.random((2,) * (1 + len(vs)))))
        scope = tuple(rng.permutation(rest).tolist())
        assert sorted(len(f.scope) for f in factors) == [3, 13, 15, 17]
        tracemalloc.start()
        try:
            got = _bucket_lambda(factors, [], pivot, scope)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block = 2 ** engine._BLOCK_ARITY * 8
        assert got.nbytes == 4 << 20
        assert peak < got.nbytes + 3 * block, peak
        want = _reference_bucket_lambda(factors, [], pivot, scope)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    def test_processed_buckets_free_their_tables(self, monkeypatch):
        net = gen_network(40, 4, 0, 20034)
        phi = gen_query(net, c=4, e=3, seed=20035)
        produced, checked = [], []
        kernel, process_all = engine._bucket_lambda, engine._Run.process_all

        def spy(*args):
            values = kernel(*args)
            produced.append(weakref.ref(values))
            return values

        def check(run):
            process_all(run)
            kept = [f.values for f in run.buckets[run.query].factors]
            alive = [ref() for ref in produced if ref() is not None]
            checked.append((len(produced), len(alive), len(kept)))
            # what outlives its bucket is only what the query's bucket holds
            assert all(any(values is k for k in kept) for values in alive)

        monkeypatch.setattr(engine, "_bucket_lambda", spy)
        monkeypatch.setattr(engine._Run, "process_all", check)
        _, stats, _ = engine._execute(net, tuple(range(net.n)), *rows_and_tags(phi), None, None,
                                      engine.RunStats(), query=0)
        [(n_produced, n_alive, n_kept)] = checked
        assert n_alive < n_produced and n_kept > 0
        assert max(stats.log_joint) > -math.inf
