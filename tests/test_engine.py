import itertools

import numpy as np
import pytest

from cnfbelief import (
    BeliefNetwork,
    Clause,
    CnfFormula,
    Cpt,
    EngineConfig,
    Factor,
    Literal,
    ModelError,
    Ordering,
    ResourceLimitError,
    TraceEntry,
    brute_force_cpe,
    close_enough,
    elim_cpe,
    engine,
    extract_clauses,
    run_trace,
)
from cnfbelief.engine import _bucket_lambda
from cnfbelief.generator import gen_network, gen_query
from cnfbelief.model import EXTRACTED, QUERY

from conftest import clause, formula

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

    def test_none_means_unbounded(self):
        assert EngineConfig(i_bound=None).i_bound is None


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
        # no bucket is ever empty: each variable's CPT reaches its bucket,
        # so a completed run logs exactly one entry per variable
        for phi in (CnfFormula([]), phi42, phi42.conjoin(formula(clause(-6)))):
            _, _, trace = run_trace(pos_net, phi, ordering=d1)
            assert sorted(t.bucket for t in trace) == list(range(6))

    def test_sum_exempt_clauses_resolve_but_do_not_gate(self):
        net = _roots(0.3, 0.6, 0.2)
        phi = CnfFormula(PQR_CLAUSES, (EXTRACTED, EXTRACTED))
        p, stats, trace = run_trace(net, phi, PQR_ORDER, EngineConfig(i_bound=2))
        assert trace[0].scope == ()
        assert trace[0].derived == (clause(1, 3),)
        assert stats.extracted == 2
        # neither the inputs nor their exempt resolvent constrain the sum
        assert close_enough(p, 1.0)

    def test_query_copy_strips_the_exemption(self):
        # the same clauses filed as extracted and as query gate the sum,
        # whichever occurrence is filed first
        net = _roots(0.3, 0.6, 0.2)
        query = formula(*PQR_CLAUSES)
        extracted = CnfFormula(PQR_CLAUSES, (EXTRACTED, EXTRACTED))
        for phi in (query.conjoin(extracted), extracted.conjoin(query)):
            p, stats, trace = run_trace(net, phi, PQR_ORDER, EngineConfig(i_bound=2))
            assert trace[0].bucket == 1 and trace[0].scope == (0, 2)
            assert stats.extracted == 2
            assert close_enough(p, brute_force_cpe(net, query))

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
        _, _, trace = run_trace(chain, CnfFormula([]), ordering=Ordering((0, 1, 2, 3)))
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


# The dense kernel this package used before the contraction kernel,
# kept verbatim as the reference: it builds the full product over the
# bucket scope plus the pivot, gates it with full-scope clause masks and
# sums the pivot axis.

def _aligned(factor: Factor, axis: dict[int, int], ndim: int) -> np.ndarray:
    """Transpose and reshape a factor's array to broadcast over the
    full bucket scope laid out by ``axis``."""
    perm = sorted(range(factor.arity), key=lambda i: axis[factor.scope[i]])
    arr = factor.values.transpose(perm)
    shape = [1] * ndim
    for w in factor.scope:
        shape[axis[w]] = 2
    return arr.reshape(shape)


def _clause_mask(clause: Clause, axis: dict[int, int], ndim: int) -> np.ndarray:
    sat = np.zeros((2,) * ndim, dtype=bool)
    for lit in clause.sorted_literals():
        index: list = [slice(None)] * ndim
        index[axis[lit.var]] = 1 if lit.positive else 0
        sat[tuple(index)] = True
    return sat


def _reference_bucket_lambda(factors: list[Factor], constraints: list[Clause],
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
        constraints.append(Clause(Literal(w, bool(rng.integers(2))) for w in chosen))
    variables = {w for f in factors for w in f.scope} | {w for c in constraints for w in c.variables()}
    scope = [w for w in variables if w != pivot]
    rng.shuffle(scope)
    return factors, constraints, pivot, tuple(scope)


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
