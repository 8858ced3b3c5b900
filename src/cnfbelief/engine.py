"""Bucket elimination over CPT factors and CNF clauses.

This module holds the package's one elimination pass, ``_Run``, behind
``elim_cpe`` and ``run_trace``; every evaluator in ``transforms`` ends
in it.  All CPTs and clauses are partitioned into buckets along an
elimination ordering (each item goes to the bucket of its latest-ordered
variable) and the buckets are processed last-to-first:

* A bucket whose variable is forced by a unit clause is observed: its
  factors are restricted to the forced value and its clauses are
  unit-resolved, and the results are re-routed to lower buckets.
  Observation never grows a scope.
* Any other bucket is summed out: its clauses first resolve on the
  bucket variable (bounded directional resolution, ``i_bound``), then
  the product of its factors, gated by the indicator of its clauses, is
  summed over the bucket variable, yielding a new factor over the
  remaining scope variables.

With dynamic reordering (the default), a bucket that acquires a unit
clause jumps ahead of the position-ordered queue; promoted buckets run
in discovery order.  A global assignment of the observed values is
maintained so that anything routed after an observation is reduced
(clauses, ``_Run._reduce``) or restricted (factors, ``_Run._restrict``)
on the way, which keeps items out of already-processed buckets.

The final probability is the product of the scalar factors that fall
out of the bottom of the pass; its logarithm is also kept as the sum of
their logs, which does not underflow.  Deriving the empty clause
short-circuits the run to probability 0.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from time import perf_counter
from typing import Optional

import numpy as np

from .graphs import (
    Ordering,
    adjusted_induced_width,
    augmented_graph,
    check_ordering,
    induced_width,
    min_degree_order,
)
from .model import (
    DERIVED,
    EXTRACTED,
    QUERY,
    BeliefNetwork,
    Clause,
    CnfFormula,
    Factor,
    Literal,
    ModelError,
    cpt_to_factor,
)
from .resolution import bdr_step


class ContradictionError(Exception):
    """The clauses are unsatisfiable; the query probability is 0."""


@dataclass(frozen=True)
class EngineConfig:
    """Tuning knobs for a run.

    i_bound: resolvent size cap for in-bucket directional resolution;
    0 disables it (unit resolution in observed buckets always runs),
    None means unbounded.
    dynamic_reorder: promote buckets that acquire unit clauses.
    extracted_clauses_in_sum: let clauses tagged "extracted" constrain
    summations too, instead of serving resolution only.
    """

    i_bound: Optional[int] = 0
    dynamic_reorder: bool = True
    extracted_clauses_in_sum: bool = False

    def __post_init__(self):
        if self.i_bound is not None and self.i_bound < 0:
            raise ValueError("i_bound must be None (unbounded) or >= 0")


@dataclass
class RunStats:
    """Counters reported by one evaluation.

    mf is the largest arity of any factor the run materialized
    (restricted tables and summation results; the input CPTs do not
    count).  derived_clauses / derived_units count clauses produced by
    unit resolution and bounded resolution that were actually kept;
    extracted counts distinct clauses with extracted provenance in the
    input; observed counts buckets processed by observation.
    width_static is the induced width of the clause-augmented graph
    along the requested ordering; width_posthoc is the adjusted induced
    width (observed variables discounted) along the order the run
    actually processed, when the run completed.  log_result is the
    natural log of the probability, summed from the scalar factors so
    that it stays finite where result underflows to 0; it is -inf when
    the probability is exactly 0.  trace is the ordered log of bucket
    actions (empty for the brute-force path); as_dict() leaves it out.
    """

    result: float = 0.0
    log_result: float = -math.inf
    elapsed: float = 0.0
    mf: int = 0
    derived_clauses: int = 0
    derived_units: int = 0
    extracted: int = 0
    observed: int = 0
    width_static: Optional[int] = None
    width_posthoc: Optional[int] = None
    trace: list["TraceEntry"] = field(default_factory=list, repr=False)

    def as_dict(self) -> dict:
        return {
            "result": self.result,
            "time_s": self.elapsed,
            "mf": self.mf,
            "C": self.derived_clauses,
            "U": self.derived_units,
            "F": self.extracted,
            "O": self.observed,
            "width_static": self.width_static,
            "width_posthoc": self.width_posthoc,
        }


@dataclass
class BucketClause:
    clause: Clause
    provenance: str = QUERY
    sum_exempt: bool = False


@dataclass
class Bucket:
    """All factors and clauses whose latest-ordered variable matches.

    ``unit`` holds the forcing literal when a unit clause on the bucket
    variable is present (at most one; a conflicting pair is reported by
    add_clause instead of stored).
    """

    variable: int
    factors: list[Factor] = field(default_factory=list)
    clauses: list[BucketClause] = field(default_factory=list)
    unit: Optional[Literal] = None

    def add_clause(self, clause: Clause, provenance: str = QUERY,
                   sum_exempt: bool = False) -> str:
        """Add a clause, deduplicating by literal set.

        Returns "added", "duplicate", or "conflict" (a unit clause
        opposing the one already present).  A duplicate that is not
        sum-exempt strips the exemption from the stored copy, since a
        constraining occurrence must constrain.
        """
        for bc in self.clauses:
            if bc.clause.literals == clause.literals:
                if not sum_exempt:
                    bc.sum_exempt = False
                return "duplicate"
        if clause.is_unit():
            lit = clause.unit_literal()
            if self.unit is not None and self.unit != lit:
                return "conflict"
            self.unit = lit
        self.clauses.append(BucketClause(clause, provenance, sum_exempt))
        return "added"


@dataclass(frozen=True)
class TraceEntry:
    """One processed bucket: action is "sum" (a factor was produced,
    scope holds its variables), "observe" (the bucket variable was
    instantiated), or "resolve" (clause work only, no factor)."""

    bucket: int
    action: str
    scope: tuple[int, ...]
    derived: tuple[Clause, ...]

    def format(self) -> str:
        scope_s = ",".join(str(v) for v in self.scope)
        derived_s = ";".join(
            ",".join(str(l.signed()) for l in c.sorted_literals()) for c in self.derived
        )
        return f"bucket={self.bucket} action={self.action} scope={scope_s} derived={derived_s}"


def _sum_scope(pivot: int, factors: list[Factor], constraints: list[Clause]) -> tuple[int, ...]:
    # scope variables in first-appearance order: factors in placement
    # order, then clause variables ascending
    seen = {pivot}
    scope: list[int] = []
    for f in factors:
        for w in f.scope:
            if w not in seen:
                seen.add(w)
                scope.append(w)
    for c in constraints:
        for w in sorted(c.variables()):
            if w not in seen:
                seen.add(w)
                scope.append(w)
    return tuple(scope)


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


def _bucket_lambda(factors: list[Factor], constraints: list[Clause],
                   pivot: int, scope: tuple[int, ...]) -> np.ndarray:
    """Sum the gated factor product over the pivot variable.

    Returns the array over ``scope``.  Without factors the result is
    the 0/1 indicator that some pivot value satisfies every constraint.
    """
    full = scope + (pivot,)
    axis = {w: i for i, w in enumerate(full)}
    ndim = len(full)
    acc: Optional[np.ndarray] = None
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


class _Run:
    """Mutable state of one elimination pass."""

    def __init__(self, net: BeliefNetwork, ordering: Ordering, cfg: EngineConfig,
                 stats: RunStats):
        self.net = net
        self.cfg = cfg
        self.stats = stats
        self.position = ordering.position()
        self.buckets = {v: Bucket(v) for v in ordering.order}
        self.sigma: dict[int, int] = {}
        self.scalars: list[float] = []
        self.processed: set[int] = set()
        self.sequence: list[int] = []
        self.promoted: deque[int] = deque()
        self.promoted_set: set[int] = set()
        self.pending: list[int] = list(ordering.order)
        self.trace: list[TraceEntry] = []

    def load(self, phi: CnfFormula) -> None:
        if phi.has_empty_clause():
            raise ContradictionError("query contains the empty clause")
        for cpt in self.net.cpts:
            self._place_factor(cpt_to_factor(cpt))
        extracted_seen: set[frozenset] = set()
        for clause, tag in phi.items():
            if tag == EXTRACTED:
                extracted_seen.add(clause.literals)
            self._install_clause(clause, tag, sum_exempt=(tag == EXTRACTED), count=False)
        self.stats.extracted = len(extracted_seen)

    def process_all(self) -> None:
        while self.promoted or self.pending:
            v = self.promoted.popleft() if self.promoted else self.pending.pop()
            if v in self.processed:
                # promoted earlier; promoted buckets always drain before pending
                continue
            self.processed.add(v)
            self.sequence.append(v)
            bucket = self.buckets[v]
            if bucket.unit is not None:
                self._process_observed(bucket)
            else:
                self._process_sum(bucket)

    # -- the observed assignment ----------------------------------------

    def _reduce(self, clause: Clause) -> Optional[Clause]:
        """The clause under the observed assignment: None when it is
        satisfied, the same object when no literal is assigned.  Raises
        ContradictionError when every literal is falsified."""
        lits: list[Literal] = []
        for lit in clause.literals:
            value = self.sigma.get(lit.var)
            if value is None:
                lits.append(lit)
            elif lit.satisfied_by(value):
                return None
        if not lits:
            raise ContradictionError(f"clause {clause} is falsified by the observations")
        return clause if len(lits) == len(clause) else Clause(lits)

    def _restrict(self, factor: Factor) -> Factor:
        """The factor conditioned on the observed assignment; a table the
        restriction materializes counts toward mf."""
        stale = [w for w in factor.scope if w in self.sigma]
        for w in stale:
            factor = factor.restrict(w, self.sigma[w])
        if stale:
            self.stats.mf = max(self.stats.mf, factor.arity)
        return factor

    # -- item routing ---------------------------------------------------

    def _place_factor(self, factor: Factor) -> None:
        if not factor.scope:
            self.scalars.append(factor.scalar())
            return
        home = max(factor.scope, key=self.position.__getitem__)
        assert home not in self.processed
        self.buckets[home].factors.append(factor)

    def _install_clause(self, clause: Clause, provenance: str, sum_exempt: bool,
                        count: bool, collect: Optional[list[Clause]] = None) -> None:
        """Reduce a clause by the observed assignment and file it in the
        bucket of its latest variable, promoting that bucket when the
        clause is unit."""
        reduced = self._reduce(clause)
        if reduced is None:
            return
        home = max((l.var for l in reduced.literals), key=self.position.__getitem__)
        assert home not in self.processed
        if (self._file(self.buckets[home], reduced, provenance, sum_exempt, count, collect)
                and reduced.is_unit() and self.cfg.dynamic_reorder
                and home not in self.promoted_set):
            self.promoted.append(home)
            self.promoted_set.add(home)

    def _file(self, bucket: Bucket, clause: Clause, provenance: str, sum_exempt: bool,
              count: bool, collect: Optional[list[Clause]]) -> bool:
        """Add a reduced clause to ``bucket``; True when it was new.

        Raises ContradictionError when it opposes the bucket's unit.
        When ``count`` is set, a new clause updates the derived counters
        and is appended to ``collect``.
        """
        status = bucket.add_clause(clause, provenance, sum_exempt)
        if status == "conflict":
            raise ContradictionError(f"conflicting unit clauses on variable {bucket.variable}")
        if status != "added":
            return False
        if count:
            self.stats.derived_clauses += 1
            if clause.is_unit():
                self.stats.derived_units += 1
            if collect is not None:
                collect.append(clause)
        return True

    # -- bucket processing ----------------------------------------------

    def _sweep_clauses(self, bucket: Bucket, collect: list[Clause]) -> None:
        """Reduce the bucket's clauses by the observed assignment.

        Variables observed after a clause was placed leave stale
        literals behind; shortening them now (counted as derived) can
        surface the bucket variable's own unit clause, turning the
        bucket into an observation.
        """
        clauses, bucket.clauses = bucket.clauses, []
        for bc in clauses:
            reduced = self._reduce(bc.clause)
            if reduced is bc.clause:
                bucket.clauses.append(bc)
            elif reduced is not None:
                try:
                    self._file(bucket, reduced, DERIVED, bc.sum_exempt, True, collect)
                except ContradictionError:
                    # the sweep counts a unit it derives even when that
                    # unit then opposes the one already found
                    self.stats.derived_clauses += 1
                    self.stats.derived_units += 1
                    raise

    def _process_observed(self, bucket: Bucket,
                          derived: Optional[list[Clause]] = None) -> None:
        self.sigma[bucket.variable] = 1 if bucket.unit.positive else 0
        self.stats.observed += 1
        derived = derived if derived is not None else []
        for f in bucket.factors:
            self._place_factor(self._restrict(f))
        # every clause here mentions the bucket variable, which the
        # assignment now fixes: each is satisfied or shortened
        for bc in bucket.clauses:
            self._install_clause(bc.clause, DERIVED, bc.sum_exempt, count=True,
                                 collect=derived)
        self.trace.append(TraceEntry(bucket.variable, "observe", (), tuple(derived)))

    def _process_sum(self, bucket: Bucket) -> None:
        derived: list[Clause] = []
        self._sweep_clauses(bucket, derived)
        if bucket.unit is not None:
            # the sweep uncovered a unit on the bucket variable
            self._process_observed(bucket, derived)
            return
        bucket.factors = [self._restrict(f) for f in bucket.factors]
        self._bdr(bucket, derived)
        include_exempt = self.cfg.extracted_clauses_in_sum
        constraints = [bc.clause for bc in bucket.clauses
                       if include_exempt or not bc.sum_exempt]
        if not bucket.factors and not constraints:
            if derived:
                self.trace.append(TraceEntry(bucket.variable, "resolve", (), tuple(derived)))
            return
        scope = _sum_scope(bucket.variable, bucket.factors, constraints)
        values = _bucket_lambda(bucket.factors, constraints, bucket.variable, scope)
        self.stats.mf = max(self.stats.mf, len(scope))
        self.trace.append(TraceEntry(bucket.variable, "sum", scope, tuple(derived)))
        self._place_factor(self._restrict(Factor(scope, values)))

    def _bdr(self, bucket: Bucket, collect: list[Clause]) -> None:
        # bounded directional resolution on the bucket variable; the
        # resolvent inherits sum exemption when either premise has it
        premises = bucket.clauses
        if self.cfg.i_bound == 0 or len(premises) < 2:
            return
        for r, i, j in bdr_step([bc.clause for bc in premises], bucket.variable,
                                self.cfg.i_bound):
            self._install_clause(r, DERIVED, premises[i].sum_exempt or premises[j].sum_exempt,
                                 count=True, collect=collect)


def _execute(net: BeliefNetwork, phi: CnfFormula, ordering, cfg):
    cfg = cfg if cfg is not None else EngineConfig()
    aug = augmented_graph(net, phi)
    if ordering is None:
        ordering = min_degree_order(aug)
    else:
        ordering = check_ordering(ordering)
        if len(ordering) != net.n:
            raise ModelError(f"ordering covers {len(ordering)} variables, network has {net.n}")
    stats = RunStats()
    stats.width_static = induced_width(aug, ordering)
    run = _Run(net, ordering, cfg, stats)
    failed = False
    t0 = perf_counter()
    try:
        run.load(phi)
        run.process_all()
    except ContradictionError:
        failed = True
    stats.elapsed = perf_counter() - t0
    stats.trace = run.trace
    stats.result = 0.0 if failed else math.prod(run.scalars)
    if not failed and all(run.scalars):
        stats.log_result = math.fsum(map(math.log, run.scalars))
    if not failed and len(run.sequence) == net.n:
        actual = Ordering(tuple(reversed(run.sequence)))
        stats.width_posthoc = adjusted_induced_width(aug, actual, run.sigma)
    return stats.result, stats, run.trace


def elim_cpe(net: BeliefNetwork, phi: CnfFormula, ordering: Ordering | None = None,
             cfg: EngineConfig | None = None) -> tuple[float, RunStats]:
    """P(phi) by bucket elimination with clause propagation.

    ``ordering`` defaults to min-degree on the clause-augmented graph.
    An unsatisfiable query yields probability 0, not an error.
    """
    prob, stats, _ = _execute(net, phi, ordering, cfg)
    return prob, stats


def run_trace(net: BeliefNetwork, phi: CnfFormula, ordering: Ordering | None = None,
              cfg: EngineConfig | None = None) -> tuple[float, RunStats, list[TraceEntry]]:
    """elim_cpe plus the ordered log of bucket actions."""
    return _execute(net, phi, ordering, cfg)
