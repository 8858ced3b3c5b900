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

The sum is a contraction, ``_bucket_lambda``.  Each clause joins it as
a 0/1 table over its own variables; the smaller operands are multiplied
into one table that keeps the bucket variable, and one batched matrix
product with the largest operand sums the variable out.  No table over
the bucket's whole scope plus its variable is built unless the smaller
operands span it.  An allocation that fails there raises
``ResourceLimitError``, naming the bucket.

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
    EXTRACTED,
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


class ResourceLimitError(MemoryError):
    """Summing out ``variable`` needs a table too large to allocate;
    ``arity`` is the number of variables of the bucket's result."""

    def __init__(self, variable: int, arity: int):
        super().__init__(f"bucket {variable}: the table over its {arity} remaining "
                         f"variables does not fit in memory")
        self.variable = variable
        self.arity = arity


@dataclass(frozen=True)
class EngineConfig:
    """Tuning knobs for a run.

    i_bound: resolvent size cap for in-bucket directional resolution;
    0 disables it (unit resolution in observed buckets always runs),
    None means unbounded.
    dynamic_reorder: promote buckets that acquire unit clauses.
    """

    i_bound: Optional[int] = 0
    dynamic_reorder: bool = True

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
class Bucket:
    """All factors and clauses whose latest-ordered variable matches.

    ``clauses`` maps each clause, in filing order, to its sum-exempt
    flag: an exempt clause (extracted, or resolved from an exempt
    premise) drives resolution but does not gate the sum.  ``unit``
    holds the forcing literal when a unit clause on the bucket variable
    is present (at most one; ``_Run._file`` refuses an opposing one).
    """

    variable: int
    factors: list[Factor] = field(default_factory=list)
    clauses: dict[Clause, bool] = field(default_factory=dict)
    unit: Optional[Literal] = None


@dataclass(frozen=True)
class TraceEntry:
    """One processed bucket: action is "sum" (a factor was produced,
    scope holds its variables) or "observe" (the bucket variable was
    instantiated)."""

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


def _indicator(clause: Clause) -> tuple[tuple[int, ...], np.ndarray]:
    """A clause as a 0/1 table over its own variables: 0 only at the one
    assignment that falsifies every literal."""
    lits = clause.sorted_literals()
    table = np.ones((2,) * len(lits))
    table[tuple(0 if l.positive else 1 for l in lits)] = 0.0
    return tuple(l.var for l in lits), table


def _bucket_lambda(factors: list[Factor], constraints: list[Clause],
                   pivot: int, scope: tuple[int, ...]) -> np.ndarray:
    """Sum the clause-gated product of the factors over the pivot.

    Every operand, factor or clause indicator, contains the pivot.  The
    largest operand is B; the others are multiplied, smallest first,
    into one table A laid out (shared, a-only, pivot), where shared are
    A's variables that B also has.  One batched product (shared, a-only,
    pivot) @ (shared, pivot, b-only) then sums the pivot out.  Returns a
    view over ``scope``, in that order.
    """
    assert factors, "a summed bucket holds a factor on its variable"
    operands = [(f.scope, f.values) for f in factors] + [_indicator(c) for c in constraints]
    operands.sort(key=lambda op: len(op[0]))
    b_vars, b = operands.pop()
    a_vars = {w for vs, _ in operands for w in vs} - {pivot}
    shared = [w for w in b_vars if w in a_vars]
    a_only = [w for w in scope if w in a_vars and w not in b_vars]
    b_only = [w for w in b_vars if w != pivot and w not in a_vars]
    layout = shared + a_only + [pivot]
    axis = {w: i for i, w in enumerate(layout)}
    a: Optional[np.ndarray] = None
    for vs, values in operands:
        shape = [1] * len(layout)
        for w in vs:
            shape[axis[w]] = 2
        part = values.transpose(sorted(range(len(vs)), key=lambda i: axis[vs[i]])).reshape(shape)
        a = part if a is None else a * part
    if a is None:
        a = np.ones(2)
    s, m, n = 2 ** len(shared), 2 ** len(a_only), 2 ** len(b_only)
    b_axes = [b_vars.index(w) for w in shared + [pivot] + b_only]
    out = np.matmul(a.reshape(s, m, 2), b.transpose(b_axes).reshape(s, 2, n))
    order = {w: i for i, w in enumerate(shared + a_only + b_only)}
    return out.reshape((2,) * len(order)).transpose([order[w] for w in scope])


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
            self._install_clause(clause, sum_exempt=(tag == EXTRACTED))
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

    def _install_clause(self, clause: Clause, sum_exempt: bool,
                        collect: Optional[list[Clause]] = None) -> None:
        """Reduce a clause by the observed assignment and file it in the
        bucket of its latest variable, promoting that bucket when the
        clause is unit."""
        reduced = self._reduce(clause)
        if reduced is None:
            return
        home = max((l.var for l in reduced.literals), key=self.position.__getitem__)
        assert home not in self.processed
        if (self._file(self.buckets[home], reduced, sum_exempt, collect)
                and reduced.is_unit() and self.cfg.dynamic_reorder
                and home not in self.promoted_set):
            self.promoted.append(home)
            self.promoted_set.add(home)

    def _file(self, bucket: Bucket, clause: Clause, sum_exempt: bool,
              collect: Optional[list[Clause]]) -> bool:
        """Add a reduced clause to ``bucket``; True when it was new.

        A repeat keeps its place and loses its exemption unless this
        occurrence is exempt too, since a constraining occurrence must
        constrain.  A new unit sets the bucket's unit and raises
        ContradictionError when it opposes the one there.  With
        ``collect`` (derived clauses), a new clause updates the derived
        counters and is appended to it.
        """
        if clause in bucket.clauses:
            bucket.clauses[clause] &= sum_exempt
            return False
        if clause.is_unit():
            lit = clause.unit_literal()
            if bucket.unit is not None and bucket.unit != lit:
                raise ContradictionError(f"conflicting unit clauses on variable {bucket.variable}")
            bucket.unit = lit
        bucket.clauses[clause] = sum_exempt
        if collect is not None:
            self.stats.derived_clauses += 1
            if clause.is_unit():
                self.stats.derived_units += 1
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
        clauses, bucket.clauses = bucket.clauses, {}
        for c, exempt in clauses.items():
            reduced = self._reduce(c)
            if reduced is c:
                self._file(bucket, c, exempt, None)  # refiled, not derived
            elif reduced is not None:
                self._file(bucket, reduced, exempt, collect)

    def _process_observed(self, bucket: Bucket,
                          derived: Optional[list[Clause]] = None) -> None:
        self.sigma[bucket.variable] = 1 if bucket.unit.positive else 0
        self.stats.observed += 1
        derived = derived if derived is not None else []
        for f in bucket.factors:
            self._place_factor(self._restrict(f))
        # every clause here mentions the bucket variable, which the
        # assignment now fixes: each is satisfied or shortened
        for c, exempt in bucket.clauses.items():
            self._install_clause(c, exempt, derived)
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
        constraints = [c for c, exempt in bucket.clauses.items() if not exempt]
        scope = _sum_scope(bucket.variable, bucket.factors, constraints)
        try:
            values = _bucket_lambda(bucket.factors, constraints, bucket.variable, scope)
        except MemoryError as exc:
            raise ResourceLimitError(bucket.variable, len(scope)) from exc
        self.stats.mf = max(self.stats.mf, len(scope))
        self.trace.append(TraceEntry(bucket.variable, "sum", scope, tuple(derived)))
        self._place_factor(self._restrict(Factor(scope, values)))

    def _bdr(self, bucket: Bucket, collect: list[Clause]) -> None:
        # bounded directional resolution on the bucket variable; the
        # resolvent inherits sum exemption when either premise has it
        if self.cfg.i_bound == 0 or len(bucket.clauses) < 2:
            return
        premises, exempt = list(bucket.clauses), list(bucket.clauses.values())
        for r, i, j in bdr_step(premises, bucket.variable, self.cfg.i_bound):
            self._install_clause(r, exempt[i] or exempt[j], collect)


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
