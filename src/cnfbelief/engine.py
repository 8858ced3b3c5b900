"""Bucket elimination over CPT factors and CNF clauses.

This module holds the package's one elimination pass, ``_Run``, and
``_execute``, which orders, runs and measures it over the CPTs of the
variables it is given, in the network's own variable numbers.  A
parent or clause variable outside them (belief's observed boundary
variables, or the variables unit propagation fixed) is a vertex of the
graph and the ordering with no CPT of its own.  Its one caller is
``transforms._pruned_run``, so every evaluator ends in it.
Those CPTs and all clauses are partitioned into buckets along an
elimination ordering (each item goes to the bucket of its
latest-ordered variable) and the buckets are processed last-to-first.
One elimination pass over the augmented graph chooses the ordering
and measures its width.  The default puts phi's unit-clause variables,
sorted, in the last slots and fills the others by min degree, so they
are observed before anything is summed and the greedy orders the graph
that evidence leaves (Dechter, AIJ 1999, below).  When that order
implies more than 2**_BLOCK_ARITY table entries per vertex, a second
pass fills the same slots by min fill, and the order implying fewer
entries is kept:

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
operands span it.  A largest operand of more than 2**16 entries is read
one block of at most 2**16 entries at a time, each block's product
written into one preallocated result, so a sum holds that operand, the
product of the others, the result and one block, and never a copy of
the whole largest table.  An allocation that fails there raises
``ResourceLimitError``, naming the bucket.  A summed or observed bucket
drops its factors once its result or restrictions are placed, so a
table is freed as soon as the bucket that consumes it is done; the
query's bucket keeps its factors for ``log_joint``.

With dynamic reordering (the default), a bucket that acquires a unit
clause jumps ahead of the position-ordered queue; promoted buckets run
in discovery order.  A global assignment of the observed values is
maintained so that anything routed after an observation is reduced
(clauses, ``_Run._reduce``) or restricted (factors, ``_Run._restrict``)
on the way, which keeps items out of already-processed buckets.

The run's log probability is the sum of the logs of the scalar factors
that fall out of the bottom of the pass, which does not underflow, and
the probability is its exp.  A falsified clause, the empty clause given
or derived included, short-circuits the run to probability 0.

A run given a query variable answers belief in the same pass (elim-bel;
Dechter, "Bucket elimination: a unifying framework for reasoning", AIJ
1999): the variable is pinned first and the greedy orders the rest
around it, so its bucket comes last and is left unsummed.  Every
factor left there is over the variable alone, and log P(phi, var = x)
is the scalars' log plus the sum of their logs at x.  A unit on the
variable makes its bucket observed instead, and the joint is the
scalars' log at the unit's value.  ``transforms`` usually gives such
a run only the variable's requisite part, so those logs are then off
by a constant that normalizing cancels.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass, field
from time import perf_counter
from typing import Iterable, Optional

import numpy as np

from .graphs import Ordering, _eliminate, adjusted_induced_width, augmented_graph
from .model import (
    EXTRACTED,
    BeliefNetwork,
    Clause,
    CnfFormula,
    Factor,
    Literal,
    clause_table,
    cpt_factors,
)
from .resolution import bdr_step

# A summed bucket whose largest table has more variables than this is
# contracted one block of at most 2**_BLOCK_ARITY entries (512 KB) at a
# time.
_BLOCK_ARITY = 16


class ContradictionError(Exception):
    """The clauses are unsatisfiable; the query probability is 0."""


class ResourceLimitError(MemoryError):
    """Summing out ``variable`` needs a table too large to allocate;
    ``arity`` is the number of variables of the bucket's result.  The
    sum allocates that result, the product of the bucket's smaller
    operands (at most twice the result) and one block of the largest,
    so the result's size decides whether it fits."""

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
    dynamic_reorder: promote buckets that acquire unit clauses; a bool.
    """

    i_bound: Optional[int] = 0
    dynamic_reorder: bool = True

    def __post_init__(self):
        bound = self.i_bound
        if bound is not None and (isinstance(bound, bool) or not isinstance(bound, int)
                                  or bound < 0):
            raise ValueError(f"i_bound must be None (unbounded) or an int >= 0, got {bound!r}")
        if not isinstance(self.dynamic_reorder, bool):
            raise ValueError(f"dynamic_reorder must be a bool, got {self.dynamic_reorder!r}")


@dataclass
class RunStats:
    """Counters reported by one evaluation.

    elapsed (``time_s``) is the wall time of loading the factors and
    clauses plus the elimination pass; ancestral pruning, extraction,
    unit propagation, graph building, ordering and width_posthoc are
    outside it (brute times its enumeration).  mf is
    the largest arity of any factor the run materialized (restricted
    tables and summation results; the input CPTs do not count).
    derived_clauses / derived_units count clauses produced by unit and
    bounded resolution that were actually kept;
    extracted (F) counts distinct clauses with extracted provenance in
    the input (for cpe-d, with the ancestral CPTs'), before any run; a
    caller's clause of two or more literals keeps that tag only where
    one CPT makes it certain (``transforms._certified``), so F counts
    only those;
    observed counts buckets processed by observation.
    width_static is the induced width of the clause-augmented graph
    along the run's ordering, in which phi's unit-clause variables add
    no fill edges but still count their neighbours, measured by the
    same elimination pass that chose the ordering (the min-degree pass,
    or the min-fill one where that was run and kept, see ``_execute``);
    it bounds mf when dynamic reordering is off, and on small instances
    it can read higher than the plain induced width.  entries_static is
    the table entries that pass's ordering implies, 2**(neighbours + 1)
    summed over its variables other than phi's units (a static
    estimate: dynamic reordering and clause propagation can shrink the
    tables a run builds).  width_posthoc is the adjusted
    induced width (observed variables discounted) along the order the
    run actually processed, when the run completed.  log_result is the
    natural log of the probability, summed from the scalar factors so
    that it stays finite where result underflows to 0; it is -inf when
    the probability is exactly 0; result is exp(log_result) on every
    run but brute's.  log_joint, for a belief run, is (log P(phi,
    var=0), log P(phi, var=1)) over the CPTs and clauses the engine was
    given, both -inf when that P(phi) = 0; log_result is then the log
    of their sum.  trace is the ordered log of bucket actions (empty
    for the brute-force path).  forced counts the literals that unit
    propagation fixes before elimination on cpe-d runs and on belief
    runs, along any ordering (see ``transforms._propagate``; 0 on
    every other run).  mf, C, U, O, the
    widths, entries_static and trace then describe the engine's run on
    the part propagation leaves.  A run that propagation answers 0 (a
    conflict, or a forced CPT entry of 0) builds no graph: its mf, C, U,
    O, width_static and entries_static are 0, width_posthoc is None and
    its trace is empty.  So is a run of an input holding the empty
    clause, answered 0 before anything is read, with F and forced 0.
    as_dict() leaves out log_result, entries_static, forced, log_joint
    and trace.
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
    entries_static: Optional[int] = None
    forced: int = 0
    log_joint: Optional[tuple[float, float]] = None
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
    ``factors`` is emptied once the bucket is summed or observed.
    """

    variable: int
    factors: list[Factor] = field(default_factory=list)
    clauses: dict[Clause, bool] = field(default_factory=dict)
    unit: Optional[Literal] = None


@dataclass(frozen=True)
class TraceEntry:
    """One processed bucket: action is "sum" (a factor was produced,
    scope holds its variables), "observe" (the bucket variable was
    instantiated) or "belief" (the query variable's bucket, left
    unsummed; scope holds the variable)."""

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


def _bucket_lambda(factors: list[Factor], constraints: list[Clause],
                   pivot: int, scope: tuple[int, ...]) -> np.ndarray:
    """Sum the clause-gated product of the factors over the pivot.

    Every operand, factor or clause indicator, contains the pivot.  The
    largest operand is B; the others are multiplied, smallest first,
    into one table A laid out (shared, a-only, pivot), where shared are
    A's variables that B also has.  One batched product (shared, a-only,
    pivot) @ (shared, pivot, b-only) then sums the pivot out.  It reads
    B one block of at most 2**_BLOCK_ARITY entries at a time and writes
    each block's product into one preallocated result, so the sum holds
    B, A, the result and one block, never a copy of the whole of B.
    Returns a view over ``scope``, in that order.
    """
    assert factors, "a summed bucket holds a factor on its variable"
    operands = [(f.scope, f.values) for f in factors] + [clause_table(c) for c in constraints]
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
    # B is read one block at a time: each block fixes B's first shared,
    # then b-only variables until at most _BLOCK_ARITY are left (none
    # are fixed when B has no more).  B and the result put one length-2
    # axis per fixed variable in front (A per fixed shared one), so a
    # block is B[x] and its product goes to out[x].
    fixed = (shared + b_only)[:max(0, len(b_vars) - _BLOCK_ARITY)]
    ks = min(len(fixed), len(shared))
    rows, m, cols = 2 ** (len(shared) - ks), 2 ** len(a_only), 2 ** (len(b_only) - len(fixed) + ks)
    b = b.transpose([b_vars.index(w) for w in fixed + shared[ks:] + [pivot] + b_only[len(fixed) - ks:]])
    a = a.reshape((2,) * ks + (rows, m, 2))
    out = np.empty((2,) * len(fixed) + (rows, m, cols))
    for x in itertools.product((0, 1), repeat=len(fixed)):
        # the block's reshape is its one copy of B, freed when matmul returns
        np.matmul(a[x[:ks]], b[x].reshape(rows, 2, cols), out=out[x])
    order = {w: i for i, w in enumerate(fixed + shared[ks:] + a_only + b_only[len(fixed) - ks:])}
    return out.reshape((2,) * len(order)).transpose([order[w] for w in scope])


def _log(x: float) -> float:
    return math.log(x) if x > 0.0 else -math.inf


class _Run:
    """Mutable state of one elimination pass."""

    def __init__(self, ordering: Ordering, cfg: EngineConfig, stats: RunStats,
                 query: Optional[int] = None):
        self.query = query
        self.cfg = cfg
        self.stats = stats
        self.position = ordering.position()
        self.buckets = {v: Bucket(v) for v in ordering.order}
        self.sigma: dict[int, int] = {}
        self.scalars: list[float] = []
        self.processed: set[int] = set()
        self.promoted: deque[int] = deque()
        self.pending: list[int] = list(ordering.order)
        self.trace: list[TraceEntry] = []

    def load(self, factors: Iterable[Factor], phi: CnfFormula) -> None:
        for factor in factors:
            self._place_factor(factor)
        for clause, tag in phi.items():
            self._install_clause(clause, sum_exempt=(tag == EXTRACTED))

    def process_all(self) -> None:
        while self.promoted or self.pending:
            v = self.promoted.popleft() if self.promoted else self.pending.pop()
            if v in self.processed:
                # promoted earlier; promoted buckets always drain before pending
                continue
            self.processed.add(v)
            bucket = self.buckets[v]
            if bucket.unit is not None:
                self._process_observed(bucket)
            elif v == self.query:
                # ordered first, so nothing follows; only units on v were
                # filed here, and they would have made it observed
                self.trace.append(TraceEntry(v, "belief", (v,), ()))
            else:
                self._process_sum(bucket)

    def log_joint(self, base: float) -> tuple[float, float]:
        """log P(phi, query=0), log P(phi, query=1) after a completed run,
        given ``base``, the log of the product of the scalars."""
        if self.query in self.sigma:
            return tuple(base if x == self.sigma[self.query] else -math.inf for x in (0, 1))
        factors = self.buckets[self.query].factors
        return tuple(base + math.fsum(_log(f.values[x]) for f in factors) for x in (0, 1))

    # -- the observed assignment ----------------------------------------

    def _reduce(self, clause: Clause) -> Optional[Clause]:
        """The clause under the observed assignment: None when it is
        satisfied, the same object when no literal is assigned.  Raises
        ContradictionError when every literal is falsified (the empty clause)."""
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
        """The factor conditioned on the observed assignment, taken with
        one basic index; a table the restriction materializes counts
        toward mf.  The table is copied to C order, since the kernel's
        matmul can round differently on a strided view."""
        scope = tuple(w for w in factor.scope if w not in self.sigma)
        if len(scope) == factor.arity:
            return factor
        self.stats.mf = max(self.stats.mf, len(scope))
        index = tuple(self.sigma.get(w, slice(None)) for w in factor.scope)
        return Factor(scope, factor.values[index].copy())

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
        clause is a new unit (``_file`` takes one at most once)."""
        reduced = self._reduce(clause)
        if reduced is None:
            return
        home = max((l.var for l in reduced.literals), key=self.position.__getitem__)
        assert home not in self.processed
        if (self._file(self.buckets[home], reduced, sum_exempt, collect)
                and reduced.is_unit() and self.cfg.dynamic_reorder):
            self.promoted.append(home)

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
        bucket.factors = []
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
        self._place_factor(Factor(scope, values))
        bucket.factors = []

    def _bdr(self, bucket: Bucket, collect: list[Clause]) -> None:
        # bounded directional resolution on the bucket variable; the
        # resolvent inherits sum exemption when either premise has it
        if self.cfg.i_bound == 0 or len(bucket.clauses) < 2:
            return
        premises, exempt = list(bucket.clauses), list(bucket.clauses.values())
        for r, i, j in bdr_step(premises, bucket.variable, self.cfg.i_bound):
            self._install_clause(r, exempt[i] or exempt[j], collect)


def _execute(net: BeliefNetwork, variables: tuple[int, ...], phi: CnfFormula, ordering, cfg,
             query: Optional[int] = None):
    """(P(phi), stats, trace) from the CPTs of ``variables``.  The
    graph's vertices are those variables, their parents and phi's
    variables; a parent or clause variable outside ``variables`` is a
    vertex without a CPT.  A given ``ordering`` is followed over the
    graph's vertices; the variables it lists outside the graph are
    dropped.  One elimination pass over the graph yields the ordering
    and ``width_static``: a ``query`` goes first, and the given order
    or else phi's unit variables, sorted, fill the last slots, so the
    units are observed first and the greedy orders the graph they
    leave, around the query.  A min-degree order that implies more
    than 2**_BLOCK_ARITY table entries per vertex, with a slot left to
    the greedy, gets a min-fill pass too, and the order implying fewer
    entries is kept with its width."""
    cfg = cfg if cfg is not None else EngineConfig()
    aug = augmented_graph(net, phi, variables)
    units = tuple(sorted({c.unit_literal().var for c in phi.clauses if c.is_unit()}))
    tail = tuple(v for v in (units if ordering is None else ordering) if v in aug and v != query)
    stats = RunStats()
    # observing a unit restricts tables but never joins scopes
    ordering, stats.width_static, stats.entries_static = _eliminate(aug, tail, query, unfilled=units)
    # Min fill only where min degree's tables outgrow a kernel block per
    # vertex.  Its pass costs about 25 us more per vertex and a saved
    # entry about 3-8 ns, but below this line fewer entries did not mean
    # less time: along min fill, wide-tables structures 1-11 (570-59,000
    # entries per vertex; from 41% more to 54% fewer) ran 144 ms against
    # 140 ms before the passes' cost, and structure 0 (215,000 per
    # vertex) 15 against 120 ms.
    if (stats.entries_static > len(aug) << _BLOCK_ARITY
            and len(tail) + (query is not None) < len(aug)):
        by_fill = _eliminate(aug, tail, query, unfilled=units, min_fill=True)
        if by_fill[2] < stats.entries_static:
            ordering, stats.width_static, stats.entries_static = by_fill
    run = _Run(ordering, cfg, stats, query)
    failed = False
    t0 = perf_counter()
    try:
        run.load(cpt_factors([net.cpts[v] for v in variables]), phi)
        run.process_all()
    except ContradictionError:
        failed = True
    stats.elapsed = perf_counter() - t0
    stats.trace = run.trace
    if not failed:
        stats.log_result = math.fsum(map(_log, run.scalars))
        # each processed bucket left exactly one trace entry
        actual = Ordering(tuple(reversed([e.bucket for e in run.trace])))
        stats.width_posthoc = adjusted_induced_width(aug, actual, run.sigma)
    if query is not None:
        stats.log_joint = (-math.inf, -math.inf) if failed else run.log_joint(stats.log_result)
        top = max(stats.log_joint)
        stats.log_result = top if top == -math.inf else (
            top + math.log(sum(math.exp(x - top) for x in stats.log_joint)))
    stats.result = math.exp(stats.log_result)
    return stats.result, stats, run.trace

