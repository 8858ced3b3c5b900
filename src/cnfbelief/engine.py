"""Bucket elimination over CPT factors and CNF clauses.

This module holds the package's one elimination pass, ``_Run``, and
``_execute``, which orders, runs and measures it over the CPTs of the
variables it is given, in the network's own variable numbers.  A
parent or clause variable outside them (belief's observed boundary
variables, or the variables unit propagation fixed) is a vertex of the
graph and the ordering with no CPT of its own.  Its one caller is
``transforms._pruned_run``, so every engine algorithm ends in it.
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
a 0/1 table over its own variables; the smaller operands are
multiplied into a table that keeps the bucket variable, and batched
matrix products with the largest operand sum the variable out.  Both
sides are read in blocks of at most 2**16 entries, each block's
product written into one preallocated result, so a sum holds the
largest operand, the result, one block of the smaller operands'
product and one block copied from the largest, however large the
bucket.  An allocation that fails there raises ``ResourceLimitError``,
naming the bucket, as does, before any allocation, a bucket spanning
more variables than numpy can address (``_MAX_AXES``).  A summed or
observed bucket drops its factors once its result or restrictions are
placed, so a table is freed as soon as the bucket that consumes it is
done; the query's bucket keeps its factors for ``log_joint``.

With dynamic reordering (the default), a bucket that acquires a unit
clause jumps ahead of the position-ordered queue; promoted buckets run
in discovery order.  A global assignment of the observed values is
maintained so that anything routed after an observation is reduced
(clauses, ``_Run._reduce``) or restricted (factors, ``_Run._restrict``)
on the way, which keeps items out of already-processed buckets.

The run's log probability is the sum of the logs of the scalars: the
scalar factors that fall out of the bottom of the pass, and the divisor
of each summed table whose largest entry is positive and below
``_RESCALE_BELOW``, which is divided by it.  A summed table below the
smallest normal float (``_NORMAL_FLOOR``), from a bucket of two or
more factors with positive maxima, is first summed again from those
factors, each divided by its maximum, and the maxima join the scalars;
a table still 0 then is a true 0.  So no product of many scalars or of
many small messages in one bucket, and no table passed along a long
unobserved chain, underflows, and the probability is the sum's exp: a
root with 20 chains of 65 hidden variables, each with an observed
leaf, has log P = -832.18, where one sum gave a root table of 0.  A
falsified clause, the empty clause given or derived included,
short-circuits the run to probability 0.

A run given a query variable answers belief in the same pass (elim-bel;
Dechter, "Bucket elimination: a unifying framework for reasoning", AIJ
1999): the variable is pinned first and the greedy orders the rest
around it, so its bucket comes last and is left unsummed.  Every
factor left there is over the variable alone, and log P(phi, var = x)
is the scalars' log plus the sum of their logs at x.  A unit on the
variable unpins it: it is ordered with the units and its bucket
observed, the joint being the scalars' log at the unit's value.
``transforms`` usually gives such a run only the variable's requisite
part, so those logs are off by a constant that normalizing cancels.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass, field
from time import perf_counter
from typing import Iterable, Optional, Sequence

import numpy as np

from .graphs import Ordering, _augmented, _eliminate, adjusted_induced_width
from .model import BeliefNetwork, Clause, Factor, clause_of, clause_table, cpt_factors
from .resolution import bdr_step

# A summed bucket whose largest table, or whose product of the smaller
# operands, has more than 2**_BLOCK_ARITY entries (512 KB) is contracted
# in blocks of at most that many entries on each side.
_BLOCK_ARITY = 16

# A summed table whose largest entry is positive and below this is
# divided by that entry, which joins the run's scalars, so a table
# passed along a long unobserved chain does not underflow.  One below
# _NORMAL_FLOOR is first summed again from its factors, each divided by
# its own largest entry, so many small messages in a bucket do not.
_RESCALE_BELOW = 2.0 ** -64
_NORMAL_FLOOR = 2.0 ** -1022

# The most variables a float64 table may span: numpy's dimension limit
# (32 before numpy 2.0, 64 since), or 59, as a table of 2**60 entries
# passes numpy's size limit.
_MAX_AXES = min(59, 64 if np.lib.NumpyVersion(np.__version__) >= "2.0.0" else 32)


class ContradictionError(Exception):
    """The clauses are unsatisfiable; the query probability is 0."""


class ResourceLimitError(MemoryError):
    """Summing out ``variable`` needs a table too large to allocate, or
    over more variables than numpy can address (``_MAX_AXES``);
    ``arity`` is the number of variables of the bucket's result.  The
    sum allocates that result and at most two blocks of 2**16 entries
    more: one of the smaller operands' product and one copied from the
    largest operand, or two partial products while a block of the first
    is multiplied.  So the result's size decides whether it fits.
    ``transforms.hidden_embed`` raises it too, for a clause too wide for
    its fresh child's table."""

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
    outside it (brute times its enumerations).  extract_s is the wall
    time of cpe-d's clause extraction and propagate_s that of the unit
    propagation cpe-d and belief runs take first (see
    ``transforms._pruned_run``); each is 0.0 on a run that skips it.  mf is
    the largest arity of any factor the run materialized (restricted
    tables and summation results; the input CPTs do not count).
    derived_clauses / derived_units count clauses produced by unit and
    bounded resolution that were actually kept;
    extracted (F) counts the distinct sum-exempt clauses, cpe-d's
    extracted ones and the caller's clauses tagged extracted that are
    units or certain (``transforms._certified``), before any run;
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
    natural log of the probability, summed from the scalar factors, the
    divisors of summed tables rescaled below ``_RESCALE_BELOW`` and the
    factors' maxima of buckets summed again below ``_NORMAL_FLOOR``, so
    that it stays finite where result underflows to 0; it is -inf when
    the probability is exactly 0; result is exp(log_result) on every
    run but brute's.  log_joint, for a belief run, is (log P(phi,
    var=0), log P(phi, var=1)) over the CPTs and clauses the engine was
    given, both -inf when that P(phi) = 0; log_result is then the log
    of their sum, except that brute's belief run sets only log_joint
    and elapsed.  trace is the ordered log of bucket actions (empty for
    the brute-force path).  forced counts the literals that unit
    propagation fixes before elimination on cpe-d runs and on belief
    runs, along any ordering (see ``transforms._propagate``; 0 on every
    other run).  mf, C, U, O, the widths, entries_static and trace then
    describe the engine's run on the part propagation leaves.  A run
    that propagation answers 0 (a conflict, or a forced CPT entry of 0)
    builds no graph: its mf, C, U, O, width_static and entries_static
    are 0, width_posthoc is None and its trace is empty.  So is a run of an input holding the empty
    clause, answered 0 before anything is read, with F and forced 0.
    as_dict() leaves out log_result, entries_static, forced, extract_s,
    propagate_s, log_joint and trace.
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
    extract_s: float = 0.0
    propagate_s: float = 0.0
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

    ``clauses`` maps each clause (a frozenset of signed literals), in
    filing order, to its sum-exempt flag: an exempt clause (extracted,
    or resolved from an exempt premise) drives resolution but does not
    gate the sum.  ``unit`` holds the forcing literal when a unit clause
    on the bucket variable is present (at most one; ``_Run._file``
    refuses an opposing one).  ``factors`` is emptied once summed or observed.
    """

    variable: int
    factors: list[Factor] = field(default_factory=list)
    clauses: dict[frozenset[int], bool] = field(default_factory=dict)
    unit: Optional[int] = None


@dataclass(frozen=True)
class TraceEntry:
    """One processed bucket: action is "sum" (a factor was produced,
    scope holds its variables), "observe" (the bucket variable was
    instantiated) or "belief" (the query variable's bucket, left
    unsummed; scope holds the variable); derived holds its new Clauses."""

    bucket: int
    action: str
    scope: tuple[int, ...]
    derived: tuple[Clause, ...]

    def format(self) -> str:
        scope_s = ",".join(str(v) for v in self.scope)
        derived_s = ";".join(",".join(map(str, c.codes)) for c in self.derived)
        return f"bucket={self.bucket} action={self.action} scope={scope_s} derived={derived_s}"


def _bucket_lambda(factors: list[Factor], constraints: list[frozenset[int]],
                   pivot: int, scope: tuple[int, ...]) -> np.ndarray:
    """Sum the clause-gated product of the factors over the pivot.

    Every operand, factor or clause indicator, contains the pivot.  The
    largest operand is B; the others are multiplied, smallest first,
    into a table A laid out (shared, a-only, pivot), where shared are
    A's variables that B also has.  Batched products (shared, a-only,
    pivot) @ (shared, pivot, b-only) then sum the pivot out.  Both
    sides are read in blocks of at most 2**_BLOCK_ARITY entries: each A
    block is multiplied from the smaller operands' slices at its fixed
    values, and its product with each matching B block is written into
    one preallocated result.  So besides B and the result, the sum
    holds one A block and one block copied from B, however large A and
    B are.  Returns a view over ``scope``, in that order.
    """
    assert factors, "a summed bucket holds a factor on its variable"
    operands = [*factors, *map(clause_table, constraints)]
    operands.sort(key=lambda op: len(op.scope))
    b_vars, b = operands.pop()
    a_vars = {w for vs, _ in operands for w in vs} - {pivot}
    shared = [w for w in b_vars if w in a_vars]
    a_only = [w for w in scope if w in a_vars and w not in b_vars]
    b_only = [w for w in b_vars if w != pivot and w not in a_vars]
    # A block fixes B's first shared variables, then A's first a-only
    # ones, then B's first b-only ones, until neither side has more than
    # 2**_BLOCK_ARITY entries; a bucket with nothing to fix is one block.
    over_a, over_b = len(shared) + len(a_only) + 1 - _BLOCK_ARITY, len(b_vars) - _BLOCK_ARITY
    ks = min(len(shared), max(0, over_a, over_b))
    ka, kb = max(0, over_a - ks), max(0, over_b - ks)
    fixed = shared[:ks] + a_only[:ka]
    layout = shared[ks:] + a_only[ka:] + [pivot]
    # each smaller operand is transposed to its fixed variables, in
    # ``fixed`` order, then the others in layout order; ``shape`` marks
    # the axes it has over both, so a block's values of its own fixed
    # variables index its slice, which broadcasts over the layout
    nf = len(fixed)
    axis = {w: i for i, w in enumerate(fixed + layout)}
    pieces = []
    for vs, values in operands:
        shape = [1] * (nf + len(layout))
        for w in vs:
            shape[axis[w]] = 2
        pieces.append((values.transpose(sorted(range(len(vs)), key=lambda i: axis[vs[i]])), shape))
    rows, m, cols = 2 ** (len(shared) - ks), 2 ** (len(a_only) - ka), 2 ** (len(b_only) - kb)
    b = b.transpose([b_vars.index(w)
                     for w in shared[:ks] + b_only[:kb] + shared[ks:] + [pivot] + b_only[kb:]])
    out = np.empty((2,) * (nf + kb) + (rows, m, cols))
    for x in itertools.product((0, 1), repeat=nf):
        a = None  # the last A block is freed before this one is built
        for values, shape in pieces:
            if x:  # its slice at the block's values of its fixed variables
                values = values[tuple(v for v, n in zip(x, shape) if n == 2)]
            part = values.reshape(shape[nf:])
            a = part if a is None else a * part
        a = (np.ones(2) if a is None else a).reshape(rows, m, 2)
        for y in itertools.product((0, 1), repeat=kb):
            # the block's reshape is its one copy of B, freed when matmul returns
            np.matmul(a, b[x[:ks] + y].reshape(rows, 2, cols), out=out[x + y])
    order = {w: i for i, w in enumerate(fixed + b_only[:kb] + layout[:-1] + b_only[kb:])}
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

    def load(self, factors: Iterable[Factor], clauses: Iterable[frozenset[int]],
             exempt: Iterable[bool]) -> None:
        for factor in factors:
            self._place_factor(factor)
        for clause, sum_exempt in zip(clauses, exempt):
            self._install_clause(clause, sum_exempt)

    def process_all(self) -> None:
        while self.promoted or self.pending:
            v = self.promoted.popleft() if self.promoted else self.pending.pop()
            if v in self.processed:
                # promoted earlier; promoted buckets always drain before pending
                continue
            self.processed.add(v)
            bucket = self.buckets[v]
            if bucket.unit is not None:
                self._process_observed(bucket, [])
            elif v == self.query:
                # ordered first, so nothing follows; only units on v were
                # filed here, and they would have made it observed
                self.stats.trace.append(TraceEntry(v, "belief", (v,), ()))
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

    def _reduce(self, clause: frozenset[int]) -> Optional[frozenset[int]]:
        """The clause under the observed assignment: None when it is
        satisfied, the same object when no literal is assigned.  Raises
        ContradictionError when every literal is falsified (the empty clause)."""
        lits = []
        for s in clause:
            value = self.sigma.get(abs(s) - 1)
            if value is None:
                lits.append(s)
            elif value == (s > 0):
                return None
        if not lits:
            raise ContradictionError(f"clause {sorted(clause)} is falsified by the observations")
        return clause if len(lits) == len(clause) else frozenset(lits)

    def _restrict(self, factor: Factor) -> Factor:
        """The factor conditioned on the observed assignment, taken with
        one basic index; a table the restriction materializes counts
        toward mf.  The table is copied to C order, since the kernel's
        matmul can round differently on a strided view."""
        scope = tuple(w for w in factor.scope if w not in self.sigma)
        if len(scope) == len(factor.scope):
            return factor
        self.stats.mf = max(self.stats.mf, len(scope))
        index = tuple(self.sigma.get(w, slice(None)) for w in factor.scope)
        return Factor(scope, factor.values[index].copy())

    # -- item routing ---------------------------------------------------

    def _place_factor(self, factor: Factor) -> None:
        if not factor.scope:
            self.scalars.append(float(factor.values))
            return
        home = max(factor.scope, key=self.position.__getitem__)
        assert home not in self.processed
        self.buckets[home].factors.append(factor)

    def _install_clause(self, clause: frozenset[int], sum_exempt: bool,
                        collect: Optional[list[frozenset[int]]] = None) -> None:
        """Reduce a clause by the observed assignment and file it in the
        bucket of its latest variable, promoting that bucket when the
        clause is a new unit (``_file`` takes one at most once)."""
        reduced = self._reduce(clause)
        if reduced is None:
            return
        home = max((abs(s) - 1 for s in reduced), key=self.position.__getitem__)
        assert home not in self.processed
        if (self._file(self.buckets[home], reduced, sum_exempt, collect)
                and len(reduced) == 1 and self.cfg.dynamic_reorder):
            self.promoted.append(home)

    def _file(self, bucket: Bucket, clause: frozenset[int], sum_exempt: bool,
              collect: Optional[list[frozenset[int]]]) -> bool:
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
        if len(clause) == 1:
            (lit,) = clause
            if bucket.unit is not None and bucket.unit != lit:
                raise ContradictionError(f"conflicting unit clauses on variable {bucket.variable}")
            bucket.unit = lit
        bucket.clauses[clause] = sum_exempt
        if collect is not None:
            self.stats.derived_clauses += 1
            if len(clause) == 1:
                self.stats.derived_units += 1
            collect.append(clause)
        return True

    # -- bucket processing ----------------------------------------------

    def _sweep_clauses(self, bucket: Bucket, collect: list[frozenset[int]]) -> None:
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

    def _process_observed(self, bucket: Bucket, derived: list[frozenset[int]]) -> None:
        self.sigma[bucket.variable] = int(bucket.unit > 0)
        self.stats.observed += 1
        for f in bucket.factors:
            self._place_factor(self._restrict(f))
        bucket.factors = []
        # every clause here mentions the bucket variable, which the
        # assignment now fixes: each is satisfied or shortened
        for c, exempt in bucket.clauses.items():
            self._install_clause(c, exempt, derived)
        self.stats.trace.append(TraceEntry(bucket.variable, "observe", (),
                                           tuple(map(clause_of, derived))))

    def _process_sum(self, bucket: Bucket) -> None:
        derived: list[frozenset[int]] = []
        self._sweep_clauses(bucket, derived)
        if bucket.unit is not None:
            # the sweep uncovered a unit on the bucket variable
            self._process_observed(bucket, derived)
            return
        bucket.factors = [self._restrict(f) for f in bucket.factors]
        self._bdr(bucket, derived)
        constraints = [c for c, exempt in bucket.clauses.items() if not exempt]
        # first-appearance order: factors in placement order, then each
        # constraint's variables ascending
        scope = tuple(w for w in dict.fromkeys(
            [w for f in bucket.factors for w in f.scope]
            + [w - 1 for c in constraints for w in sorted(map(abs, c))]) if w != bucket.variable)
        if len(scope) >= _MAX_AXES:  # with the pivot, past what numpy can address
            raise ResourceLimitError(bucket.variable, len(scope))
        try:
            values = _bucket_lambda(bucket.factors, constraints, bucket.variable, scope)
            if values.flat[0] < _RESCALE_BELOW:  # one entry first: max() reads them all
                top = values.max()
                maxima = [f.values.max() for f in bucket.factors] if top < _NORMAL_FLOOR else []
                if len(maxima) > 1 and min(maxima) > 0.0:
                    bucket.factors = [Factor(f.scope, f.values / m)
                                      for f, m in zip(bucket.factors, maxima)]
                    self.scalars += maxima
                    values = _bucket_lambda(bucket.factors, constraints, bucket.variable, scope)
                    top = values.max()
                if 0.0 < top < _RESCALE_BELOW:
                    values /= top
                    self.scalars.append(top)
        except MemoryError as exc:
            raise ResourceLimitError(bucket.variable, len(scope)) from exc
        self.stats.mf = max(self.stats.mf, len(scope))
        self.stats.trace.append(TraceEntry(bucket.variable, "sum", scope,
                                           tuple(map(clause_of, derived))))
        self._place_factor(Factor(scope, values))
        bucket.factors = []

    def _bdr(self, bucket: Bucket, collect: list[frozenset[int]]) -> None:
        # bounded directional resolution on the bucket variable; the
        # resolvent inherits sum exemption when either premise has it
        if self.cfg.i_bound == 0 or len(bucket.clauses) < 2:
            return
        premises, exempt = list(bucket.clauses), list(bucket.clauses.values())
        for r, i, j in bdr_step(premises, bucket.variable, self.cfg.i_bound):
            self._install_clause(r, exempt[i] or exempt[j], collect)


def _execute(net: BeliefNetwork, variables: tuple[int, ...], rows: Sequence[Iterable[int]],
             exempt: Sequence[bool], ordering, cfg, stats: RunStats,
             query: Optional[int] = None, base: float = 0.0):
    """(P(phi), stats, trace) from the CPTs of ``variables``, phi given as
    ``rows`` of signed 1-based integers, frozen here, with their
    sum-exemption flags; the run fills ``stats`` and adds ``base``, a
    log constant, to the sum of the scalars' logs.
    The graph's vertices are those variables, their parents and phi's
    variables; a parent or clause variable outside ``variables`` is a
    vertex without a CPT.  A given ``ordering`` is followed over the
    graph's vertices; the variables it lists outside the graph are
    dropped.  One elimination pass over the graph yields the ordering
    and ``width_static``: a ``query`` that is not a unit goes first,
    and the given order or else phi's unit variables, sorted, fill the
    last slots, so the units are observed first and the greedy orders
    the graph they leave, around the query.  A min-degree order that
    implies more than 2**_BLOCK_ARITY table entries per vertex, with a
    slot left to the greedy, gets a min-fill pass too, and the order
    implying fewer entries is kept with its width."""
    cfg = cfg if cfg is not None else EngineConfig()
    phi = [frozenset(row) for row in rows]
    aug = _augmented(net, [{abs(s) - 1 for s in c} for c in phi], variables)
    units = tuple(sorted({abs(s) - 1 for c in phi if len(c) == 1 for s in c}))
    first = None if query in units else query
    tail = tuple(v for v in (units if ordering is None else ordering) if v in aug and v != first)
    # observing a unit restricts tables but never joins scopes
    ordering, stats.width_static, stats.entries_static = _eliminate(aug, tail, first, unfilled=units)
    # Min fill only where min degree's tables outgrow a kernel block per
    # vertex.  Its pass costs about 25 us more per vertex and a saved
    # entry about 3-8 ns, but below this line fewer entries did not mean
    # less time: along min fill, wide-tables structures 1-11 (570-59,000
    # entries per vertex; from 41% more to 54% fewer) ran 144 ms against
    # 140 ms before the passes' cost, and structure 0 (215,000 per
    # vertex) 15 against 120 ms.
    if (stats.entries_static > len(aug) << _BLOCK_ARITY
            and len(tail) + (first is not None) < len(aug)):
        by_fill = _eliminate(aug, tail, first, unfilled=units, min_fill=True)
        if by_fill[2] < stats.entries_static:
            ordering, stats.width_static, stats.entries_static = by_fill
    run = _Run(ordering, cfg, stats, query)
    failed = False
    t0 = perf_counter()
    try:
        run.load(cpt_factors([net.cpts[v] for v in variables]), phi, exempt)
        run.process_all()
    except ContradictionError:
        failed = True
    stats.elapsed = perf_counter() - t0
    if not failed:
        stats.log_result = math.fsum(map(_log, run.scalars)) + base
        # each processed bucket left exactly one trace entry
        actual = Ordering(tuple(reversed([e.bucket for e in stats.trace])))
        stats.width_posthoc = adjusted_induced_width(aug, actual, run.sigma)
    if query is not None:
        stats.log_joint = (-math.inf, -math.inf) if failed else run.log_joint(stats.log_result)
        top = max(stats.log_joint)
        stats.log_result = top if top == -math.inf else (
            top + math.log(sum(math.exp(x - top) for x in stats.log_joint)))
    stats.result = math.exp(stats.log_result)
    return stats.result, stats, stats.trace

