"""Network-level constructions around the elimination engine.

Callers hand in and get back ``Clause``s.  Inside a run a clause is
a row, its ``codes``: signed 1-based integers (``-3``: variable 2 at
0), sorted by variable, its provenance reduced to a sum-exemption flag
beside it.  ``_pruned_run`` takes each clause's codes as they are, and
the pre-pass, the requisite cut and the engine take rows and flags, so
a ``Clause`` is built again only for ``extract_clauses`` and the
trace's derived clauses (``model.clause_of``).

* extract_clauses: turn the 0/1 rows of deterministic and mixed CPTs
  into clauses, the prime implicants of each table (the parent cubes
  that force the child and stop doing so when any one parent is
  freed), so implied units surface.  The tables with the same number
  of parents are stacked and take one numpy pass, which writes each
  clause as a row (``_extracted_rows``), the form cpe-d propagates.
* evaluate: the front door, through ``_pruned_run``, the one dispatch
  on the algorithm: cpe, cpe-d (phi plus the extracted clauses, for
  propagation only) and hidden run on the CPTs of the query's ancestral
  variables, in the caller's numbers, and brute enumerates the network.
  hidden is the paper's baseline: each clause compiled into a hidden
  child observed at 1.  Restricting that child's CPT to 1 leaves the
  clause's 0/1 table over its own variables, so hidden loads each
  clause as that table beside the CPTs, for plain elimination with no
  clause machinery (Dechter, AIJ 1999).
  elim_cpe, run_trace, elim_cpe_d and elim_hidden are calls of it.
* _propagate: the one pre-pass, for cpe-d and for belief under every
  algorithm, along the default or a given ordering.  Unit propagation
  over phi's rows (and cpe-d's extracted ones) answers a conflict with
  0, turns each CPT whose family it fixes into an exact log constant,
  and leaves the other CPTs and the rows it does not satisfy,
  shortened; the engine gets those with the unit of each forced
  variable the CPTs it loads mention.
* belief_given_cnf: P(var | phi) from one ``_pruned_run``; the engine
  algorithms take the same pre-pass, and var is eliminated last on its
  requisite part of the residual (``_requisite``) when a witness shows
  the dropped part positive, and on the whole residual otherwise.
* conditional_cnf_probability: P(phi | psi) from two evaluations.
"""

from __future__ import annotations

import math
from time import perf_counter
from typing import Iterable, Optional, Sequence

import numpy as np

from .engine import EngineConfig, RunStats, TraceEntry, _execute, _log
from .graphs import Ordering, _augmented, check_ordering
from .model import EXTRACTED, BeliefNetwork, CnfFormula, clause_of, stack_tables
from .oracle import brute_force_cpe


# cube-table cells (CPTs times 3**k) that one extraction pass stacks;
# a CPT with more takes a pass of its own
_PASS_CELLS = 1 << 20

# the sign of a literal by its value in a prime row: a child value index
# (0 for child 1, 1 for child 0) or a parent value (2 for free, dropped)
_SIGN = np.array([1, -1, 0])


def _prime_rows(k: int, tables: np.ndarray) -> np.ndarray:
    """The prime cubes of the stacked (N, 2**k) tables, as the rows of
    one int array (table index, 0 for child 1 or 1 for child 0, then
    each parent's value or 2 for free), in ``extract_clauses`` order."""
    # axes (table, child value 1 then 0, parent 1, ..., parent k); each
    # parent axis gains index 2 for "free": the AND of its two values
    rows = tables.reshape((-1, 1) + (2,) * k)
    implies = np.concatenate([rows == 1.0, rows == 0.0], 1)
    for axis in range(2, k + 2):
        implies = np.concatenate([implies, implies.all(axis, keepdims=True)], axis)
    prime = implies.copy()
    for axis in range(2, k + 2):
        lead = (slice(None),) * axis
        prime[lead + (slice(0, 2),)] &= ~implies[lead + (slice(2, 3),)]
    found = np.argwhere(prime)
    cubes = found[:, 2:]
    fixed = cubes != 2
    weights = 1 << np.arange(k - 1, -1, -1, dtype=np.int64)
    # by table, child value, then (size, positions, values): same-size
    # position lists ascend as their masks (first parent highest)
    # descend, and over the same positions the values ascend as the mask
    # of the parents at 1
    return found[np.lexsort(((cubes == 1) @ weights, -(fixed @ weights), fixed.sum(1),
                             found[:, 1], found[:, 0]))]


def _extracted_rows(net: BeliefNetwork, variables: Iterable[int] | None = None
                    ) -> list[tuple[int, ...]]:
    """``extract_clauses(net, variables)`` as rows of signed 1-based
    integers (negative for a negated literal), each clause's fixed
    parents in the CPT's order and then its child."""
    cpts = [net.cpts[v] for v in (net.variables() if variables is None
                                  else dict.fromkeys(net.check(variables)))]
    rows: list[tuple[int, ...]] = []
    owners = []
    for k, where, tables in stack_tables(cpts):
        # each CPT's parents, then its child, numbered from 1
        ids = np.array([cpts[i].parents + (cpts[i].child,) for i in where], dtype=np.int64) + 1
        step = max(1, _PASS_CELLS // 3 ** k)
        for start in range(0, len(where), step):
            found = _prime_rows(k, tables[start:start + step])
            table = found[:, 0] + start
            signed = ids[table] * _SIGN[found[:, [*range(2, k + 2), 1]]]
            rows += [tuple(filter(None, row)) for row in signed.tolist()]
            owners.append(np.array(where)[table])
    if not rows:
        return rows
    # stable, so each CPT's rows keep their order
    return [rows[j] for j in np.argsort(np.concatenate(owners), kind="stable").tolist()]


def extract_clauses(net: BeliefNetwork, variables: Iterable[int] | None = None) -> CnfFormula:
    """All clauses certain under the CPTs of ``variables`` (the whole
    network by default), in first-seen order with a repeated variable
    taken once, tagged with extracted provenance: the prime implicants
    of each CPT's 0/1 rows.

    A cube (a partial parent assignment) implies a child value when
    every row it covers holds exactly that value (1.0 for child 1, 0.0
    for child 0); it is prime when freeing any one of its fixed parents
    makes it stop implying (Quine 1952).  Each prime cube yields the
    clause "those parent values imply the child value"; a CPT's clauses
    come child 1 first, then by (size, positions, values).  Primality
    matters: a full OR gate must surface the two-literal implications,
    not four full-row clauses.  The tables of each parent count are
    stacked and take one numpy pass, split only where the stacked cube
    tables would pass ``_PASS_CELLS`` cells.  The clauses are built
    from ``_extracted_rows``, the signed-integer rows cpe-d propagates.

    Each clause has probability 1 under the network, so conjoining them
    to a query never changes its probability.  No clause repeats: one
    CPT's primes are distinct, and a clause of CPT i holds i and
    otherwise only i's parents, so two CPTs sharing one would each be a
    parent of the other.
    """
    clauses = [clause_of(row) for row in _extracted_rows(net, variables)]
    return CnfFormula(clauses, (EXTRACTED,) * len(clauses))


def elim_cpe_d(net: BeliefNetwork, phi: CnfFormula, ordering=None,
               cfg: EngineConfig | None = None) -> tuple[float, RunStats]:
    """``evaluate(..., "cpe-d")``: elim_cpe over phi plus extracted clauses.

    The extracted clauses drive unit resolution, promotion, and bounded
    resolution but are exempt from summation constraints (they hold
    with probability 1, so constraining with them is redundant).  An
    extracted clause that phi also holds constrains like any query
    clause.  Unit propagation over all of them runs first
    (``_propagate``, the pre-pass belief also takes): a conflict
    answers 0 with no engine run, each CPT whose family it fixes is an
    exact constant, and the engine eliminates only the rest, along
    ``ordering`` when one is given, so mf, C, U, O, the widths and the
    trace describe that run and ``stats.forced`` counts the literals
    fixed up front.  The elimination over phi plus the extracted
    clauses with no pre-pass is ``run_trace(net,
    phi.conjoin(extract_clauses(net)), ordering)``.
    """
    return evaluate(net, phi, "cpe-d", cfg, ordering)


def elim_hidden(net: BeliefNetwork, phi: CnfFormula,
                cfg: EngineConfig | None = None) -> tuple[float, RunStats]:
    """``evaluate(..., "hidden")``: P(phi) by the hidden-variable baseline.

    Each clause loads as its 0/1 table (``model.clause_table``), what
    the paper's hidden child observed at 1 restricts to, and plain
    variable elimination multiplies and sums the tables with the CPTs.
    No clause machinery runs, so the derived-clause counters stay 0,
    and no fresh variable is made: the trace holds only the network's
    variables.  The ordering is the engine's default on the graph the
    tables clique-connect (min degree or min fill, see ``_execute``).
    """
    return evaluate(net, phi, "hidden", cfg)


ALGORITHMS = ("cpe", "cpe-d", "hidden", "brute")


def _ancestral(net: BeliefNetwork, rows: Iterable[Iterable[int]], var: Optional[int] = None
               ) -> tuple[int, ...]:
    """The variables of phi's ``rows`` (signed 1-based integers),
    ``var`` when given, and all their ancestors, ascending.

    P(phi) and P(phi, var) are the same over their CPTs alone.  Every
    other variable is barren: no clause holds it or a descendant, so
    summing the barren variables out, children first, turns each of
    their CPTs into 1 (Shachter 1986; Baker and Boult 1990).  Every
    cpe, cpe-d and hidden run reads the network here first, so this is
    where a variable of phi, or ``var``, outside the network raises
    ModelError, before the walk indexes by it.
    """
    kept = {abs(s) - 1 for row in rows for s in row} | ({var} if var is not None else set())
    stack = list(net.check(kept))
    while stack:
        for p in net.parents(stack.pop()):
            if p not in kept:
                kept.add(p)
                stack.append(p)
    return tuple(sorted(kept))


def evaluate(net: BeliefNetwork, phi: CnfFormula, alg: str = "cpe",
             cfg: EngineConfig | None = None, ordering=None) -> tuple[float, RunStats]:
    """Uniform front door over the evaluators; ``alg`` is one of
    ALGORITHMS: (P(phi), stats) from one ``_pruned_run``.

    cpe, cpe-d and hidden run on the CPTs of phi's variables and their
    ancestors (``_ancestral``), so mf, C, U, F, O and the widths
    describe that part of the network.  ``stats.trace`` holds the
    bucket log of the elimination run, in the network's variable
    numbers.  An ``ordering`` must list each of 0..n-1 once
    and applies to cpe and cpe-d only, which follow it over the
    variables their engine run keeps; the other algorithms raise
    ValueError when given one.
    The brute-force path enumerates the whole network and reports only
    result, log_result and time.
    """
    stats = _pruned_run(net, phi, alg, cfg, ordering)
    return stats.result, stats


def _requisite(net: BeliefNetwork, sigma: dict[int, bool], variables: tuple[int, ...],
               rows: list[Sequence[int]], exempt: list[bool], var: int
               ) -> Optional[tuple[tuple[int, ...], list[Sequence[int]], list[bool]]]:
    """The part of ``_propagate``'s residual (the CPTs of ``variables``,
    ascending, and the clauses ``rows`` with their flags ``exempt``,
    given the forced literals ``sigma``) that P(var | phi) needs:
    (variables whose CPTs load, the rows to pass, their flags), or None
    when all must run.

    On the augmented graph of the residual, var's component C among the
    unforced vertices is all that P(phi, var = x) depends on: every
    other factor is a constant that normalizing cancels (Shachter 1998;
    Lin and Druzdzel 1997).  The CPTs of C and of its children load and
    the clauses over C pass; a var that sigma forces has C empty, so
    only its own unit runs.  That constant must be nonzero, or the
    answer would not be None when P(phi) = 0, so the cut needs a
    witness that it is: every dropped CPT strictly inside (0, 1), and a
    greedy assignment satisfying the dropped clauses, each taking its
    first literal whose variable is free, in the row's order (by
    variable for phi's clauses, whose rows are their codes).  A family
    that propagation fixed is an exact constant already and needs none.
    """
    graph = _augmented(net, [{abs(s) - 1 for s in row} for row in rows], variables)
    component = {var}.difference(sigma)
    stack = list(component)
    while stack:
        for u in graph[stack.pop()]:
            if u not in component and u not in sigma:
                component.add(u)
                stack.append(u)
    loaded = tuple(v for v in variables if v in component
                   or not component.isdisjoint(net.parents(v)))
    if not all(0.0 < p < 1.0 for v in set(variables).difference(loaded)
               for p in net.cpts[v].table):
        return None
    true: set[int] = set()  # the witness, as signed literals
    passed, passed_exempt = [], []
    for row, flag in zip(rows, exempt):
        if abs(row[0]) - 1 in component:  # a clause is over C or outside it
            passed.append(row)
            passed_exempt.append(flag)
        elif true.isdisjoint(row):
            choice = next((s for s in row if -s not in true), None)
            if choice is None:
                return None
            true.add(choice)
    return loaded, passed, passed_exempt


def _propagate(net: BeliefNetwork, kept: tuple[int, ...], rows: Sequence[Sequence[int]],
               exempt: Sequence[bool], extracted: Sequence[tuple[int, ...]] = ()
               ) -> tuple[dict[int, bool], tuple[int, ...], list[Sequence[int]], list[bool], float]:
    """P(phi) over the CPTs of ``kept`` (ascending) split by unit
    propagation into an exact log constant and a residual problem:
    (sigma, variables, rows, flags, log constant), P(phi) being the
    constant's exp times P(rows) over the CPTs of ``variables`` with
    each forced variable they mention at its value in sigma.

    phi comes as ``rows`` of signed 1-based integers with their
    sum-exemption flags ``exempt``; ``extracted`` holds cpe-d's clauses
    certain under those CPTs as ``_extracted_rows`` gives them, which
    propagate after phi's, so one pass runs over all of them.  sigma
    holds the literals that unit propagation forces, found with a queue
    over occurrence lists keyed by signed literal, in which each row
    counts its literals not yet falsified (Davis and Putnam 1960); no
    row may be empty.  Each CPT of ``kept`` whose whole family sigma
    fixes is one exact entry, and the constant is the sum of their logs.
    ``variables`` are the other variables of ``kept``, ascending; the
    rows returned are those sigma leaves unsatisfied, phi's and then the
    extracted ones, flagged exempt, with their flags kept (none is a
    unit): an untouched row is the object given, and a shortened one a
    list of its free literals, in the row's order.  A shortened
    extracted clause still holds with probability 1 under its own CPT,
    which stays: a family that sigma fixes whole leaves its clauses
    satisfied or falsified.  A conflict or a forced entry of 0 gives the
    constant -inf, with no variables and no rows; sigma then holds what
    was forced before it.
    """
    clauses = [*rows, *extracted]
    nothing = (), [], [], -math.inf
    sigma: dict[int, bool] = {}
    free = [len(row) for row in clauses]  # 0 once the clause is satisfied
    occurs: dict[int, list[int]] = {}  # keyed by signed literal
    for i, row in enumerate(clauses):
        for s in row:
            occurs.setdefault(s, []).append(i)
    queue = [row[0] for row in clauses if len(row) == 1]
    while queue:
        s = queue.pop()
        var = abs(s) - 1
        if var in sigma:
            continue
        sigma[var] = s > 0
        for i in occurs.get(s, ()):
            free[i] = 0
        for i in occurs.get(-s, ()):
            if not free[i]:
                continue
            free[i] -= 1
            if not free[i]:
                return (sigma, *nothing)
            if free[i] == 1:
                queue.append(next(t for t in clauses[i] if abs(t) - 1 not in sigma))
    variables, logs = [], []
    cpts, forced = net.cpts, sigma.__contains__
    for v in kept:
        parents = cpts[v].parents
        if not forced(v) or not all(map(forced, parents)):
            variables.append(v)
            continue
        row = 0
        for p in parents:
            row = 2 * row + sigma[p]
        p_one = cpts[v].table[row]
        logs.append(_log(p_one if sigma[v] else 1.0 - p_one))
    constant = math.fsum(logs)
    if constant == -math.inf:
        return (sigma, *nothing)
    residual, residual_exempt = [], []
    for row, flag, left in zip(clauses, [*exempt, *[True] * len(extracted)], free):
        if left:
            residual.append(row if left == len(row) else
                            [s for s in row if abs(s) - 1 not in sigma])
            residual_exempt.append(flag)
    return sigma, tuple(variables), residual, residual_exempt, constant


def _certified(net: BeliefNetwork, row: Sequence[int]) -> bool:
    """True when one CPT makes the clause ``row`` (signed 1-based
    integers) certain: its family holds all the clause's variables and
    it gives probability 0 to every assignment that falsifies the
    clause, that is, one of its ``extract_clauses`` clauses (its prime
    implicants) is a subset of the clause."""
    variables = {abs(s) - 1 for s in row}
    owners = [v for v in variables if variables.issubset(net.family(v))]
    signed = set(row)
    return any(signed.issuperset(prime) for prime in _extracted_rows(net, owners))


def _pruned_run(net: BeliefNetwork, phi: CnfFormula, alg: str, cfg: EngineConfig | None,
                ordering: Ordering | None = None, var: Optional[int] = None) -> RunStats:
    """The one dispatch on ``alg`` (checked first, then ``evaluate``'s
    ordering rule): the stats of P(phi), or with ``var`` of P(var | phi),
    whose ``log_joint`` belief normalizes.  brute enumerates the whole
    network (``brute_force_cpe``), with var once per value, as a unit.
    cpe, cpe-d and hidden write phi's clauses once as rows of signed
    1-based integers, each with a sum-exemption flag, and make one
    engine run (hidden's rows, the pre-pass units included, load as
    0/1 tables), which fills the ``stats`` opened here, over the CPTs of
    phi's (and ``var``'s) ancestral variables, cpe-d's with their
    extracted clauses, kept as ``_extracted_rows`` for the pre-pass; the
    empty clause answers 0 before anything is read.  A caller's clause
    tagged extracted is exempt (it propagates but never gates a sum)
    when it is a unit, observed and never summed over, or ``_certified``
    shows it certain; no other clause is.  ``stats.extracted`` (F)
    counts the distinct extracted clauses: the rows, which are
    distinct, plus the caller's exempt clauses not among them.  cpe-d
    and belief propagate units first (``_propagate``, timed by
    ``stats.propagate_s`` as cpe-d's extraction is by ``extract_s``): a
    conflict or a forced entry of 0 answers 0 with no engine run, and
    the engine runs on the residual, given as units the forced
    variables its CPTs mention, and var when forced, sorted.  It adds
    cpe-d's constant to the log of P(phi); belief, whose normalizing
    would cancel it, leaves it out and eliminates var last on its
    requisite part (``_requisite``) or the whole residual.
    """
    if alg not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {alg!r}; expected one of {ALGORITHMS}")
    if ordering is not None:
        if alg in ("hidden", "brute"):
            raise ValueError(f"algorithm {alg!r} takes no ordering; only cpe and cpe-d do")
        ordering = check_ordering(ordering, net.n)
    if alg == "brute":
        stats, t0 = RunStats(), perf_counter()
        if var is None:
            stats.result = brute_force_cpe(net, phi)
            stats.log_result = _log(stats.result)
        else:  # var has a code only inside the network
            net.check((var,))
            stats.log_joint = tuple(_log(brute_force_cpe(net, phi.conjoin(
                CnfFormula([clause_of([code])])))) for code in (-var - 1, var + 1))
        stats.elapsed = perf_counter() - t0
        return stats
    rows = [c.codes for c in phi.clauses]
    kept = _ancestral(net, rows, var)
    stats = RunStats(width_static=0, entries_static=0,
                     log_joint=None if var is None else (-math.inf, -math.inf))
    if not all(rows):  # refused unread, as in the engine
        return stats
    exempt = [tag == EXTRACTED and (len(row) == 1 or _certified(net, row))
              for row, tag in zip(rows, phi.provenance)]
    extracted = []
    if alg == "cpe-d":
        t0 = perf_counter()
        extracted = _extracted_rows(net, kept)
        stats.extract_s = perf_counter() - t0
    # the rows are distinct (see extract_clauses), so only the caller's
    # exempt clauses are compared with them
    tagged = {frozenset(row) for row, flag in zip(rows, exempt) if flag}
    if tagged and extracted:
        tagged.difference_update(map(frozenset, extracted))
    stats.extracted = len(extracted) + len(tagged)
    constant = 0.0
    if alg == "cpe-d" or var is not None:
        t0 = perf_counter()
        sigma, kept, rows, exempt, constant = _propagate(net, kept, rows, exempt, extracted)
        stats.propagate_s = perf_counter() - t0
        stats.forced = len(sigma)
        if constant == -math.inf:
            return stats
        if var is not None:
            kept, rows, exempt = _requisite(net, sigma, kept, rows, exempt, var) or (
                kept, rows, exempt)
        mentioned = sorted({u for v in kept for u in net.family(v) if u in sigma}
                           | ({var} & sigma.keys()))
        rows = [[u + 1 if sigma[u] else -u - 1] for u in mentioned] + rows
        exempt = [False] * len(mentioned) + exempt
    tables = ()
    if alg == "hidden":
        rows, exempt, tables = [], [], rows
    _execute(net, kept, rows, exempt, ordering, cfg, stats, var,
             constant if var is None else 0.0, tables)
    return stats


def elim_cpe(net: BeliefNetwork, phi: CnfFormula, ordering: Ordering | None = None,
             cfg: EngineConfig | None = None) -> tuple[float, RunStats]:
    """``evaluate(..., "cpe")``: P(phi) by bucket elimination with clause
    propagation; an unsatisfiable query yields probability 0."""
    return evaluate(net, phi, "cpe", cfg, ordering)


def run_trace(net: BeliefNetwork, phi: CnfFormula, ordering: Ordering | None = None,
              cfg: EngineConfig | None = None) -> tuple[float, RunStats, list[TraceEntry]]:
    """elim_cpe plus the ordered log of bucket actions (``stats.trace``)."""
    prob, stats = elim_cpe(net, phi, ordering, cfg)
    return prob, stats, stats.trace


def belief_given_cnf(net: BeliefNetwork, phi: CnfFormula, var: int,
                     alg: str = "cpe", cfg: EngineConfig | None = None
                     ) -> Optional[tuple[float, float]]:
    """P(var = 0 | phi), P(var = 1 | phi), or None when P(phi) = 0.

    Normalizes the ``log_joint`` of one ``_pruned_run`` in the log
    domain, so the answer stays defined where both joints underflow.
    cpe, cpe-d and hidden take its pre-pass: a conflict answers None
    with no engine run, and otherwise var is eliminated last in one run
    (elim-bel; Dechter 1999), on its requisite part when ``_requisite``
    finds one, its bucket observed when propagation forces it.  brute
    calls the oracle once per value of var, with var as a unit, so every
    path refuses a var outside the network where it refuses a clause
    variable (``_ancestral``, ``brute_force_cpe``).
    """
    found = _belief(net, phi, var, alg, cfg)
    return None if found is None else found[0]


def _belief(net: BeliefNetwork, phi: CnfFormula, var: int, alg: str,
            cfg: EngineConfig | None
            ) -> Optional[tuple[tuple[float, float], tuple[float, float]]]:
    """``belief_given_cnf``'s answer and the natural log of each value,
    or None.  A value below the floats reads 0.0 beside a finite log,
    which ``cli.format_probability`` prints from."""
    logs = _pruned_run(net, phi, alg, cfg, var=var).log_joint
    top = max(logs)
    if top == -math.inf:
        return None
    p0, p1 = (math.exp(x - top) for x in logs)
    total = p0 + p1
    log_total = top + math.log(total)
    return (p0 / total, p1 / total), (logs[0] - log_total, logs[1] - log_total)


def conditional_cnf_probability(net: BeliefNetwork, phi: CnfFormula,
                                psi: CnfFormula, alg: str = "cpe",
                                cfg: EngineConfig | None = None) -> Optional[float]:
    """P(phi | psi) = P(phi and psi) / P(psi), or None when P(psi) = 0.

    The ratio is taken in the log domain, so it stays defined where
    both probabilities underflow.
    """
    log_psi = evaluate(net, psi, alg, cfg)[1].log_result
    if log_psi == -math.inf:
        return None
    log_joint = evaluate(net, phi.conjoin(psi), alg, cfg)[1].log_result
    return math.exp(log_joint - log_psi)
