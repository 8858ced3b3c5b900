"""Network-level constructions around the elimination engine.

* extract_clauses: turn the 0/1 rows of deterministic and mixed CPTs
  into clauses, the prime implicants of each table (the parent cubes
  that force the child and stop doing so when any one parent is
  freed), so implied units surface.  The tables with the same number
  of parents are stacked and take one numpy pass, so the Python work
  per CPT is building its clauses.
* hidden_embed: the baseline that compiles each query clause into an
  evidence-fixed hidden variable for plain elimination.
* evaluate: the front door; cpe, cpe-d (phi plus the extracted clauses,
  for propagation only) and hidden run on the CPTs of the query's
  ancestral variables, in the caller's variable numbers, through
  ``_pruned_run``, the one dispatch to the engine.  elim_cpe,
  run_trace, elim_cpe_d and elim_hidden are calls of it.
* _propagate: the one pre-pass, for cpe-d and for belief under every
  algorithm, along the default or a given ordering.  Unit propagation
  over phi (and cpe-d's extracted clauses) answers a conflict with 0,
  turns each CPT whose family it fixes into an exact log constant, and
  leaves the other CPTs and the clauses it does not satisfy,
  shortened; the engine gets those with the unit of each forced
  variable the CPTs it loads mention.
* belief_given_cnf: P(var | phi) from one ``_pruned_run`` after the
  same pre-pass: var is eliminated last on its requisite part of the
  residual (``_requisite``) when a witness shows the dropped part
  positive, and on the whole residual otherwise.
* conditional_cnf_probability: P(phi | psi) from two evaluations.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional

import numpy as np

from .engine import EngineConfig, RunStats, TraceEntry, _execute, _log
from .graphs import Ordering, augmented_graph, check_ordering
from .model import (
    EVIDENCE,
    EXTRACTED,
    QUERY,
    BeliefNetwork,
    Clause,
    CnfFormula,
    Cpt,
    Literal,
    clause_table,
    stack_tables,
)
from .oracle import brute_force_cpe


# cube-table cells (CPTs times 3**k) that one extraction pass stacks;
# a CPT with more takes a pass of its own
_PASS_CELLS = 1 << 20


def _prime_rows(k: int, tables: np.ndarray) -> list[list[int]]:
    """The prime cubes of the stacked (N, 2**k) tables, as rows (table
    index, 0 for child 1 or 1 for child 0, then each parent's value or
    2 for free), in ``extract_clauses`` order."""
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
    # one integer key orders the rows by table, child value, then (size,
    # positions, values): same-size position lists ascend as their masks
    # (first parent highest) descend, and over the same positions the
    # values ascend as the mask of the parents at 1
    key = ((found[:, 0] << 1) + found[:, 1]) * (k + 1) + fixed.sum(1)
    key = (key << k) + ((1 << k) - 1 - fixed @ weights)
    key = ((key << k) + (cubes == 1) @ weights).tolist()
    found = found.tolist()
    return [found[j] for j in sorted(range(len(found)), key=key.__getitem__)]


def extract_clauses(net: BeliefNetwork, variables: Iterable[int] | None = None) -> CnfFormula:
    """All clauses certain under the CPTs of ``variables`` (the whole
    network by default), in that order, tagged with extracted
    provenance: the prime implicants of each CPT's 0/1 rows.

    A cube (a partial parent assignment) implies a child value when
    every row it covers holds exactly that value (1.0 for child 1, 0.0
    for child 0); it is prime when freeing any one of its fixed parents
    makes it stop implying (Quine 1952).  Each prime cube yields the
    clause "those parent values imply the child value"; a CPT's clauses
    come child 1 first, then by (size, positions, values).  Primality
    matters: a full OR gate must surface the two-literal implications,
    not four full-row clauses.  The tables of each parent count are
    stacked and take one numpy pass, split only where the stacked cube
    tables would pass ``_PASS_CELLS`` cells.

    Each clause has probability 1 under the network, so conjoining them
    to a query never changes its probability.  No clause repeats: one
    CPT's primes are distinct, and a clause of CPT i holds i and
    otherwise only i's parents, so two CPTs sharing one would each be a
    parent of the other.
    """
    cpts = [net.cpts[v]
            for v in (net.variables() if variables is None else net.check(variables))]
    per_cpt: list[list[Clause]] = [[] for _ in cpts]
    for k, where, tables in stack_tables(cpts):
        step = max(1, _PASS_CELLS // 3 ** k)
        for start in range(0, len(where), step):
            for i, to_zero, *cube in _prime_rows(k, tables[start:start + step]):
                cpt = cpts[where[start + i]]
                literals = [Literal(cpt.parents[p], positive=(v == 0))
                            for p, v in enumerate(cube) if v != 2]
                literals.append(Literal(cpt.child, positive=not to_zero))
                per_cpt[where[start + i]].append(Clause(literals))
    clauses = [clause for group in per_cpt for clause in group]
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


def hidden_embed(net: BeliefNetwork, phi: CnfFormula
                 ) -> tuple[BeliefNetwork, list[Literal]]:
    """Compile each clause into a fresh child holding its truth table.

    The new variable's parents are the clause's variables (ascending)
    and its CPT rows are ``clause_table``, the table the engine gates
    sums with: P(child=1 | row) is the clause's truth value;
    asserting the clause means observing the child at 1.  Returns the
    grown network and those evidence literals.
    """
    cpts = list(net.cpts)
    evidence: list[Literal] = []
    fresh = net.n
    for clause in phi.clauses:
        parents, table = clause_table(clause)
        cpts.append(Cpt(fresh, parents, tuple(table.ravel().tolist())))
        evidence.append(Literal(fresh, True))
        fresh += 1
    return BeliefNetwork(fresh, tuple(cpts)), evidence


def elim_hidden(net: BeliefNetwork, phi: CnfFormula,
                cfg: EngineConfig | None = None) -> tuple[float, RunStats]:
    """``evaluate(..., "hidden")``: P(phi) via the hidden-variable embedding.

    Plain variable elimination with evidence on the hidden children; no
    clause machinery runs, so the derived-clause counters stay 0.  The
    ordering is the engine's default on the embedded network's graph,
    the observed children last (min degree or min fill, see ``_execute``).
    """
    return evaluate(net, phi, "hidden", cfg)


ALGORITHMS = ("cpe", "cpe-d", "hidden", "brute")


def _ancestral(net: BeliefNetwork, phi: CnfFormula, var: Optional[int] = None
               ) -> tuple[int, ...]:
    """phi's variables, ``var`` when given, and all their ancestors,
    ascending.

    P(phi) and P(phi, var) are the same over their CPTs alone.  Every
    other variable is barren: no clause holds it or a descendant, so
    summing the barren variables out, children first, turns each of
    their CPTs into 1 (Shachter 1986; Baker and Boult 1990).  Every
    cpe, cpe-d and hidden run reads the network here first, so this is
    where a variable of phi, or ``var``, outside the network raises
    ModelError, before the walk indexes by it.
    """
    kept = phi.variables() | ({var} if var is not None else set())
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
    ALGORITHMS.

    cpe, cpe-d and hidden run on the CPTs of phi's variables and their
    ancestors (``_ancestral``), so mf, C, U, F, O and the widths
    describe that part of the network.  ``stats.trace`` holds the
    bucket log of the elimination run, in the network's variable
    numbers; hidden's fresh variables are net.n, net.n + 1, ... as in
    ``hidden_embed``.  An ``ordering`` must list each of 0..n-1 once
    and applies to cpe and cpe-d only, which follow it over the
    variables their engine run keeps; the other algorithms raise
    ValueError when given one.
    The brute-force path enumerates the whole network and reports only
    result and time.
    """
    if ordering is not None:
        if alg in ("hidden", "brute"):
            raise ValueError(f"algorithm {alg!r} takes no ordering; only cpe and cpe-d do")
        ordering = check_ordering(ordering, net.n)
    if alg == "brute":
        from time import perf_counter

        stats = RunStats()
        t0 = perf_counter()
        stats.result = brute_force_cpe(net, phi)
        stats.elapsed = perf_counter() - t0
        if stats.result > 0.0:
            stats.log_result = math.log(stats.result)
        return stats.result, stats
    stats = _pruned_run(net, phi, alg, cfg, ordering)
    return stats.result, stats


def _requisite(net: BeliefNetwork, sigma: dict[int, bool], variables: tuple[int, ...],
               residual: CnfFormula, var: int
               ) -> Optional[tuple[tuple[int, ...], CnfFormula]]:
    """The part of ``_propagate``'s residual (the CPTs of ``variables``,
    ascending, and the clauses ``residual``, given the forced literals
    ``sigma``) that P(var | phi) needs: (variables whose CPTs load, the
    clauses to pass), or None when all must run.

    On the augmented graph of the residual, var's component C among the
    unforced vertices is all that P(phi, var = x) depends on: every
    other factor is a constant that normalizing cancels (Shachter 1998;
    Lin and Druzdzel 1997).  The CPTs of C and of its children load and
    the clauses over C pass; a var that sigma forces has C empty, so
    only its own unit runs.  That constant must be nonzero, or the
    answer would not be None when P(phi) = 0, so the cut needs a
    witness that it is: every dropped CPT strictly inside (0, 1), and a
    greedy assignment satisfying the dropped clauses.  A family that
    propagation fixed is an exact constant already and needs none.
    """
    # every clause a clique, extracted or not; its literals are all unforced
    graph = augmented_graph(net, CnfFormula(residual.clauses), variables)
    component = {var}.difference(sigma)
    stack = list(component)
    while stack:
        for u in graph[stack.pop()]:
            if u not in component and u not in sigma:
                component.add(u)
                stack.append(u)
    # a family that meets C has its child in C or beside it; sorted, as variables is
    near = component.union(*(graph[u] for u in component))
    loaded = tuple(sorted(v for v in near if v in component
                          or not component.isdisjoint(net.parents(v))))
    if not all(0.0 < p < 1.0 for v in set(variables).difference(loaded)
               for p in net.cpts[v].table):
        return None
    assignment: dict[int, bool] = {}
    items = []
    for clause, tag in residual.items():
        if next(iter(clause.literals)).var in component:  # a clause is over C or outside it
            items.append((clause, tag))
        elif not any(assignment.get(l.var) == l.positive for l in clause.literals):
            choice = next((l for l in clause.literals if l.var not in assignment), None)
            if choice is None:
                return None
            assignment[choice.var] = choice.positive
    return loaded, CnfFormula([c for c, _ in items], [t for _, t in items])


def _propagate(net: BeliefNetwork, kept: tuple[int, ...], phi: CnfFormula
               ) -> tuple[dict[int, bool], tuple[int, ...], CnfFormula, float]:
    """P(phi) over the CPTs of ``kept`` (ascending) split by unit
    propagation into an exact log constant and a residual problem:
    (sigma, variables, clauses, log constant), P(phi) being the
    constant's exp times P(clauses) over the CPTs of ``variables``
    with each forced variable they mention at its value in sigma.

    sigma holds the literals that unit propagation over phi's clauses
    forces, found with a queue over occurrence lists in which each
    clause counts its literals not yet falsified (Davis and Putnam
    1960); phi must not hold the empty clause.  Each CPT of ``kept``
    whose whole family sigma fixes is one exact entry, and the constant
    is the sum of their logs.  ``variables`` are the other variables of
    ``kept``, ascending; ``clauses`` are phi's clauses that sigma leaves
    unsatisfied, shortened to their free literals with their tags kept
    (none is a unit).  A shortened extracted clause still holds with
    probability 1 under its own CPT, which stays: a family that sigma
    fixes whole leaves its clauses satisfied or falsified.  A conflict
    or a forced entry of 0 gives the constant -inf, with no variables
    and no clauses; sigma then holds what was forced before it.
    """
    clauses = [c.literals for c in phi.clauses]
    nothing = (), CnfFormula([]), -math.inf
    sigma: dict[int, bool] = {}
    free = [len(c) for c in clauses]  # 0 once the clause is satisfied
    occurs: dict[int, list[tuple[int, bool]]] = {}
    for i, literals in enumerate(clauses):
        for lit in literals:
            occurs.setdefault(lit.var, []).append((i, lit.positive))
    queue = [(lit.var, lit.positive) for literals in clauses if len(literals) == 1
             for lit in literals]
    while queue:
        var, value = queue.pop()
        if var in sigma:
            continue
        sigma[var] = value
        for i, positive in occurs.get(var, ()):
            if not free[i]:
                continue
            if positive == value:
                free[i] = 0
                continue
            free[i] -= 1
            if not free[i]:
                return (sigma, *nothing)
            if free[i] == 1:
                queue.append(next((l.var, l.positive) for l in clauses[i] if l.var not in sigma))
    variables, logs = [], []
    for v in kept:
        cpt = net.cpts[v]
        if v not in sigma or not all(p in sigma for p in cpt.parents):
            variables.append(v)
            continue
        row = 0
        for p in cpt.parents:
            row = 2 * row + sigma[p]
        logs.append(_log(cpt.table[row] if sigma[v] else 1.0 - cpt.table[row]))
    constant = math.fsum(logs)
    if constant == -math.inf:
        return (sigma, *nothing)
    items = []
    for (clause, tag), literals, left in zip(phi.items(), clauses, free):
        if left == len(literals):
            items.append((clause, tag))
        elif left:
            items.append((Clause(l for l in literals if l.var not in sigma), tag))
    residual = CnfFormula([c for c, _ in items], [t for _, t in items])
    return sigma, tuple(variables), residual, constant


def _certified(net: BeliefNetwork, clause: Clause) -> bool:
    """True when one CPT makes ``clause`` certain: its family holds all
    the clause's variables and it gives probability 0 to every row that
    falsifies the clause, that is, one of its ``extract_clauses``
    clauses (its prime implicants) is a subset of the clause."""
    variables = clause.variables()
    owners = [v for v in variables if variables.issubset(net.family(v))]
    return any(e.literals <= clause.literals for e in extract_clauses(net, owners).clauses)


def _pruned_run(net: BeliefNetwork, phi: CnfFormula, alg: str, cfg: EngineConfig | None,
                ordering: Ordering | None = None, var: Optional[int] = None) -> RunStats:
    """One engine run of cpe, cpe-d or hidden over the CPTs of phi's
    (and ``var``'s) ancestral variables, cpe-d's with their extracted
    clauses, whose distinct ones ``stats.extracted`` counts; the empty
    clause answers 0 before anything is read.  A caller's clause of two
    or more literals tagged extracted, which the engine lets propagate
    but never gate a sum, keeps that tag only where ``_certified``
    shows it certain, and runs as a query clause otherwise (a unit is
    observed, never summed over, so its tag changes nothing).  cpe-d and
    belief propagate units first (``_propagate``): a conflict or a forced
    entry of 0 answers 0 with no engine run, and the engine runs on the
    residual, given as evidence units the forced variables its CPTs
    mention, and var when forced, sorted.  Belief eliminates var last on
    its requisite part (``_requisite``) or the whole residual, filling
    ``stats.log_joint``.
    """
    if alg not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {alg!r}; expected one of {ALGORITHMS}")
    kept = _ancestral(net, phi, var)
    answered = RunStats(width_static=0, entries_static=0,
                        log_joint=None if var is None else (-math.inf, -math.inf))
    if any(not c.literals for c in phi.clauses):  # refused unread, as in the engine
        return answered
    if EXTRACTED in phi.provenance:  # the tag exempts from gating only a certain clause
        phi = CnfFormula(phi.clauses, [QUERY if tag == EXTRACTED and len(c) > 1
                                       and not _certified(net, c) else tag
                                       for c, tag in phi.items()])
    if alg == "cpe-d":
        phi = phi.conjoin(extract_clauses(net, kept))
    answered.extracted = len({c.literals for c, tag in phi.items() if tag == EXTRACTED})
    propagates = alg == "cpe-d" or var is not None
    if propagates:
        sigma, kept, phi, constant = _propagate(net, kept, phi)
        answered.forced = len(sigma)
        if constant == -math.inf:
            return answered
        if var is not None:
            kept, phi = _requisite(net, sigma, kept, phi, var) or (kept, phi)
        mentioned = sorted({u for v in kept for u in net.family(v) if u in sigma}
                           | ({var} & sigma.keys()))
        phi = CnfFormula([Clause([Literal(u, sigma[u])]) for u in mentioned],
                         (EVIDENCE,) * len(mentioned)).conjoin(phi)
    if alg == "hidden":
        net, evidence = hidden_embed(net, phi)
        kept += tuple(lit.var for lit in evidence)
        phi = CnfFormula([Clause([lit]) for lit in evidence], (EVIDENCE,) * len(evidence))
    stats = _execute(net, kept, phi, ordering, cfg, var)[1]
    stats.extracted, stats.forced = answered.extracted, answered.forced
    if propagates and var is None:
        stats.log_result += constant
        stats.result = math.exp(stats.log_result)
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

    cpe, cpe-d and hidden take ``_pruned_run``'s pre-pass: a conflict
    answers None with no engine run, and otherwise var is eliminated
    last in one run (elim-bel; Dechter 1999), on its requisite part
    when ``_requisite`` finds one, its bucket observed when propagation
    forces it.  brute calls the oracle once per value of var, with var
    as a unit, so either path refuses a var outside the network where it
    refuses a clause variable (``_ancestral``, ``brute_force_cpe``).
    Normalizes in the log domain, so the answer stays defined where
    both joint probabilities underflow.
    """
    if alg == "brute":
        logs = [evaluate(net, phi.conjoin(CnfFormula([Clause([Literal(var, value == 1)])])),
                         "brute")[1].log_result for value in (0, 1)]
    else:
        logs = _pruned_run(net, phi, alg, cfg, var=var).log_joint
    top = max(logs)
    if top == -math.inf:
        return None
    p0, p1 = (math.exp(x - top) for x in logs)
    return p0 / (p0 + p1), p1 / (p0 + p1)


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
