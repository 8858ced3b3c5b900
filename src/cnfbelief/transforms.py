"""Network-level constructions around the elimination engine.

* extract_clauses: turn the certain entries of deterministic and mixed
  CPTs into clauses (minimal ones, so implied units surface).
* elim_cpe_d: run the engine with those clauses added for propagation
  only.
* hidden_embed / elim_hidden: the baseline that compiles each query
  clause into an evidence-fixed hidden variable and runs plain
  elimination.
* belief_given_cnf / conditional_cnf_probability: normalized queries on
  top of the raw evaluator.
"""

from __future__ import annotations

import itertools
import math
from typing import Optional

from .engine import EngineConfig, RunStats, elim_cpe
from .model import (
    EVIDENCE,
    EXTRACTED,
    BeliefNetwork,
    Clause,
    CnfFormula,
    Cpt,
    Literal,
)
from .oracle import brute_force_cpe


def _implied_clauses(cpt: Cpt) -> list[Clause]:
    """Clauses certain under one CPT.

    For each child value, the parent rows forcing it (probability
    exactly 1) form a set of cubes; every minimal partial parent
    assignment whose completions all force the child yields the clause
    "those parent values imply the child value".  Minimality matters:
    a full OR gate must surface the two-literal implications, not four
    full-row clauses.
    """
    k = len(cpt.parents)
    out: list[Clause] = []
    for child_value in (1, 0):
        wanted = 1.0 if child_value else 0.0
        forced = {r for r in range(1 << k) if cpt.table[r] == wanted}
        if not forced:
            continue
        kept: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
        for size in range(k + 1):
            for positions in itertools.combinations(range(k), size):
                for values in itertools.product((0, 1), repeat=size):
                    fixed = dict(zip(positions, values))
                    if any(all(fixed.get(p) == v for p, v in zip(ps, vs))
                           for ps, vs in kept):
                        continue  # a smaller implicant already covers this cube
                    rows = range(1 << k)
                    if all(r in forced for r in rows
                           if all(((r >> (k - 1 - p)) & 1) == v for p, v in fixed.items())):
                        kept.append((positions, values))
        for positions, values in kept:
            literals = [Literal(cpt.parents[p], positive=(v == 0))
                        for p, v in zip(positions, values)]
            literals.append(Literal(cpt.child, positive=(child_value == 1)))
            out.append(Clause(literals))
    return out


def extract_clauses(net: BeliefNetwork) -> CnfFormula:
    """All clauses certain under the network's CPTs, deduplicated,
    tagged with extracted provenance.  Each has probability 1 under the
    network, so conjoining them to a query never changes its
    probability."""
    clauses: list[Clause] = []
    seen: set[frozenset] = set()
    for cpt in net.cpts:
        for clause in _implied_clauses(cpt):
            if clause.literals in seen:
                continue
            seen.add(clause.literals)
            clauses.append(clause)
    return CnfFormula(clauses, (EXTRACTED,) * len(clauses))


def elim_cpe_d(net: BeliefNetwork, phi: CnfFormula, ordering=None,
               cfg: EngineConfig | None = None) -> tuple[float, RunStats]:
    """elim_cpe over phi plus the network's extracted clauses.

    The extracted clauses drive unit resolution, promotion, and bounded
    resolution but are exempt from summation constraints (they hold
    with probability 1, so constraining with them is redundant).  An
    extracted clause that phi also holds constrains like any query
    clause.
    """
    return elim_cpe(net, phi.conjoin(extract_clauses(net)), ordering, cfg)


def hidden_embed(net: BeliefNetwork, phi: CnfFormula
                 ) -> tuple[BeliefNetwork, list[Literal]]:
    """Compile each clause into a fresh child holding its truth table.

    The new variable's parents are the clause's variables (ascending)
    and its CPT sets P(child=1 | row) to the clause's truth value;
    asserting the clause means observing the child at 1.  Returns the
    grown network and those evidence literals.
    """
    cpts = list(net.cpts)
    evidence: list[Literal] = []
    fresh = net.n
    for clause in phi.clauses:
        parents = tuple(sorted(clause.variables()))
        k = len(parents)
        table = []
        for row in range(1 << k):
            row_value = {parents[j]: (row >> (k - 1 - j)) & 1 for j in range(k)}
            sat = any(lit.satisfied_by(row_value[lit.var]) for lit in clause.literals)
            table.append(1.0 if sat else 0.0)
        cpts.append(Cpt(fresh, parents, tuple(table)))
        evidence.append(Literal(fresh, True))
        fresh += 1
    return BeliefNetwork(fresh, tuple(cpts), net.order_hint), evidence


def elim_hidden(net: BeliefNetwork, phi: CnfFormula,
                cfg: EngineConfig | None = None) -> tuple[float, RunStats]:
    """P(phi) via the hidden-variable embedding.

    Plain variable elimination with evidence on the hidden children; no
    clause machinery runs, so the derived-clause counters stay 0.  The
    ordering is the engine's default, min-degree on the embedded
    network's own graph (unit clauses add no edges).
    """
    embedded, evidence = hidden_embed(net, phi)
    units = CnfFormula([Clause([lit]) for lit in evidence],
                       (EVIDENCE,) * len(evidence))
    return elim_cpe(embedded, units, cfg=cfg)


ALGORITHMS = ("cpe", "cpe-d", "hidden", "brute")


def evaluate(net: BeliefNetwork, phi: CnfFormula, alg: str = "cpe",
             cfg: EngineConfig | None = None, ordering=None) -> tuple[float, RunStats]:
    """Uniform front door over the evaluators; ``alg`` is one of
    ALGORITHMS.  ``stats.trace`` holds the bucket log of the elimination
    run.  An ``ordering`` applies to cpe and cpe-d only; the other
    algorithms raise ValueError when given one.  The brute-force path
    reports only result and time."""
    if ordering is not None and alg in ("hidden", "brute"):
        raise ValueError(f"algorithm {alg!r} takes no ordering; only cpe and cpe-d do")
    if alg == "cpe":
        return elim_cpe(net, phi, ordering, cfg)
    if alg == "cpe-d":
        return elim_cpe_d(net, phi, ordering, cfg)
    if alg == "hidden":
        return elim_hidden(net, phi, cfg)
    if alg == "brute":
        from time import perf_counter

        stats = RunStats()
        t0 = perf_counter()
        stats.result = brute_force_cpe(net, phi)
        stats.elapsed = perf_counter() - t0
        if stats.result > 0.0:
            stats.log_result = math.log(stats.result)
        return stats.result, stats
    raise ValueError(f"unknown algorithm {alg!r}; expected one of {ALGORITHMS}")


def belief_given_cnf(net: BeliefNetwork, phi: CnfFormula, var: int,
                     alg: str = "cpe", cfg: EngineConfig | None = None
                     ) -> Optional[tuple[float, float]]:
    """P(var = 0 | phi), P(var = 1 | phi), or None when P(phi) = 0.

    Normalizes in the log domain, so the answer stays defined where
    both joint probabilities underflow.
    """
    if not 0 <= var < net.n:
        raise ValueError(f"variable {var} outside the network")
    logs = []
    for value in (0, 1):
        conditioned = phi.conjoin(
            CnfFormula([Clause([Literal(var, value == 1)])], (EVIDENCE,)))
        logs.append(evaluate(net, conditioned, alg, cfg)[1].log_result)
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
