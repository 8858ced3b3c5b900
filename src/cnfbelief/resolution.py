"""Clause-level inference: resolution and bounded directional resolution."""

from __future__ import annotations

from typing import Iterable, Optional

from .model import Clause, Literal, ModelError


def resolve(c1: Clause, c2: Clause, var: int) -> Optional[Clause]:
    """Resolvent of c1 and c2 on ``var``, or None when it is a tautology.

    One clause must contain the positive literal and the other the
    negative one.
    """
    pos = Literal(var, True)
    neg = Literal(var, False)
    if pos in c1.literals and neg in c2.literals:
        rest = (c1.literals - {pos}) | (c2.literals - {neg})
    elif neg in c1.literals and pos in c2.literals:
        rest = (c1.literals - {neg}) | (c2.literals - {pos})
    else:
        raise ModelError(f"clauses do not clash on variable {var}")
    try:
        return Clause(rest)
    except ModelError:
        return None


def bdr_step(clauses: Iterable[Clause], pivot: int, bound: Optional[int]
             ) -> list[tuple[Clause, int, int]]:
    """Directional resolution over ``pivot`` with a width bound.

    Resolves every positive/negative pair on the pivot and keeps the
    non-tautological resolvents with at most ``bound`` literals (no
    limit when bound is None).  Resolvents equal to an input clause or
    to an earlier resolvent are dropped.  Each kept resolvent comes
    with the input indices of its positive and negative premise.  Pair
    order follows the input order, so the result is deterministic.
    """
    pool = list(clauses)
    pos_lit = Literal(pivot, True)
    neg_lit = Literal(pivot, False)
    with_pos = [i for i, c in enumerate(pool) if pos_lit in c.literals]
    with_neg = [j for j, c in enumerate(pool) if neg_lit in c.literals]
    known = {c.literals for c in pool}
    out: list[tuple[Clause, int, int]] = []
    for i in with_pos:
        for j in with_neg:
            r = resolve(pool[i], pool[j], pivot)
            if r is None:
                continue
            if bound is not None and len(r) > bound:
                continue
            if r.literals in known:
                continue
            known.add(r.literals)
            out.append((r, i, j))
    return out
