"""Clause-level inference: resolution and bounded directional resolution,
on clauses written as frozensets of signed 1-based integers."""

from __future__ import annotations

from typing import Iterable, Optional

from .model import ModelError


def resolve(c1: frozenset[int], c2: frozenset[int], var: int) -> Optional[frozenset[int]]:
    """Resolvent of c1 and c2 on ``var`` (0-based), or None when it is a
    tautology.

    One clause must contain the positive literal and the other the
    negative one.
    """
    pos = var + 1
    if not (pos in c1 and -pos in c2 or -pos in c1 and pos in c2):
        raise ModelError(f"clauses do not clash on variable {var}")
    rest = (c1 | c2) - {pos, -pos}
    return None if any(-s in rest for s in rest) else rest


def bdr_step(clauses: Iterable[frozenset[int]], pivot: int, bound: Optional[int]
             ) -> list[tuple[frozenset[int], int, int]]:
    """Directional resolution over ``pivot`` with a width bound.

    Resolves every positive/negative pair on the pivot and keeps the
    non-tautological resolvents with at most ``bound`` literals (no
    limit when bound is None).  Resolvents equal to an input clause or
    to an earlier resolvent are dropped.  Each kept resolvent comes
    with the input indices of its positive and negative premise.  Pair
    order follows the input order, so the result is deterministic.
    """
    pool = list(clauses)
    with_pos = [i for i, c in enumerate(pool) if pivot + 1 in c]
    with_neg = [j for j, c in enumerate(pool) if -pivot - 1 in c]
    known = set(pool)
    out: list[tuple[frozenset[int], int, int]] = []
    for i in with_pos:
        for j in with_neg:
            r = resolve(pool[i], pool[j], pivot)
            if r is not None and (bound is None or len(r) <= bound) and r not in known:
                known.add(r)
                out.append((r, i, j))
    return out
