"""Seeded random instances for benchmarks and property tests.

Networks follow the tuple (n, f, d): n variables in a fixed topological
order, each picking up to f-1 parents among its predecessors, and each
CPT row made deterministic with probability d.  Queries follow (c, e):
c random 3-clauses and e unit observations.

All randomness comes from random.Random(seed) (the Mersenne Twister;
identifier recorded in generated files), with a fixed draw order, so a
seed pins an instance byte-for-byte.
"""

from __future__ import annotations

import random

from .model import (
    EVIDENCE,
    QUERY,
    BeliefNetwork,
    Clause,
    CnfFormula,
    Cpt,
    clause_of,
)

RNG_ALGORITHM = "python-random-mt19937"


def _check_ints(**values) -> None:
    """ValueError unless each value is an int (a bool is refused)."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"{name} must be an int, got {value!r}")


def gen_network(n: int, f: int, d: float, seed: int) -> BeliefNetwork:
    """Random network. Draw order per variable: parent count, parent
    sample, then per row: determinism coin, then either the polarity
    coin or the row probability (uniform on (0,1))."""
    _check_ints(n=n, f=f, seed=seed)
    if isinstance(d, bool) or not isinstance(d, (int, float)):
        raise ValueError(f"d must be an int or float, got {d!r}")
    if n < 1:
        raise ValueError("need at least one variable")
    if f < 1:
        raise ValueError("max family size must be at least 1")
    if not 0.0 <= d <= 1.0:
        raise ValueError("deterministic fraction must lie in [0, 1]")
    rng = random.Random(seed)
    cpts = []
    for child in range(n):
        k = rng.randint(0, min(f - 1, child))
        parents = tuple(sorted(rng.sample(range(child), k)))
        table = []
        for _ in range(1 << k):
            if rng.random() < d:
                table.append(1.0 if rng.random() < 0.5 else 0.0)
            else:
                p = rng.random()
                while p == 0.0:
                    p = rng.random()
                table.append(p)
        cpts.append(Cpt(child, parents, tuple(table)))
    return BeliefNetwork(n, tuple(cpts))


def gen_query(net: BeliefNetwork, c: int, e: int, seed: int) -> CnfFormula:
    """Random query: c ternary clauses over distinct variables with
    random signs, then e observations on distinct variables (which may
    also appear in the clauses), tagged as evidence."""
    _check_ints(c=c, e=e, seed=seed)
    if c < 0 or e < 0:
        raise ValueError("clause and observation counts must be nonnegative")
    if e > net.n:
        raise ValueError(f"cannot observe {e} distinct variables out of {net.n}")
    if c > 0 and net.n < 3:
        raise ValueError("ternary clauses need at least 3 variables")
    rng = random.Random(seed)
    clauses: list[Clause] = []
    tags: list[str] = []
    for _ in range(c):
        chosen = rng.sample(range(net.n), 3)
        clauses.append(clause_of(v + 1 if rng.random() < 0.5 else -v - 1 for v in chosen))
        tags.append(QUERY)
    for v in rng.sample(range(net.n), e):
        clauses.append(clause_of([v + 1 if rng.random() < 0.5 else -v - 1]))
        tags.append(EVIDENCE)
    return CnfFormula(clauses, tags)
