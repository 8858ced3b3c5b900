"""Brute-force reference results by exhaustive enumeration.

This module deliberately avoids the factor and bucket machinery: it
walks all 2^n assignments with plain Python arithmetic so its answers
are an independent check on the elimination algorithms.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from .model import BeliefNetwork, Clause, CnfFormula

MAX_BRUTE_VARS = 25


def _satisfies(bits: Sequence[int], clause: Clause) -> bool:
    return any(bits[lit.var] == (1 if lit.positive else 0) for lit in clause.literals)


def brute_force_cpe(net: BeliefNetwork, phi: CnfFormula) -> float:
    """P(phi) summed over every complete assignment.

    Guarded to small networks; enumeration is exponential in n.
    """
    if net.n > MAX_BRUTE_VARS:
        raise ValueError(f"refusing exhaustive enumeration for n={net.n} > {MAX_BRUTE_VARS}")
    for clause in phi.clauses:
        for lit in clause.literals:
            if not 0 <= lit.var < net.n:
                raise ValueError(f"clause variable {lit.var} outside the network")
    clauses = phi.clauses
    cpts = net.cpts
    total = 0.0
    for bits in itertools.product((0, 1), repeat=net.n):
        if not all(_satisfies(bits, c) for c in clauses):
            continue
        weight = 1.0
        for cpt in cpts:
            row = 0
            for p in cpt.parents:
                row = (row << 1) | bits[p]
            p_one = cpt.table[row]
            weight *= p_one if bits[cpt.child] else 1.0 - p_one
        total += weight
    return total
