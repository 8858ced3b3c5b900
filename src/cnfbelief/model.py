"""Core data model: binary belief networks, CNF formulas, and factors.

Conventions shared by every module in this package:

* Variables are the integers ``0 .. n-1`` and every variable is binary
  with domain ``{0, 1}``.
* Assignments are dicts mapping variable to 0 or 1; they may be partial.
* A CPT row holds P(child = 1 | parents); P(child = 0 | ...) is implied.
* CPT tables and factor arrays are laid out lexicographically over the
  scope, with the FIRST variable of the scope most significant.  For a
  CPT with parents (p1, p2) the rows are ordered (0,0), (0,1), (1,0),
  (1,1) over (p1, p2).  A ``Factor`` stores its values as a numpy array
  of shape ``(2,) * len(scope)``, which reshapes to and from the flat
  lexicographic layout in C order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

# clause provenance tags
QUERY = "query"
EVIDENCE = "evidence"
EXTRACTED = "extracted"
DERIVED = "derived"

PROVENANCE_TAGS = (QUERY, EVIDENCE, EXTRACTED, DERIVED)


class ModelError(ValueError):
    """Raised for structurally invalid networks, CPTs, or clauses."""


@dataclass(frozen=True, order=True)
class Literal:
    """A variable paired with a polarity.  ``positive=True`` means the
    literal is satisfied when the variable is 1."""

    var: int
    positive: bool = True

    def __neg__(self) -> "Literal":
        return Literal(self.var, not self.positive)

    def satisfied_by(self, value: int) -> bool:
        return bool(value) == self.positive

    def signed(self) -> int:
        """1-based signed integer form (negative for negated literals)."""
        return self.var + 1 if self.positive else -(self.var + 1)

    @classmethod
    def from_signed(cls, code: int) -> "Literal":
        if code == 0:
            raise ModelError("literal code 0 is reserved")
        return cls(abs(code) - 1, code > 0)


@dataclass(frozen=True)
class Clause:
    """A disjunction of literals over distinct variables.

    Duplicate literals are merged on construction.  A clause containing
    both ``x`` and ``not x`` would be vacuously true and is rejected so
    that downstream code never has to reason about tautologies.  The
    empty clause is allowed and is unsatisfiable.
    """

    literals: frozenset[Literal]

    def __init__(self, literals: Iterable[Literal]):
        lits = frozenset(literals)
        seen = {}
        for lit in lits:
            if seen.get(lit.var, lit.positive) != lit.positive:
                raise ModelError(f"tautological clause on variable {lit.var}")
            seen[lit.var] = lit.positive
        object.__setattr__(self, "literals", lits)

    def __len__(self) -> int:
        return len(self.literals)

    def __iter__(self) -> Iterator[Literal]:
        return iter(self.sorted_literals())

    def sorted_literals(self) -> tuple[Literal, ...]:
        return tuple(sorted(self.literals, key=lambda l: (l.var, l.positive)))

    def variables(self) -> set[int]:
        return {lit.var for lit in self.literals}

    def is_empty(self) -> bool:
        return not self.literals

    def is_unit(self) -> bool:
        return len(self.literals) == 1

    def unit_literal(self) -> Literal:
        if not self.is_unit():
            raise ModelError("clause is not unit")
        return next(iter(self.literals))

    def __str__(self) -> str:
        if not self.literals:
            return "()"
        return "(" + " ".join(str(l.signed()) for l in self.sorted_literals()) + ")"


@dataclass(frozen=True)
class CnfFormula:
    """A conjunction of clauses, each carrying a provenance tag.

    Tags record where a clause came from (query, evidence, extracted,
    derived) and default to "query".  The formula itself treats all
    clauses identically; provenance only matters to the elimination
    engine and to file serialization.
    """

    clauses: tuple[Clause, ...]
    provenance: tuple[str, ...] = ()

    def __init__(self, clauses: Iterable[Clause], provenance: Iterable[str] | None = None):
        cls = tuple(clauses)
        if provenance is None:
            tags = (QUERY,) * len(cls)
        else:
            tags = tuple(provenance)
        if len(tags) != len(cls):
            raise ModelError("provenance length does not match clause count")
        for tag in tags:
            if tag not in PROVENANCE_TAGS:
                raise ModelError(f"unknown provenance tag {tag!r}")
        object.__setattr__(self, "clauses", cls)
        object.__setattr__(self, "provenance", tags)

    def __len__(self) -> int:
        return len(self.clauses)

    def items(self) -> Iterator[tuple[Clause, str]]:
        return iter(zip(self.clauses, self.provenance))

    def variables(self) -> set[int]:
        out: set[int] = set()
        for clause in self.clauses:
            out |= clause.variables()
        return out

    def has_empty_clause(self) -> bool:
        return any(c.is_empty() for c in self.clauses)

    def conjoin(self, other: "CnfFormula") -> "CnfFormula":
        return CnfFormula(self.clauses + other.clauses, self.provenance + other.provenance)


@dataclass(frozen=True)
class Cpt:
    """Conditional probability table for one binary variable.

    ``table[r]`` is P(child = 1 | parent row r) where the row index
    runs lexicographically over the parent tuple, first parent most
    significant.  A root variable has an empty parent tuple and a
    single-entry table holding its prior.
    """

    child: int
    parents: tuple[int, ...]
    table: tuple[float, ...]


@dataclass(frozen=True)
class BeliefNetwork:
    """A directed acyclic model over binary variables 0..n-1.

    ``cpts[i]`` must be the CPT whose child is i.  ``order_hint`` is an
    optional topological order retained from parsing or generation; the
    elimination code never requires it.
    """

    n: int
    cpts: tuple[Cpt, ...]
    order_hint: tuple[int, ...] | None = None

    def __post_init__(self):
        if len(self.cpts) != self.n:
            raise ModelError(f"expected {self.n} CPTs, got {len(self.cpts)}")
        for i, cpt in enumerate(self.cpts):
            if cpt.child != i:
                raise ModelError(f"cpts[{i}] has child {cpt.child}")

    def parents(self, var: int) -> tuple[int, ...]:
        return self.cpts[var].parents

    def family(self, var: int) -> tuple[int, ...]:
        return self.cpts[var].parents + (var,)

    def variables(self) -> range:
        return range(self.n)


def validate_network(net: BeliefNetwork) -> None:
    """Raise ModelError unless ``net`` is a well-formed DAG model.

    Checks variable ranges, parent tuples (distinct, acyclic), table
    lengths and probability bounds.
    """
    for cpt in net.cpts:
        if not 0 <= cpt.child < net.n:
            raise ModelError(f"variable {cpt.child} out of range")
        if len(set(cpt.parents)) != len(cpt.parents):
            raise ModelError(f"duplicate parents for variable {cpt.child}")
        for p in cpt.parents:
            if not 0 <= p < net.n:
                raise ModelError(f"parent {p} of {cpt.child} out of range")
            if p == cpt.child:
                raise ModelError(f"variable {cpt.child} is its own parent")
        if len(cpt.table) != 1 << len(cpt.parents):
            raise ModelError(
                f"variable {cpt.child}: table has {len(cpt.table)} rows, "
                f"expected {1 << len(cpt.parents)}"
            )
        for value in cpt.table:
            if not (0.0 <= value <= 1.0) or math.isnan(value):
                raise ModelError(f"variable {cpt.child}: probability {value} out of [0, 1]")
    # cycle check: repeatedly strip variables whose parents are all stripped
    remaining = set(net.variables())
    changed = True
    while changed and remaining:
        changed = False
        for v in sorted(remaining):
            if all(p not in remaining for p in net.parents(v)):
                remaining.discard(v)
                changed = True
    if remaining:
        raise ModelError(f"cycle among variables {sorted(remaining)}")


@dataclass(frozen=True)
class Factor:
    """A nonnegative table over a scope of distinct binary variables.

    ``values`` has shape ``(2,) * len(scope)`` with axis k indexed by
    the value of ``scope[k]``.  A factor with an empty scope is a
    scalar (shape ``()``).
    """

    scope: tuple[int, ...]
    values: np.ndarray

    def __post_init__(self):
        if len(set(self.scope)) != len(self.scope):
            raise ModelError(f"factor scope {self.scope} repeats a variable")
        expected = (2,) * len(self.scope)
        if self.values.shape != expected:
            raise ModelError(f"factor values shape {self.values.shape}, expected {expected}")

    @property
    def arity(self) -> int:
        return len(self.scope)

    def restrict(self, var: int, value: int) -> "Factor":
        """Condition on var = value, dropping var from the scope."""
        axis = self.scope.index(var)
        new_scope = self.scope[:axis] + self.scope[axis + 1:]
        return Factor(new_scope, np.take(self.values, value, axis=axis))

    def scalar(self) -> float:
        if self.scope:
            raise ModelError("factor is not a scalar")
        return float(self.values)


def cpt_to_factor(cpt: Cpt) -> Factor:
    """View a CPT as a factor over (parents..., child).

    The flat lexicographic table (rows over parents, P(child=1) stored,
    P(child=0) implied) expands to the shaped array in C order, so the
    child becomes the last axis.
    """
    p_one = np.asarray(cpt.table, dtype=float)
    values = np.stack([1.0 - p_one, p_one], axis=-1)
    scope = cpt.parents + (cpt.child,)
    return Factor(scope, values.reshape((2,) * len(scope)))


def close_enough(a: float, b: float) -> bool:
    """Probability comparison used across tests and checks."""
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)
