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
* A clause has one form, its DIMACS codes: signed 1-based integers
  (``-3`` is variable 2 at 0).  A ``Clause`` holds them, distinct and
  sorted by variable, as ``codes``, which a run takes as its row; the
  engine freezes a row where it files it, and ``clause_of`` makes a
  ``Clause`` of one.  Its ``Literal``s are a view that no run reads.
  ``Literal``, ``Cpt`` and ``Factor`` are ``NamedTuple``s, which hash,
  compare and sort in C; ``clause_table`` returns a ``Factor``.
* A ``BeliefNetwork`` is a valid DAG model once built: its constructor
  raises ModelError otherwise, so no later code checks it again.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import index
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

# clause provenance tags
QUERY = "query"
EVIDENCE = "evidence"
EXTRACTED = "extracted"

PROVENANCE_TAGS = (QUERY, EVIDENCE, EXTRACTED)


class ModelError(ValueError):
    """Raised for structurally invalid networks, CPTs, or clauses."""


class Literal(NamedTuple):
    """A variable paired with a polarity.  ``positive=True`` means the
    literal is satisfied when the variable is 1.  Literals order by
    variable, then negative before positive."""

    var: int
    positive: bool = True

    def satisfied_by(self, value: int) -> bool:
        return bool(value) == self.positive


@lru_cache(maxsize=None)
def _literal(code: int) -> Literal:
    """The one shared ``Literal`` of a signed 1-based code, kept for the
    life of the process: two at most per variable ever read."""
    return Literal(abs(code) - 1, code > 0)


def _canonical(codes: Iterable[int]) -> tuple[int, ...]:
    """Signed 1-based codes, merged and sorted by variable; ModelError
    names the lowest variable that appears with both signs."""
    codes = sorted(set(codes), key=abs)
    for a, b in zip(codes, codes[1:]):
        if a == -b:
            raise ModelError(f"tautological clause on variable {abs(a) - 1}")
    return tuple(codes)


@dataclass(frozen=True)
class Clause:
    """A disjunction of literals over distinct variables, held as
    ``codes``: its signed 1-based literals (``-3`` is variable 2 at 0),
    sorted by variable.

    Duplicate literals are merged on construction.  A clause containing
    both ``x`` and ``not x`` would be vacuously true and is rejected so
    that downstream code never has to reason about tautologies.  The
    empty clause is allowed and is unsatisfiable.  Equality, hash,
    ``str`` and serialization follow from the sorted codes, whatever
    order the literals came in.  ``literals``, their frozenset of
    ``Literal``s, is built on first read and kept; it is not a field,
    so reading it changes no comparison.
    """

    codes: tuple[int, ...]

    def __init__(self, literals: Iterable[Literal]):
        # a variable below 0 has no code of its own: 0, which reads as
        # variable -1, keeps it outside every network
        object.__setattr__(self, "codes", _canonical(
            (var + 1 if positive else -var - 1) if var >= 0 else 0
            for var, positive in literals))

    def __getattr__(self, name: str):  # called only for a missing attribute
        if name != "literals":
            raise AttributeError(name)
        literals = frozenset(map(_literal, self.codes))
        object.__setattr__(self, "literals", literals)
        return literals

    def __len__(self) -> int:
        return len(self.codes)

    def variables(self) -> set[int]:
        return {abs(s) - 1 for s in self.codes}

    def is_unit(self) -> bool:
        return len(self.codes) == 1

    def unit_literal(self) -> Literal:
        if not self.is_unit():
            raise ModelError("clause is not unit")
        return _literal(self.codes[0])

    def __str__(self) -> str:
        return "(" + " ".join(map(str, self.codes)) + ")"


@dataclass(frozen=True)
class CnfFormula:
    """A conjunction of clauses, each carrying a provenance tag.

    Tags record where a clause came from (query, evidence, extracted)
    and default to "query".  The formula itself treats all
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
        if not set(tags).issubset(PROVENANCE_TAGS):
            tag = next(tag for tag in tags if tag not in PROVENANCE_TAGS)
            raise ModelError(f"unknown provenance tag {tag!r}")
        object.__setattr__(self, "clauses", cls)
        object.__setattr__(self, "provenance", tags)

    def __len__(self) -> int:
        return len(self.clauses)

    def items(self) -> Iterator[tuple[Clause, str]]:
        return iter(zip(self.clauses, self.provenance))

    def variables(self) -> set[int]:
        return {abs(s) - 1 for clause in self.clauses for s in clause.codes}

    def conjoin(self, other: "CnfFormula") -> "CnfFormula":
        return CnfFormula(self.clauses + other.clauses, self.provenance + other.provenance)


class Cpt(NamedTuple):
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
    optional topological order a caller may keep with the network;
    nothing in this package sets or reads it.

    Construction raises ModelError unless the network is well formed:
    an integer n, a tuple of n CPTs with ``cpts[i].child == i``, parents
    and table tuples, distinct integer parents in 0..n-1 other than the
    child, ``2**len(parents)`` table rows, every entry a number in
    [0, 1] (NaN refused), and no directed cycle.  The CPTs are checked
    in index order and the first faulty one is reported; a cycle is
    reported only when every CPT passes.  Where every parent is
    numbered below its child, as in every network ``gen_network`` makes,
    the numbering proves there is no cycle; only other networks take the
    cycle pass (Kahn 1962).
    """

    n: int
    cpts: tuple[Cpt, ...]
    order_hint: tuple[int, ...] | None = None

    def __post_init__(self):
        n = self.n
        if not hasattr(n, "__index__"):
            raise ModelError(f"n must be an int, got {n!r}")
        if not isinstance(self.cpts, tuple):
            raise ModelError(f"cpts must be a tuple, got {type(self.cpts).__name__}")
        if len(self.cpts) != n:
            raise ModelError(f"expected {n} CPTs, got {len(self.cpts)}")
        ordered = True  # every parent numbered below its child
        for i, (child, parents, table) in enumerate(self.cpts):
            if child != i or not (type(child) is int or hasattr(child, "__index__")):
                raise ModelError(f"cpts[{i}] has child {child!r}")
            if not (isinstance(parents, tuple) and isinstance(table, tuple)):
                raise ModelError(f"variable {child}: parents and table must be tuples")
            if len(parents) > 1 and len(set(parents)) != len(parents):
                raise ModelError(f"duplicate parents for variable {child}")
            try:  # a comparison, or index, fails on a wrong type
                for p in parents:
                    if not 0 <= p < child:
                        if not 0 <= p < n:
                            raise ModelError(f"parent {p} of {child} out of range")
                        if p == child:
                            raise ModelError(f"variable {child} is its own parent")
                        ordered = False
                    index(p)
                if len(table) != 1 << len(parents):
                    raise ModelError(f"variable {child}: table has {len(table)} rows, "
                                     f"expected {1 << len(parents)}")
                for value in table:
                    if not (0.0 <= value <= 1.0):
                        raise ModelError(f"variable {child}: probability {value} out of [0, 1]")
            except TypeError:
                raise ModelError(f"variable {child}: parents must be ints, entries numbers") from None
        if ordered:  # each parent precedes its child, so there is no cycle
            return
        # cycle check (Kahn): strip each variable once its parents are all
        # stripped; what is left is every cycle member and every descendant
        # of one
        children: list[list[int]] = [[] for _ in range(n)]
        for child, parents, _ in self.cpts:
            for p in parents:
                children[p].append(child)
        unstripped = [len(cpt.parents) for cpt in self.cpts]
        stripped = [v for v in self.variables() if not unstripped[v]]
        for v in stripped:  # grows while it is walked
            for c in children[v]:
                unstripped[c] -= 1
                if not unstripped[c]:
                    stripped.append(c)
        if len(stripped) < n:
            raise ModelError(
                f"cycle among variables {[v for v in self.variables() if unstripped[v]]}")

    def check(self, variables: Iterable[int]) -> tuple[int, ...]:
        """``variables`` as a tuple.  The first one outside 0..n-1 raises
        ModelError, so no caller indexes ``cpts`` by it (a negative one
        would read another variable's CPT)."""
        variables = tuple(variables)
        if variables and (min(variables) < 0 or max(variables) >= self.n):
            v = next(v for v in variables if not 0 <= v < self.n)
            raise ModelError(f"variable {v} outside the network")
        return variables

    def parents(self, var: int) -> tuple[int, ...]:
        return self.cpts[var].parents

    def family(self, var: int) -> tuple[int, ...]:
        return self.cpts[var].parents + (var,)

    def variables(self) -> range:
        return range(self.n)


class Factor(NamedTuple):
    """A nonnegative table over a scope of distinct binary variables.

    ``values`` has shape ``(2,) * len(scope)`` with axis k indexed by
    the value of ``scope[k]``.  A factor with an empty scope is a
    scalar (shape ``()``).
    """

    scope: tuple[int, ...]
    values: np.ndarray


def stack_tables(cpts: Sequence[Cpt]) -> Iterator[tuple[int, list[int], np.ndarray]]:
    """The CPTs grouped by parent count k, in order of first appearance:
    (k, the group's indices into ``cpts``, ascending, and its tables as
    one (N, 2**k) array, row i holding the table of cpts[indices[i]])."""
    groups: dict[int, list[int]] = {}
    for i, cpt in enumerate(cpts):
        groups.setdefault(len(cpt.parents), []).append(i)
    for k, where in groups.items():
        yield k, where, np.array([cpts[i].table for i in where], dtype=float)


def cpt_factors(cpts: Sequence[Cpt]) -> list[Factor]:
    """View each CPT as a factor over (parents..., child), in order.

    The flat lexicographic table (rows over parents, P(child=1) stored,
    P(child=0) implied) expands to the shaped array in C order, so the
    child becomes the last axis.  Each parent count takes one numpy pass,
    and its factors are read-only views of one shared array.
    """
    factors = [None] * len(cpts)
    for k, where, p_one in stack_tables(cpts):
        values = np.stack([1.0 - p_one, p_one], -1).reshape((-1,) + (2,) * (k + 1))
        values.flags.writeable = False
        for i, view in zip(where, values):
            factors[i] = Factor(cpts[i].parents + (cpts[i].child,), view)
    return factors


def clause_of(row: Iterable[int]) -> Clause:
    """The ``Clause`` of a row of signed 1-based integers."""
    clause = object.__new__(Clause)
    object.__setattr__(clause, "codes", _canonical(row))
    return clause


def clause_table(row: Iterable[int]) -> Factor:
    """A row of signed 1-based integers as a 0/1 table over its own
    variables, ascending: 0 only at the one assignment that falsifies
    every literal."""
    lits = sorted(row, key=abs)
    table = np.ones((2,) * len(lits))
    table[tuple(int(s < 0) for s in lits)] = 0.0
    return Factor(tuple(abs(s) - 1 for s in lits), table)
