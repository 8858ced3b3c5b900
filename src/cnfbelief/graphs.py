"""Interaction graphs, elimination orderings, and induced width.

A graph maps each of its vertices, which are network variables, to the
set of its neighbors; the vertices need not be 0..n-1.  The augmented
graph connects each covered variable to its CPT family (the moral
graph) and clique-connects the variables of every clause but the
extracted ones.  Orderings are stored first-to-last; elimination
processes them last-to-first, which is also the direction induced
width is measured in.  One pass, ``_eliminate``, both orders and
measures: it completes a partial order greedily by min degree and
returns the ordering with its induced width.  ``min_degree_order``,
``induced_width`` and ``adjusted_induced_width`` are calls of it.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Collection, Iterable, Sequence

from .model import EXTRACTED, BeliefNetwork, CnfFormula, ModelError


@dataclass(frozen=True)
class Ordering:
    """Distinct variables, stored first-to-last."""

    order: tuple[int, ...]

    def __post_init__(self):
        if len(set(self.order)) != len(self.order):
            raise ModelError(f"ordering repeats a variable: {self.order}")

    def __len__(self) -> int:
        return len(self.order)

    def __iter__(self):
        return iter(self.order)

    def position(self) -> dict[int, int]:
        return {v: i for i, v in enumerate(self.order)}


def augmented_graph(net: BeliefNetwork, phi: CnfFormula,
                    variables: Iterable[int] | None = None) -> dict[int, set[int]]:
    """Moral graph over the families of ``variables`` (the whole network
    by default) plus a clique over each clause's variables.  The
    vertices are the members of those cliques, so a parent or clause
    variable outside ``variables`` joins without a family of its own.
    An extracted clause never joins a table, so its variables join as
    vertices with no clique.  A clause variable outside the network
    raises ModelError."""
    cliques = [net.family(v) for v in (net.variables() if variables is None else variables)]
    loose: list[set[int]] = []
    for clause, tag in phi.items():
        vs = clause.variables()
        if any(not 0 <= v < net.n for v in vs):
            raise ModelError(f"clause variable out of range in {clause}")
        (loose if tag == EXTRACTED else cliques).append(vs)
    adj = {v: set() for clique in cliques + loose for v in clique}
    for clique in cliques:
        for v in clique:
            adj[v].update(clique)
    for v, row in adj.items():
        row.discard(v)
    return adj


def _eliminate(graph: dict[int, set[int]], tail: Sequence[int] = (), first: int | None = None,
               unfilled: Iterable[int] = (), discount: bool = False) -> tuple[Ordering, int]:
    """Eliminate every vertex last-to-first and return (order, width).

    The order is partly given: the distinct vertices of ``tail`` take
    the last slots in their given order, so they are eliminated first,
    and ``first``, when given, takes slot 0, so it is eliminated last.
    The other slots are filled greedily, latest first: each step takes
    the minimum degree vertex of the shrinking graph other than
    ``first``, smallest vertex on ties.  Selection pops a lazy heap of
    (degree, vertex) entries: eliminating a vertex pushes a fresh entry
    for each neighbor, and a popped entry is skipped when its vertex is
    gone or its degree is out of date, so the whole pass costs
    O((n + fill) log n).  A ``tail`` that lists every vertex is a given
    order.

    Eliminating a vertex connects its remaining neighbors and the width
    is the largest neighbor count seen at that point.  An ``unfilled``
    vertex counts as a neighbor of others but adds no fill edges; with
    ``discount`` it also contributes width 0 (an observed vertex).
    """
    adj = {v: set(row) for v, row in graph.items()}
    no_fill = set(unfilled)
    slots = [first] * (len(adj) - len(tail)) + list(tail)
    lo, hi = first is not None, len(adj) - len(tail)  # the slots the greedy fills
    greedy = lo < hi
    heap = [(len(row), v) for v, row in adj.items()] if greedy else []
    heapq.heapify(heap)
    width = 0
    for slot in range(len(slots) - 1, -1, -1):
        if lo <= slot < hi:
            degree, v = heapq.heappop(heap)
            while v not in adj or degree != len(adj[v]) or v == first:
                degree, v = heapq.heappop(heap)
            slots[slot] = v
        else:
            v = slots[slot]
        neighbors = adj.pop(v)
        fill = v not in no_fill
        if fill or not discount:
            width = max(width, len(neighbors))
        for a in neighbors:
            row = adj[a]
            if fill:
                row |= neighbors
                row.discard(a)
            row.discard(v)
            if greedy:
                heapq.heappush(heap, (len(row), a))
    return Ordering(tuple(slots)), width


def min_degree_order(graph: dict[int, set[int]]) -> Ordering:
    """Greedy min-degree elimination ordering: ``_eliminate`` with no
    slot given, so eliminating it last-to-first replays its choices."""
    return _eliminate(graph)[0]


def induced_width(graph: dict[int, set[int]], ordering: Ordering,
                  unfilled: Iterable[int] = ()) -> int:
    """Width of the graph induced by eliminating last-to-first.

    Eliminating a vertex connects its not-yet-eliminated neighbors,
    unless it is one of ``unfilled``; the width is the largest neighbor
    count seen at elimination time, ``unfilled`` vertices included.
    The ordering must list every vertex once.
    """
    return _eliminate(graph, _covering(ordering, graph).order, None, unfilled)[1]


def adjusted_induced_width(
    graph: dict[int, set[int]], ordering: Ordering, observed: Iterable[int]
) -> int:
    """Induced width that treats observed vertices as already assigned.

    An observed vertex contributes width 0 and adds no fill edges when
    eliminated, but it still counts as a neighbor of the unobserved
    vertices around it.
    """
    return _eliminate(graph, _covering(ordering, graph).order, None, observed, discount=True)[1]


def _covering(ordering: Sequence[int] | Ordering, variables: Collection[int]) -> Ordering:
    """``ordering`` as an Ordering; ModelError unless it lists each of ``variables`` once."""
    if not isinstance(ordering, Ordering):
        ordering = Ordering(tuple(ordering))
    if len(ordering) != len(variables):
        raise ModelError(f"ordering covers {len(ordering)} variables, network has {len(variables)}")
    if not all(map(variables.__contains__, ordering.order)):
        raise ModelError(f"ordering lists a variable outside the network: {ordering.order}")
    return ordering


def check_ordering(ordering: Sequence[int] | Ordering, n: int) -> Ordering:
    """``ordering`` as an Ordering; ModelError unless it lists each of 0..n-1 once."""
    return _covering(ordering, range(n))
