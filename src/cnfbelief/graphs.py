"""Interaction graphs, elimination orderings, and induced width.

A graph maps each of its vertices, which are network variables, to the
set of its neighbors; the vertices need not be 0..n-1.  The augmented
graph connects each covered variable to its CPT family (the moral
graph) and clique-connects the variables of every clause.
Orderings are stored first-to-last; elimination processes them
last-to-first, which is also the direction induced width is measured
in.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Collection, Iterable, Sequence

from .model import BeliefNetwork, CnfFormula, ModelError


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
    A clause variable outside the network raises ModelError."""
    cliques = [net.family(v) for v in (net.variables() if variables is None else variables)]
    for clause in phi.clauses:
        vs = clause.variables()
        if any(not 0 <= v < net.n for v in vs):
            raise ModelError(f"clause variable out of range in {clause}")
        cliques.append(vs)
    adj = {v: set() for clique in cliques for v in clique}
    for clique in cliques:
        for v in clique:
            adj[v].update(clique)
    for v, row in adj.items():
        row.discard(v)
    return adj


def _eliminate(graph: dict[int, set[int]], order: Ordering | None = None,
               unfilled: Iterable[int] = (), discount: bool = False) -> tuple[Ordering, int]:
    """Eliminate every vertex last-to-first and return (order, width).

    With ``order`` None the order is chosen greedily: each step takes
    the minimum degree vertex of the shrinking graph, smallest vertex on
    ties, and fills the latest open slot.  Selection pops a lazy heap of
    (degree, vertex) entries: eliminating a vertex pushes a fresh entry
    for each neighbor, and a popped entry is skipped when its vertex is
    gone or its degree is out of date, so the whole pass costs
    O((n + fill) log n).  A given order must list every vertex once.

    Eliminating a vertex connects its remaining neighbors and the width
    is the largest neighbor count seen at that point.  An ``unfilled``
    vertex counts as a neighbor of others but adds no fill edges; with
    ``discount`` it also contributes width 0 (an observed vertex).
    """
    greedy = order is None
    if not greedy:
        order = _covering(order, graph)
    adj = {v: set(row) for v, row in graph.items()}
    no_fill = set(unfilled)
    if greedy:
        slots = [0] * len(adj)
        heap = [(len(row), v) for v, row in adj.items()]
        heapq.heapify(heap)
    else:
        slots = list(order.order)
    width = 0
    for slot in range(len(slots) - 1, -1, -1):
        if greedy:
            degree, v = heapq.heappop(heap)
            while v not in adj or degree != len(adj[v]):
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
    return (Ordering(tuple(slots)) if greedy else order), width


def min_degree_order(graph: dict[int, set[int]]) -> Ordering:
    """Greedy min-degree elimination ordering.

    Vertices are selected last-to-first: each step picks the minimum
    degree vertex of the shrinking graph (smallest vertex on ties),
    connects its neighbors, and removes it.  The selected vertex goes
    to the latest unfilled slot, so eliminating the returned order
    last-to-first replays the greedy choices.
    """
    return _eliminate(graph)[0]


def induced_width(graph: dict[int, set[int]], ordering: Ordering,
                  unfilled: Iterable[int] = ()) -> int:
    """Width of the graph induced by eliminating last-to-first.

    Eliminating a vertex connects its not-yet-eliminated neighbors,
    unless it is one of ``unfilled``; the width is the largest neighbor
    count seen at elimination time, ``unfilled`` vertices included.
    The ordering must list every vertex once.
    """
    return _eliminate(graph, ordering, unfilled)[1]


def adjusted_induced_width(
    graph: dict[int, set[int]], ordering: Ordering, observed: Iterable[int]
) -> int:
    """Induced width that treats observed vertices as already assigned.

    An observed vertex contributes width 0 and adds no fill edges when
    eliminated, but it still counts as a neighbor of the unobserved
    vertices around it.
    """
    return _eliminate(graph, ordering, observed, discount=True)[1]


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
