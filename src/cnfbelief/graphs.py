"""Interaction graphs, elimination orderings, and induced width.

A graph on vertices 0..n-1 is its list of adjacency sets.  The
augmented graph connects each variable to its CPT family (the moral
graph) and clique-connects the variables of every clause.
Orderings are stored first-to-last; elimination processes them
last-to-first, which is also the direction induced width is measured
in.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Sequence

from .model import BeliefNetwork, CnfFormula, ModelError


@dataclass(frozen=True)
class Ordering:
    """A permutation of 0..n-1, stored first-to-last."""

    order: tuple[int, ...]

    def __post_init__(self):
        n = len(self.order)
        if sorted(self.order) != list(range(n)):
            raise ValueError(f"not a permutation of 0..{n - 1}: {self.order}")

    def __len__(self) -> int:
        return len(self.order)

    def __iter__(self):
        return iter(self.order)

    def position(self) -> dict[int, int]:
        return {v: i for i, v in enumerate(self.order)}


def augmented_graph(net: BeliefNetwork, phi: CnfFormula) -> list[set[int]]:
    """Moral graph plus a clique over each clause's variables."""
    cliques = [net.family(v) for v in net.variables()]
    for clause in phi.clauses:
        vs = clause.variables()
        if any(not 0 <= v < net.n for v in vs):
            raise ModelError(f"clause variable out of range in {clause}")
        cliques.append(vs)
    adj: list[set[int]] = [set() for _ in range(net.n)]
    for clique in cliques:
        for v in clique:
            adj[v].update(clique)
    for v, row in enumerate(adj):
        row.discard(v)
    return adj


def _eliminate(graph: list[set[int]], order: Ordering | None = None,
               observed: Iterable[int] = ()) -> tuple[Ordering, int]:
    """Eliminate every vertex last-to-first and return (order, width).

    With ``order`` None the order is chosen greedily: each step takes
    the minimum degree vertex of the shrinking graph, smallest index on
    ties, and fills the latest open slot.  Selection pops a lazy heap of
    (degree, vertex) entries: eliminating a vertex pushes a fresh entry
    for each neighbor, and a popped entry is skipped when its vertex is
    gone or its degree is out of date, so the whole pass costs
    O((n + fill) log n).

    Eliminating a vertex connects its remaining neighbors and the width
    is the largest neighbor count seen at that point.  An ``observed``
    vertex counts as a neighbor of others but contributes width 0 and
    adds no fill edges.
    """
    n = len(graph)
    greedy = order is None
    if not greedy:
        order = check_ordering(order, n)
    adj = [set(s) for s in graph]
    obs = set(observed)
    if greedy:
        slots = [0] * n
        gone = [False] * n
        heap = [(len(s), v) for v, s in enumerate(adj)]
        heapq.heapify(heap)
    else:
        slots = list(order.order)
    width = 0
    for slot in range(n - 1, -1, -1):
        if greedy:
            degree, v = heapq.heappop(heap)
            while gone[v] or degree != len(adj[v]):
                degree, v = heapq.heappop(heap)
            gone[v] = True
            slots[slot] = v
        else:
            v = slots[slot]
        neighbors = adj[v]
        fill = v not in obs
        if fill:
            width = max(width, len(neighbors))
        for a in neighbors:
            row = adj[a]
            if fill:
                row |= neighbors
                row.discard(a)
            row.discard(v)
            if greedy:
                heapq.heappush(heap, (len(row), a))
        adj[v] = set()
    return (Ordering(tuple(slots)) if greedy else order), width


def min_degree_order(graph: list[set[int]]) -> Ordering:
    """Greedy min-degree elimination ordering.

    Vertices are selected last-to-first: each step picks the minimum
    degree vertex of the shrinking graph (smallest index on ties),
    connects its neighbors, and removes it.  The selected vertex goes
    to the latest unfilled slot, so eliminating the returned order
    last-to-first replays the greedy choices.
    """
    return _eliminate(graph)[0]


def induced_width(graph: list[set[int]], ordering: Ordering) -> int:
    """Width of the graph induced by eliminating last-to-first.

    Eliminating a vertex connects its not-yet-eliminated neighbors; the
    width is the largest neighbor count seen at elimination time.
    """
    return _eliminate(graph, ordering)[1]


def adjusted_induced_width(
    graph: list[set[int]], ordering: Ordering, observed: Iterable[int]
) -> int:
    """Induced width that treats observed vertices as already assigned.

    An observed vertex contributes width 0 and adds no fill edges when
    eliminated, but it still counts as a neighbor of the unobserved
    vertices around it.
    """
    return _eliminate(graph, ordering, observed)[1]


def check_ordering(ordering: Sequence[int] | Ordering, n: int) -> Ordering:
    """``ordering`` as an Ordering; ModelError unless it covers 0..n-1."""
    if not isinstance(ordering, Ordering):
        ordering = Ordering(tuple(ordering))
    if len(ordering) != n:
        raise ModelError(f"ordering covers {len(ordering)} variables, network has {n}")
    return ordering
