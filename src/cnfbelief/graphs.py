"""Interaction graphs, elimination orderings, and induced width.

The moral graph connects each variable to its CPT family; the augmented
graph additionally clique-connects the variables of every clause.
Orderings are stored first-to-last; elimination processes them
last-to-first, which is also the direction induced width is measured
in.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Sequence

from .model import BeliefNetwork, CnfFormula, ModelError


class UndirectedGraph:
    """Simple undirected graph on vertices 0..n-1, no self-loops."""

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        self.n = n
        self.adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            self.add_edge(u, v)

    def add_edge(self, u: int, v: int) -> None:
        if u == v:
            raise ValueError(f"self-loop on vertex {u}")
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"edge ({u}, {v}) out of range")
        self.adj[u].add(v)
        self.adj[v].add(u)

    def add_clique(self, vertices: Iterable[int]) -> None:
        vs = list(vertices)
        for i, u in enumerate(vs):
            for v in vs[i + 1:]:
                if u != v:
                    self.add_edge(u, v)

    def neighbors(self, v: int) -> set[int]:
        return self.adj[v]

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def edge_set(self) -> set[tuple[int, int]]:
        return {(u, v) for u in range(self.n) for v in self.adj[u] if u < v}

    def copy(self) -> "UndirectedGraph":
        g = UndirectedGraph(self.n)
        g.adj = [set(s) for s in self.adj]
        return g


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


def moral_graph(net: BeliefNetwork) -> UndirectedGraph:
    """Connect each variable with its parents and marry the parents."""
    g = UndirectedGraph(net.n)
    for v in net.variables():
        g.add_clique(net.family(v))
    return g


def augmented_graph(net: BeliefNetwork, phi: CnfFormula) -> UndirectedGraph:
    """Moral graph plus a clique over each clause's variables."""
    g = moral_graph(net)
    for clause in phi.clauses:
        vs = clause.variables()
        if any(not 0 <= v < net.n for v in vs):
            raise ModelError(f"clause variable out of range in {clause}")
        g.add_clique(vs)
    return g


def _eliminate(graph: UndirectedGraph, order: Ordering | None = None,
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
    n = graph.n
    greedy = order is None
    if not greedy and len(order) != n:
        raise ValueError("ordering does not cover the graph")
    adj = graph.copy().adj
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


def min_degree_order(graph: UndirectedGraph) -> Ordering:
    """Greedy min-degree elimination ordering.

    Vertices are selected last-to-first: each step picks the minimum
    degree vertex of the shrinking graph (smallest index on ties),
    connects its neighbors, and removes it.  The selected vertex goes
    to the latest unfilled slot, so eliminating the returned order
    last-to-first replays the greedy choices.
    """
    return _eliminate(graph)[0]


def induced_width(graph: UndirectedGraph, ordering: Ordering) -> int:
    """Width of the graph induced by eliminating last-to-first.

    Eliminating a vertex connects its not-yet-eliminated neighbors; the
    width is the largest neighbor count seen at elimination time.
    """
    return _eliminate(graph, ordering)[1]


def adjusted_induced_width(
    graph: UndirectedGraph, ordering: Ordering, observed: Iterable[int]
) -> int:
    """Induced width that treats observed vertices as already assigned.

    An observed vertex contributes width 0 and adds no fill edges when
    eliminated, but it still counts as a neighbor of the unobserved
    vertices around it.
    """
    return _eliminate(graph, ordering, observed)[1]


def parse_order(text: str, n: int) -> Ordering:
    """Read a whitespace-separated variable order (first-to-last)."""
    try:
        values = tuple(int(tok) for tok in text.split())
    except ValueError as exc:
        raise ValueError(f"bad ordering token: {exc}") from None
    if len(values) != n or sorted(values) != list(range(n)):
        raise ValueError(f"ordering must list each of 0..{n - 1} exactly once")
    return Ordering(values)


def check_ordering(ordering: Sequence[int] | Ordering) -> Ordering:
    if isinstance(ordering, Ordering):
        return ordering
    return Ordering(tuple(ordering))
