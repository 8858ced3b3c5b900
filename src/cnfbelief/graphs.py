"""Interaction graphs, elimination orderings, and induced width.

A graph maps each of its vertices, which are network variables, to the
set of its neighbors; the vertices need not be 0..n-1.  The augmented
graph connects each covered variable to its CPT family (the moral
graph) and clique-connects the variables of every clause, extracted
or not.  Orderings are stored first-to-last; elimination
processes them last-to-first, which is also the direction induced
width is measured in.  One pass, ``_eliminate``, both orders and
measures: it completes a partial order greedily, by min degree or,
when asked, by min fill, and returns the ordering with its induced
width and the table entries it implies.  ``min_degree_order``,
``induced_width`` and ``adjusted_induced_width`` are min-degree calls
of it; the engine asks for min fill only where min degree's tables
are large (``engine._execute``).
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
    by default) plus a clique over each clause's variables, whatever its
    tag.  The vertices are the members of those cliques, so a parent or
    clause variable outside ``variables`` joins without a family of its
    own.  A variable of ``variables`` outside the network raises
    ModelError.  Clause variables are not checked: the front door
    (``transforms._ancestral``) has refused one outside the network
    before any graph is built."""
    return _augmented(net, [c.variables() for c in phi.clauses], variables)


def _augmented(net: BeliefNetwork, clauses: Iterable[Collection[int]],
               variables: Iterable[int] | None = None) -> dict[int, set[int]]:
    """``augmented_graph`` over each clause's variables (the engine's and
    ``_requisite``'s call)."""
    families = net.variables() if variables is None else net.check(variables)
    cliques = [net.family(v) for v in families] + list(clauses)
    adj = {v: set() for clique in cliques for v in clique}
    for clique in cliques:
        for v in clique:
            adj[v].update(clique)
    for v, row in adj.items():
        row.discard(v)
    return adj


def _eliminate(graph: dict[int, set[int]], tail: Sequence[int] = (), first: int | None = None,
               unfilled: Iterable[int] = (), discount: bool = False,
               min_fill: bool = False) -> tuple[Ordering, int, int]:
    """Eliminate every vertex last-to-first and return (order, width,
    entries).

    The order is partly given: the distinct vertices of ``tail`` take
    the last slots in their given order, so they are eliminated first,
    and ``first``, when given, takes slot 0, so it is eliminated last.
    The other slots are filled greedily, latest first, once the tail is
    gone: each step takes the minimum degree vertex of the shrinking
    graph other than ``first``, smallest vertex on ties, or with
    ``min_fill`` the one whose elimination adds the fewest fill edges,
    ties by degree and then vertex.  Selection pops a lazy heap of
    (degree, vertex) or (fill, degree, vertex) entries: eliminating a
    vertex pushes a fresh entry for each vertex whose score it changed,
    and a popped entry is skipped when its vertex is gone or its score
    is out of date, so a min-degree pass costs O((n + fill) log n).
    Fill counts are updated, not rescanned (Kjaerulff 1990): only the
    eliminated vertex's neighbors and the common neighbors of each fill
    edge change.  A ``tail`` that lists every vertex is a given order.

    Eliminating a vertex connects its remaining neighbors and the width
    is the largest neighbor count seen at that point.  An ``unfilled``
    vertex counts as a neighbor of others but adds no fill edges, so its
    fill is 0; with ``discount`` it also contributes width 0 (an
    observed vertex).  ``entries`` is the table entries the order
    implies: 2**(neighbors + 1) summed over the vertices that fill.
    """
    adj = {v: set(row) for v, row in graph.items()}
    no_fill = set(unfilled)
    slots = [first] * (len(adj) - len(tail)) + list(tail)
    lo, hi = first is not None, len(adj) - len(tail)  # the slots the greedy fills
    fill_in: dict[int, int] = {}  # min-fill: the edges eliminating each vertex would add

    def key(u: int) -> tuple[int, ...]:
        if min_fill:
            return 0 if u in no_fill else fill_in[u], len(adj[u]), u
        return len(adj[u]), u

    heap: list[tuple[int, ...]] = []  # empty until the greedy's first slot
    width = entries = 0
    for slot in range(len(slots) - 1, -1, -1):
        if lo <= slot < hi:
            if slot == hi - 1:  # the tail is gone: score what is left
                if min_fill:
                    fill_in = {u: _fill_in(adj, u) for u in adj}
                heap = [key(u) for u in adj]
                heapq.heapify(heap)
            entry = heapq.heappop(heap)
            while entry[-1] not in adj or entry[-1] == first or entry != key(entry[-1]):
                entry = heapq.heappop(heap)
            v = slots[slot] = entry[-1]
        else:
            v = slots[slot]
        neighbors = adj.pop(v)
        fill = v not in no_fill
        if fill or not discount:
            width = max(width, len(neighbors))
        if fill:
            entries += 2 << len(neighbors)
        if heap and min_fill:
            for u in _join_scored(adj, fill_in, v, neighbors, fill):
                heapq.heappush(heap, key(u))
        else:
            for a in neighbors:
                row = adj[a]
                if fill:
                    row |= neighbors
                    row.discard(a)
                row.discard(v)
                if heap:
                    heapq.heappush(heap, (len(row), a))
    return Ordering(tuple(slots)), width, entries


def _fill_in(adj: dict[int, set[int]], v: int) -> int:
    """The pairs of v's neighbors that are not adjacent."""
    row = adj[v]
    return sum(len(row - adj[a]) - 1 for a in row) // 2


def _join_scored(adj: dict[int, set[int]], fill_in: dict[int, int], v: int,
                 neighbors: set[int], fill: bool) -> set[int]:
    """Take v, already popped from ``adj``, out of its neighbors' rows,
    joining them first when ``fill``, and keep ``fill_in`` exact by
    adding each fill edge on its own; return the vertices whose fill or
    degree changed."""
    changed = set(neighbors)
    if fill:
        for a in neighbors:
            for b in neighbors - adj[a]:
                if a < b:
                    row_a, row_b = adj[a], adj[b]
                    common = row_a & row_b
                    # b meets a's neighbors, a meets b's, and the pair
                    # stops counting for every common neighbor
                    fill_in[a] += len(row_a) - len(common)
                    fill_in[b] += len(row_b) - len(common)
                    for c in common:
                        fill_in[c] -= 1
                    changed |= common
                    row_a.add(b)
                    row_b.add(a)
    for a in neighbors:
        row = adj[a]
        # the pairs (v, x) leave a's count, x a neighbor of a but not of v
        fill_in[a] -= len(row) - 1 - len(row & neighbors)
        row.discard(v)
    changed.discard(v)
    return changed


def min_degree_order(graph: dict[int, set[int]]) -> Ordering:
    """Greedy min-degree elimination ordering: ``_eliminate`` with no
    slot given, so eliminating it last-to-first replays its choices."""
    return _eliminate(graph)[0]


def induced_width(graph: dict[int, set[int]], ordering: Ordering) -> int:
    """Width of the graph induced by eliminating last-to-first.

    Eliminating a vertex connects its not-yet-eliminated neighbors; the
    width is the largest neighbor count seen at elimination time.  The
    ordering must list every vertex once.
    """
    return _eliminate(graph, _covering(ordering, graph).order)[1]


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
