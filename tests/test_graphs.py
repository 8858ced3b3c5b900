import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnfbelief import (
    BeliefNetwork,
    CnfFormula,
    Cpt,
    EngineConfig,
    ModelError,
    Ordering,
    adjusted_induced_width,
    augmented_graph,
    belief_given_cnf,
    engine,
    evaluate,
    extract_clauses,
    gen_network,
    gen_query,
    induced_width,
    min_degree_order,
    run_trace,
    transforms,
)
from cnfbelief.fileio import ParseError, parse_order
from cnfbelief.graphs import _eliminate, check_ordering
from cnfbelief.model import EXTRACTED, QUERY

from conftest import clause, formula, rows_and_tags

POS_MORAL_EDGES = {
    (0, 1), (0, 2), (0, 3), (1, 2), (1, 3),
    (1, 4), (2, 4), (3, 4), (3, 5), (4, 5),
}


def graph(n: int, edges=()) -> dict[int, set[int]]:
    adj: dict[int, set[int]] = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def relabel(g: dict[int, set[int]], names) -> dict[int, set[int]]:
    return {names[v]: {names[u] for u in row} for v, row in g.items()}


def complete(n: int) -> dict[int, set[int]]:
    return graph(n, itertools.combinations(range(n), 2))


def edge_set(g: dict[int, set[int]]) -> set[tuple[int, int]]:
    return {(u, v) for u, row in g.items() for v in row if u < v}


def star(n_leaves: int = 3) -> dict[int, set[int]]:
    return graph(n_leaves + 1, [(0, k) for k in range(1, n_leaves + 1)])


class TestUndirectedGraph:
    def test_copy_is_independent(self, pos_net, phi42):
        # each call builds fresh adjacency sets, so callers may mutate one
        g = augmented_graph(pos_net, phi42)
        h = augmented_graph(pos_net, phi42)
        h[0].add(5)
        h[5].add(0)
        assert edge_set(g) == POS_MORAL_EDGES
        assert edge_set(h) == POS_MORAL_EDGES | {(0, 5)}


class TestOrdering:
    def test_must_be_permutation(self):
        with pytest.raises(ModelError):
            check_ordering((0, 0, 1), 3)
        with pytest.raises(ModelError):
            check_ordering((1, 2), 2)

    def test_position(self):
        assert Ordering((2, 0, 1)).position() == {2: 0, 0: 1, 1: 2}

    def test_check_ordering_accepts_sequences(self):
        assert check_ordering([1, 0], 2) == Ordering((1, 0))
        o = Ordering((0, 1))
        assert check_ordering(o, 2) is o
        with pytest.raises(ModelError, match="covers 2 variables, network has 3"):
            check_ordering(o, 3)


class TestInteractionGraphs:
    def test_moral_graph_marries_parents(self, pos_net):
        assert edge_set(augmented_graph(pos_net, CnfFormula([]))) == POS_MORAL_EDGES

    def test_moral_graph_two_nodes(self, net2):
        assert edge_set(augmented_graph(net2, CnfFormula([]))) == {(0, 1)}

    def test_augmented_adds_clause_cliques(self):
        chain = BeliefNetwork(3, (
            Cpt(0, (), (0.5,)),
            Cpt(1, (0,), (0.3, 0.8)),
            Cpt(2, (1,), (0.3, 0.8)),
        ))
        phi = formula(clause(1, 3))
        g = augmented_graph(chain, phi)
        assert edge_set(g) == {(0, 1), (1, 2), (0, 2)}

    def test_augmented_no_new_edges_when_clauses_follow_families(self, pos_net, phi42):
        # every clause scope of phi42 is already married by some family
        assert edge_set(augmented_graph(pos_net, phi42)) == POS_MORAL_EDGES

    def test_augmented_has_no_self_loops(self, net2, pos_net, phi42):
        # a unit clause is a one-vertex clique, and every family holds its child
        for g in (augmented_graph(net2, formula(clause(-2))), augmented_graph(pos_net, phi42)):
            assert all(v not in row for v, row in g.items())

    def test_augmented_adds_boundary_vertices_without_families(self, pos_net):
        # F's family is B, C, F; the clause (C or D) adds D.  B and D join
        # without their families, so A is no vertex and B, D are not joined
        g = augmented_graph(pos_net, formula(clause(3, 4)), (4,))
        assert set(g) == {1, 2, 3, 4}
        assert edge_set(g) == {(1, 2), (1, 4), (2, 4), (2, 3)}

    def test_extracted_clauses_are_cliques(self, pos_net):
        # a clause's tag does not change the graph: (A or G) joins A and
        # G like any clause, and the unit (D) makes D a vertex
        phi = CnfFormula([clause(1, 6), clause(4), clause(2, 3)],
                         (EXTRACTED, EXTRACTED, QUERY))
        g = augmented_graph(pos_net, phi, (4,))
        assert set(g) == {0, 1, 2, 3, 4, 5}
        assert edge_set(g) == {(0, 5), (1, 2), (1, 4), (2, 4)}
        assert g == augmented_graph(pos_net, CnfFormula(phi.clauses), (4,))

    def test_the_engine_gets_extracted_clauses_inside_loaded_families(self, pos_net,
                                                                       monkeypatch):
        # what makes every clause a clique safe: each extracted clause
        # the engine receives lies in the family of a CPT it loads, so
        # dropping those clauses' cliques leaves the same graph; a
        # caller's (A or G), tagged extracted but in no family, reaches
        # it not exempt, as a query clause
        execute, received = transforms._execute, []

        def spied(net, variables, rows, exempt, *args):
            received.append((net, variables, rows, exempt))
            return execute(net, variables, rows, exempt, *args)

        monkeypatch.setattr(transforms, "_execute", spied)
        tagged = CnfFormula([clause(1, 6), clause(4), clause(2, 3)], (EXTRACTED, EXTRACTED, QUERY))
        for k, net, phi in [*seeded_instances(), (0, pos_net, tagged)]:
            for alg in ("cpe", "cpe-d", "hidden"):
                evaluate(net, phi, alg)
                for var in {(7 * k) % net.n, net.n - 1}:
                    belief_given_cnf(net, phi, var, alg)
            run_trace(net, phi.conjoin(extract_clauses(net)))
        extracted = 0
        for net, variables, rows, exempt in received:
            families = [set(net.family(v)) for v in variables]
            for row, flag in zip(rows, exempt):
                if flag:
                    extracted += 1
                    assert any({abs(s) - 1 for s in row} <= family for family in families), row
            phi = CnfFormula([clause(*row) for row in rows])
            others = CnfFormula([clause(*row) for row, flag in zip(rows, exempt) if not flag])
            assert augmented_graph(net, phi, variables) == augmented_graph(net, others, variables)
        assert extracted > 1000, extracted


class TestWidth:
    def test_cycle_has_width_two(self):
        g = graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert induced_width(g, Ordering((0, 1, 2, 3))) == 2

    def test_star_width_depends_on_ordering(self):
        g = star()
        # center eliminated first: all leaves are neighbors
        assert induced_width(g, Ordering((1, 2, 3, 0))) == 3
        # leaves eliminated first: each sees only the center
        assert induced_width(g, Ordering((0, 3, 2, 1))) == 1

    def test_min_degree_finds_width_one_on_star(self):
        g = star()
        o = min_degree_order(g)
        # leaf 1 is eliminated first, then 2; the degree-1 tie between
        # the shrunken center and leaf 3 goes to the smaller index
        assert o == Ordering((3, 0, 2, 1))
        assert induced_width(g, o) == 1

    def test_example_ordering_width(self, pos_net, phi42, d1):
        g = augmented_graph(pos_net, phi42)
        assert induced_width(g, d1) == 3

    def test_min_degree_on_example(self, pos_net, phi42):
        g = augmented_graph(pos_net, phi42)
        o = min_degree_order(g)
        assert o == Ordering((4, 3, 2, 1, 0, 5))
        assert induced_width(g, o) == 3

    def test_length_mismatch_rejected(self):
        with pytest.raises(ModelError, match="covers 2 variables, network has 4"):
            induced_width(star(), Ordering((0, 1)))

    def test_order_must_list_the_graph_vertices(self):
        g = relabel(graph(3, [(0, 1), (1, 2)]), (2, 5, 11))
        assert induced_width(g, Ordering((5, 2, 11))) == 1
        for order in ((2, 5), (2, 5, 11, 0), (0, 1, 2), (2, 5, 12)):
            with pytest.raises(ModelError):
                induced_width(g, Ordering(order))
            with pytest.raises(ModelError):
                adjusted_induced_width(g, Ordering(order), {5})


class TestAdjustedWidth:
    def test_observed_center_eliminates_fill(self):
        g = star()
        o = Ordering((1, 2, 3, 0))
        assert induced_width(g, o) == 3
        assert adjusted_induced_width(g, o, {0}) == 0

    def test_observed_vertex_still_counts_as_neighbor(self):
        g = star()
        o = Ordering((0, 3, 2, 1))
        # each leaf still sees the observed center, so the width is 1, not 0
        assert adjusted_induced_width(g, o, {0}) == 1

    def test_observed_chain_middle(self):
        g = graph(3, [(0, 1), (1, 2)])
        o = Ordering((2, 0, 1))
        assert induced_width(g, o) == 2
        assert adjusted_induced_width(g, o, {1}) == 0

    def test_no_observations_matches_plain_width(self, pos_net, phi42, d1):
        g = augmented_graph(pos_net, phi42)
        assert adjusted_induced_width(g, d1, ()) == induced_width(g, d1)


class TestOrderParsing:
    def test_round_trip(self):
        assert parse_order("2 0 1\n", 3) == Ordering((2, 0, 1))

    def test_rejects_bad_token(self):
        with pytest.raises(ParseError):
            parse_order("0 one 2", 3)

    @pytest.mark.parametrize("text", [
        "2 0_0 1",        # int() reads it as 0
        "2 +0 1",
        "\u0662 0 1",     # Arabic-Indic 2
    ])
    def test_rejects_numbers_outside_the_format(self, text):
        with pytest.raises(ParseError, match="bad ordering token"):
            parse_order(text, 3)

    def test_rejects_non_permutation(self):
        with pytest.raises(ParseError):
            parse_order("0 1 1", 3)
        with pytest.raises(ParseError):
            parse_order("0 1", 3)


# The quadratic greedy and the fill loops below are kept as the
# reference the heap-driven elimination must reproduce exactly.

def reference_min_degree_order(graph: dict[int, set[int]]) -> Ordering:
    work = {v: set(s) for v, s in graph.items()}
    alive = set(graph)
    slots: list[int] = [0] * len(graph)
    for slot in range(len(graph) - 1, -1, -1):
        v = min(alive, key=lambda u: (len(work[u]), u))
        slots[slot] = v
        neighbors = list(work[v])
        for i, a in enumerate(neighbors):
            for b in neighbors[i + 1:]:
                work[a].add(b)
                work[b].add(a)
        for a in neighbors:
            work[a].discard(v)
        work[v].clear()
        alive.discard(v)
    return Ordering(tuple(slots))


def reference_adjusted_width(graph: dict[int, set[int]], ordering: Ordering, observed=(),
                             count_observed=False) -> int:
    """Observed vertices add no fill; they count toward the width only
    with ``count_observed`` (engine's width_static, where they are the
    unit variables)."""
    obs = set(observed)
    work = {v: set(s) for v, s in graph.items()}
    width = 0
    for v in reversed(ordering.order):
        neighbors = list(work[v])
        if v not in obs or count_observed:
            width = max(width, len(neighbors))
        if v not in obs:
            for i, a in enumerate(neighbors):
                for b in neighbors[i + 1:]:
                    work[a].add(b)
                    work[b].add(a)
        for a in neighbors:
            work[a].discard(v)
        work[v].clear()
    return width


def unit_variables(phi: CnfFormula) -> tuple[int, ...]:
    return tuple(sorted({c.unit_literal().var for c in phi.clauses if c.is_unit()}))


def seeded_instances():
    """About 50 generated instances; every third query carries the
    network's extracted clauses too."""
    for k in range(50):
        rng = random.Random(9100 + k)
        n = rng.randint(3, 60)
        net = gen_network(n, rng.randint(1, 4), rng.choice((0.0, 0.3, 0.9)), seed=9100 + k)
        phi = gen_query(net, rng.randint(0, n // 4), rng.randint(0, n // 3), seed=9200 + k)
        if k % 3 == 0:
            phi = phi.conjoin(extract_clauses(net))
        yield k, net, phi


def seeded_cases():
    """The augmented graphs of the seeded instances, with the unit
    variables as the observed set."""
    for k, net, phi in seeded_instances():
        yield k, augmented_graph(net, phi), set(unit_variables(phi))


def hand_built_cases():
    return {
        "empty": graph(0),
        "single": graph(1),
        "isolated": graph(5),
        "isolated_and_edge": graph(5, [(1, 3)]),
        "star": star(5),
        "star_centered_last": graph(5, [(4, k) for k in range(4)]),
        "cycle": graph(7, [(i, (i + 1) % 7) for i in range(7)]),
        "complete": complete(6),
        "two_triangles": graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]),
    }


class TestMatchesReference:
    def test_seeded_augmented_graphs(self):
        for k, g, observed in seeded_cases():
            o = min_degree_order(g)
            assert o == reference_min_degree_order(g), k
            shuffled = list(g)
            random.Random(k).shuffle(shuffled)
            for order in (o, Ordering(tuple(shuffled))):
                assert induced_width(g, order) == reference_adjusted_width(g, order), k
                assert (adjusted_induced_width(g, order, observed)
                        == reference_adjusted_width(g, order, observed)), k
                assert (_eliminate(g, order.order, None, observed)[1]
                        == reference_adjusted_width(g, order, observed, count_observed=True)), k

    @pytest.mark.parametrize("name", sorted(hand_built_cases()))
    def test_hand_built_ties(self, name):
        g = hand_built_cases()[name]
        o = min_degree_order(g)
        assert o == reference_min_degree_order(g)
        assert induced_width(g, o) == reference_adjusted_width(g, o)
        observed = set(range(0, len(g), 2))
        assert (adjusted_induced_width(g, o, observed)
                == reference_adjusted_width(g, o, observed))
        assert (_eliminate(g, o.order, None, observed)[1]
                == reference_adjusted_width(g, o, observed, count_observed=True))

    @pytest.mark.parametrize("name", sorted(hand_built_cases()))
    def test_vertices_need_not_be_dense(self, name):
        # the ascending relabelling keeps every tie, so the greedy
        # makes the reference's choices under the new names
        g = hand_built_cases()[name]
        names = (2, 5, 11, 12, 20, 31, 40)[:len(g)]
        sparse = relabel(g, names)
        want = reference_min_degree_order(g)
        o = min_degree_order(sparse)
        assert o == Ordering(tuple(names[v] for v in want.order))
        assert induced_width(sparse, o) == reference_adjusted_width(g, want)
        observed = set(names[::2])
        assert (adjusted_induced_width(sparse, o, observed)
                == reference_adjusted_width(g, want, set(range(0, len(g), 2))))

    def test_ties_go_to_the_smallest_index(self):
        assert min_degree_order(graph(0)) == Ordering(())
        # no edges: every degree is 0, so 0 is taken first into the last slot
        assert min_degree_order(graph(4)) == Ordering((3, 2, 1, 0))
        assert min_degree_order(complete(4)) == Ordering((3, 2, 1, 0))
        assert induced_width(complete(4), Ordering((3, 2, 1, 0))) == 3

    def test_input_graph_is_left_alone(self):
        g = graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        before = {v: set(row) for v, row in g.items()}
        induced_width(g, min_degree_order(g))
        adjusted_induced_width(g, Ordering((0, 1, 2, 3)), {2})
        assert g == before


@st.composite
def graphs_and_units(draw):
    """A graph on up to 12 vertices, its units, and a vertex to pin
    first that is not one of them (None when every vertex is)."""
    n = draw(st.integers(0, 12))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    units = tuple(sorted(draw(st.sets(st.integers(0, n - 1))))) if n else ()
    others = sorted(set(range(n)) - set(units))
    first = draw(st.sampled_from(others)) if others else None
    return graph(n, edges), units, first


class TestOnePass:
    """``_eliminate`` orders and measures in one pass: with the units as
    its tail it gives the two steps it replaced, min-degree on the graph
    without the units with the units appended, and the induced width
    along that order."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(case=graphs_and_units())
    def test_units_last_is_min_degree_on_the_rest(self, case):
        g, units, _ = case
        rest = {v: row.difference(units) for v, row in g.items() if v not in units}
        ordering, width, _ = _eliminate(g, units, None, units)
        assert ordering == Ordering(min_degree_order(rest).order + units)
        assert width == _eliminate(g, ordering.order, None, units)[1]

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(case=graphs_and_units())
    def test_pinned_vertex_goes_first(self, case):
        g, units, first = case
        if first is None:
            return
        ordering, width, _ = _eliminate(g, units, first, units)
        assert ordering.order[0] == first
        assert ordering.order[len(g) - len(units):] == units
        assert sorted(ordering) == sorted(g)
        assert width == _eliminate(g, ordering.order, None, units)[1]

    def test_belief_runs_put_the_query_first(self):
        cfg = EngineConfig(dynamic_reorder=False)
        complete_runs = unit_runs = 0
        for k, net, phi in seeded_instances():
            var = (7 * k) % net.n
            _, stats, trace = engine._execute(net, tuple(net.variables()), *rows_and_tags(phi),
                                              None, cfg, engine.RunStats(), var)
            if len(trace) < net.n:
                continue  # a contradiction stopped the run
            complete_runs += 1
            # without reordering the buckets run last-to-first
            ordering = Ordering(tuple(entry.bucket for entry in reversed(trace)))
            units = unit_variables(phi)
            if var in units:
                # a unit query is ordered with the other units, not pinned
                unit_runs += 1
                assert ordering.order[len(ordering) - len(units):] == units, k
            else:
                assert ordering.order[0] == var, k
            assert stats.width_static == _eliminate(
                augmented_graph(net, phi), ordering.order, None, units)[1], k
        assert complete_runs >= 30 and unit_runs >= 3, (complete_runs, unit_runs)


def reference_min_fill(graph: dict[int, set[int]], tail=(), first=None, unfilled=()):
    """(order, width, entries) of ``_eliminate(..., min_fill=True)`` with
    every remaining vertex's fill counted afresh at each step, ties by
    (fill, degree, vertex); an unfilled vertex adds no fill, so it
    scores 0.  A tail that lists every vertex is a given order."""
    work = {v: set(s) for v, s in graph.items()}
    no_fill = set(unfilled)
    slots = [first] * (len(graph) - len(tail)) + list(tail)
    lo, hi = first is not None, len(graph) - len(tail)

    def score(u):
        fill = 0 if u in no_fill else sum(
            b not in work[a] for a, b in itertools.combinations(work[u], 2))
        return fill, len(work[u]), u

    width = entries = 0
    for slot in range(len(slots) - 1, -1, -1):
        if lo <= slot < hi:
            slots[slot] = min((u for u in work if u != first), key=score)
        v = slots[slot]
        neighbors = work.pop(v)
        width = max(width, len(neighbors))
        if v not in no_fill:
            entries += 2 ** (len(neighbors) + 1)
            for a, b in itertools.combinations(neighbors, 2):
                work[a].add(b)
                work[b].add(a)
        for a in neighbors:
            work[a].discard(v)
    return Ordering(tuple(slots)), width, entries


class TestMinFill:
    """``_eliminate(..., min_fill=True)`` updates fill counts as it adds
    fill edges instead of rescanning, and must choose as a rescan does."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=600)
    @given(case=graphs_and_units(), extra=st.sets(st.integers(0, 11)), pinned=st.booleans())
    def test_incremental_fill_matches_a_rescan(self, case, extra, pinned):
        g, units, first = case
        first = first if pinned else None
        # the units are the tail and unfilled; other unfilled vertices
        # score fill 0 wherever the greedy meets them
        unfilled = set(units) | (extra & set(g))
        assert (_eliminate(g, units, first, unfilled, min_fill=True)
                == reference_min_fill(g, units, first, unfilled))
        # entries along the min-degree order, given in full
        order, width, entries = _eliminate(g, units, first, unfilled)
        assert reference_min_fill(g, order.order, None, unfilled) == (order, width, entries)

    def test_fewest_fill_edges_first(self):
        # every vertex but 2 and 3 has degree 3; min-degree takes 0,
        # whose neighbours 1, 4, 5 need three fill edges, and ends at
        # width 4; min-fill takes 1, whose neighbours need two (0-2, 0-3)
        g = graph(6, [(0, 1), (0, 4), (0, 5), (1, 2), (1, 3), (2, 3),
                      (2, 4), (2, 5), (3, 4), (3, 5)])
        degree, fill = _eliminate(g), _eliminate(g, min_fill=True)
        assert (degree[0].order[-1], degree[1]) == (0, 4)
        assert (fill[0].order[-1], fill[1]) == (1, 3)
        assert fill[2] < degree[2]
        assert fill == reference_min_fill(g)


def default_ordering(net: BeliefNetwork, phi: CnfFormula) -> Ordering:
    """The engine's default over the whole network: min-degree on the
    augmented graph without phi's unit variables, then those, sorted."""
    units = unit_variables(phi)
    rest = {v: row.difference(units) for v, row in augmented_graph(net, phi).items()
            if v not in units}
    return Ordering(min_degree_order(rest).order + units)


class TestEvidenceAwareOrdering:
    """The engine's default ordering leaves phi's unit variables to the
    end, so they are observed first, and width_static lets a unit add
    no fill edges while still counting its neighbours."""

    def test_default_ordering_ends_with_the_sorted_units(self):
        cfg = EngineConfig(dynamic_reorder=False)
        complete_runs = 0
        for k, net, phi in seeded_instances():
            want = default_ordering(net, phi)
            # without reordering the buckets run last-to-first; a
            # contradiction stops the run early, after a suffix of them
            _, _, trace = engine._execute(net, tuple(net.variables()), *rows_and_tags(phi),
                                          None, cfg, engine.RunStats())
            processed = tuple(entry.bucket for entry in reversed(trace))
            assert want.order[len(want) - len(processed):] == processed, k
            complete_runs += len(processed) == len(want)
        assert complete_runs >= 40

    def test_width_static_matches_the_reference(self):
        for k, net, phi in seeded_instances():
            g = augmented_graph(net, phi)
            units = unit_variables(phi)
            rng = random.Random(k)
            orders = [None] + [Ordering(tuple(rng.sample(list(g), len(g)))) for _ in range(3)]
            for order in orders:
                _, stats, _ = engine._execute(net, tuple(net.variables()), *rows_and_tags(phi),
                                              order, None, engine.RunStats())
                along = order if order is not None else default_ordering(net, phi)
                assert stats.width_static == reference_adjusted_width(
                    g, along, units, count_observed=True), (k, order)
