"""Exact inference of CNF query probabilities over binary belief
networks, via bucket elimination with integrated clause propagation."""

from .engine import (
    ContradictionError,
    EngineConfig,
    RunStats,
    TraceEntry,
    elim_cpe,
    run_trace,
)
from .fileio import ParseError, parse_dimacs, parse_network, serialize_cnf, serialize_network
from .generator import gen_network, gen_query
from .graphs import (
    Ordering,
    UndirectedGraph,
    adjusted_induced_width,
    augmented_graph,
    induced_width,
    min_degree_order,
    moral_graph,
)
from .model import (
    BeliefNetwork,
    Clause,
    CnfFormula,
    Cpt,
    Factor,
    Literal,
    ModelError,
    close_enough,
    cpt_to_factor,
    validate_network,
)
from .oracle import brute_force_cpe
from .resolution import bdr_step, resolve
from .transforms import (
    ALGORITHMS,
    belief_given_cnf,
    conditional_cnf_probability,
    elim_cpe_d,
    elim_hidden,
    evaluate,
    extract_clauses,
    hidden_embed,
)

__version__ = "0.1.0"
