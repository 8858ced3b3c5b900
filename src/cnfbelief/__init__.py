"""Exact inference of CNF query probabilities over binary belief
networks, via bucket elimination with integrated clause propagation."""

from .engine import (
    EngineConfig,
    ResourceLimitError,
    RunStats,
    TraceEntry,
)
from .fileio import ParseError, parse_dimacs, parse_network, serialize_cnf, serialize_network
from .generator import gen_network, gen_query
from .graphs import (
    Ordering,
    adjusted_induced_width,
    augmented_graph,
    induced_width,
    min_degree_order,
)
from .model import (
    BeliefNetwork,
    Clause,
    CnfFormula,
    Cpt,
    Factor,
    Literal,
    ModelError,
    cpt_factors,
)
from .oracle import brute_force_cpe
from .resolution import bdr_step, resolve
from .transforms import (
    ALGORITHMS,
    belief_given_cnf,
    conditional_cnf_probability,
    elim_cpe,
    elim_cpe_d,
    elim_hidden,
    evaluate,
    extract_clauses,
    hidden_embed,
    run_trace,
)

__version__ = "0.1.0"
