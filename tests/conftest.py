"""Shared fixtures: the 2-node network and the 6-variable example
network in a fully positive and a partly deterministic variant.

Variable naming used throughout the tests: A,B,C,D,F,G = 0..5.
"""

import math

import pytest

from cnfbelief import BeliefNetwork, Clause, CnfFormula, Cpt, Literal, Ordering
from cnfbelief.model import EXTRACTED

A, B, C, D, F, G = range(6)

# verdict lines collected by test_acceptance.py; echoed after the run
# because the capture plugin swallows per-test output on success
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def clause(*codes: int) -> Clause:
    """Clause from signed 1-based literal codes, DIMACS style."""
    return Clause(Literal(abs(k) - 1, k > 0) for k in codes)


def row(*codes: int) -> frozenset[int]:
    """A clause in the form a run holds it: a frozenset of signed
    1-based literal codes."""
    return frozenset(codes)


def rows_and_tags(phi: CnfFormula) -> tuple[list[list[int]], list[bool]]:
    """phi's clauses as rows of signed 1-based literal codes, and the
    sum-exemption flag their tags give (True for extracted), as the
    front door hands them to the engine when each extracted clause is
    certain."""
    return ([[lit.signed() for lit in c.literals] for c in phi.clauses],
            [tag == EXTRACTED for tag in phi.provenance])


def formula(*clauses_: Clause) -> CnfFormula:
    return CnfFormula(clauses_)


def close_enough(a: float, b: float) -> bool:
    """Probability comparison used across the tests."""
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


@pytest.fixture
def net2() -> BeliefNetwork:
    # P(A=1)=0.6; P(B=1|A=0)=0.2, P(B=1|A=1)=0.9
    return BeliefNetwork(2, (
        Cpt(0, (), (0.6,)),
        Cpt(1, (0,), (0.2, 0.9)),
    ))


@pytest.fixture
def pos_net() -> BeliefNetwork:
    """Six-variable network, all entries strictly inside (0,1).

    Structure: A is a root; B and C depend on A; D on A,B; F on B,C;
    G on F,D.
    """
    return BeliefNetwork(6, (
        Cpt(A, (), (0.6,)),
        Cpt(B, (A,), (0.2, 0.9)),
        Cpt(C, (A,), (0.7, 0.5)),
        Cpt(D, (A, B), (0.1, 0.8, 0.3, 0.4)),
        Cpt(F, (B, C), (0.5, 0.25, 0.75, 0.6)),
        Cpt(G, (F, D), (0.9, 0.2, 0.35, 0.65)),
    ))


@pytest.fixture
def hyb_net() -> BeliefNetwork:
    """Same structure with functional pieces: G is the OR of F and D,
    and C is forced to 1 when A is 0."""
    return BeliefNetwork(6, (
        Cpt(A, (), (0.6,)),
        Cpt(B, (A,), (0.2, 0.9)),
        Cpt(C, (A,), (1.0, 0.5)),
        Cpt(D, (A, B), (0.1, 0.8, 0.3, 0.4)),
        Cpt(F, (B, C), (0.5, 0.25, 0.75, 0.6)),
        Cpt(G, (F, D), (0.0, 1.0, 1.0, 1.0)),
    ))


@pytest.fixture
def d1() -> Ordering:
    return Ordering((A, C, B, D, F, G))


@pytest.fixture
def phi42() -> CnfFormula:
    # (B or C) and (G or D) and (not D or not B)
    return formula(clause(2, 3), clause(6, 4), clause(-4, -2))


@pytest.fixture
def query_not_g() -> CnfFormula:
    return formula(clause(-6))
